// hierdb_perfbench — the repository benchmark's binary.
//
//   hierdb_perfbench --workload star_skew --seed 3 --seconds 10 --trace 0
//
// Prints, one JSON object per line: the host block, the run report
// (sample counts, outcome split, generator lateness), and last the result
// line {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when any
// result digest differed from its reference, 2 on bad arguments.
//
// Flags beyond the contract:
//   --threads-per-node N  override the workload's threads per node
//                         (discrimination checks)
//   --trace-out PATH      where the traced run writes its Chrome trace
//   --commit ID           source identity for the host block
//   --list-metrics        print "name unit better" per metric and exit
//   --list-workloads      print the workload names and exit

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::JsonNumber;
using perfbench::JsonString;

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "hierdb_perfbench: %s\nusage: hierdb_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--threads-per-node N] "
               "[--trace-out PATH] [--commit ID]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const auto* table : {&perfbench::EndToEndMetrics(),
                                &perfbench::PerLayerMetrics()}) {
        const char* kind =
            table == &perfbench::EndToEndMetrics() ? "end_to_end" : "per_layer";
        for (const auto& m : *table) {
          std::printf("%s %s %s %s\n", kind, m.name, m.unit, m.better);
        }
      }
      return 0;
    }
    if (a == "--list-workloads") {
      for (const auto& w : perfbench::WorkloadNames()) {
        std::printf("%s\n", w.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      cfg.trace = std::strtol(v.c_str(), &end, 10) != 0;
    } else if (a == "--threads-per-node") {
      cfg.threads_per_node =
          static_cast<uint32_t>(std::strtoul(v.c_str(), &end, 10));
    } else if (a == "--trace-out") {
      cfg.trace_path = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return Usage("--seconds must be positive");

  std::printf(
      "{\"host\": {\"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
      "\"commit\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"threads_per_node_override\": %u}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), JsonString(Compiler()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(commit).c_str(),
      JsonString(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), JsonNumber(cfg.seconds).c_str(),
      cfg.trace ? 1 : 0, cfg.threads_per_node);
  std::fflush(stdout);

  const perfbench::RunOutput out = perfbench::RunWorkload(cfg);

  std::string report = "{\"report\": {";
  for (size_t i = 0; i < out.notes.size(); ++i) {
    report += (i ? ", " : "") + out.notes[i];
  }
  std::printf("%s}}\n", report.c_str());
  if (out.tally.attempted == 0) {
    std::fprintf(stderr, "hierdb_perfbench: no query was attempted\n");
    return 1;
  }
  std::printf("%s\n", perfbench::ResultLine(out.correct, out.tally.attempted,
                                            out.tally.not_ok(), out.metrics)
                          .c_str());
  return out.correct ? 0 : 1;
}
