// perfbench workloads: star_skew, bushy_cluster and refresh_open, each run
// against the public api::Session surface. See perfbench/README.md for why
// each exists and which layer metric should move which end-to-end metric.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: measure the end-to-end metrics with tracing off. true: the
  /// traced run — alternate untraced and traced blocks and report the
  /// per-layer metrics of the traced ones.
  bool trace = false;
  /// Overrides the workload's threads_per_node (0 = the workload's own);
  /// used by the discrimination check, never by the recorded runs.
  uint32_t threads_per_node = 0;
  /// Where the traced run writes its Chrome trace ("" = not written).
  std::string trace_path;
};

struct RunOutput {
  /// False on any digest mismatch, a template whose reference did not
  /// validate, or an invalid trace export.
  bool correct = true;
  Tally tally;                  ///< every query attempted in the window
  std::vector<Metric> metrics;  ///< end-to-end (trace 0) or per-layer
  /// Extra report members, each a `"key": value` JSON fragment.
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. Unknown names return correct = false
/// with a note.
RunOutput RunWorkload(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
