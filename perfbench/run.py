#!/usr/bin/env python3
"""The repository benchmark: builds hierdb and the perfbench binary from
source, then runs one workload against the public api::Session surface.

  python3 perfbench/run.py --workload star_skew --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and is reused by later runs. Standard output ends
with one JSON line {"correct", "attempted", "failed", "metrics"}; the lines
before it are the host block and the run report. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    """Configures once, then builds `targets`; all tool output to stderr."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)
    return bdir


def source_id():
    """The git commit when the checkout has one, plus a digest of the
    sources the benchmark builds (a checkout without .git still gets a
    stable identity)."""
    commit = "no-git"
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = os.path.join(git, ref)
            if os.path.exists(path):
                with open(path) as f:
                    commit = f.read().strip()
            else:
                with open(os.path.join(git, "packed-refs")) as f:
                    for line in f:
                        if line.rstrip().endswith(" " + ref):
                            commit = line.split()[0]
        else:
            commit = head
    except OSError:
        pass
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "%s+src-sha256:%s" % (commit[:12], h.hexdigest()[:16])


def run_workload(args):
    bdir = build(["hierdb_perfbench"])
    cmd = [os.path.join(bdir, "hierdb_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            bdir, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.threads_per_node:
        cmd += ["--threads-per-node", str(args.threads_per_node)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=min(170, 120 + 2 * args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        ok_shape = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        ok_shape = False
    if not ok_shape:
        sys.stderr.write(proc.stdout)
        print("perfbench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


def selftest():
    """Harness unit tests, plus: the metrics the binary emits are exactly
    the ones BENCHMARK.json declares, and it runs every declared workload."""
    bdir = build(["hierdb_perfbench", "perfbench_harness_test"])
    failed = subprocess.run([os.path.join(bdir, "perfbench_harness_test")]
                            ).returncode != 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([os.path.join(bdir, "hierdb_perfbench"),
                             "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    emitted = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit, better = line.split()
        emitted[kind].append({"name": name, "unit": unit, "better": better})
    for kind in ("end_to_end", "per_layer"):
        declared = [{k: m[k] for k in ("name", "unit", "better")}
                    for m in spec[kind]]
        if declared != emitted[kind]:
            print("selftest: %s metrics differ from BENCHMARK.json:\n  "
                  "declared %s\n  emitted  %s" % (kind, declared,
                                                  emitted[kind]))
            failed = True
    names = subprocess.run([os.path.join(bdir, "hierdb_perfbench"),
                            "--list-workloads"], stdout=subprocess.PIPE,
                           text=True, check=True).stdout.split()
    missing = [w["name"] for w in spec["workloads"] if w["name"] not in names]
    if missing:
        print("selftest: BENCHMARK.json workloads %s are not runnable" % missing)
        failed = True
    print("selftest: %s" % ("FAILED" if failed else "ok"))
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads-per-node", type=int, default=0,
                   help="override the workload's threads per node "
                        "(discrimination checks only)")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            p.error("--workload is required")
        return run_workload(args)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
