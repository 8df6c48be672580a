#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full test suite.
set -euo pipefail
cd "$(dirname "$0")/.."
cmake -B build -S . && cmake --build build -j && cd build && \
  ctest --output-on-failure -j

# Trace smoke: run the observability walkthrough in a scratch dir. It
# executes a traced 2-join + GROUP BY query on all three backends and
# self-validates the exported Chrome traces, plan DOTs and the session
# metrics snapshot (non-zero exit on any failure).
smoke_dir="$(mktemp -d)"
(cd "$smoke_dir" && "$OLDPWD/observability_trace")
rm -rf "$smoke_dir"

# Admission-core smoke: a 10k-query mixed-tenant burst over all four
# admission policies, checked for the scheduler invariants (one event-loop
# thread, deep backlog, exact counter reconciliation) and for the
# light-load latency/miss-rate anchors against the committed
# BENCH_admission.json (generous 10x factors). Runs from the repo root so
# --check finds the baseline.
(cd .. && ./build/mt_admission --quick --check)

# Chaos smoke: a 200-query cluster stream under seeded 1% message drop
# with a periodically stalled node; --check enforces the robustness gates
# (zero digest mismatches, zero untyped failures, >= 99% survival with
# max_retries=2 + kThreads fallback).
(cd .. && ./build/mt_chaos --quick --check)

# Forensics smoke: the flight-recorder walkthrough forces a mid-run
# deadline miss in a scratch dir and self-checks the emitted bundle
# (files present, flight.json passes ValidateChromeTraceJson, the
# deadline lifecycle is in the recording).
smoke_dir="$(mktemp -d)"
(cd "$smoke_dir" && "$OLDPWD/flight_recorder")
rm -rf "$smoke_dir"

# Recorder-overhead smoke: armed-vs-disarmed throughput on the same
# query stream (trial pairs in alternating order); --check fails the
# build if the median per-pair overhead of the always-on flight recorder
# exceeds 5% of disarmed qps.
smoke_dir="$(mktemp -d)"
(cd "$smoke_dir" && "$OLDPWD/mt_recorder_overhead" --quick --check)
rm -rf "$smoke_dir"
