// System configuration: hierarchical machine shape, the paper's network and
// disk parameter tables (Section 5.1.1), and the operator cost model used
// by the simulated executor.

#ifndef HIERDB_SIM_CONFIG_H_
#define HIERDB_SIM_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/units.h"

namespace hierdb::sim {

/// Network parameters, verbatim from the paper's table (Section 5.1.1).
struct NetworkParams {
  /// Bandwidth is "infinite" in the paper (only CPU costs and latency
  /// matter). A value of 0 means infinite.
  double bandwidth_bytes_per_sec = 0.0;
  /// End-to-end transmission delay.
  SimTime end_to_end_delay = SimTime{500} * kMicrosecond;  // 0.5 ms
  /// CPU cost for sending one 8 KiB message, in instructions.
  double send_cpu_instr_per_8k = 10000.0;
  /// CPU cost for receiving one 8 KiB message, in instructions.
  double recv_cpu_instr_per_8k = 10000.0;
};

/// Disk parameters, verbatim from the paper's table (Section 5.1.1).
struct DiskParams {
  /// Rotational latency per access.
  SimTime latency = SimTime{17} * kMillisecond;
  /// Seek time per access.
  SimTime seek_time = SimTime{5} * kMillisecond;
  /// Sequential transfer rate.
  double transfer_bytes_per_sec = 6.0 * 1024 * 1024;  // 6 MB/s
  /// CPU cost to initiate an asynchronous I/O, in instructions.
  double async_init_instr = 5000.0;
  /// I/O cache size, in pages: a trigger activation covers this many pages
  /// and successive reads within the window hit the cache.
  uint32_t io_cache_pages = 8;
};

/// Per-tuple CPU cost model for the simulated operators. The paper
/// simulates operator execution ("query execution does not depend on
/// relation content"); these constants define the simulated work.
// Calibrated so that a 12-relation workload query runs 30-60 simulated
// minutes sequentially (the paper's constraint, Section 5.1.2), which makes
// execution CPU-bound as in the paper's evaluation.
struct CostModel {
  double scan_instr_per_tuple = 2000.0;   ///< read + predicate evaluation
  double build_instr_per_tuple = 600.0;   ///< hash-table insert
  double probe_instr_per_tuple = 1500.0;  ///< hash probe
  double result_instr_per_tuple = 400.0;  ///< result-tuple formation
  /// Aggregation (two-phase GROUP BY): per-tuple partial-table update and
  /// per-partial merge into the final group table.
  double agg_update_instr_per_tuple = 800.0;
  double agg_merge_instr_per_tuple = 500.0;
  /// Queue operation (enqueue or dequeue of one activation).
  double queue_op_instr = 150.0;
  /// Extra latch cost when a thread touches a queue that is not one of its
  /// primary queues (interference, Section 3.1).
  double nonprimary_latch_instr = 300.0;
  /// Dispatch overhead per activation (selection loop bookkeeping).
  double dispatch_instr = 50.0;
  /// Per-instruction multiplier slope modelling the KSR1 AllCache ring
  /// contention beyond 32 processors in one shared-memory node (Fig 8's
  /// bend). efficiency = 1 + slope * max(0, P - 32) / 32.
  double allcache_contention_slope = 0.18;
};

/// Whole-system configuration.
struct SystemConfig {
  uint32_t num_nodes = 1;        ///< number of SM-nodes
  uint32_t procs_per_node = 8;   ///< processors (= threads) per SM-node
  double mips = 40.0;            ///< per-processor speed (KSR1: 40 MIPS)
  uint32_t disks_per_proc = 1;   ///< paper: 1 disk per processor

  uint32_t page_size_bytes = 8192;
  uint32_t tuple_size_bytes = 100;

  /// Degree of fragmentation: buckets per operator, system wide. The paper
  /// uses a degree much higher than the degree of parallelism.
  uint32_t buckets_per_operator = 512;

  /// Tuples carried by one data activation (granularity increase by
  /// buffering, Section 3.1).
  uint32_t activation_batch_tuples = 128;

  /// Pages covered by one trigger activation (granularity reduction,
  /// Section 3.1; matched to the I/O cache window).
  uint32_t trigger_pages = 8;

  /// Asynchronous I/O window: how many I/O-blocked triggers of one scan a
  /// thread may keep in flight (prefetch depth).
  uint32_t io_prefetch_depth = 8;

  /// Bounded queue capacity, in activations (flow control, Section 3.1).
  /// Sized so a pipeline chain's working set stays in memory while leaving
  /// producers enough headroom to ride consumption bursts.
  uint32_t queue_capacity = 128;

  /// Producer-side buffering flushes a bucket's batch when it reaches
  /// min(activation_batch_tuples, bucket_share / pipeline_flush_chunks):
  /// small buckets still stream in a few chunks instead of sitting in the
  /// buffer until operator end (which would serialize pipeline stages).
  uint32_t pipeline_flush_chunks = 4;

  /// Hash-table space overhead factor over raw build-side bytes.
  double hash_table_overhead = 1.2;

  /// Memory available per SM-node for acquired work (global LB condition
  /// (i)); generous default so memory is not the binding constraint.
  uint64_t node_memory_bytes = 512ull * kMiB;

  /// Enables the AllCache contention factor (Fig 8 substitution).
  bool model_memory_hierarchy = true;

  /// Enables global (inter-node) load balancing.
  bool enable_global_lb = true;

  /// Primary-queue affinity on/off (ablation A3).
  bool primary_queue_affinity = true;

  NetworkParams net;
  DiskParams disk;
  CostModel cost;

  /// Effective ns per instruction on a node with `procs` processors,
  /// including the memory-hierarchy contention factor.
  double instr_ns(uint32_t procs_on_node) const {
    double eff = 1.0;
    if (model_memory_hierarchy && procs_on_node > 32) {
      eff += cost.allcache_contention_slope *
             (static_cast<double>(procs_on_node - 32) / 32.0);
    }
    return (1000.0 / mips) * eff;
  }

  std::string ToString() const;
};

}  // namespace hierdb::sim

#endif  // HIERDB_SIM_CONFIG_H_
