// Simulated interconnection network between SM-nodes.
//
// Per the paper's parameter table: infinite bandwidth, 0.5 ms end-to-end
// delay, and 10000 instructions of CPU per 8 KiB at both the sender and the
// receiver. The CPU costs are returned to the caller (the SM-node scheduler
// threads burn them); the network itself only adds the propagation delay.

#ifndef HIERDB_SIM_NETWORK_H_
#define HIERDB_SIM_NETWORK_H_

#include <cstdint>
#include <functional>

#include "sim/config.h"
#include "sim/simulator.h"

namespace hierdb::sim {

/// Network transfer statistics, split by purpose so the harness can report
/// the paper's Section 5.3 numbers (data moved by global load balancing vs
/// regular pipeline traffic vs control messages).
struct NetworkStats {
  uint64_t messages = 0;
  uint64_t bytes_total = 0;
  uint64_t bytes_pipeline = 0;   ///< inter-node dataflow (tuple batches)
  uint64_t bytes_loadbalance = 0;  ///< stolen activations + hash tables
  uint64_t bytes_control = 0;    ///< starving/end-detection protocol
};

enum class TrafficClass { kPipeline, kLoadBalance, kControl };

/// Point-to-point message-passing network with uniform delay.
class Network {
 public:
  Network(Simulator* simt, const NetworkParams& params)
      : sim_(simt), params_(params) {}

  /// CPU instructions the sender must burn before the message departs.
  double SendCpuInstr(uint64_t bytes) const {
    return params_.send_cpu_instr_per_8k *
           (static_cast<double>(bytes) / 8192.0);
  }

  /// CPU instructions the receiver must burn on delivery.
  double RecvCpuInstr(uint64_t bytes) const {
    return params_.recv_cpu_instr_per_8k *
           (static_cast<double>(bytes) / 8192.0);
  }

  /// Ships `bytes` from one node to another; `on_delivery` fires after the
  /// end-to-end delay (the caller is responsible for charging the CPU
  /// costs via SendCpuInstr/RecvCpuInstr).
  void Send(uint32_t from_node, uint32_t to_node, uint64_t bytes,
            TrafficClass cls, EventFn on_delivery);

  const NetworkStats& stats() const { return stats_; }

 private:
  Simulator* sim_;
  NetworkParams params_;
  NetworkStats stats_;
};

}  // namespace hierdb::sim

#endif  // HIERDB_SIM_NETWORK_H_
