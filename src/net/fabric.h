// In-process interconnect between SM-nodes.
//
// The paper's cluster couples SM-nodes with a high-speed network whose
// cost model is: infinite bandwidth, 0.5 ms end-to-end delay, 10000
// instructions of CPU per 8 KB sent and per 8 KB received (§5.1.1 table).
// The Fabric reproduces the *interface* — message passing with per-node
// mailboxes served by each node's scheduler — on one multi-core host, and
// accounts every message and byte so the real cluster executor can report
// the same transfer-volume numbers the paper does. An optional injected
// delay approximates the end-to-end latency for experiments that need it;
// tests keep it at zero for determinism.

#ifndef HIERDB_NET_FABRIC_H_
#define HIERDB_NET_FABRIC_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "fault/fault.h"
#include "net/message.h"
#include "obs/recorder.h"

namespace hierdb::net {

struct FabricOptions {
  uint32_t nodes = 1;
  /// Simulated end-to-end delay applied by Send (paper: 0.5 ms). Zero for
  /// deterministic unit tests.
  std::chrono::microseconds delay{0};
  /// Optional fault injector (not owned; must outlive the fabric). When
  /// armed, Send may drop, duplicate, or delay messages per the plan.
  /// kShutdown is exempt (losing shutdown would turn injected faults
  /// into unconditional hangs), as is kHeartbeat (the liveness layer's
  /// own traffic: a lost heartbeat is already just absence of signal,
  /// and counting it as a dropped message would flag clean runs).
  fault::FaultInjector* injector = nullptr;
  /// Session flight recorder (obs/recorder.h): Send mirrors every message
  /// as a kFabricSend instant — and injected drops/duplicates as
  /// kFabricDrop/kFabricDup — into the always-on black box. Null = one
  /// pointer check per Send.
  obs::FlightRecorder* recorder = nullptr;
  /// Query sequence tag for recorder events (0 = untagged).
  uint64_t recorder_query = 0;
};

struct FabricStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  /// Per message-type counts and wire bytes, indexed by MsgType.
  std::vector<uint64_t> by_type;
  std::vector<uint64_t> bytes_by_type;
  /// kTupleBatch wire bytes per destination operator (grown on demand), so
  /// executors can split the dataflow traffic per consumer — e.g. the
  /// cluster executor attributes inter-chain repartition traffic to the
  /// chain whose intermediate was shipped.
  std::vector<uint64_t> tuple_bytes_by_op;
  /// Injected faults that fired in Send (zero unless a plan is armed).
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t delayed = 0;
};

/// MPSC mailbox: many senders, one receiver at a time (the node's
/// scheduler step, which polls it and never blocks).
class Mailbox {
 public:
  void Push(Message&& m);
  bool TryPop(Message* out);
  size_t ApproxSize() const;

 private:
  mutable std::mutex mu_;
  std::deque<Message> items_;
};

class Fabric {
 public:
  explicit Fabric(const FabricOptions& options);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  uint32_t nodes() const { return options_.nodes; }

  /// Delivers `m` to node `to`'s mailbox (stamps m.from = from).
  Status Send(uint32_t from, uint32_t to, Message m);

  /// Sends a copy to every node except `from`.
  Status Broadcast(uint32_t from, const Message& m);

  Mailbox& mailbox(uint32_t node) { return *mailboxes_[node]; }

  FabricStats stats() const;

 private:
  FabricOptions options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  /// Per-sender sequence counters; Send stamps Message::seq so receivers
  /// can deduplicate injected duplicates.
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> send_seq_;
  mutable std::mutex stats_mu_;
  FabricStats stats_;
};

}  // namespace hierdb::net

#endif  // HIERDB_NET_FABRIC_H_
