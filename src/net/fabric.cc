#include "net/fabric.h"

#include <thread>

namespace hierdb::net {

void Mailbox::Push(Message&& m) {
  std::lock_guard<std::mutex> lock(mu_);
  items_.push_back(std::move(m));
}

bool Mailbox::TryPop(Message* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (items_.empty()) return false;
  *out = std::move(items_.front());
  items_.pop_front();
  return true;
}

size_t Mailbox::ApproxSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

Fabric::Fabric(const FabricOptions& options) : options_(options) {
  HIERDB_CHECK(options_.nodes > 0, "fabric needs at least one node");
  mailboxes_.reserve(options_.nodes);
  for (uint32_t i = 0; i < options_.nodes; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    send_seq_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  stats_.by_type.assign(static_cast<size_t>(MsgType::kShutdown) + 1, 0);
  stats_.bytes_by_type.assign(static_cast<size_t>(MsgType::kShutdown) + 1, 0);
}

Status Fabric::Send(uint32_t from, uint32_t to, Message m) {
  if (from >= options_.nodes || to >= options_.nodes) {
    return Status::OutOfRange("node id out of range in Send");
  }
  if (from == to) {
    return Status::InvalidArgument(
        "intra-node traffic must use shared memory, not the fabric");
  }
  m.from = from;
  m.seq = 1 + send_seq_[from]->fetch_add(1, std::memory_order_relaxed);
  // The send's one event: node = sender, worker = destination node,
  // detail = wire bytes.
  obs::FlightRecorder* rec = options_.recorder;
  if (rec != nullptr) {
    rec->Instant(obs::EventKind::kFabricSend, options_.recorder_query,
                 m.wire_bytes(), static_cast<int32_t>(from),
                 static_cast<int32_t>(to), static_cast<int32_t>(m.op));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.messages;
    stats_.bytes += m.wire_bytes();
    ++stats_.by_type[static_cast<size_t>(m.type)];
    stats_.bytes_by_type[static_cast<size_t>(m.type)] += m.wire_bytes();
    if (m.type == MsgType::kTupleBatch) {
      if (stats_.tuple_bytes_by_op.size() <= m.op) {
        stats_.tuple_bytes_by_op.resize(m.op + 1, 0);
      }
      stats_.tuple_bytes_by_op[m.op] += m.wire_bytes();
    }
  }
  // Fault injection: the single choke point for message faults. Shutdown
  // is exempt (see FabricOptions::injector).
  fault::FaultInjector* inj = options_.injector;
  bool duplicate = false;
  if (inj != nullptr && inj->armed() && m.type != MsgType::kShutdown &&
      m.type != MsgType::kHeartbeat) {
    if (inj->ShouldDropMessage()) {
      if (rec != nullptr) {
        rec->Instant(obs::EventKind::kFabricDrop, options_.recorder_query,
                     m.wire_bytes(), static_cast<int32_t>(from),
                     static_cast<int32_t>(to));
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.dropped;
      return Status::OK();  // silently lost, as on a real network
    }
    duplicate = inj->ShouldDuplicateMessage();
    if (inj->ShouldDelayMessage()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.delayed;
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(inj->plan().delay_us));
    }
  }
  if (options_.delay.count() > 0) {
    std::this_thread::sleep_for(options_.delay);
  }
  if (duplicate) {
    if (rec != nullptr) {
      rec->Instant(obs::EventKind::kFabricDup, options_.recorder_query,
                   m.wire_bytes(), static_cast<int32_t>(from),
                   static_cast<int32_t>(to));
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.duplicated;
    }
    mailboxes_[to]->Push(Message(m));  // same seq: receiver dedups
  }
  mailboxes_[to]->Push(std::move(m));
  return Status::OK();
}

Status Fabric::Broadcast(uint32_t from, const Message& m) {
  for (uint32_t to = 0; to < options_.nodes; ++to) {
    if (to == from) continue;
    HIERDB_RETURN_NOT_OK(Send(from, to, m));
  }
  return Status::OK();
}

FabricStats Fabric::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace hierdb::net
