// Typed messages for inter-node communication.
//
// SM-nodes communicate only by message passing (Section 2.1). The real
// cluster executor exchanges exactly the message kinds the paper's
// protocol needs:
//
//   global load balancing (§3.2/§4):
//     kStarving          requester -> all: "I have no local work", carries
//                        available memory;
//     kOffer             provider -> requester: best candidate queue
//                        (benefit/overhead) + provider load;
//     kAcquire           requester -> chosen provider: send me that queue;
//     kWork              provider -> requester: probe activations + the
//                        hash-table fragment they probe;
//     kNoWork            provider -> requester: nothing stealable;
//
//   operator-end detection (§4):
//     kEndOfQueuesAtNode node -> coordinator: all my queues of op X are
//                        inactive;
//     kDrainConfirm      node -> coordinator: no thread still processes X;
//     kOpTerminated      coordinator -> all: X is globally finished,
//                        unblock dependents;
//
//   liveness (fault detection):
//     kHeartbeat         node -> all: "my scheduler loop is alive", sent
//                        on a fixed cadence when liveness detection is
//                        enabled, so a stalled or crashed peer surfaces
//                        as silence instead of a hang;
//
//   dataflow:
//     kTupleBatch        pipelined tuples whose consumer lives on another
//                        node (only when operator homes differ). Also
//                        carries inter-chain repartition traffic: when a
//                        chain scans a prior chain's distributed
//                        intermediate, the rows rehash by the consuming
//                        join's key and rows homed on other nodes ship
//                        here. `bucket` is a build batch's bucket, or
//                        UINT32_MAX for a probe batch whose rows may fall
//                        in any of the destination's home buckets.
//
// Payloads are flat byte buffers with explicit little-endian encoding; the
// envelope counts bytes so experiments can report transfer volumes
// (Section 5.3 compares FP ≈ 9 MB vs DP ≈ 2.5 MB on the chain workload).

#ifndef HIERDB_NET_MESSAGE_H_
#define HIERDB_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mt/row.h"
#include "mt/tuple.h"

namespace hierdb::net {

enum class MsgType : uint8_t {
  kStarving = 0,
  kOffer,
  kAcquire,
  kWork,
  kNoWork,
  kEndOfQueuesAtNode,
  kDrainConfirm,
  kOpTerminated,
  kTupleBatch,
  kHeartbeat,
  kShutdown,  // keep last: stats arrays are sized kShutdown + 1
};

const char* MsgTypeName(MsgType t);

struct Message {
  MsgType type = MsgType::kShutdown;
  uint32_t from = 0;          ///< sender node id
  uint32_t op = 0;            ///< operator id, when meaningful
  uint32_t bucket = 0;        ///< bucket id, when meaningful
  uint64_t arg = 0;           ///< type-specific scalar (memory, load, ...)
  /// Per-sender sequence number stamped by Fabric::Send. Receivers use it
  /// to deduplicate when fault injection duplicates deliveries.
  uint64_t seq = 0;
  std::vector<uint8_t> payload;

  /// Wire size: envelope + payload, the quantity the transfer-volume
  /// experiments account.
  uint64_t wire_bytes() const { return 24 + payload.size(); }
};

// ---------------------------------------------------------------------
// Payload codecs. All encodings are explicit little-endian so the format
// is stable across hosts (and so tests can corrupt specific offsets).

void PutU32(std::vector<uint8_t>* out, uint32_t v);
void PutU64(std::vector<uint8_t>* out, uint64_t v);
void PutI64(std::vector<uint8_t>* out, int64_t v);

/// Cursor-based reader; Get* return false on underflow.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

/// Encodes a batch of tuples (a data activation's contents).
std::vector<uint8_t> EncodeTuples(const std::vector<mt::Tuple>& tuples);
Result<std::vector<mt::Tuple>> DecodeTuples(const std::vector<uint8_t>& buf);

/// A hash-table fragment shipped with acquired probe work: the build
/// tuples of one bucket (the requester rebuilds the table locally, which
/// costs less than shipping pointer-linked structures).
struct TableFragment {
  uint32_t op = 0;      ///< the build operator the fragment came from
  uint32_t bucket = 0;
  std::vector<mt::Tuple> build_tuples;
};

std::vector<uint8_t> EncodeFragment(const TableFragment& frag);
Result<TableFragment> DecodeFragment(const std::vector<uint8_t>& buf);

/// Work bundle for kWork: a table fragment plus the probe activations
/// (tuple batches) stolen from the provider's queue.
struct WorkBundle {
  TableFragment fragment;
  std::vector<std::vector<mt::Tuple>> probe_batches;
};

std::vector<uint8_t> EncodeWork(const WorkBundle& work);
Result<WorkBundle> DecodeWork(const std::vector<uint8_t>& buf);

// ---------------------------------------------------------------------
// Multi-column row payloads (used by the cluster executor, whose pipelined
// rows widen as they flow — see mt/row.h).

/// Encodes a row batch (width + flat row-major data).
std::vector<uint8_t> EncodeBatch(const mt::Batch& batch);
Result<mt::Batch> DecodeBatch(const std::vector<uint8_t>& buf);

/// A bucket-tagged row batch: one data activation on the wire.
struct RowActivation {
  uint32_t bucket = 0;
  mt::Batch rows;
};

/// A bucket's build rows, shipped so a requester can rebuild the bucket's
/// hash table locally.
struct RowFragment {
  uint32_t bucket = 0;
  mt::Batch build_rows;
};

/// Work acquired through global load balancing (Section 3.2/4): the rows
/// of probe activations taken from the provider's queues, one activation
/// per bucket, plus the hash-table fragments of every referenced bucket
/// the requester does not already cache.
struct RowWorkBundle {
  uint32_t op = 0;
  std::vector<RowFragment> fragments;
  std::vector<RowActivation> activations;

  uint64_t fragment_rows() const {
    uint64_t n = 0;
    for (const auto& f : fragments) n += f.build_rows.rows();
    return n;
  }
};

std::vector<uint8_t> EncodeRowWork(const RowWorkBundle& work);
Result<RowWorkBundle> DecodeRowWork(const std::vector<uint8_t>& buf);

}  // namespace hierdb::net

#endif  // HIERDB_NET_MESSAGE_H_
