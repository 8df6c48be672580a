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
//     kHeartbeat         node -> all: "my scheduler is stepping", sent
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
//
// Row batch format (kTupleBatch, and each fragment and activation inside
// kWork): `u32 width, u64 count, count x i64` row-major values. A batch is
// encoded as the 12-byte header plus one block copy of the batch's values,
// and decoded by one bounds check, one resize and one block copy, so the
// codec costs a memcpy per batch, not a shift loop per value. The bytes
// equal the per-value little-endian encoding because the codec only builds
// for little-endian hosts (a static_assert in message.cc); there is no
// byte-swapping path.

#ifndef HIERDB_NET_MESSAGE_H_
#define HIERDB_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "mt/row.h"

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
// Payload codecs (little-endian; see the format note above).

void PutU32(std::vector<uint8_t>* out, uint32_t v);
void PutU64(std::vector<uint8_t>* out, uint64_t v);

/// Cursor-based reader; Get*/Take return false on underflow and then
/// leave the cursor where it was.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}
  bool GetU32(uint32_t* v) { return Take(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return Take(v, sizeof(*v)); }
  /// Copies the next `n` raw bytes into `dst`.
  bool Take(void* dst, size_t n);
  size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

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
