#include "net/message.h"

#include <bit>
#include <cstring>

namespace hierdb::net {

// The codec copies native integers to and from the wire, which is the
// little-endian format only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "net codec assumes a little-endian host");

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kStarving: return "Starving";
    case MsgType::kOffer: return "Offer";
    case MsgType::kAcquire: return "Acquire";
    case MsgType::kWork: return "Work";
    case MsgType::kNoWork: return "NoWork";
    case MsgType::kEndOfQueuesAtNode: return "EndOfQueuesAtNode";
    case MsgType::kDrainConfirm: return "DrainConfirm";
    case MsgType::kOpTerminated: return "OpTerminated";
    case MsgType::kTupleBatch: return "TupleBatch";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kShutdown: return "Shutdown";
  }
  return "Unknown";
}

namespace {

void PutBytes(std::vector<uint8_t>* out, const void* src, size_t n) {
  const auto* p = static_cast<const uint8_t*>(src);
  out->insert(out->end(), p, p + n);
}

constexpr size_t kBatchHeaderBytes = sizeof(uint32_t) + sizeof(uint64_t);

size_t EncodedBatchBytes(const mt::Batch& batch) {
  return kBatchHeaderBytes + batch.bytes();
}

// The one batch encoder: header, then the values as one block.
void AppendBatch(std::vector<uint8_t>* out, const mt::Batch& batch) {
  PutU32(out, batch.width());
  PutU64(out, batch.data().size());
  PutBytes(out, batch.data().data(), batch.bytes());
}

// Validates the header against the bytes left before allocating, so a
// corrupt count fails here instead of in the allocator.
bool DecodeBatchFrom(Reader* r, mt::Batch* out) {
  uint32_t width;
  uint64_t n;
  if (!r->GetU32(&width) || !r->GetU64(&n)) return false;
  if (width == 0 ? n > 0 : n % width != 0) return false;
  if (n > r->remaining() / sizeof(int64_t)) return false;
  *out = mt::Batch(width);
  out->data().resize(n);
  return r->Take(out->data().data(), n * sizeof(int64_t));
}

}  // namespace

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  PutBytes(out, &v, sizeof(v));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutBytes(out, &v, sizeof(v));
}

bool Reader::Take(void* dst, size_t n) {
  if (n > remaining()) return false;
  if (n > 0) std::memcpy(dst, buf_.data() + pos_, n);
  pos_ += n;
  return true;
}

std::vector<uint8_t> EncodeBatch(const mt::Batch& batch) {
  std::vector<uint8_t> out;
  out.reserve(EncodedBatchBytes(batch));
  AppendBatch(&out, batch);
  return out;
}

Result<mt::Batch> DecodeBatch(const std::vector<uint8_t>& buf) {
  Reader r(buf);
  mt::Batch out;
  if (!DecodeBatchFrom(&r, &out) || !r.exhausted()) {
    return Status::Internal("malformed row batch payload");
  }
  return out;
}

std::vector<uint8_t> EncodeRowWork(const RowWorkBundle& work) {
  size_t bytes = sizeof(uint32_t) + 2 * sizeof(uint64_t);
  for (const auto& f : work.fragments) {
    bytes += sizeof(uint32_t) + EncodedBatchBytes(f.build_rows);
  }
  for (const auto& a : work.activations) {
    bytes += sizeof(uint32_t) + EncodedBatchBytes(a.rows);
  }
  std::vector<uint8_t> out;
  out.reserve(bytes);
  PutU32(&out, work.op);
  PutU64(&out, work.fragments.size());
  for (const auto& f : work.fragments) {
    PutU32(&out, f.bucket);
    AppendBatch(&out, f.build_rows);
  }
  PutU64(&out, work.activations.size());
  for (const auto& a : work.activations) {
    PutU32(&out, a.bucket);
    AppendBatch(&out, a.rows);
  }
  return out;
}

Result<RowWorkBundle> DecodeRowWork(const std::vector<uint8_t>& buf) {
  Reader r(buf);
  RowWorkBundle work;
  uint64_t nfrag, nact;
  if (!r.GetU32(&work.op) || !r.GetU64(&nfrag)) {
    return Status::Internal("malformed row work header");
  }
  for (uint64_t i = 0; i < nfrag; ++i) {
    RowFragment f;
    if (!r.GetU32(&f.bucket) || !DecodeBatchFrom(&r, &f.build_rows)) {
      return Status::Internal("malformed row work fragment");
    }
    work.fragments.push_back(std::move(f));
  }
  if (!r.GetU64(&nact)) return Status::Internal("malformed row work count");
  for (uint64_t i = 0; i < nact; ++i) {
    RowActivation a;
    if (!r.GetU32(&a.bucket) || !DecodeBatchFrom(&r, &a.rows)) {
      return Status::Internal("malformed row work activation");
    }
    work.activations.push_back(std::move(a));
  }
  if (!r.exhausted()) return Status::Internal("trailing bytes in row work");
  return work;
}

}  // namespace hierdb::net
