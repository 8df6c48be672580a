// Tests for the message substrate: codecs, mailboxes, the fabric's
// routing/accounting, and concurrent producer/consumer behaviour.

#include <cstdint>
#include <thread>

#include "gtest/gtest.h"
#include "net/fabric.h"
#include "net/message.h"

namespace hierdb::net {
namespace {

// A width x rows batch of distinct values, negatives included.
mt::Batch SomeBatch(uint32_t width, size_t rows, int64_t base = 0) {
  mt::Batch b(width);
  for (size_t i = 0; i < rows * width; ++i) {
    b.data().push_back(base + static_cast<int64_t>(i) * 7919 - 5000);
  }
  return b;
}

// The wire format written out one little-endian byte at a time, as a
// reference the block-copy encoder must match byte for byte.
void PutLE(std::vector<uint8_t>* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

std::vector<uint8_t> PerValueBatchBytes(const mt::Batch& b) {
  std::vector<uint8_t> out;
  PutLE(&out, b.width(), 4);
  PutLE(&out, b.data().size(), 8);
  for (int64_t v : b.data()) PutLE(&out, static_cast<uint64_t>(v), 8);
  return out;
}

void ExpectSameBatch(const mt::Batch& got, const mt::Batch& want) {
  EXPECT_EQ(got.width(), want.width());
  EXPECT_EQ(got.data(), want.data());
}

RowWorkBundle SomeWork() {
  RowWorkBundle work;
  work.op = 7;
  work.fragments.push_back({3, SomeBatch(2, 5, 100)});
  work.fragments.push_back({9, SomeBatch(2, 0)});
  work.activations.push_back({3, SomeBatch(4, 3, -7)});
  work.activations.push_back({9, SomeBatch(4, 1025, 11)});
  return work;
}

void ExpectSameWork(const RowWorkBundle& got, const RowWorkBundle& want) {
  EXPECT_EQ(got.op, want.op);
  ASSERT_EQ(got.fragments.size(), want.fragments.size());
  for (size_t i = 0; i < want.fragments.size(); ++i) {
    EXPECT_EQ(got.fragments[i].bucket, want.fragments[i].bucket);
    ExpectSameBatch(got.fragments[i].build_rows, want.fragments[i].build_rows);
  }
  ASSERT_EQ(got.activations.size(), want.activations.size());
  for (size_t i = 0; i < want.activations.size(); ++i) {
    EXPECT_EQ(got.activations[i].bucket, want.activations[i].bucket);
    ExpectSameBatch(got.activations[i].rows, want.activations[i].rows);
  }
}

// ----------------------------------------------------------- codecs ------

TEST(Codec, PrimitivesRoundTrip) {
  std::vector<uint8_t> buf;
  PutU32(&buf, 0xdeadbeef);
  PutU64(&buf, 0x0123456789abcdefULL);
  EXPECT_EQ(buf, (std::vector<uint8_t>{0xef, 0xbe, 0xad, 0xde, 0xef, 0xcd,
                                       0xab, 0x89, 0x67, 0x45, 0x23, 0x01}));
  Reader r(buf);
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(r.GetU32(&a));
  EXPECT_EQ(r.remaining(), 8u);
  ASSERT_TRUE(r.GetU64(&b));
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, ReaderUnderflowReturnsFalse) {
  std::vector<uint8_t> buf = {1, 2, 3};
  Reader r(buf);
  uint32_t v;
  EXPECT_FALSE(r.GetU32(&v));
  EXPECT_EQ(r.remaining(), 3u);
  uint8_t raw[3];
  ASSERT_TRUE(r.Take(raw, 3));
  EXPECT_EQ(raw[2], 3);
  EXPECT_TRUE(r.Take(raw, 0));
  EXPECT_FALSE(r.Take(raw, 1));
}

// The block copy writes exactly the per-value little-endian format.
TEST(Codec, BatchGoldenBytes) {
  mt::Batch b(3);
  b.data() = {1, -2, 0x0102030405060708LL, 255, 256, INT64_MIN};
  const std::vector<uint8_t> want = {
      3, 0, 0, 0,                                      // width
      6, 0, 0, 0, 0, 0, 0, 0,                          // count
      1, 0, 0, 0, 0, 0, 0, 0,                          // 1
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // -2
      8, 7, 6, 5, 4, 3, 2, 1,                          // 0x0102030405060708
      0xff, 0, 0, 0, 0, 0, 0, 0,                       // 255
      0, 1, 0, 0, 0, 0, 0, 0,                          // 256
      0, 0, 0, 0, 0, 0, 0, 0x80,                       // INT64_MIN
  };
  EXPECT_EQ(EncodeBatch(b), want);
  EXPECT_EQ(PerValueBatchBytes(b), want);
}

TEST(Codec, BatchRoundTrip) {
  for (uint32_t width : {1u, 3u, 10u}) {
    for (size_t rows : {size_t{0}, size_t{1}, size_t{1025}}) {
      SCOPED_TRACE(testing::Message() << width << " x " << rows);
      const mt::Batch b = SomeBatch(width, rows, width * 1000);
      const auto buf = EncodeBatch(b);
      EXPECT_EQ(buf, PerValueBatchBytes(b));
      auto decoded = DecodeBatch(buf);
      ASSERT_TRUE(decoded.ok());
      ExpectSameBatch(decoded.value(), b);
      EXPECT_EQ(decoded.value().rows(), rows);
    }
  }
}

TEST(Codec, RowWorkRoundTrip) {
  const RowWorkBundle work = SomeWork();
  const auto buf = EncodeRowWork(work);
  std::vector<uint8_t> want;
  PutLE(&want, work.op, 4);
  PutLE(&want, work.fragments.size(), 8);
  for (const auto& f : work.fragments) {
    PutLE(&want, f.bucket, 4);
    auto b = PerValueBatchBytes(f.build_rows);
    want.insert(want.end(), b.begin(), b.end());
  }
  PutLE(&want, work.activations.size(), 8);
  for (const auto& a : work.activations) {
    PutLE(&want, a.bucket, 4);
    auto b = PerValueBatchBytes(a.rows);
    want.insert(want.end(), b.begin(), b.end());
  }
  EXPECT_EQ(buf, want);
  auto decoded = DecodeRowWork(buf);
  ASSERT_TRUE(decoded.ok());
  ExpectSameWork(decoded.value(), work);
}

TEST(Codec, RowWorkWithoutFragmentsOrRowsRoundTrips) {
  RowWorkBundle no_fragments = SomeWork();
  no_fragments.fragments.clear();
  RowWorkBundle empty_activations = SomeWork();
  for (auto& a : empty_activations.activations) a.rows.Clear();
  RowWorkBundle no_activations = SomeWork();
  no_activations.activations.clear();
  for (const RowWorkBundle* w :
       {&no_fragments, &empty_activations, &no_activations}) {
    auto decoded = DecodeRowWork(EncodeRowWork(*w));
    ASSERT_TRUE(decoded.ok());
    ExpectSameWork(decoded.value(), *w);
  }
}

TEST(Codec, TruncatedPayloadsRejected) {
  auto batch = EncodeBatch(SomeBatch(3, 4));
  batch.pop_back();
  EXPECT_FALSE(DecodeBatch(batch).ok());
  auto work = EncodeRowWork(SomeWork());
  for (size_t keep : {work.size() - 1, work.size() / 2, size_t{3}}) {
    std::vector<uint8_t> cut(work.begin(), work.begin() + keep);
    EXPECT_FALSE(DecodeRowWork(cut).ok()) << keep;
  }
}

TEST(Codec, TrailingBytesRejected) {
  auto batch = EncodeBatch(SomeBatch(3, 4));
  batch.push_back(0);
  EXPECT_FALSE(DecodeBatch(batch).ok());
  auto work = EncodeRowWork(SomeWork());
  work.push_back(0);
  EXPECT_FALSE(DecodeRowWork(work).ok());
}

// Hand-made headers whose count disagrees with the width or the payload.
std::vector<uint8_t> BatchHeader(uint32_t width, uint64_t count,
                                 size_t value_bytes) {
  std::vector<uint8_t> out;
  PutLE(&out, width, 4);
  PutLE(&out, count, 8);
  out.resize(out.size() + value_bytes, 0);
  return out;
}

TEST(Codec, InconsistentBatchHeadersRejected) {
  // count not a multiple of width
  EXPECT_FALSE(DecodeBatch(BatchHeader(3, 4, 32)).ok());
  // width 0 with values
  EXPECT_FALSE(DecodeBatch(BatchHeader(0, 1, 8)).ok());
  EXPECT_TRUE(DecodeBatch(BatchHeader(0, 0, 0)).ok());
  // 2^61 values: 2^64 bytes, which wraps to 0 in 64-bit arithmetic. It
  // must fail on the bounds check, before any allocation is attempted.
  EXPECT_FALSE(DecodeBatch(BatchHeader(1, uint64_t{1} << 61, 0)).ok());
  EXPECT_FALSE(DecodeBatch(BatchHeader(1, uint64_t{1} << 61, 64)).ok());
  // the same inside a work bundle's activation
  std::vector<uint8_t> work;
  PutLE(&work, 1, 4);
  PutLE(&work, 0, 8);
  PutLE(&work, 1, 8);
  PutLE(&work, 5, 4);
  auto bad = BatchHeader(1, uint64_t{1} << 61, 8);
  work.insert(work.end(), bad.begin(), bad.end());
  EXPECT_FALSE(DecodeRowWork(work).ok());
}

TEST(Codec, MsgTypeNamesAreDistinct) {
  EXPECT_STREQ(MsgTypeName(MsgType::kStarving), "Starving");
  EXPECT_STREQ(MsgTypeName(MsgType::kWork), "Work");
  EXPECT_STREQ(MsgTypeName(MsgType::kOpTerminated), "OpTerminated");
}

// ----------------------------------------------------------- mailbox -----

TEST(Mailbox, FifoOrder) {
  Mailbox mb;
  for (uint32_t i = 0; i < 5; ++i) {
    Message m;
    m.type = MsgType::kStarving;
    m.arg = i;
    mb.Push(std::move(m));
  }
  Message out;
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(mb.TryPop(&out));
    EXPECT_EQ(out.arg, i);
  }
  EXPECT_FALSE(mb.TryPop(&out));
}

// ------------------------------------------------------------ fabric -----

TEST(Fabric, RoutesToDestination) {
  Fabric fabric({.nodes = 3});
  Message m;
  m.type = MsgType::kStarving;
  m.arg = 42;
  ASSERT_TRUE(fabric.Send(0, 2, std::move(m)).ok());
  Message out;
  ASSERT_TRUE(fabric.mailbox(2).TryPop(&out));
  EXPECT_EQ(out.from, 0u);
  EXPECT_EQ(out.arg, 42u);
  EXPECT_EQ(fabric.mailbox(1).ApproxSize(), 0u);
}

TEST(Fabric, RejectsSelfSend) {
  Fabric fabric({.nodes = 2});
  EXPECT_FALSE(fabric.Send(1, 1, Message{}).ok());
}

TEST(Fabric, RejectsOutOfRangeNodes) {
  Fabric fabric({.nodes = 2});
  EXPECT_FALSE(fabric.Send(0, 5, Message{}).ok());
  EXPECT_FALSE(fabric.Send(5, 0, Message{}).ok());
}

TEST(Fabric, BroadcastReachesAllOthers) {
  Fabric fabric({.nodes = 4});
  Message m;
  m.type = MsgType::kStarving;
  ASSERT_TRUE(fabric.Broadcast(1, m).ok());
  EXPECT_EQ(fabric.mailbox(0).ApproxSize(), 1u);
  EXPECT_EQ(fabric.mailbox(1).ApproxSize(), 0u);
  EXPECT_EQ(fabric.mailbox(2).ApproxSize(), 1u);
  EXPECT_EQ(fabric.mailbox(3).ApproxSize(), 1u);
  EXPECT_EQ(fabric.stats().messages, 3u);
}

TEST(Fabric, AccountsBytesAndTypes) {
  Fabric fabric({.nodes = 2});
  Message m;
  m.type = MsgType::kWork;
  m.payload = EncodeBatch(SomeBatch(2, 10));
  uint64_t expected = m.wire_bytes();
  ASSERT_TRUE(fabric.Send(0, 1, std::move(m)).ok());
  auto s = fabric.stats();
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.bytes, expected);
  EXPECT_EQ(s.by_type[static_cast<size_t>(MsgType::kWork)], 1u);
  EXPECT_EQ(s.by_type[static_cast<size_t>(MsgType::kStarving)], 0u);
}

TEST(Fabric, ConcurrentSendersAllDelivered) {
  Fabric fabric({.nodes = 4});
  constexpr int kPerSender = 500;
  std::vector<std::thread> senders;
  for (uint32_t from = 1; from < 4; ++from) {
    senders.emplace_back([&, from] {
      for (int i = 0; i < kPerSender; ++i) {
        Message m;
        m.type = MsgType::kTupleBatch;
        m.arg = from * 10000 + i;
        ASSERT_TRUE(fabric.Send(from, 0, std::move(m)).ok());
      }
    });
  }
  for (auto& t : senders) t.join();
  uint64_t received = 0;
  Message out;
  while (fabric.mailbox(0).TryPop(&out)) ++received;
  EXPECT_EQ(received, 3u * kPerSender);
  EXPECT_EQ(fabric.stats().messages, 3u * kPerSender);
}


}  // namespace
}  // namespace hierdb::net
