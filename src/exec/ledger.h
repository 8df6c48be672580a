// Emission ledgers: exact, deterministic apportionment of an operator's
// output tuples over the consumer's buckets.
//
// The simulator models data contents numerically (the paper does the same:
// "query execution does not depend on relation content"). A ledger tracks,
// for one producer operator, how many of its output tuples have been
// emitted to each consumer bucket, and guarantees that after the producer
// has consumed its entire input, every bucket has received exactly its
// (possibly Zipf-skewed) share — so downstream tuple conservation is exact
// and operator-end detection can rely on it.

#ifndef HIERDB_EXEC_LEDGER_H_
#define HIERDB_EXEC_LEDGER_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace hierdb::exec {

class EmissionLedger {
 public:
  /// `input_total`: producer input tuples; `bucket_shares`: output tuples
  /// owed to each consumer bucket (sum = producer output total).
  EmissionLedger(uint64_t input_total, std::vector<uint64_t> bucket_shares);

  /// Registers `input_consumed` more input tuples and returns the output
  /// emissions due: a list of (bucket, tuple-count) pairs. Deterministic;
  /// after input_total tuples every bucket has exactly its share.
  std::vector<std::pair<uint32_t, uint64_t>> Emit(uint64_t input_consumed);

  uint64_t input_total() const { return input_total_; }
  uint64_t output_total() const { return output_total_; }
  bool Exhausted() const { return input_seen_ == input_total_; }

 private:
  uint64_t input_total_;
  uint64_t input_seen_ = 0;
  uint64_t output_total_ = 0;
  uint64_t output_emitted_ = 0;
  std::vector<uint64_t> shares_;
  std::vector<uint64_t> emitted_;
};

}  // namespace hierdb::exec

#endif  // HIERDB_EXEC_LEDGER_H_
