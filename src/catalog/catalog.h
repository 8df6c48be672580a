// Relation catalog.
//
// Because operator execution is simulated (exactly as in the paper, Section
// 5.1), a relation is fully described by its cardinality and tuple width.
// Relations are horizontally partitioned across SM-nodes and, within a
// node, across disks; the partitioning itself is computed by the execution
// compiler from the system configuration.

#ifndef HIERDB_CATALOG_CATALOG_H_
#define HIERDB_CATALOG_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hierdb::catalog {

using RelId = uint32_t;

/// Cardinality classes used by the query generator (Section 5.1.2).
enum class RelSize { kSmall, kMedium, kLarge };

/// One base relation.
struct Relation {
  RelId id = 0;
  std::string name;
  uint64_t cardinality = 0;
  uint32_t tuple_bytes = 100;

  uint64_t bytes() const { return cardinality * tuple_bytes; }
};

/// The set of base relations referenced by a query.
class Catalog {
 public:
  RelId AddRelation(std::string name, uint64_t cardinality,
                    uint32_t tuple_bytes = 100);

  const Relation& relation(RelId id) const {
    HIERDB_CHECK(id < relations_.size(), "relation id out of range");
    return relations_[id];
  }
  Relation& relation(RelId id) {
    HIERDB_CHECK(id < relations_.size(), "relation id out of range");
    return relations_[id];
  }

  uint32_t size() const { return static_cast<uint32_t>(relations_.size()); }
  const std::vector<Relation>& relations() const { return relations_; }

 private:
  std::vector<Relation> relations_;
};

/// Cardinality ranges for the generator's size classes (paper values:
/// small 10K-20K, medium 100K-200K, large 1M-2M tuples). `scale` shrinks
/// all ranges proportionally for fast benchmark runs.
struct SizeRanges {
  uint64_t small_lo = 10'000, small_hi = 20'000;
  uint64_t medium_lo = 100'000, medium_hi = 200'000;
  uint64_t large_lo = 1'000'000, large_hi = 2'000'000;

  SizeRanges Scaled(double scale) const;
};

}  // namespace hierdb::catalog

#endif  // HIERDB_CATALOG_CATALOG_H_
