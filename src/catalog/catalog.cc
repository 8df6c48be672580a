#include "catalog/catalog.h"

#include <algorithm>

namespace hierdb::catalog {

RelId Catalog::AddRelation(std::string name, uint64_t cardinality,
                           uint32_t tuple_bytes) {
  RelId id = static_cast<RelId>(relations_.size());
  relations_.push_back(
      Relation{id, std::move(name), cardinality, tuple_bytes});
  return id;
}

SizeRanges SizeRanges::Scaled(double scale) const {
  auto s = [scale](uint64_t v) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(v * scale));
  };
  SizeRanges r;
  r.small_lo = s(small_lo);
  r.small_hi = s(small_hi);
  r.medium_lo = s(medium_lo);
  r.medium_hi = s(medium_hi);
  r.large_lo = s(large_lo);
  r.large_hi = s(large_hi);
  return r;
}

}  // namespace hierdb::catalog
