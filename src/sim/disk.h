// Simulated disks.
//
// Each disk serves requests FIFO. An access costs latency + seek + pages *
// page_size / transfer_rate. The asynchronous-initiation CPU cost (5000
// instructions) is charged by the *caller* on its own processor, exactly as
// in the paper's pseudo-code (IO_InitAsync burns CPU, IO_Read polls).

#ifndef HIERDB_SIM_DISK_H_
#define HIERDB_SIM_DISK_H_

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/simulator.h"

namespace hierdb::sim {

/// One simulated disk with FIFO service discipline.
class Disk {
 public:
  Disk(Simulator* simt, const DiskParams& params, uint32_t page_size)
      : sim_(simt), params_(params), page_size_(page_size) {}

  /// Submits an asynchronous read of `pages` pages. `on_complete` fires at
  /// the virtual time the data is in memory.
  void SubmitRead(uint32_t pages, EventFn on_complete);

  uint64_t pages_read() const { return pages_read_; }
  /// Total time this disk spent servicing requests.
  SimTime busy_time() const { return busy_time_; }

 private:
  Simulator* sim_;
  DiskParams params_;
  uint32_t page_size_;
  SimTime next_free_ = 0;
  uint64_t pages_read_ = 0;
  SimTime busy_time_ = 0;
};

/// A bank of disks (per SM-node: one per processor in the paper's setup).
class DiskArray {
 public:
  DiskArray(Simulator* simt, const DiskParams& params, uint32_t page_size,
            uint32_t count) {
    disks_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      disks_.emplace_back(simt, params, page_size);
    }
  }

  Disk& disk(uint32_t i) { return disks_[i % disks_.size()]; }
  uint32_t size() const { return static_cast<uint32_t>(disks_.size()); }

  uint64_t total_pages_read() const {
    uint64_t n = 0;
    for (const auto& d : disks_) n += d.pages_read();
    return n;
  }

 private:
  std::vector<Disk> disks_;
};

}  // namespace hierdb::sim

#endif  // HIERDB_SIM_DISK_H_
