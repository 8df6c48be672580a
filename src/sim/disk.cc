#include "sim/disk.h"

#include <algorithm>

namespace hierdb::sim {

void Disk::SubmitRead(uint32_t pages, EventFn on_complete) {
  SimTime start = std::max(sim_->Now(), next_free_);
  double bytes = static_cast<double>(pages) * page_size_;
  SimTime transfer = static_cast<SimTime>(
      bytes / params_.transfer_bytes_per_sec * static_cast<double>(kSecond));
  SimTime service = params_.latency + params_.seek_time + transfer;
  next_free_ = start + service;
  busy_time_ += service;
  pages_read_ += pages;
  sim_->ScheduleAt(next_free_, std::move(on_complete));
}

}  // namespace hierdb::sim
