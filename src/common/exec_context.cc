#include "common/exec_context.h"

#include <thread>
#include <vector>

namespace hierdb {

void ThreadSpawnContext::SpawnWorkers(
    uint32_t n, const std::function<void(uint32_t)>& body) {
  if (n == 0) return;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    threads.emplace_back([&body, i] { body(i); });
  }
  for (auto& t : threads) t.join();
}

}  // namespace hierdb
