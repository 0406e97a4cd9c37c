// Fixture: src/parallel/thread_pool.cpp is whitelisted for the
// worker-threads rule — it is the one worker pool.  Elsewhere a
// std::thread in prose is masked, and hardware_concurrency / thread::id
// are queries that every file may make (see hardware_query.cpp).
#include <thread>
#include <vector>

namespace fixture {

void spawn(unsigned n) {
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) threads.emplace_back([] {});
  for (auto& t : threads) t.join();
}

}  // namespace fixture
