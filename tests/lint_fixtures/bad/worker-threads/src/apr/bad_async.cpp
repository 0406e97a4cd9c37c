// Fixture: async tasks and joining threads outside the worker pool must
// be flagged, bit-identity domain or not.
#include <future>
#include <thread>

namespace fixture {

int async_sum(int a, int b) {
  auto result = std::async(std::launch::async, [a, b] { return a + b; });
  std::packaged_task<int()> task([a] { return a; });
  std::jthread side([] {});
  return result.get();
}

}  // namespace fixture
