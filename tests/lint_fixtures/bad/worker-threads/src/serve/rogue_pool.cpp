// Fixture: the serve whitelist names the checkpoint writer only; a second
// worker pool anywhere else in src/serve must still fail.
#include <thread>
#include <vector>

namespace fixture::serve {

void fan_out(int n) {
  std::vector<std::thread> workers;
  for (int i = 0; i < n; ++i) workers.emplace_back([] {});
  for (auto& w : workers) w.join();
  std::thread extra([] {});
  extra.join();
}

}  // namespace fixture::serve
