// Fixture: asking how many threads the host has, or which thread is
// running, starts no thread; the worker-threads rule allows both.
#include <functional>
#include <thread>

namespace fixture::serve {

unsigned host_threads() { return std::thread::hardware_concurrency(); }

bool same_thread(std::thread::id a, std::thread::id b) { return a == b; }

}  // namespace fixture::serve
