// The serve workloads' inputs, generated from --seed alone.
#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

namespace {

// bench_serve's six families: tiny C, the two gzip defects, a web server
// and two Defects4J programs.
const std::array<const char*, 6> kLightFamilies = {
    "units",   "gzip-2009-08-16", "gzip-2009-09-26",
    "Chart26", "Math8",           "lighttpd-1806-1807",
};

// Slow-probe families (about 14 us per probe on a 2000-mutation pool).
const std::array<const char*, 3> kHeavyFamilies = {
    "libtiff-2005-12-14", "lighttpd-1806-1807", "Closure13"};

// fleet and heavy share one pool per family across every tenant.  The
// pool is part of the scenario, like the family itself: with a pool drawn
// from the seed, one pool's repairability moved a whole run's work by up
// to 1.7x (fleet 833-1405 campaigns/s over five seeds), so the seed varies
// the tenants' repair seeds and the family order instead.
constexpr std::uint64_t kFleetPoolSeed = 11;
constexpr std::uint64_t kHeavyPoolSeed = 11;

mwr::serve::SubmitRequest light_request(const char* family,
                                        std::uint64_t pool_seed,
                                        std::uint64_t repair_seed,
                                        bool tiny) {
  mwr::serve::SubmitRequest request;
  request.scenario = family;
  request.bugs = 4;
  request.pool_target = 150;
  request.pool_attempts = 10000;
  request.pool_seed = pool_seed;
  request.arms = 16;
  request.agents = 4;
  request.max_count = 128;
  request.max_iterations = tiny ? 40 : 200;
  request.repair_seed = repair_seed;
  return request;
}

mwr::serve::SubmitRequest heavy_request(const char* family,
                                        std::uint64_t pool_seed,
                                        std::uint64_t repair_seed,
                                        bool tiny) {
  mwr::serve::SubmitRequest request;
  request.scenario = family;
  request.bugs = tiny ? 1 : 3;
  // 2000 stays under the oracle's 2048-member pooled-table limit.
  request.pool_target = tiny ? 300 : 2000;
  request.pool_attempts = 20000;
  request.pool_seed = pool_seed;
  request.arms = 32;
  request.agents = tiny ? 16 : 64;
  request.max_count = tiny ? 256 : 1024;
  // 40 cycles per bug: at 100 the share of bugs repaired early moved a
  // round's work enough that campaigns/s spread 20% over ten seeds (4% at
  // 40, where most bugs run to the cap).
  request.max_iterations = tiny ? 20 : 40;
  request.repair_seed = repair_seed;
  return request;
}

}  // namespace

ServeWorkload make_serve_workload(const Options& options) {
  InputRng rng(options.seed * 0x2545f4914f6cdd1dULL + 0x1234567ULL);
  ServeWorkload w;
  w.name = options.workload;
  const bool tiny = options.tiny;
  if (w.name == "fleet") {
    // Every tenant shares its family's pool (one pool_seed).
    const std::uint64_t pool_seed = kFleetPoolSeed;
    const std::size_t n = tiny ? 60 : 2000;
    for (const char* family : kLightFamilies)
      w.warmup.push_back(light_request(family, pool_seed, rng.next(), tiny));
    const std::size_t first = rng.below(kLightFamilies.size());
    for (std::size_t i = 0; i < n; ++i) {
      const char* family = kLightFamilies[(first + i) % kLightFamilies.size()];
      w.requests.push_back(
          light_request(family, pool_seed, rng.next(), tiny));
    }
  } else if (w.name == "heavy") {
    const std::uint64_t pool_seed = kHeavyPoolSeed;
    const std::size_t n = tiny ? 6 : 48;
    for (const char* family : kHeavyFamilies)
      w.warmup.push_back(heavy_request(family, pool_seed, rng.next(), tiny));
    const std::size_t first = rng.below(kHeavyFamilies.size());
    for (std::size_t i = 0; i < n; ++i) {
      const char* family = kHeavyFamilies[(first + i) % kHeavyFamilies.size()];
      w.requests.push_back(heavy_request(family, pool_seed, rng.next(), tiny));
    }
  } else {
    throw std::invalid_argument("not a serve workload: " + w.name);
  }
  return w;
}

}  // namespace perfbench
