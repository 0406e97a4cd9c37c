// The campaign server, end to end (minus the socket — that layer is
// tests/test_serve_control.cpp): payload/checkpoint codecs, per-epoch
// fairness (every resident campaign gets `quantum` units), multi-tenant
// multiplexing over the oracle hub, and the headline durability pin —
// checkpoint, kill, resume, and the trajectory hash is bit-identical to
// the uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "apr/campaign.hpp"
#include "apr/campaign_session.hpp"
#include "apr/mutation.hpp"
#include "apr/outcome_json.hpp"
#include "obs/registry.hpp"
#include "serve/checkpoint.hpp"
#include "serve/checkpoint_writer.hpp"
#include "serve/control.hpp"
#include "serve/oracle_hub.hpp"
#include "serve/payload_codec.hpp"
#include "serve/server.hpp"

namespace mwr::serve {
namespace {

// A checkpoint directory private to this test and this process, so
// parallel ctest runs and two build trees never share one.
std::filesystem::path private_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::temp_directory_path() /
         ("mwr-" + std::string(info->test_suite_name()) + "-" +
          info->name() + "-" + std::to_string(::getpid()));
}

// A small but real campaign over a named scenario: completes in tens of
// milliseconds yet exercises precompute, revalidation, and online MWU.
SubmitRequest small_request(const std::string& scenario,
                            std::uint64_t seed) {
  SubmitRequest request;
  request.scenario = scenario;
  request.bugs = 2;
  request.pool_target = 150;
  request.pool_attempts = 10000;
  request.pool_seed = 11;
  request.arms = 16;
  request.agents = 4;
  request.max_count = 128;
  request.max_iterations = 60;
  request.repair_seed = seed;
  return request;
}

// --- payload codec ------------------------------------------------------

TEST(PayloadCodec, RoundTripsScalarsStringsAndExtremes) {
  PayloadWriter w;
  w.u64(0);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.u64(0x123456789abcdef0ull);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.boolean(true);
  w.str("");
  w.str("gzip-2009-08-16 \x01\x7f");
  const std::vector<double> payload = w.take();

  PayloadReader r(payload);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.u64(), 0x123456789abcdef0ull);
  EXPECT_EQ(r.f64(), -0.0);
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "gzip-2009-08-16 \x01\x7f");
  EXPECT_TRUE(r.done());
}

TEST(PayloadCodec, ThrowsOnTruncationAndMalformedHalves) {
  PayloadReader empty({});
  EXPECT_THROW((void)empty.u64(), std::runtime_error);

  const std::vector<double> bad_half = {1.5, 0.0};
  PayloadReader r(bad_half);
  EXPECT_THROW((void)r.u64(), std::runtime_error);

  PayloadWriter w;
  w.u64(100);  // announces a 100-char string that is not there
  const std::vector<double> truncated = w.take();  // keep the span alive
  PayloadReader s(truncated);
  EXPECT_THROW((void)s.str(), std::runtime_error);
}

// --- control-plane codecs -----------------------------------------------

TEST(ControlCodec, SubmitRoundTrip) {
  SubmitRequest request = small_request("Closure13", 99);
  request.tests = 24;
  request.mwu = 3;
  request.grow_suite = false;
  const SubmitRequest decoded =
      decode_submit_request(encode_submit_request(request));
  EXPECT_EQ(decoded, request);
}

TEST(ControlCodec, RepliesRoundTrip) {
  const SubmitReply submit{true, 42, 17};
  EXPECT_EQ(decode_submit_reply(encode_submit_reply(submit)), submit);

  StatusReply status;
  status.known = true;
  status.bug_index = 3;
  status.bugs_total = 5;
  status.online_cycles = 123;
  status.online_probes = 4567;
  status.repaired = 2;
  status.trajectory_hash = 0xfeedfacecafebeefull;
  EXPECT_EQ(decode_status_reply(encode_status_reply(9, status)), status);

  ResultReply result;
  result.ready = true;
  result.campaign_id = 7;
  result.outcome_json = "{\"schema\": \"mwr-campaign-outcome-v1\"}\n";
  EXPECT_EQ(decode_result_reply(encode_result_reply(result)), result);

  const CheckpointReply checkpoint{8192, 3};
  EXPECT_EQ(decode_checkpoint_reply(encode_checkpoint_reply(checkpoint)),
            checkpoint);

  EXPECT_EQ(decode_shutdown_reply(encode_shutdown_reply(12)), 12u);
}

TEST(ControlCodec, RejectsWrongDirectionAndKind) {
  const auto request = encode_submit_request(SubmitRequest{});
  EXPECT_THROW((void)decode_submit_reply(request), std::runtime_error);
  EXPECT_THROW((void)decode_status_request(request), std::runtime_error);
}

TEST(ControlCodec, PlanForcesSingleThreadedPhases) {
  SubmitRequest request = small_request("Math8", 5);
  const CampaignPlan plan = plan_campaign(request);
  EXPECT_EQ(plan.spec.name, "Math8");
  EXPECT_EQ(plan.config.pool.threads, 1u);
  EXPECT_EQ(plan.config.repair.eval_threads, 1u);
  EXPECT_EQ(plan.config.bugs, 2u);

  request.scenario = "no-such-program";
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
}

TEST(ControlCodec, PlanRejectsDegenerateRepairKnobs) {
  // Every knob a later phase would throw on (MwRepair's arms/max_count
  // guards, the MWU agent count, the oracle's 64-test bitmask) must be
  // refused at SUBMIT: a submission that passed admission and then threw
  // inside an epoch fiber used to take down the whole daemon.
  const SubmitRequest valid = small_request("Math8", 5);
  (void)plan_campaign(valid);  // baseline: the template itself is fine

  SubmitRequest request = valid;
  request.bugs = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.arms = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.max_count = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.agents = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.max_iterations = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.tests = 65;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
}

// --- session refactor identity ------------------------------------------

TEST(CampaignSessionServe, BudgetPartitioningDoesNotChangeTheTrajectory) {
  const CampaignPlan plan = plan_campaign(small_request("units", 21));

  apr::CampaignSession one_shot(plan.spec, plan.config);
  while (!one_shot.done())
    (void)one_shot.step(std::numeric_limits<std::size_t>::max());

  apr::CampaignSession drip(plan.spec, plan.config);
  while (!drip.done()) (void)drip.step(1);

  apr::CampaignSession chunked(plan.spec, plan.config);
  while (!chunked.done()) (void)chunked.step(3);

  EXPECT_EQ(one_shot.trajectory_hash(), drip.trajectory_hash());
  EXPECT_EQ(one_shot.trajectory_hash(), chunked.trajectory_hash());
  EXPECT_EQ(apr::outcome_to_json(one_shot.outcome()).dump(2),
            apr::outcome_to_json(drip.outcome()).dump(2));
}

// --- checkpoint codec ---------------------------------------------------

TEST(Checkpoint, CodecRoundTripsAMidCampaignSnapshot) {
  const SubmitRequest request = small_request("libtiff-2005-12-14", 31);
  const CampaignPlan plan = plan_campaign(request);
  apr::CampaignSession session(plan.spec, plan.config);
  // Step past precompute and into the online phase so the snapshot
  // carries a working pool and live RNG/MWU state.
  for (int i = 0; i < 8 && !session.done(); ++i) (void)session.step(1);

  CampaignCheckpoint checkpoint;
  checkpoint.campaign_id = 77;
  checkpoint.request = request;
  checkpoint.snapshot = session.snapshot();
  ASSERT_TRUE(checkpoint.snapshot.has_repair_state);

  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  const CampaignCheckpoint decoded = decode_checkpoint(bytes);

  EXPECT_EQ(decoded.campaign_id, 77u);
  EXPECT_EQ(decoded.request, request);
  const apr::CampaignSnapshot& a = checkpoint.snapshot;
  const apr::CampaignSnapshot& b = decoded.snapshot;
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.bug_index, b.bug_index);
  EXPECT_EQ(a.current_tests, b.current_tests);
  EXPECT_EQ(a.trajectory_hash, b.trajectory_hash);
  EXPECT_EQ(a.working_pool, b.working_pool);
  EXPECT_EQ(a.repair.rng_state, b.repair.rng_state);
  EXPECT_EQ(a.repair.strategy, b.repair.strategy);  // bit-exact doubles
  EXPECT_EQ(a.repair.iterations, b.repair.iterations);
}

TEST(Checkpoint, DecoderRejectsCorruption) {
  CampaignCheckpoint checkpoint;
  checkpoint.campaign_id = 1;
  checkpoint.request = small_request("units", 1);
  std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  EXPECT_THROW(
      (void)decode_checkpoint({bytes.data(), bytes.size() / 2}),
      std::runtime_error);
  bytes[bytes.size() - 1] ^= 0xff;
  EXPECT_THROW((void)decode_checkpoint(bytes), std::runtime_error);
}

// --- the durability pin: kill mid-campaign, resume, identical hash ------

TEST(Checkpoint, ResumeIsBitIdenticalToUninterruptedAtEverySeed) {
  for (const std::uint64_t seed : {2ull, 29ull, 303ull}) {
    const SubmitRequest request = small_request("gzip-2009-09-26", seed);
    const CampaignPlan plan = plan_campaign(request);

    apr::CampaignSession uninterrupted(plan.spec, plan.config);
    while (!uninterrupted.done())
      (void)uninterrupted.step(std::numeric_limits<std::size_t>::max());

    // Run N units, snapshot ("the daemon died after cycle N"), resume a
    // fresh session from the snapshot, and finish.
    apr::CampaignSession first_life(plan.spec, plan.config);
    for (int i = 0; i < 6 && !first_life.done(); ++i)
      (void)first_life.step(1);
    const std::vector<std::uint8_t> bytes = encode_checkpoint(
        {/*campaign_id=*/1, request, first_life.snapshot()});

    const CampaignCheckpoint loaded = decode_checkpoint(bytes);
    const CampaignPlan replan = plan_campaign(loaded.request);
    const std::unique_ptr<apr::CampaignSession> second_life =
        apr::CampaignSession::resume(loaded.snapshot, replan.spec,
                                     replan.config);
    while (!second_life->done())
      (void)second_life->step(std::numeric_limits<std::size_t>::max());

    EXPECT_EQ(second_life->trajectory_hash(), uninterrupted.trajectory_hash())
        << "seed " << seed;
    EXPECT_EQ(apr::outcome_to_json(second_life->outcome()).dump(2),
              apr::outcome_to_json(uninterrupted.outcome()).dump(2))
        << "seed " << seed;
  }
}

TEST(Checkpoint, ResumeRejectsTheWrongCampaignDefinition) {
  const SubmitRequest request = small_request("units", 3);
  const CampaignPlan plan = plan_campaign(request);
  apr::CampaignSession session(plan.spec, plan.config);
  (void)session.step(1);
  const apr::CampaignSnapshot snapshot = session.snapshot();

  CampaignPlan other = plan_campaign(small_request("Math80", 3));
  EXPECT_THROW((void)apr::CampaignSession::resume(snapshot, other.spec,
                                                  other.config),
               std::invalid_argument);
}

// A mutation of `spec`'s program whose key no member of `pool` has.
apr::Mutation foreign_mutation(const datasets::ScenarioSpec& spec,
                               std::span<const apr::Mutation> pool) {
  const apr::ProgramModel program(spec);
  util::RngStream rng(99);
  while (true) {
    const apr::Mutation m = apr::random_mutation(program, rng);
    if (std::ranges::none_of(pool, [&](const apr::Mutation& member) {
          return member.key() == m.key();
        })) {
      return m;
    }
  }
}

// Services that hand out an OracleHub's leases and record each oracle lease.
class RecordingServices final : public apr::ScenarioServices {
 public:
  OracleLease oracle_for(const datasets::ScenarioSpec& spec,
                         const apr::MutationPool& base_pool) override {
    leases.push_back(hub.oracle_for(spec, base_pool));
    return leases.back();
  }
  PoolLease base_pool(const datasets::ScenarioSpec& spec,
                      const apr::PoolConfig& config) override {
    return hub.base_pool(spec, config);
  }

  OracleHub hub;
  std::vector<OracleLease> leases;
};

TEST(Checkpoint, ResumeIntoAFreshHubPrimesTheOracle) {
  const CampaignPlan plan =
      plan_campaign(small_request("libtiff-2005-12-14", 5));
  OracleHub reference_hub;
  apr::CampaignSession uninterrupted(plan.spec, plan.config, &reference_hub);
  while (!uninterrupted.done())
    (void)uninterrupted.step(std::numeric_limits<std::size_t>::max());

  OracleHub first_hub;
  apr::CampaignSession first_life(plan.spec, plan.config, &first_hub);
  for (int i = 0; i < 3; ++i) (void)first_life.step(1);
  const apr::CampaignSnapshot snapshot = first_life.snapshot();
  ASSERT_TRUE(snapshot.has_repair_state);

  // A daemon restart: the resumed session meets a hub that has built
  // nothing, re-acquires the base pool, and gets an oracle primed from it.
  RecordingServices fresh;
  const std::unique_ptr<apr::CampaignSession> second_life =
      apr::CampaignSession::resume(snapshot, plan.spec, plan.config, &fresh);
  ASSERT_EQ(fresh.leases.size(), 1u);
  EXPECT_TRUE(fresh.leases[0].oracle->wave_ready());
  EXPECT_EQ(fresh.hub.stats().pool_builds, 1u);
  while (!second_life->done())
    (void)second_life->step(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(second_life->trajectory_hash(), uninterrupted.trajectory_hash());
  EXPECT_EQ(apr::outcome_to_json(second_life->outcome()).dump(2),
            apr::outcome_to_json(uninterrupted.outcome()).dump(2));
}

TEST(Checkpoint, ResumeRejectsAWorkingPoolOutsideTheBasePool) {
  const CampaignPlan plan =
      plan_campaign(small_request("libtiff-2005-12-14", 5));
  OracleHub hub;
  apr::CampaignSession first_life(plan.spec, plan.config, &hub);
  for (int i = 0; i < 3; ++i) (void)first_life.step(1);
  apr::CampaignSnapshot snapshot = first_life.snapshot();
  ASSERT_TRUE(snapshot.has_repair_state);

  const auto base = hub.base_pool(plan.spec, plan.config.pool);
  snapshot.working_pool.push_back(
      foreign_mutation(plan.spec, base.pool->mutations()));
  EXPECT_THROW((void)apr::CampaignSession::resume(snapshot, plan.spec,
                                                  plan.config, &hub),
               std::invalid_argument);
}

// --- oracle hub ---------------------------------------------------------

TEST(OracleHub, SharesPoolsAndOraclesAcrossTenants) {
  OracleHub hub;
  const CampaignPlan plan = plan_campaign(small_request("units", 8));

  const auto pool_a = hub.base_pool(plan.spec, plan.config.pool);
  const auto pool_b = hub.base_pool(plan.spec, plan.config.pool);
  EXPECT_EQ(pool_a.pool.get(), pool_b.pool.get());
  EXPECT_GT(pool_a.precompute_runs, 0u);
  EXPECT_EQ(pool_a.precompute_runs, pool_b.precompute_runs);

  datasets::ScenarioSpec bug = plan.spec;
  bug.bug_id = 0;
  const auto lease_a = hub.oracle_for(bug, *pool_a.pool);
  const auto lease_b = hub.oracle_for(bug, *pool_b.pool);
  EXPECT_TRUE(lease_a.shared);
  EXPECT_EQ(lease_a.oracle.get(), lease_b.oracle.get());
  // The shared oracle's table is primed from exactly the base pool.
  ASSERT_TRUE(lease_a.oracle->wave_ready());
  EXPECT_TRUE(std::ranges::equal(lease_a.oracle->wave_pool(),
                                 pool_a.pool->mutations()));

  // The same bug primed from a different pool is a different oracle...
  const std::vector<apr::Mutation> fewer(pool_a.pool->mutations().begin(),
                                         pool_a.pool->mutations().end() - 1);
  const auto lease_c =
      hub.oracle_for(bug, apr::MutationPool::from_mutations(fewer));
  EXPECT_NE(lease_a.oracle.get(), lease_c.oracle.get());
  EXPECT_EQ(lease_c.oracle->wave_pool().size(), fewer.size());

  bug.bug_id = 1;  // ...and so is a different bug.
  const auto lease_d = hub.oracle_for(bug, *pool_a.pool);
  EXPECT_NE(lease_a.oracle.get(), lease_d.oracle.get());

  const OracleHub::Stats stats = hub.stats();
  EXPECT_EQ(stats.pool_builds, 1u);
  EXPECT_EQ(stats.pool_hits, 1u);
  EXPECT_EQ(stats.oracle_builds, 3u);
  EXPECT_EQ(stats.oracle_hits, 1u);
}

TEST(OracleHub, FailedBuildsAreRetriedNotCachedForever) {
  OracleHub hub;
  datasets::ScenarioSpec bad = datasets::scenario_by_name("units");
  bad.tests = 65;  // beyond the oracle's 64-test bitmask: the build throws

  // Each lookup must attempt a fresh build and surface the builder's own
  // error.  A poisoned cache entry would turn the second call into a
  // std::runtime_error("oracle build failed") forever.
  const apr::MutationPool no_pool;
  EXPECT_THROW((void)hub.oracle_for(bad, no_pool), std::invalid_argument);
  EXPECT_THROW((void)hub.oracle_for(bad, no_pool), std::invalid_argument);
  EXPECT_EQ(hub.stats().oracle_builds, 2u);

  const apr::PoolConfig pool_config;
  EXPECT_THROW((void)hub.base_pool(bad, pool_config), std::invalid_argument);
  EXPECT_THROW((void)hub.base_pool(bad, pool_config), std::invalid_argument);
  EXPECT_EQ(hub.stats().pool_builds, 2u);

  // And a failure leaves the hub fully serviceable for valid specs.
  bad.tests = 12;
  const auto lease = hub.oracle_for(bad, no_pool);
  EXPECT_NE(lease.oracle, nullptr);
}

TEST(OracleHub, SharedServicesPreserveTheSingleTenantTrajectory) {
  const CampaignPlan plan = plan_campaign(small_request("Chart26", 13));

  apr::CampaignSession isolated(plan.spec, plan.config);
  while (!isolated.done())
    (void)isolated.step(std::numeric_limits<std::size_t>::max());

  OracleHub hub;
  apr::CampaignSession tenant_a(plan.spec, plan.config, &hub);
  apr::CampaignSession tenant_b(plan.spec, plan.config, &hub);
  while (!tenant_a.done())
    (void)tenant_a.step(std::numeric_limits<std::size_t>::max());
  while (!tenant_b.done())
    (void)tenant_b.step(std::numeric_limits<std::size_t>::max());

  // Shared oracles and pools must not perturb the search or the ledger.
  EXPECT_EQ(tenant_a.trajectory_hash(), isolated.trajectory_hash());
  EXPECT_EQ(tenant_b.trajectory_hash(), isolated.trajectory_hash());
  EXPECT_EQ(apr::outcome_to_json(tenant_a.outcome()).dump(2),
            apr::outcome_to_json(isolated.outcome()).dump(2));
}

// --- the server ---------------------------------------------------------

TEST(CampaignServer, MultiplexesMixedFamiliesToCompletionWithoutStarvation) {
  ServerConfig config;
  config.max_resident = 64;
  config.quantum = 8;
  config.workers = 4;
  CampaignServer server(config);

  const std::vector<std::string> families = {
      "units", "gzip-2009-08-16", "Chart26", "Math8", "libtiff-2005-12-14"};
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const auto id = server.submit(
        small_request(families[static_cast<std::size_t>(i) % families.size()],
                      100 + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  EXPECT_EQ(server.resident(), 10u);

  server.drain();
  EXPECT_EQ(server.resident(), 0u);
  EXPECT_EQ(server.completed(), 10u);
  EXPECT_EQ(server.starved_epochs(), 0u);  // the zero-starvation invariant
  EXPECT_GT(server.epochs(), 0u);
  EXPECT_FALSE(server.campaign_step_seconds().empty());

  // Every campaign finished, has a status, and yields schema'd JSON.
  for (const std::uint64_t id : ids) {
    const StatusReply status = server.status(id);
    EXPECT_TRUE(status.known);
    EXPECT_TRUE(status.done);
    EXPECT_EQ(status.bugs_total, 2u);
    EXPECT_NE(status.trajectory_hash, 0u);
    const ResultReply result = server.result(id);
    ASSERT_TRUE(result.ready);
    EXPECT_NE(result.outcome_json.find("mwr-campaign-outcome-v1"),
              std::string::npos);
  }

  // Ten campaigns over five families: the hub interned five pools.
  EXPECT_EQ(server.hub().stats().pool_builds, 5u);
  EXPECT_GE(server.hub().stats().pool_hits, 5u);
}

TEST(CampaignServer, ServedResultMatchesSingleShotByteForByte) {
  const SubmitRequest request = small_request("lighttpd-1806-1807", 55);

  ServerConfig config;
  config.workers = 2;
  CampaignServer server(config);
  const auto id = server.submit(request);
  ASSERT_TRUE(id.has_value());
  server.drain();
  const ResultReply served = server.result(*id);
  ASSERT_TRUE(served.ready);

  // The one-schema satellite: a served campaign's result document equals
  // repair_tool's --outcome-out for the same plan, byte for byte.
  const CampaignPlan plan = plan_campaign(request);
  const apr::CampaignOutcome solo = apr::run_campaign(plan.spec, plan.config);
  EXPECT_EQ(served.outcome_json, apr::outcome_to_json(solo).dump(2) + "\n");
}

TEST(CampaignServer, AdmissionControlRejectsBeyondTheCap) {
  ServerConfig config;
  config.max_resident = 2;
  config.workers = 2;
  CampaignServer server(config);
  ASSERT_TRUE(server.submit(small_request("units", 1)).has_value());
  ASSERT_TRUE(server.submit(small_request("units", 2)).has_value());
  EXPECT_FALSE(server.submit(small_request("units", 3)).has_value());
  server.drain();
  // Capacity freed: admission opens again.
  EXPECT_TRUE(server.submit(small_request("units", 4)).has_value());
  server.drain();
}

TEST(CampaignServer, MalformedSubmissionIsRejectedWithoutResidue) {
  ServerConfig config;
  config.workers = 2;
  CampaignServer server(config);
  SubmitRequest bad = small_request("units", 1);
  bad.arms = 0;
  EXPECT_THROW((void)server.submit(bad), std::invalid_argument);
  // Rejection is a client error, not daemon state: nothing resident, no
  // scheduler slot, and a well-formed campaign still runs to completion.
  EXPECT_EQ(server.resident(), 0u);
  EXPECT_FALSE(server.run_epoch());
  ASSERT_TRUE(server.submit(small_request("units", 2)).has_value());
  server.drain();
  EXPECT_EQ(server.completed(), 1u);
  EXPECT_EQ(server.failed_campaigns(), 0u);
}

TEST(CampaignServer, ScopedMetricsExposePerCampaignViews) {
  ServerConfig config;
  config.workers = 2;
  CampaignServer server(config);
  const auto id = server.submit(small_request("Closure22", 77));
  ASSERT_TRUE(id.has_value());
  server.drain();

  const std::string prefix = "campaign/" + std::to_string(*id) + "/";
  const obs::JsonValue view =
      obs::MetricsRegistry::global().to_json_filtered(prefix);
  const std::string dumped = view.dump(0);
  EXPECT_NE(dumped.find(prefix + "online.cycles"), std::string::npos);
  EXPECT_NE(dumped.find(prefix + "bugs_attempted"), std::string::npos);
  EXPECT_NE(dumped.find(prefix + "done"), std::string::npos);
  // The unfiltered snapshot still carries the serve-level counters.
  const std::string all =
      obs::MetricsRegistry::global().to_json_string();
  EXPECT_NE(all.find("serve.epochs"), std::string::npos);
  EXPECT_NE(all.find("serve.starved_epochs"), std::string::npos);
}

TEST(CampaignServer, CheckpointRestoreResumesBitIdentically) {
  const std::filesystem::path dir = private_dir();
  std::filesystem::remove_all(dir);

  const std::vector<std::string> families = {"units", "gzip-2009-09-26",
                                             "Math80"};
  // Reference: the same submissions run to completion uninterrupted.
  std::vector<std::uint64_t> reference_hashes;
  std::vector<std::string> reference_json;
  {
    ServerConfig config;
    config.workers = 2;
    CampaignServer reference(config);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < families.size(); ++i)
      ids.push_back(*reference.submit(small_request(families[i], 40 + i)));
    reference.drain();
    for (const std::uint64_t id : ids) {
      reference_hashes.push_back(reference.status(id).trajectory_hash);
      reference_json.push_back(reference.result(id).outcome_json);
    }
  }

  // First daemon life: a few epochs, checkpoint, "kill -9".
  {
    ServerConfig config;
    config.workers = 2;
    // Quantum 1 keeps every campaign mid-flight after three epochs; a
    // wider quantum would let the small ones finish before the snapshot.
    config.quantum = 1;
    config.checkpoint_dir = dir.string();
    CampaignServer first_life(config);
    for (std::size_t i = 0; i < families.size(); ++i)
      ASSERT_TRUE(
          first_life.submit(small_request(families[i], 40 + i)).has_value());
    for (int epoch = 0; epoch < 3 && first_life.resident() > 0; ++epoch)
      (void)first_life.run_epoch();
    ASSERT_EQ(first_life.resident(), families.size())
        << "campaigns finished before the mid-flight checkpoint";
    const CheckpointReply reply = first_life.checkpoint_all();
    EXPECT_EQ(reply.campaigns, first_life.resident());
    EXPECT_GT(reply.bytes, 0u);
    // Destructor without drain = abrupt death.
  }

  // Second daemon life: restore and finish.
  {
    ServerConfig config;
    config.workers = 2;
    config.checkpoint_dir = dir.string();
    CampaignServer second_life(config);
    const std::size_t restored = second_life.restore_from_dir();
    EXPECT_EQ(restored, families.size());
    second_life.drain();
    EXPECT_EQ(second_life.starved_epochs(), 0u);

    for (std::size_t i = 0; i < families.size(); ++i) {
      const std::uint64_t id = i + 1;  // ids are stable across lives
      const StatusReply status = second_life.status(id);
      ASSERT_TRUE(status.known && status.done) << "campaign " << id;
      EXPECT_EQ(status.trajectory_hash, reference_hashes[i])
          << "campaign " << id << " diverged after resume";
      EXPECT_EQ(second_life.result(id).outcome_json, reference_json[i]);
    }
    // Finished campaigns clean their checkpoint files up.
    std::size_t remaining = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      remaining += entry.path().extension() == ".ckpt" ? 1u : 0u;
    EXPECT_EQ(remaining, 0u);
  }
  std::filesystem::remove_all(dir);
}

// --- epoch: per-campaign tasks, bounded telemetry, async durability -----

std::vector<std::uint8_t> read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::size_t count_ckpt_files(const std::filesystem::path& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    count += entry.path().extension() == ".ckpt" ? 1u : 0u;
  return count;
}

// Reads every checkpoint file in `dir`, keyed by file name.
std::map<std::string, std::vector<std::uint8_t>> read_checkpoints(
    const std::filesystem::path& dir) {
  std::map<std::string, std::vector<std::uint8_t>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files[entry.path().filename().string()] = read_file_bytes(entry.path());
  return files;
}

TEST(CampaignServer, UnresumableCheckpointFailsOnlyItsCampaign) {
  const std::filesystem::path dir = private_dir();
  std::filesystem::remove_all(dir);
  const std::vector<std::string> families = {"libtiff-2005-12-14",
                                             "gzip-2009-09-26"};
  std::uint64_t reference_hash = 0;
  std::string reference_json;
  {
    CampaignServer reference{ServerConfig{}};
    (void)reference.submit(small_request(families[0], 50));
    const std::uint64_t id = *reference.submit(small_request(families[1], 51));
    reference.drain();
    reference_hash = reference.status(id).trajectory_hash;
    reference_json = reference.result(id).outcome_json;
  }
  {
    ServerConfig config;
    config.quantum = 1;
    config.checkpoint_dir = dir.string();
    CampaignServer first_life(config);
    for (std::size_t i = 0; i < families.size(); ++i)
      ASSERT_TRUE(
          first_life.submit(small_request(families[i], 50 + i)).has_value());
    for (int epoch = 0; epoch < 3; ++epoch) (void)first_life.run_epoch();
    ASSERT_EQ(first_life.resident(), families.size());
    (void)first_life.checkpoint_all();
  }

  // Campaign 1's working pool gains a member its base pool never had.
  const std::string path = (dir / "campaign-1.ckpt").string();
  CampaignCheckpoint tampered = read_checkpoint_file(path);
  ASSERT_TRUE(tampered.snapshot.has_repair_state);
  const CampaignPlan plan = plan_campaign(tampered.request);
  tampered.snapshot.working_pool.push_back(
      foreign_mutation(plan.spec, tampered.snapshot.working_pool));
  (void)write_checkpoint_bytes(encode_checkpoint(tampered), path);

  ServerConfig config;
  config.checkpoint_dir = dir.string();
  CampaignServer second_life(config);
  EXPECT_EQ(second_life.restore_from_dir(), 1u);
  EXPECT_EQ(second_life.failed_campaigns(), 1u);
  const StatusReply failed = second_life.status(1);
  EXPECT_TRUE(failed.known && failed.done);
  EXPECT_NE(second_life.result(1).outcome_json.find("mwr-campaign-error-v1"),
            std::string::npos);

  // The daemon keeps serving: the other campaign finishes bit-identically.
  second_life.drain();
  const StatusReply status = second_life.status(2);
  ASSERT_TRUE(status.known && status.done);
  EXPECT_EQ(status.trajectory_hash, reference_hash);
  EXPECT_EQ(second_life.result(2).outcome_json, reference_json);
  EXPECT_EQ(count_ckpt_files(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignServer, TrajectoriesAndCheckpointsMatchAtEveryWorkerCount) {
  // A mixed load: four families on the shared default pool seed, plus two
  // private pool seeds on programs the shared campaigns also use, so
  // tasks race for hub pool builds and for which ready pool primes each
  // oracle.  grow_suite (on in small_request) makes every repaired bug
  // start a fresh oracle build mid-epoch.
  std::vector<SubmitRequest> load;
  const std::vector<std::string> families = {"units", "gzip-2009-08-16",
                                             "Chart26", "Math80"};
  for (std::uint64_t i = 0; i < 8; ++i)
    load.push_back(small_request(families[i % families.size()], 200 + i));
  for (const std::uint64_t pool_seed : {91u, 92u}) {
    for (const char* family : {"units", "Math80"}) {
      SubmitRequest request = small_request(family, 300 + pool_seed);
      request.pool_seed = pool_seed;
      load.push_back(request);
    }
  }

  // Reference: each campaign alone, single-shot.
  std::vector<std::uint64_t> hashes;
  std::vector<std::string> docs;
  for (const SubmitRequest& request : load) {
    const CampaignPlan plan = plan_campaign(request);
    apr::CampaignSession session(plan.spec, plan.config);
    while (!session.done())
      (void)session.step(std::numeric_limits<std::size_t>::max());
    hashes.push_back(session.trajectory_hash());
    docs.push_back(
        apr::outcome_to_json(apr::run_campaign(plan.spec, plan.config))
            .dump(2) +
        "\n");
  }

  const std::filesystem::path root = private_dir();
  std::filesystem::remove_all(root);
  for (const std::size_t quantum : {1u, 8u}) {
    std::map<std::string, std::vector<std::uint8_t>> reference_files;
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("workers " + std::to_string(workers) + ", quantum " +
                   std::to_string(quantum));
      const std::filesystem::path dir =
          root / ("w" + std::to_string(workers) + "q" +
                  std::to_string(quantum));
      ServerConfig config;
      config.max_resident = load.size();
      config.quantum = quantum;
      config.workers = workers;
      config.checkpoint_dir = dir.string();
      CampaignServer server(config);
      std::vector<std::uint64_t> ids;
      for (const SubmitRequest& request : load)
        ids.push_back(*server.submit(request));

      for (int epoch = 0; epoch < 3; ++epoch) (void)server.run_epoch();
      (void)server.checkpoint_all();
      const auto files = read_checkpoints(dir);
      EXPECT_FALSE(files.empty());
      if (workers == 1) {
        reference_files = files;
      } else {
        EXPECT_EQ(files, reference_files)
            << "checkpoint bytes depend on the worker count";
      }

      server.drain();
      EXPECT_EQ(server.failed_campaigns(), 0u);
      EXPECT_EQ(server.starved_epochs(), 0u);
      for (std::size_t i = 0; i < load.size(); ++i) {
        EXPECT_EQ(server.status(ids[i]).trajectory_hash, hashes[i])
            << "campaign " << ids[i];
        EXPECT_EQ(server.result(ids[i]).outcome_json, docs[i])
            << "campaign " << ids[i];
      }
    }
  }
  std::filesystem::remove_all(root);
}

TEST(CampaignServer, CampaignStepWindowStaysBounded) {
  ServerConfig config;
  config.workers = 2;
  config.quantum = 1;  // one unit per campaign-epoch: maximum samples.
  CampaignServer server(config);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SubmitRequest request = small_request("Math80", seed);
    request.max_iterations = 200;
    ids.push_back(*server.submit(request));
  }
  server.drain();

  // An unbounded window would keep one sample per campaign-epoch forever.
  // At quantum 1 every unit is one such epoch; prove the run produced
  // more samples than the window holds, then pin the bound.
  std::uint64_t unit_epochs = 0;
  for (const std::uint64_t id : ids)
    unit_epochs += server.status(id).online_cycles;
  // Conservative margin: up to 4 units per campaign are setup units.
  ASSERT_GT(unit_epochs, CampaignServer::kLatencyWindowCapacity + 4 * ids.size())
      << "load too small to overflow the window; raise campaigns or iterations";
  const std::vector<double> window = server.campaign_step_seconds();
  EXPECT_EQ(window.size(), CampaignServer::kLatencyWindowCapacity);
  for (const double seconds : window) EXPECT_GE(seconds, 0.0);
}

TEST(CampaignServer, EpochRunsOnOneThreadAtOneWorkerAndThreeAtTwo) {
  // workers 1 keeps the epoch on the control loop; at 2 or more the
  // control loop drains alongside `workers` parked pool threads.  Every
  // participant of a job counts once in thread_pool.tasks_executed, so an
  // epoch whose sessions all run an online cycle (no inner pool job: the
  // server steps sessions without a pool) adds exactly the epoch's
  // thread count.
  obs::Counter& joined =
      obs::MetricsRegistry::global().counter("thread_pool.tasks_executed");
  for (const auto& [workers, threads] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {2, 3}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ServerConfig config;
    config.workers = workers;
    config.quantum = 1;  // unit 1 precompute, unit 2 bug start, 3 online.
    CampaignServer server(config);
    for (std::uint64_t seed = 0; seed < 4; ++seed)
      ASSERT_TRUE(server.submit(small_request("Math80", seed)).has_value());
    ASSERT_TRUE(server.run_epoch());
    ASSERT_TRUE(server.run_epoch());
    const std::uint64_t before = joined.value();
    ASSERT_TRUE(server.run_epoch());
    EXPECT_EQ(joined.value() - before, threads);
    server.drain();
    EXPECT_EQ(server.completed(), 4u);
    EXPECT_EQ(server.failed_campaigns(), 0u);
  }
}

TEST(CampaignServer, EveryResidentCampaignGetsQuantumUnitsPerEpoch) {
  // A session consumes its whole budget unless it finishes, and every
  // epoch grants each resident campaign max(1, quantum) units, so after
  // e epochs an unfinished campaign has run exactly e budgets: no
  // campaign is starved and none pulls ahead of its co-tenants.
  const std::vector<std::string> families = {"units", "Math80", "Chart26"};
  for (const auto& [quantum, budget] :
       {std::pair<std::size_t, std::uint64_t>{0, 1}, {1, 1}, {3, 3},
        {8, 8}}) {
    SCOPED_TRACE("quantum " + std::to_string(quantum));
    ServerConfig config;
    config.workers = 2;
    config.quantum = quantum;
    CampaignServer server(config);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < 6; ++i)
      ids.push_back(*server.submit(
          small_request(families[i % families.size()], 600 + i)));
    std::uint64_t epochs = 0;
    while (server.run_epoch()) {
      ++epochs;
      for (const std::uint64_t id : ids) {
        const StatusReply status = server.status(id);
        if (status.done) {
          EXPECT_LE(status.online_cycles, epochs * budget);
        } else {
          ASSERT_EQ(status.online_cycles, epochs * budget) << "campaign " << id;
        }
      }
    }
    EXPECT_GT(epochs, 1u);
    EXPECT_EQ(server.completed(), ids.size());
    EXPECT_EQ(server.starved_epochs(), 0u);
  }
}

TEST(CheckpointWriter, LatestWinsCoalescingAndRemoveOrdering) {
  const std::filesystem::path dir = private_dir();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "campaign-1.ckpt").string();
  {
    CheckpointWriter writer;
    for (int round = 0; round < 64; ++round)
      writer.enqueue_write(
          1, path,
          std::vector<std::uint8_t>(16, static_cast<std::uint8_t>(round)));
    writer.flush();
    // Latest-wins: whatever was executed last carries the newest bytes,
    // and every enqueue either executed or was coalesced into a newer one.
    const std::vector<std::uint8_t> bytes = read_file_bytes(path);
    ASSERT_EQ(bytes.size(), 16u);
    for (const std::uint8_t byte : bytes) EXPECT_EQ(byte, 63u);
    const CheckpointWriter::Stats stats = writer.stats();
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_GE(stats.writes, 1u);
    EXPECT_EQ(stats.writes + stats.coalesced, 64u);

    // A remove after writes deletes the file — and a remove enqueued
    // while a write is still pending replaces it (no resurrection).
    writer.enqueue_write(1, path, std::vector<std::uint8_t>(8, 0xff));
    writer.enqueue_remove(1, path);
    writer.flush();
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  {
    // The destructor drains the queue: no flush, yet the write lands.
    CheckpointWriter writer;
    writer.enqueue_write(2, (dir / "campaign-2.ckpt").string(),
                         std::vector<std::uint8_t>{1, 2, 3});
  }
  EXPECT_EQ(read_file_bytes(dir / "campaign-2.ckpt"),
            (std::vector<std::uint8_t>{1, 2, 3}));
  std::filesystem::remove_all(dir);
}

TEST(CampaignServer, AsyncCheckpointsRaceRetirementWithoutResurrection) {
  const std::filesystem::path dir = private_dir();
  std::filesystem::remove_all(dir);

  ServerConfig config;
  config.workers = 2;
  config.quantum = 4;
  config.checkpoint_dir = dir.string();
  config.checkpoint_every = 1;  // every epoch queues dirty writes...
  CampaignServer server(config);
  for (std::uint64_t seed = 0; seed < 6; ++seed)
    ASSERT_TRUE(server.submit(small_request("units", seed)).has_value());
  // ...and every retirement queues a remove that must cancel any write
  // still in flight for that campaign.  Drain under maximum churn.
  while (server.resident() > 0) (void)server.run_epoch();
  EXPECT_EQ(server.completed(), 6u);
  EXPECT_EQ(server.failed_campaigns(), 0u);

  // The explicit checkpoint is the durability barrier: after it, no
  // retired campaign's file may have been resurrected by a stale write.
  const CheckpointReply reply = server.checkpoint_all();
  EXPECT_EQ(reply.campaigns, 0u);
  EXPECT_EQ(reply.bytes, 0u);
  EXPECT_EQ(count_ckpt_files(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignServer, StrayTmpFromKilledFlushIsIgnoredOnRestore) {
  const std::filesystem::path dir = private_dir();
  std::filesystem::remove_all(dir);

  // First life: one campaign checkpointed mid-flight.
  {
    ServerConfig config;
    config.workers = 2;
    config.quantum = 1;
    config.checkpoint_dir = dir.string();
    CampaignServer first_life(config);
    ASSERT_TRUE(first_life.submit(small_request("units", 9)).has_value());
    for (int epoch = 0; epoch < 2; ++epoch) (void)first_life.run_epoch();
    ASSERT_EQ(first_life.resident(), 1u);
    (void)first_life.checkpoint_all();
  }

  // kill -9 mid-flush leaves only the tmp half of a newer write behind.
  {
    std::ofstream tmp(dir / "campaign-99.ckpt.tmp", std::ios::binary);
    tmp << "truncated by a crash";
  }

  // Second life: the stray tmp is not a checkpoint; the real one resumes.
  ServerConfig config;
  config.workers = 2;
  config.checkpoint_dir = dir.string();
  CampaignServer second_life(config);
  EXPECT_EQ(second_life.restore_from_dir(), 1u);
  EXPECT_EQ(second_life.resident(), 1u);
  second_life.drain();
  EXPECT_EQ(second_life.completed(), 1u);
  EXPECT_EQ(second_life.failed_campaigns(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignServer, DirtyTrackingSkipsCleanCampaignsAndMatchesSyncBytes) {
  const std::filesystem::path dir = private_dir();
  std::filesystem::remove_all(dir);

  ServerConfig config;
  config.workers = 2;
  config.quantum = 1;
  config.checkpoint_dir = dir.string();
  CampaignServer server(config);
  ASSERT_TRUE(server.submit(small_request("units", 5)).has_value());
  ASSERT_TRUE(server.submit(small_request("Math80", 6)).has_value());
  for (int epoch = 0; epoch < 3; ++epoch) (void)server.run_epoch();
  ASSERT_EQ(server.resident(), 2u);

  const CheckpointReply first = server.checkpoint_all();
  EXPECT_EQ(first.campaigns, 2u);
  EXPECT_GT(first.bytes, 0u);
  const std::vector<std::uint8_t> bytes_1 =
      read_file_bytes(dir / "campaign-1.ckpt");
  const std::vector<std::uint8_t> bytes_2 =
      read_file_bytes(dir / "campaign-2.ckpt");
  ASSERT_FALSE(bytes_1.empty());
  ASSERT_FALSE(bytes_2.empty());

  // No progress since: both campaigns are clean.  The reply still covers
  // them (their files are current) but serializes nothing, and the files
  // are untouched byte for byte.
  const CheckpointReply second = server.checkpoint_all();
  EXPECT_EQ(second.campaigns, 2u);
  EXPECT_EQ(second.bytes, 0u);
  EXPECT_EQ(read_file_bytes(dir / "campaign-1.ckpt"), bytes_1);
  EXPECT_EQ(read_file_bytes(dir / "campaign-2.ckpt"), bytes_2);

  // The writer's file is exactly the codec's output: decoding it and
  // re-encoding reproduces it byte for byte.
  const CampaignCheckpoint decoded =
      read_checkpoint_file((dir / "campaign-1.ckpt").string());
  EXPECT_EQ(encode_checkpoint(decoded), bytes_1);

  // One more epoch re-dirties both; the next checkpoint pays again.
  (void)server.run_epoch();
  const CheckpointReply third = server.checkpoint_all();
  EXPECT_EQ(third.campaigns, 2u);
  EXPECT_GT(third.bytes, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mwr::serve
