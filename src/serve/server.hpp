// CampaignServer: multiplexes many concurrent repair campaigns over one
// persistent parallel::ThreadPool.
//
// Execution model — one task per campaign (DESIGN.md §14):
//
//   submit()     admission control: a campaign is admitted while the
//                resident count is below the configured cap, planned via
//                plan_campaign(), given "campaign/<id>/" scoped metrics,
//                and made resident.
//   run_epoch()  one scheduling epoch: a parallel_for_index over every
//                resident campaign, in ascending id order, on the
//                server's pool (threads parked between epochs; no
//                per-epoch spawn/join; the control loop drains alongside
//                them).  Task i calls step(max(1, quantum)) on campaign
//                i's session and records the units used, the probes
//                issued, its wall time and any exception in its own
//                slot.  Then, serially and in ascending id order, each
//                slot's counters are booked and finished campaigns are
//                retired: result JSON rendered on first fetch (the same
//                mwr-campaign-outcome-v1 document repair_tool emits),
//                checkpoint removal routed through the async writer.  A
//                campaign whose step threw fails alone.
//   checkpoint_all() / restore_from_dir()
//                durability: the epoch path serializes only *dirty*
//                campaigns (progress since their last checkpoint) into
//                in-memory buffers and hands them to the CheckpointWriter
//                thread, which does tmp + fsync + rename off the critical
//                path.  An explicit checkpoint_all flushes the writer
//                before replying; periodic epoch checkpoints do not.  A
//                fresh daemon reloads the directory and resumes every
//                campaign bit-identically (the trajectory-hash pin).
//
// The server itself is single-threaded: submit/run_epoch/checkpoint are
// called from the daemon's control loop, never concurrently.  The only
// intra-epoch concurrency is the per-campaign tasks.  Each owns its
// session (and so its RNG stream) and its result slot; what tasks share
// is the OracleHub (builds under its mutex, primed tables read-only) and
// the metrics registry (relaxed atomics).  plan_campaign forces every
// campaign single-threaded, so tasks never nest.  The writer thread only
// ever sees byte buffers the critical path has already sealed.
//
// Fairness: CampaignSession::step(budget) consumes the whole budget
// unless the campaign finishes, so every resident campaign advances by
// exactly max(1, quantum) units per epoch — round robin with an equal
// quantum, no carried credit (none would ever accrue).  Telemetry:
// serve.starved_epochs counts campaigns that ended an epoch with zero
// units consumed while unfinished; the budget >= 1 rule keeps it at
// exactly zero, and CI asserts that on every serve-lane run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apr/campaign_session.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/control.hpp"
#include "serve/oracle_hub.hpp"

namespace mwr::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace mwr::obs

namespace mwr::serve {

class CheckpointWriter;

struct ServerConfig {
  std::size_t max_resident = 256;   ///< admission-control cap.
  std::size_t quantum = 8;          ///< work units per campaign-epoch
                                    ///< (0 runs as 1).
  /// Epoch workers; 0 = hardware_concurrency.  The epoch runs on one
  /// thread at workers <= 1 and on workers + 1 threads at 2 or more: W
  /// parked pool threads plus the control loop, which drains too.
  std::size_t workers = 0;
  std::string checkpoint_dir;       ///< empty = durability disabled.
  std::size_t checkpoint_every = 0; ///< epochs between auto-checkpoints;
                                    ///< 0 = only explicit checkpoint_all().
};

class CampaignServer {
 public:
  /// Step-latency samples retained for percentile telemetry: a rolling
  /// window, so a long-lived daemon's memory does not grow with epochs.
  static constexpr std::size_t kLatencyWindowCapacity = 1024;

  explicit CampaignServer(ServerConfig config);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Admission control: returns the campaign id, or nullopt when the
  /// resident cap is reached.  Throws std::invalid_argument for a
  /// malformed request (unknown scenario / MWU kind, degenerate repair
  /// knobs — see plan_campaign).
  std::optional<std::uint64_t> submit(const SubmitRequest& request);

  /// Runs one epoch: steps every resident campaign by quantum units.
  /// Returns false when there was nothing to run.
  bool run_epoch();

  /// Steps epochs until every resident campaign has finished, then
  /// flushes the checkpoint writer (see flush_checkpoints).
  void drain();

  /// Waits until every queued checkpoint write and retirement unlink is
  /// on disk.  Throws std::runtime_error when a writer operation failed
  /// since the last flush, so the error is reported rather than lost.
  /// A no-op when nothing was ever queued.
  void flush_checkpoints();

  [[nodiscard]] std::size_t resident() const noexcept;
  [[nodiscard]] std::size_t completed() const noexcept;
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_run_; }
  /// Campaign-epochs that made zero progress (the starvation monitor;
  /// invariantly 0: every epoch budgets each campaign >= 1 unit).
  [[nodiscard]] std::uint64_t starved_epochs() const noexcept {
    return starved_epochs_count_;
  }
  /// Campaigns retired because their session threw mid-epoch (each one
  /// fails alone; the daemon and every other tenant keep running).
  [[nodiscard]] std::uint64_t failed_campaigns() const noexcept {
    return failed_count_;
  }

  [[nodiscard]] StatusReply status(std::uint64_t campaign_id) const;
  /// Result JSON for a finished campaign (ready=false while running or
  /// for unknown ids).
  [[nodiscard]] ResultReply result(std::uint64_t campaign_id) const;

  /// Wall seconds of one campaign's step(budget) in one epoch, timed
  /// inside its task — one sample per campaign-epoch, the distribution
  /// behind the bench's p50/p99 step latency.  Returns the rolling
  /// window's contents (at most kLatencyWindowCapacity samples; order is
  /// not meaningful — consumers compute percentiles).
  [[nodiscard]] std::vector<double> campaign_step_seconds() const;

  /// Wall seconds the epoch/checkpoint critical path spent serializing
  /// snapshots and queueing them (everything checkpointing costs the
  /// control loop; file I/O is checkpoint_writer_seconds()).
  [[nodiscard]] double checkpoint_critical_seconds() const noexcept {
    return checkpoint_critical_seconds_;
  }
  /// Wall seconds the async writer thread spent in file operations
  /// (tmp write + fsync + rename), off the critical path.
  [[nodiscard]] double checkpoint_writer_seconds() const;

  /// Serializes every dirty resident campaign, queues the writes, and
  /// flushes the writer (the durability barrier an explicit checkpoint
  /// promises).  reply.campaigns counts every resident campaign whose
  /// durable state is current after the call — clean campaigns are
  /// covered by their existing file and cost no bytes; reply.bytes is
  /// what this call actually serialized.  Throws std::logic_error when
  /// no checkpoint_dir is configured, std::runtime_error when a write
  /// failed.
  CheckpointReply checkpoint_all();
  /// Loads every "*.ckpt" in checkpoint_dir and resumes the campaigns;
  /// returns how many were restored.  Stray "*.ckpt.tmp" files (a crash
  /// mid-flush) are ignored.  A campaign whose snapshot cannot be resumed
  /// is failed alone (counted in failed_campaigns(), not restored).
  std::size_t restore_from_dir();

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const OracleHub& hub() const noexcept { return hub_; }

 private:
  struct Campaign {
    std::uint64_t id = 0;
    SubmitRequest request;
    std::unique_ptr<apr::CampaignSession> session;
    /// Final outcome, kept so the result document can be rendered on
    /// first fetch instead of at retirement (most campaigns in a bulk
    /// load are never fetched; rendering them all on the epoch path was
    /// measurable).  Null for failed campaigns, which render their
    /// error document eagerly.
    std::unique_ptr<apr::CampaignOutcome> outcome;
    /// Result document; lazily rendered from `outcome` (single-threaded
    /// server, so the mutable cache is unsynchronized by design).
    mutable std::string result_json;
    std::string error;              ///< non-empty = campaign failed.
    std::uint64_t final_hash = 0;
    std::uint64_t online_cycles = 0;
    std::uint64_t online_probes = 0;
    std::uint64_t repaired = 0;   ///< filled at completion.
    std::uint64_t bugs_done = 0;  ///< filled at completion.
    /// online_cycles value at the last checkpoint of this campaign; the
    /// dirty predicate is checkpointed_units != online_cycles (units
    /// strictly increase every granted epoch while unfinished).  ~0 =
    /// never checkpointed.
    std::uint64_t checkpointed_units = ~0ull;
  };

  void finish_campaign(Campaign&& campaign);
  /// Retires a campaign whose session threw (campaign.error holds the
  /// message): the result frame becomes an mwr-campaign-error-v1
  /// document, leaving every other tenant untouched.
  void fail_campaign(Campaign&& campaign);
  void fill_status(const Campaign& campaign, StatusReply& reply) const;
  [[nodiscard]] std::string checkpoint_path(std::uint64_t campaign_id) const;
  /// The async writer (created on first use; also makes checkpoint_dir).
  CheckpointWriter& writer();
  /// Serializes dirty campaigns and queues their writes (no flush).
  /// Returns the bytes serialized; accumulates the critical-path timer.
  std::uint64_t enqueue_dirty_checkpoints();
  void record_step_latency(double seconds);

  ServerConfig config_;
  OracleHub hub_;
  std::map<std::uint64_t, Campaign> running_;
  std::map<std::uint64_t, Campaign> finished_;
  std::uint64_t next_id_ = 1;
  std::uint64_t epochs_run_ = 0;
  std::uint64_t starved_epochs_count_ = 0;
  std::uint64_t failed_count_ = 0;
  parallel::ThreadPool pool_;  // the epoch's participants.
  std::unique_ptr<CheckpointWriter> writer_;
  double checkpoint_critical_seconds_ = 0.0;
  // Rolling latency window (ring buffer; latency_next_ wraps).
  std::vector<double> latency_window_;
  std::size_t latency_next_ = 0;

  obs::Counter* submitted_;
  obs::Counter* rejected_;
  obs::Counter* completed_;
  obs::Counter* epochs_counter_;
  obs::Counter* starved_counter_;
  obs::Counter* failed_counter_;
  obs::Counter* checkpoint_bytes_;
  obs::Gauge* resident_gauge_;
  obs::Histogram* step_seconds_;
};

}  // namespace mwr::serve
