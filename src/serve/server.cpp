#include "serve/server.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "apr/outcome_json.hpp"
#include "obs/registry.hpp"
#include "obs/serialization.hpp"
#include "serve/checkpoint.hpp"
#include "serve/checkpoint_writer.hpp"
#include "util/timer.hpp"

namespace mwr::serve {

namespace {
// The epoch pool's participants (ServerConfig::workers).  At W >= 2 the
// control loop drains alongside W parked threads.
std::size_t epoch_participants(std::size_t workers) {
  const std::size_t resolved = parallel::resolve_worker_count(workers);
  return resolved <= 1 ? 1 : resolved + 1;
}
}  // namespace

CampaignServer::CampaignServer(ServerConfig config)
    : config_(std::move(config)),
      pool_(epoch_participants(config_.workers)) {
  auto& metrics = obs::MetricsRegistry::global();
  submitted_ = &metrics.counter("serve.submitted");
  rejected_ = &metrics.counter("serve.admission_rejects");
  completed_ = &metrics.counter("serve.completed");
  epochs_counter_ = &metrics.counter("serve.epochs");
  starved_counter_ = &metrics.counter("serve.starved_epochs");
  failed_counter_ = &metrics.counter("serve.failed_campaigns");
  checkpoint_bytes_ = &metrics.counter("serve.checkpoint_bytes");
  resident_gauge_ = &metrics.gauge("serve.resident");
  step_seconds_ = &metrics.histogram("serve.campaign_step_seconds");
}

CampaignServer::~CampaignServer() = default;

CheckpointWriter& CampaignServer::writer() {
  if (!writer_) {
    std::filesystem::create_directories(config_.checkpoint_dir);
    writer_ = std::make_unique<CheckpointWriter>();
  }
  return *writer_;
}

double CampaignServer::checkpoint_writer_seconds() const {
  return writer_ ? writer_->stats().writer_seconds : 0.0;
}

void CampaignServer::record_step_latency(double seconds) {
  if (latency_window_.size() < kLatencyWindowCapacity) {
    latency_window_.push_back(seconds);
  } else {
    latency_window_[latency_next_] = seconds;
    latency_next_ = (latency_next_ + 1) % kLatencyWindowCapacity;
  }
  step_seconds_->observe(seconds);
}

std::vector<double> CampaignServer::campaign_step_seconds() const {
  return latency_window_;
}

std::optional<std::uint64_t> CampaignServer::submit(
    const SubmitRequest& request) {
  if (running_.size() >= config_.max_resident) {
    rejected_->add(1);
    return std::nullopt;
  }
  // Plan first: a malformed request must throw, not burn an id.
  CampaignPlan plan = plan_campaign(request);
  const std::uint64_t id = next_id_++;
  Campaign campaign;
  campaign.id = id;
  campaign.request = request;
  campaign.session = std::make_unique<apr::CampaignSession>(
      std::move(plan.spec), plan.config, &hub_);
  campaign.session->set_metric_scope("campaign/" + std::to_string(id));
  running_.emplace(id, std::move(campaign));
  submitted_->add(1);
  resident_gauge_->set(static_cast<double>(running_.size()));
  return id;
}

bool CampaignServer::run_epoch() {
  if (running_.empty()) return false;

  // One task per resident campaign, in ascending id order (running_ is a
  // std::map).  Each calls step(budget) on its own session, which owns
  // its RNG stream, and writes only its own slot.  A throwing session
  // fails alone; its task never aborts the sweep.  Every campaign gets
  // the same budget: step() consumes all of it unless the campaign
  // finishes, so a per-campaign carry-over would never be non-zero.
  struct Slot {
    Campaign* campaign = nullptr;
    std::size_t used = 0;
    std::size_t probes = 0;
    double seconds = 0.0;
    std::string error;
  };
  const std::size_t budget = std::max<std::size_t>(1, config_.quantum);
  std::vector<Slot> slots;
  slots.reserve(running_.size());
  for (auto& [id, campaign] : running_)
    slots.emplace_back().campaign = &campaign;
  pool_.parallel_for_index(slots.size(), [&](std::size_t i) {
    Slot& slot = slots[i];
    apr::CampaignSession& session = *slot.campaign->session;
    const util::WallTimer timer;
    try {
      slot.used = session.step(budget);
      slot.probes = session.probes_last_step();
    } catch (const std::exception& error) {
      slot.error = error.what();
      if (slot.error.empty()) slot.error = "campaign step failed";
    } catch (...) {
      slot.error = "campaign step failed";
    }
    slot.seconds = timer.elapsed_seconds();
  });

  // Settle in ascending id order, so retire, fail and checkpoint order
  // never depends on the task schedule.
  std::vector<std::uint64_t> retired;
  std::vector<std::uint64_t> failed;
  for (const Slot& slot : slots) {
    Campaign& campaign = *slot.campaign;
    campaign.online_cycles += slot.used;
    campaign.online_probes += slot.probes;
    record_step_latency(slot.seconds);
    if (!slot.error.empty()) {
      campaign.error = slot.error;
      failed.push_back(campaign.id);
    } else if (campaign.session->done()) {
      retired.push_back(campaign.id);
    } else if (slot.used == 0) {
      // Every budget is >= 1 and sessions consume >= 1 unit while
      // unfinished, so this counter staying at zero is the no-starvation
      // proof obligation CI checks.
      ++starved_epochs_count_;
      starved_counter_->add(1);
    }
  }

  for (const std::uint64_t id : failed) {
    Campaign campaign = std::move(running_.at(id));
    running_.erase(id);
    fail_campaign(std::move(campaign));
  }
  for (const std::uint64_t id : retired) {
    Campaign campaign = std::move(running_.at(id));
    running_.erase(id);
    finish_campaign(std::move(campaign));
  }

  ++epochs_run_;
  epochs_counter_->add(1);
  resident_gauge_->set(static_cast<double>(running_.size()));
  if (!config_.checkpoint_dir.empty() && config_.checkpoint_every != 0 &&
      epochs_run_ % config_.checkpoint_every == 0 && !running_.empty()) {
    // Periodic checkpoints are fully async: serialize dirty campaigns,
    // queue the writes, keep scheduling.  No flush — durability at the
    // periodic cadence is best-effort by design; the explicit
    // checkpoint_all is the barrier.
    checkpoint_bytes_->add(enqueue_dirty_checkpoints());
  }
  return true;
}

void CampaignServer::drain() {
  while (run_epoch()) {
  }
  flush_checkpoints();
}

void CampaignServer::flush_checkpoints() {
  if (writer_) writer_->flush();
}

void CampaignServer::finish_campaign(Campaign&& campaign) {
  const apr::CampaignOutcome& outcome = campaign.session->outcome();
  campaign.final_hash = campaign.session->trajectory_hash();
  campaign.repaired = outcome.repaired();
  campaign.bugs_done = outcome.bugs.size();
  // Keep the outcome; result() renders the document on first fetch.
  campaign.outcome = std::make_unique<apr::CampaignOutcome>(outcome);
  campaign.session.reset();  // drop pool/lease memory; keep the ledger.
  if (!config_.checkpoint_dir.empty()) {
    // Route the removal through the writer so it orders after (and
    // cancels) any in-flight write for this campaign.
    writer().enqueue_remove(campaign.id, checkpoint_path(campaign.id));
  }
  completed_->add(1);
  const std::uint64_t id = campaign.id;
  finished_.emplace(id, std::move(campaign));
}

void CampaignServer::fail_campaign(Campaign&& campaign) {
  obs::JsonValue root = obs::JsonValue::object();
  root.set("schema", "mwr-campaign-error-v1");
  root.set("error", campaign.error);
  campaign.result_json = root.dump(/*indent=*/2);
  campaign.result_json += "\n";
  if (campaign.session) {  // null when the campaign failed to resume.
    campaign.final_hash = campaign.session->trajectory_hash();
    campaign.repaired = campaign.session->bugs_repaired();
    campaign.bugs_done = campaign.session->bugs_completed();
    campaign.session.reset();
  }
  if (!config_.checkpoint_dir.empty()) {
    writer().enqueue_remove(campaign.id, checkpoint_path(campaign.id));
  }
  ++failed_count_;
  failed_counter_->add(1);
  const std::uint64_t id = campaign.id;
  finished_.emplace(id, std::move(campaign));
}

std::size_t CampaignServer::resident() const noexcept {
  return running_.size();
}

std::size_t CampaignServer::completed() const noexcept {
  return finished_.size();
}

void CampaignServer::fill_status(const Campaign& campaign,
                                 StatusReply& reply) const {
  reply.known = true;
  reply.bugs_total = campaign.request.bugs;
  reply.online_cycles = campaign.online_cycles;
  reply.online_probes = campaign.online_probes;
  if (campaign.session) {
    reply.done = false;
    reply.bug_index = campaign.session->bugs_completed();
    reply.repaired = campaign.session->bugs_repaired();
    reply.trajectory_hash = campaign.session->trajectory_hash();
  } else {
    reply.done = true;
    reply.bug_index = campaign.bugs_done;
    reply.repaired = campaign.repaired;
    reply.trajectory_hash = campaign.final_hash;
  }
}

StatusReply CampaignServer::status(std::uint64_t campaign_id) const {
  StatusReply reply;
  if (const auto it = running_.find(campaign_id); it != running_.end()) {
    fill_status(it->second, reply);
  } else if (const auto fin = finished_.find(campaign_id);
             fin != finished_.end()) {
    fill_status(fin->second, reply);
  }
  return reply;
}

ResultReply CampaignServer::result(std::uint64_t campaign_id) const {
  ResultReply reply;
  reply.campaign_id = campaign_id;
  if (const auto it = finished_.find(campaign_id); it != finished_.end()) {
    const Campaign& campaign = it->second;
    if (campaign.result_json.empty() && campaign.outcome != nullptr) {
      // dump(2) + newline: byte-identical to what repair_tool
      // --outcome-out writes for the same campaign (the one-schema
      // satellite), just rendered on demand instead of at retirement.
      campaign.result_json =
          apr::outcome_to_json(*campaign.outcome).dump(/*indent=*/2);
      campaign.result_json += "\n";
    }
    reply.ready = true;
    reply.outcome_json = campaign.result_json;
  }
  return reply;
}

std::string CampaignServer::checkpoint_path(std::uint64_t campaign_id) const {
  return config_.checkpoint_dir + "/campaign-" + std::to_string(campaign_id) +
         ".ckpt";
}

std::uint64_t CampaignServer::enqueue_dirty_checkpoints() {
  // The critical path pays only for campaigns that progressed since
  // their last checkpoint: serialize the snapshot into a buffer with
  // encode_checkpoint and queue it; the writer thread does the file I/O
  // (write_checkpoint_bytes: tmp + fsync + rename).
  const util::WallTimer timer;
  std::uint64_t bytes = 0;
  CheckpointWriter& w = writer();
  for (auto& [id, campaign] : running_) {
    if (campaign.checkpointed_units == campaign.online_cycles) continue;
    CampaignCheckpoint checkpoint;
    checkpoint.campaign_id = id;
    checkpoint.request = campaign.request;
    checkpoint.snapshot = campaign.session->snapshot();
    std::vector<std::uint8_t> encoded = encode_checkpoint(checkpoint);
    bytes += encoded.size();
    w.enqueue_write(id, checkpoint_path(id), std::move(encoded));
    campaign.checkpointed_units = campaign.online_cycles;
  }
  checkpoint_critical_seconds_ += timer.elapsed_seconds();
  return bytes;
}

CheckpointReply CampaignServer::checkpoint_all() {
  if (config_.checkpoint_dir.empty())
    throw std::logic_error("CampaignServer: no checkpoint_dir configured");
  CheckpointReply reply;
  reply.bytes = enqueue_dirty_checkpoints();
  // Every resident campaign is covered after the flush: dirty ones by
  // the writes just queued, clean ones by the file already on disk.
  reply.campaigns = running_.size();
  writer().flush();  // the explicit checkpoint's durability barrier.
  checkpoint_bytes_->add(reply.bytes);
  return reply;
}

std::size_t CampaignServer::restore_from_dir() {
  if (config_.checkpoint_dir.empty())
    throw std::logic_error("CampaignServer: no checkpoint_dir configured");
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.checkpoint_dir, ec)) {
    // ".ckpt" only: a stray ".ckpt.tmp" from a crash mid-flush is not a
    // checkpoint (extension() of "x.ckpt.tmp" is ".tmp").
    if (entry.path().extension() == ".ckpt") files.push_back(entry.path());
  }
  if (ec) return 0;  // missing directory: nothing to restore.
  std::sort(files.begin(), files.end());

  std::size_t restored = 0;
  for (const std::filesystem::path& path : files) {
    CampaignCheckpoint checkpoint = read_checkpoint_file(path.string());
    CampaignPlan plan = plan_campaign(checkpoint.request);
    Campaign campaign;
    campaign.id = checkpoint.campaign_id;
    campaign.request = checkpoint.request;
    next_id_ = std::max(next_id_, campaign.id + 1);
    try {
      campaign.session = apr::CampaignSession::resume(
          checkpoint.snapshot, std::move(plan.spec), plan.config, &hub_);
    } catch (const std::exception& error) {
      // A snapshot this daemon cannot resume (say, a working pool that is
      // no subset of the re-acquired base pool) fails that campaign alone.
      campaign.error = error.what();
      fail_campaign(std::move(campaign));
      continue;
    }
    campaign.session->set_metric_scope("campaign/" +
                                       std::to_string(campaign.id));
    // The file just read IS the current state: clean until it progresses.
    campaign.checkpointed_units = campaign.online_cycles;
    if (campaign.session->done()) {
      finish_campaign(std::move(campaign));
    } else {
      const std::uint64_t id = campaign.id;
      running_.emplace(id, std::move(campaign));
    }
    ++restored;
  }
  resident_gauge_->set(static_cast<double>(running_.size()));
  return restored;
}

}  // namespace mwr::serve
