// The serve workloads, fleet and heavy (bulk, closed loop), driven through
// the real mwr_served daemon over its control socket, then replayed
// in-process through serve::CampaignServer to check every result.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <spawn.h>
#include <stdexcept>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/registry.hpp"
#include "obs/serialization.hpp"
#include "perfbench.hpp"
#include "serve/client.hpp"
#include "serve/control_socket.hpp"
#include "serve/server.hpp"

extern char** environ;

namespace perfbench {

namespace {

using mwr::parallel::transport::WireFrame;
using mwr::serve::ServeClient;
using mwr::serve::SubmitRequest;

constexpr std::size_t kDaemonWorkers = 2;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Rounds after which the daemon's peak memory is read.  A timed run goes
/// on until this many rounds are done, so the figure covers the same number
/// of served campaigns on any machine.  A traced run serves exactly this
/// many: the daemon's --metrics-out dump at exit takes time quadratic in
/// its registry, which grows with every campaign served (4 s at 58k
/// metrics, 32 s at 163k), and a fixed count keeps obs.registry_metrics
/// comparable across machines.
constexpr std::size_t kRssRounds = 4;
/// Requests the fleet and heavy traced runs replay with checkpointing on.
constexpr std::size_t kCheckpointSample = 200;

/// A spawned mwr_served.  The destructor kills and reaps a daemon that is
/// still running, so no error path leaves one behind.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Peak resident set so far (VmHWM), in MiB.
  [[nodiscard]] double hwm_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;  // kB.
    }
    return 0.0;
  }

  /// Waits for the daemon to exit (killing it after `timeout_s`); true
  /// when it exited with status 0.
  bool wait_exit(double timeout_s) {
    const Clock::time_point start = Clock::now();
    for (;;) {
      int status = 0;
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      if (seconds_since(start) > timeout_s) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

 private:
  pid_t pid_ = -1;
};

/// One finished campaign as the client saw it.
struct Served {
  bool ok = false;
  std::uint64_t hash = 0;
  std::uint64_t probes = 0;
  std::uint64_t repaired = 0;
  std::string json;
};

/// A finished campaign from its final status and its result.
Served served_from(const mwr::serve::StatusReply& status,
                   mwr::serve::ResultReply&& result) {
  Served served;
  served.ok = result.ready;
  served.hash = status.trajectory_hash;
  served.probes = status.online_probes;
  served.repaired = status.repaired;
  served.json = std::move(result.outcome_json);
  return served;
}

/// Checks an mwr-campaign-outcome-v1 document against its request and the
/// final status reply.
bool well_formed(const Served& served, const SubmitRequest& request,
                 std::string& why) {
  try {
    const mwr::obs::JsonValue doc = mwr::obs::JsonValue::parse(served.json);
    if (doc.at("schema").as_string() != "mwr-campaign-outcome-v1") {
      why = "schema " + doc.at("schema").as_string();
      return false;
    }
    const auto& bugs = doc.at("bugs").as_array();
    if (bugs.size() != request.bugs) {
      why = "bug count " + std::to_string(bugs.size());
      return false;
    }
    for (const auto& bug : bugs) {
      if (!bug.at("online_probes").is_number() ||
          !bug.at("repaired").is_bool()) {
        why = "bug entry fields";
        return false;
      }
    }
    if (static_cast<std::uint64_t>(doc.at("repaired").as_double()) !=
        served.repaired) {
      why = "repaired count disagrees with status";
      return false;
    }
  } catch (const std::exception& error) {
    why = std::string("malformed outcome document: ") + error.what();
    return false;
  }
  return true;
}

/// Polls one campaign until it is done, then fetches its result.  Every
/// control request waits for up to one daemon epoch, so no sleep is
/// needed between polls.
Served fetch_when_done(ServeClient& client, std::uint64_t id) {
  mwr::serve::StatusReply status;
  do {
    status = client.status(id);
  } while (status.known && !status.done);
  if (!status.known) return {};
  return served_from(status, client.result(id));
}

void check_served(const Served& served, const SubmitRequest& request,
                  std::uint64_t id, Report& report) {
  std::string why;
  if (!served.ok) {
    report.fail("campaign " + std::to_string(id) + " has no result");
  } else if (!well_formed(served, request, why)) {
    report.fail("campaign " + std::to_string(id) + ": " + why);
  }
}

struct LiveDaemon {
  std::unique_ptr<DaemonProcess> process;
  std::unique_ptr<ServeClient> client;
  std::string dir;
  std::string socket;
  std::string metrics_path;
};

/// Spawns a daemon, waits for its socket and runs the workload's warm-up
/// campaigns to completion, so shared pools and oracles exist before timing.
LiveDaemon start_daemon(const Options& options, const ServeWorkload& w,
                        int index, bool metrics_out, Report& report) {
  LiveDaemon live;
  live.dir = options.out_dir + "/daemon" + std::to_string(index);
  std::filesystem::create_directories(live.dir);
  live.socket = live.dir + "/ctl.sock";
  std::vector<std::string> args = {
      "--socket",        live.socket,
      "--workers",       std::to_string(kDaemonWorkers),
      "--max-campaigns", std::to_string(w.requests.size())};
  if (metrics_out) {
    live.metrics_path = live.dir + "/metrics.json";
    args.insert(args.end(), {"--metrics-out", live.metrics_path});
  }
  live.process = std::make_unique<DaemonProcess>(options.daemon, args,
                                                 live.dir + "/daemon.log");
  live.client = std::make_unique<ServeClient>(live.socket, 20000);

  std::vector<std::uint64_t> ids;
  for (const SubmitRequest& request : w.warmup) {
    ++report.attempted;
    const mwr::serve::SubmitReply reply = live.client->submit(request);
    if (!reply.accepted) {
      report.fail("warm-up submit rejected");
      ids.push_back(0);
    } else {
      ids.push_back(reply.campaign_id);
    }
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == 0) continue;
    check_served(fetch_when_done(*live.client, ids[i]), w.warmup[i], ids[i],
                 report);
  }
  return live;
}

/// Shuts a daemon down over the wire and waits for it; false on an
/// unclean exit.
bool stop_daemon(LiveDaemon& live) {
  (void)live.client->shutdown();
  live.client.reset();
  return live.process->wait_exit(60.0);
}

/// What the timed socket phase measured.
struct SocketRun {
  std::vector<Served> served;        ///< by request index (first round).
  std::vector<double> p50_samples;   ///< latency p50 (ms) per round.
  std::vector<double> p99_samples;   ///< latency p99 (ms) per round.
  std::vector<double> rate_samples;  ///< campaigns/s per round.
  std::vector<double> cpu_samples;   ///< probes/s per round.
  std::vector<double> submit_rtt_s;  ///< send to reply, per submit.
  std::vector<double> status_rtt_s;  ///< send to reply, per status poll.
  std::uint64_t completed = 0;
  std::uint64_t polls = 0;
  std::uint64_t probes = 0;
  std::uint64_t repaired = 0;
  double peak_rss_mb = 0.0;
};

/// One reply of a pipelined exchange and when it arrived.
struct Reply {
  WireFrame frame;
  Clock::time_point received;
};

/// Sends every request frame on `conn` without waiting between them: a
/// sender thread writes the frames while this thread reads the replies,
/// which the daemon sends in arrival order and services in the same pass
/// between two epochs.  Appends each request's send-to-reply time to
/// `rtt_s`.
std::vector<Reply> exchange(mwr::serve::ControlConn& conn,
                            const std::vector<WireFrame>& requests,
                            std::vector<double>& rtt_s) {
  const std::size_t n = requests.size();
  // Atomic so the receiver may read a send time without a data race; it
  // only reads one after the reply to that request has arrived.
  std::vector<std::atomic<std::int64_t>> sent_ns(n);
  const Clock::time_point origin = Clock::now();
  const auto ns_since_origin = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin)
        .count();
  };
  std::exception_ptr send_error;
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        sent_ns[i].store(ns_since_origin(), std::memory_order_release);
        if (!conn.send_frame(requests[i]))
          throw std::runtime_error("daemon closed the control connection");
      }
    } catch (...) {
      send_error = std::current_exception();
    }
  });
  std::vector<Reply> replies;
  replies.reserve(n);
  try {
    while (replies.size() < n) {
      std::optional<WireFrame> frame = conn.recv_frame();
      if (!frame) throw std::runtime_error("daemon closed before replying");
      const Clock::time_point received = Clock::now();
      const std::int64_t sent =
          sent_ns[replies.size()].load(std::memory_order_acquire);
      rtt_s.push_back(static_cast<double>(ns_since_origin() - sent) * 1e-9);
      replies.push_back({std::move(*frame), received});
    }
  } catch (...) {
    // Unblock a sender stuck on a full socket before joining it.
    ::shutdown(conn.fd(), SHUT_RDWR);
    sender.join();
    throw;
  }
  sender.join();
  if (send_error) std::rethrow_exception(send_error);
  return replies;
}

/// fleet / heavy: submit every request at once, collect every result,
/// repeat the same requests until the time is up and at least kRssRounds
/// rounds are done (traced: exactly kRssRounds rounds).
///
/// Collection polls every outstanding campaign round-robin: one pipelined
/// batch of STATUS requests over all of them, then one pipelined batch of
/// RESULT requests for those that read done, and again until none is
/// outstanding.  A sweep costs about one daemon epoch, so a campaign's
/// latency follows its completion, not the order it was submitted in.
void closed_loop(const Options& options, const ServeWorkload& w,
                 const LiveDaemon& live, Tracer& tracer, Report& report,
                 SocketRun& run) {
  const std::size_t n = w.requests.size();
  run.served.resize(n);
  std::vector<WireFrame> submits;
  for (const SubmitRequest& request : w.requests)
    submits.push_back(mwr::serve::encode_submit_request(request));
  const std::unique_ptr<mwr::serve::ControlConn> conn =
      mwr::serve::connect_control(live.socket, 20000);
  std::vector<double> result_rtt_s;
  const Clock::time_point start = Clock::now();
  std::size_t round = 0;
  do {
    const Span round_span(tracer, "bench.round", round + 1);
    const Clock::time_point round_start = Clock::now();
    std::vector<std::uint64_t> ids(n, 0);
    std::vector<Reply> replies;
    {
      const Span span(tracer, "control.submit_batch", round + 1);
      replies = exchange(*conn, submits, run.submit_rtt_s);
    }
    std::vector<std::size_t> outstanding;  // request indices.
    for (std::size_t i = 0; i < n; ++i) {
      ++report.attempted;
      const mwr::serve::SubmitReply reply =
          mwr::serve::decode_submit_reply(replies[i].frame);
      if (reply.accepted) {
        ids[i] = reply.campaign_id;
        outstanding.push_back(i);
      } else {
        report.fail("submit rejected at " + std::to_string(reply.resident) +
                    " resident");
      }
    }
    std::uint64_t completed = 0;
    std::uint64_t probes = 0;
    std::vector<double> latency_ms;
    while (!outstanding.empty()) {
      std::vector<WireFrame> polls;
      for (const std::size_t i : outstanding)
        polls.push_back(mwr::serve::encode_status_request(ids[i]));
      {
        const Span span(tracer, "control.status_sweep", round + 1);
        replies = exchange(*conn, polls, run.status_rtt_s);
      }
      run.polls += polls.size();
      std::vector<std::size_t> pending;
      std::vector<std::size_t> done;
      std::vector<mwr::serve::StatusReply> done_status;
      std::vector<WireFrame> fetches;
      for (std::size_t k = 0; k < outstanding.size(); ++k) {
        const std::size_t i = outstanding[k];
        mwr::serve::StatusReply status =
            mwr::serve::decode_status_reply(replies[k].frame);
        if (!status.known) {
          report.fail("campaign " + std::to_string(ids[i]) + " is unknown");
        } else if (status.done) {
          done.push_back(i);
          done_status.push_back(status);
          fetches.push_back(mwr::serve::encode_result_request(ids[i]));
        } else {
          pending.push_back(i);
        }
      }
      if (!fetches.empty()) {
        const Span span(tracer, "control.result_batch", round + 1);
        replies = exchange(*conn, fetches, result_rtt_s);
      }
      for (std::size_t k = 0; k < done.size(); ++k) {
        const std::size_t i = done[k];
        latency_ms.push_back(
            std::chrono::duration<double, std::milli>(replies[k].received -
                                                      round_start)
                .count());
        Served served = served_from(
            done_status[k], mwr::serve::decode_result_reply(replies[k].frame));
        check_served(served, w.requests[i], ids[i], report);
        ++completed;
        probes += served.probes;
        run.repaired += served.repaired;
        if (round == 0) {
          run.served[i] = std::move(served);
        } else if (served.hash != run.served[i].hash ||
                   served.json != run.served[i].json) {
          report.fail("request " + std::to_string(i) +
                      " gave a different result in round " +
                      std::to_string(round + 1));
        }
      }
      outstanding = std::move(pending);
    }
    const double wall = seconds_since(round_start);
    run.p50_samples.push_back(percentile(latency_ms, 0.5));
    run.p99_samples.push_back(percentile(latency_ms, 0.99));
    run.rate_samples.push_back(static_cast<double>(completed) / wall);
    run.cpu_samples.push_back(static_cast<double>(probes) / wall);
    run.completed += completed;
    run.probes += probes;
    ++round;
    if (round == kRssRounds) run.peak_rss_mb = live.process->hwm_mb();
  } while (round < kRssRounds ||
           (!options.trace && seconds_since(start) < options.seconds));
}

/// The in-process replay of the same requests through CampaignServer.
struct Replay {
  std::vector<Served> served;
  double wall_s = 0.0;
  double busy_s = 0.0;  ///< sum of run_epoch wall time.
  std::vector<double> epoch_s;
  std::vector<double> first_fetch_s;
  std::uint64_t epochs = 0;
  std::uint64_t starved = 0;
  std::uint64_t failed = 0;
  mwr::serve::OracleHub::Stats hub;
  double checkpoint_critical_s = 0.0;
  double checkpoint_writer_s = 0.0;
  std::uint64_t checkpoint_bytes = 0;
};

/// Replays `w` in-process, admitting requests as fast as the admission cap
/// allows.  With `checkpoint_dir` the server checkpoints every epoch and
/// checkpoint_all runs once halfway through the submissions.
Replay replay(const ServeWorkload& w, std::size_t workers,
              const std::string& checkpoint_dir, Tracer& tracer) {
  mwr::obs::MetricsRegistry::global().reset();
  mwr::serve::ServerConfig config;
  config.max_resident = w.requests.size();
  config.workers = workers;
  if (!checkpoint_dir.empty()) {
    std::filesystem::remove_all(checkpoint_dir);
    config.checkpoint_dir = checkpoint_dir;
    config.checkpoint_every = 1;
  }
  Replay out;
  const std::size_t n = w.requests.size();
  out.served.resize(n);
  std::vector<std::uint64_t> ids(n, 0);
  std::deque<std::size_t> outstanding;  // request indices, oldest first.
  bool checkpointed = checkpoint_dir.empty();
  {
    mwr::serve::CampaignServer server(config);
    const Span root(tracer, "bench.replay");
    const Clock::time_point start = Clock::now();
    const auto collect = [&] {
      while (!outstanding.empty()) {
        const std::size_t i = outstanding.front();
        mwr::serve::StatusReply status;
        {
          const Span span(tracer, "server.status", ids[i]);
          status = server.status(ids[i]);
        }
        if (!status.done) break;
        mwr::serve::ResultReply result;
        const Clock::time_point fetch = Clock::now();
        {
          const Span span(tracer, "server.result", ids[i]);
          result = server.result(ids[i]);
        }
        out.first_fetch_s.push_back(seconds_since(fetch));
        out.served[i] = served_from(status, std::move(result));
        outstanding.pop_front();
      }
    };
    std::size_t next = 0;
    for (;;) {
      while (next < n && server.resident() < config.max_resident) {
        std::optional<std::uint64_t> id;
        {
          const Span span(tracer, "server.submit", next + 1);
          id = server.submit(w.requests[next]);
        }
        if (!id) break;
        ids[next] = *id;
        outstanding.push_back(next);
        ++next;
        if (!checkpointed && next >= n / 2) {
          const Span span(tracer, "server.checkpoint_all");
          (void)server.checkpoint_all();
          checkpointed = true;
        }
      }
      if (server.resident() > 0) {
        const Clock::time_point epoch_start = Clock::now();
        {
          const Span span(tracer, "server.run_epoch", server.epochs() + 1);
          (void)server.run_epoch();
        }
        const double seconds = seconds_since(epoch_start);
        out.busy_s += seconds;
        out.epoch_s.push_back(seconds);
        collect();
        continue;
      }
      collect();
      if (next >= n && outstanding.empty()) break;
    }
    out.wall_s = seconds_since(start);
    out.epochs = server.epochs();
    out.starved = server.starved_epochs();
    out.failed = server.failed_campaigns();
    out.hub = server.hub().stats();
    out.checkpoint_critical_s = server.checkpoint_critical_seconds();
    out.checkpoint_writer_s = server.checkpoint_writer_seconds();
    out.checkpoint_bytes = mwr::obs::MetricsRegistry::global()
                               .counter("serve.checkpoint_bytes")
                               .value();
  }
  if (!checkpoint_dir.empty()) std::filesystem::remove_all(checkpoint_dir);
  return out;
}

/// Every socket result must equal the in-process replay's, byte for byte,
/// trajectory hash included.
void compare_with_replay(const ServeWorkload& w, const SocketRun& run,
                         const Replay& reference, Report& report) {
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const Served& got = run.served[i];
    const Served& want = reference.served[i];
    if (!got.ok) continue;  // already counted as failed.
    if (!want.ok) {
      report.fail("request " + std::to_string(i) + ": replay has no result");
    } else if (got.hash != want.hash) {
      report.fail("request " + std::to_string(i) +
                  ": trajectory hash differs from the in-process replay");
    } else if (got.json != want.json) {
      report.fail("request " + std::to_string(i) +
                  ": outcome document differs from the in-process replay");
    }
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Reads the daemon's --metrics-out dump: the registry's size, the counters
/// behind the per-layer ratios (printed with their bases), and the
/// daemon's starved-epoch and failed-campaign counts, which are added to
/// the replay's `starved` and `failed`.
void read_metrics_dump(const std::string& path, double starved, double failed,
                       Report& report) {
  std::ifstream in(path);
  if (!in) {
    report.fail("daemon wrote no metrics dump at " + path);
    return;
  }
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  const mwr::obs::JsonValue doc = mwr::obs::JsonValue::parse(body);
  const auto counter = [&](const char* name) -> double {
    const auto& counters = doc.at("counters");
    return counters.contains(name) ? counters.at(name).as_double() : 0.0;
  };
  const std::size_t metrics = doc.at("counters").size() +
                              doc.at("gauges").size() +
                              doc.at("histograms").size();
  report.set("obs.registry_metrics", static_cast<double>(metrics), "count");
  report.set("obs.metrics_dump_bytes", static_cast<double>(body.size()),
             "bytes");
  const double hits = counter("oracle.mask_cache_hits");
  const double misses = counter("oracle.mask_cache_misses");
  report.set("oracle.cache_hit_ratio", ratio(hits, hits + misses), "share");
  std::printf(
      "# daemon dump: %zu metrics, %zu bytes; oracle.mask_cache hits %.0f "
      "misses %.0f; oracle.pair_cache hits %.0f misses %.0f; serve.hub "
      "oracle builds %.0f hits %.0f, pool builds %.0f hits %.0f; "
      "repair.online.probes %.0f; serve.epochs %.0f\n",
      metrics, body.size(), hits, misses, counter("oracle.pair_cache_hits"),
      counter("oracle.pair_cache_misses"), counter("serve.hub.oracle_builds"),
      counter("serve.hub.oracle_hits"), counter("serve.hub.pool_builds"),
      counter("serve.hub.pool_hits"), counter("repair.online.probes"),
      counter("serve.epochs"));
  report.set("server.starved_epochs",
             starved + counter("serve.starved_epochs"), "count");
  report.set("server.failed_campaigns",
             failed + counter("serve.failed_campaigns"), "count");
}

std::size_t correctness_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

}  // namespace

void run_serve(const Options& options, Tracer& tracer, Report& report) {
  const ServeWorkload w = make_serve_workload(options);
  std::printf("# workload %s: %zu requests per round (the admission cap), "
              "%zu warm-up\n",
              w.name.c_str(), w.requests.size(), w.warmup.size());

  // Set-up, several times: spawn through socket ready and warm-up done.
  // All but the last daemon are shut down again; the last one is timed.
  std::vector<double> setup_s;
  LiveDaemon live;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    live = start_daemon(options, w, k, options.trace && k + 1 == kSetups,
                        report);
    setup_s.push_back(seconds_since(t0));
    if (k + 1 < kSetups) {
      if (!stop_daemon(live)) report.fail("warm-up daemon exited uncleanly");
      std::filesystem::remove_all(live.dir);
    }
  }

  SocketRun run;
  {
    const Span root(tracer, "bench.socket_run");
    closed_loop(options, w, live, tracer, report, run);
  }
  if (!stop_daemon(live)) report.fail("daemon exited uncleanly");

  Tracer off(false);
  const Replay reference =
      options.trace ? replay(w, kDaemonWorkers, "", tracer)
                    : replay(w, correctness_workers(), "", off);
  compare_with_replay(w, run, reference, report);

  std::printf(
      "# socket run: %llu campaigns in %zu round(s), one latency sample "
      "each, %llu polls, %llu probes, %llu repaired bugs\n",
      static_cast<unsigned long long>(run.completed), run.rate_samples.size(),
      static_cast<unsigned long long>(run.polls),
      static_cast<unsigned long long>(run.probes),
      static_cast<unsigned long long>(run.repaired));

  if (!options.trace) {
    report.set("campaigns_per_s", percentile(run.rate_samples, 0.5), "1/s");
    // Each round gives a p50 and a p99 over its campaigns; the run reports
    // the medians.
    report.set("result_latency_p50_ms", percentile(run.p50_samples, 0.5),
               "ms");
    report.set("result_latency_p99_ms", percentile(run.p99_samples, 0.5),
               "ms");
    report.set("cpu_iterations_per_s", percentile(run.cpu_samples, 0.5),
               "1/s");
    report.set("setup_s", percentile(setup_s, 0.5), "s");
    report.set("peak_rss_mb", run.peak_rss_mb, "MB");
    return;
  }

  // --- per-layer metrics (traced run) ---
  const auto us = [](std::vector<double> s) {
    for (double& x : s) x *= 1e6;
    return s;
  };
  const std::vector<double> submit_us = us(run.submit_rtt_s);
  const std::vector<double> status_us = us(run.status_rtt_s);
  std::printf("# control samples: %zu submits, %zu status polls\n",
              submit_us.size(), status_us.size());
  report.set("control.submit_rtt_p50_us", percentile(submit_us, 0.5), "us");
  report.set("control.status_rtt_p50_us", percentile(status_us, 0.5), "us");
  report.set("control.status_rtt_p99_us", percentile(status_us, 0.99), "us");
  report.set("control.polls_per_campaign",
             ratio(static_cast<double>(run.polls),
                   static_cast<double>(run.completed)),
             "count");
  report.set("repair.probes_per_repair",
             ratio(static_cast<double>(run.probes),
                   static_cast<double>(run.repaired)),
             "count");
  std::printf("# repair.probes_per_repair base: %llu probes / %llu repairs\n",
              static_cast<unsigned long long>(run.probes),
              static_cast<unsigned long long>(run.repaired));

  read_metrics_dump(live.metrics_path, static_cast<double>(reference.starved),
                    static_cast<double>(reference.failed), report);

  std::printf("# replay at %zu workers: %zu epochs, %.3f s wall, %.3f s busy\n",
              kDaemonWorkers, reference.epoch_s.size(), reference.wall_s,
              reference.busy_s);
  report.set("server.epoch_p50_us", percentile(us(reference.epoch_s), 0.5),
             "us");
  report.set("server.epoch_p99_us", percentile(us(reference.epoch_s), 0.99),
             "us");
  report.set("server.epochs", static_cast<double>(reference.epochs), "count");
  report.set("server.busy_share", ratio(reference.busy_s, reference.wall_s),
             "share");
  report.set("server.result_first_fetch_us",
             percentile(us(reference.first_fetch_s), 0.5), "us");
  const auto& hub = reference.hub;
  report.set("hub.oracle_hit_ratio",
             ratio(static_cast<double>(hub.oracle_hits),
                   static_cast<double>(hub.oracle_hits + hub.oracle_builds)),
             "share");
  report.set("hub.pool_hit_ratio",
             ratio(static_cast<double>(hub.pool_hits),
                   static_cast<double>(hub.pool_hits + hub.pool_builds)),
             "share");
  std::printf("# hub base: oracle builds %llu hits %llu, pool builds %llu "
              "hits %llu\n",
              static_cast<unsigned long long>(hub.oracle_builds),
              static_cast<unsigned long long>(hub.oracle_hits),
              static_cast<unsigned long long>(hub.pool_builds),
              static_cast<unsigned long long>(hub.pool_hits));
  // The checkpoint layer.  The daemon runs without durability, so the
  // traced run replays a sample of the workload's own requests with a
  // checkpoint directory and checkpoint_every = 1.
  ServeWorkload sample = w;
  sample.requests.resize(std::min(w.requests.size(), kCheckpointSample));
  const Replay ckpt =
      replay(sample, kDaemonWorkers, options.out_dir + "/sample-ckpt", tracer);
  const std::size_t ckpt_campaigns = sample.requests.size();
  std::printf("# checkpoint base: %llu bytes over %zu campaigns, %llu "
              "epochs\n",
              static_cast<unsigned long long>(ckpt.checkpoint_bytes),
              ckpt_campaigns, static_cast<unsigned long long>(ckpt.epochs));
  report.set("checkpoint.critical_us_per_epoch",
             ratio(ckpt.checkpoint_critical_s * 1e6,
                   static_cast<double>(ckpt.epochs)),
             "us");
  report.set("checkpoint.bytes_per_campaign",
             ratio(static_cast<double>(ckpt.checkpoint_bytes),
                   static_cast<double>(ckpt_campaigns)),
             "bytes");
  report.set("checkpoint.writer_s", ckpt.checkpoint_writer_s, "s");

  // The same replay at one worker: engine.speedup_2v1 is the ratio of the
  // two replays' busy (run_epoch) time.
  const Replay single = replay(w, 1, "", off);
  report.set("engine.speedup_2v1", ratio(single.busy_s, reference.busy_s), "x");
  std::printf("# replay at 1 worker: %.3f s busy\n", single.busy_s);

  measure_apr_layers(w, tracer, report);
}

}  // namespace perfbench
