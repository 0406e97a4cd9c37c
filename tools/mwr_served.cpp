// mwr_served — the repair-as-a-service campaign daemon.
//
// Listens on a Unix-domain control socket for MWRW control frames
// (serve/control.hpp): clients submit campaigns, poll status, fetch
// results, request checkpoints, and ask for a drain-and-exit shutdown.
// Resident campaigns advance between control-plane services, one epoch
// at a time: every epoch steps each resident campaign by --quantum work
// units, one task per campaign on a fixed worker pool — thousands of
// tenants, and no tenant starved or run ahead (serve/server.hpp).
//
// Durability: with --checkpoint-dir the daemon persists every resident
// campaign's snapshot (each --checkpoint-every epochs and on demand);
// a daemon relaunched with --resume picks those campaigns up and
// finishes them bit-identically to an uninterrupted run — kill -9 in
// the middle of a campaign loses at most the cycles since the last
// checkpoint, never the trajectory's identity.
//
// Exit codes: 0 orderly shutdown (drain command or idle timeout),
// 1 configuration or runtime failure.
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "parallel/transport/wire.hpp"
#include "serve/control.hpp"
#include "serve/control_socket.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using mwr::parallel::transport::FrameKind;
using mwr::parallel::transport::WireFrame;

struct Daemon {
  mwr::serve::CampaignServer* server = nullptr;
  bool shutting_down = false;
};

/// Services one decoded request frame; returns the reply to send.
WireFrame handle_frame(Daemon& daemon, const WireFrame& frame) {
  using namespace mwr::serve;
  switch (frame.kind) {
    case FrameKind::kSubmit: {
      const SubmitRequest request = decode_submit_request(frame);
      SubmitReply reply;
      if (!daemon.shutting_down) {
        try {
          if (const auto id = daemon.server->submit(request)) {
            reply.accepted = true;
            reply.campaign_id = *id;
          }
        } catch (const std::invalid_argument& error) {
          std::fprintf(stderr, "mwr_served: rejecting submission: %s\n",
                       error.what());
        }
      }
      reply.resident = daemon.server->resident();
      return encode_submit_reply(reply);
    }
    case FrameKind::kStatus: {
      const std::uint64_t id = decode_status_request(frame);
      return encode_status_reply(id, daemon.server->status(id));
    }
    case FrameKind::kResult: {
      const std::uint64_t id = decode_result_request(frame);
      return encode_result_reply(daemon.server->result(id));
    }
    case FrameKind::kCheckpoint: {
      CheckpointReply reply;
      if (!daemon.server->config().checkpoint_dir.empty())
        reply = daemon.server->checkpoint_all();
      return encode_checkpoint_reply(reply);
    }
    case FrameKind::kShutdown: {
      daemon.shutting_down = true;
      return encode_shutdown_reply(daemon.server->resident());
    }
    default:
      throw std::runtime_error("mwr_served: unexpected control frame kind");
  }
}

int run(int argc, char** argv) {
  using namespace mwr;

  util::Cli cli(
      "mwr_served: campaign server — multiplexes concurrent MWRepair "
      "campaigns over a UDS control socket");
  cli.add_string("socket", "", "control socket path (required)");
  cli.add_int("max-campaigns", 256, "admission cap on resident campaigns");
  cli.add_int("quantum", 8,
              "work units every resident campaign runs per epoch (0 runs "
              "as 1)");
  cli.add_int("workers", 0,
              "epoch worker threads (0 = hardware); at 2 or more the "
              "control loop drains too, so an epoch runs on workers + 1");
  cli.add_string("checkpoint-dir", "", "campaign checkpoint directory");
  cli.add_int("checkpoint-every", 0,
              "auto-checkpoint period in epochs (0 = only on request)");
  cli.add_flag("resume", "restore campaigns from checkpoint-dir at boot");
  cli.add_double("idle-exit-seconds", 0.0,
                 "exit after this long with no work and no clients "
                 "(0 = run until shutdown command)");
  cli.add_int("stall-after-epochs", 0,
              "stop advancing campaigns after N epochs but keep serving "
              "the control plane (0 = never; CI uses this to kill -9 a "
              "daemon that is deterministically mid-campaign)");
  cli.add_string("metrics-out", "", "write a JSON metrics snapshot on exit");
  if (!cli.parse(argc, argv)) return 0;

  const std::string socket_path = cli.get_string("socket");
  if (socket_path.empty())
    throw std::runtime_error("mwr_served: --socket is required");

  serve::ServerConfig config;
  config.max_resident = static_cast<std::size_t>(cli.get_int("max-campaigns"));
  config.quantum = static_cast<std::size_t>(cli.get_int("quantum"));
  config.workers = static_cast<std::size_t>(cli.get_int("workers"));
  config.checkpoint_dir = cli.get_string("checkpoint-dir");
  config.checkpoint_every =
      static_cast<std::size_t>(cli.get_int("checkpoint-every"));

  serve::CampaignServer server(config);
  if (cli.get_flag("resume")) {
    const std::size_t restored = server.restore_from_dir();
    std::printf("mwr_served: restored %zu campaign(s) from %s\n", restored,
                config.checkpoint_dir.c_str());
  }

  serve::ControlListener listener(socket_path);
  std::printf("mwr_served: listening on %s (max %zu campaigns, quantum %zu)\n",
              socket_path.c_str(), config.max_resident, config.quantum);
  std::fflush(stdout);

  std::vector<std::unique_ptr<serve::ControlConn>> conns;
  Daemon daemon;
  daemon.server = &server;
  const double idle_exit = cli.get_double("idle-exit-seconds");
  const auto stall_after =
      static_cast<std::uint64_t>(cli.get_int("stall-after-epochs"));
  bool stall_announced = false;
  util::WallTimer idle_timer;

  for (;;) {
    while (auto conn = listener.accept_one()) {
      conns.push_back(std::move(conn));
      idle_timer.restart();
    }

    // Service every connection's pending requests in arrival order.
    for (auto it = conns.begin(); it != conns.end();) {
      std::vector<WireFrame> frames;
      bool alive;
      try {
        alive = (*it)->pump(frames);
        for (const WireFrame& frame : frames) {
          idle_timer.restart();
          if (!(*it)->send_frame(handle_frame(daemon, frame))) {
            alive = false;
            break;
          }
        }
      } catch (const std::exception& error) {
        // A malformed control stream (garbage bytes, implausible frame
        // length, bad payload shape) poisons only its own connection:
        // drop it and keep every resident campaign running.
        std::fprintf(stderr, "mwr_served: dropping connection: %s\n",
                     error.what());
        alive = false;
      }
      it = alive ? it + 1 : conns.erase(it);
    }

    if (daemon.shutting_down && server.resident() == 0) break;

    const bool stalled = stall_after != 0 && server.epochs() >= stall_after;
    if (server.resident() > 0 && !stalled) {
      server.run_epoch();
      idle_timer.restart();
      continue;  // poll the control plane again between epochs.
    }
    if (stalled && server.resident() > 0 && !stall_announced) {
      std::printf("mwr_served: stalled after %llu epochs (%zu resident)\n",
                  static_cast<unsigned long long>(server.epochs()),
                  server.resident());
      std::fflush(stdout);
      stall_announced = true;
    }

    if (idle_exit > 0.0 && idle_timer.elapsed_seconds() >= idle_exit) break;
    std::vector<serve::ControlConn*> raw;
    raw.reserve(conns.size());
    for (const auto& conn : conns) raw.push_back(conn.get());
    listener.wait_readable(raw, /*timeout_ms=*/50);
  }

  // Retirement unlinks and periodic writes may still be queued: settle
  // them before exiting, and fail loudly if any of them did not land.
  server.flush_checkpoints();
  std::printf(
      "mwr_served: exiting — %zu completed, %llu epochs, %llu starved\n",
      server.completed(), static_cast<unsigned long long>(server.epochs()),
      static_cast<unsigned long long>(server.starved_epochs()));

  if (!cli.get_string("metrics-out").empty()) {
    std::ofstream out(cli.get_string("metrics-out"));
    if (!out) throw std::runtime_error("cannot open --metrics-out path");
    out << obs::MetricsRegistry::global().to_json_string() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mwr_served: fatal: %s\n", error.what());
    return 1;
  }
}
