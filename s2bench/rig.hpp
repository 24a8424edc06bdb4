// The Scenario 2 testbed composed from the repository's public parts, and
// the single-threaded lockstep loop that steps it.
//
// Rig: MorelloTestbed (card, wires, Intravisor), cVM1 holding one
// FullStackInstance served by Scenario2Service, an application cVM whose
// ff_* calls go through make_proxy_ops (wrapped in TimedOps), and a peer
// FullStackInstance with its own 82576 on the far side of wire 0, driven
// through DirectFfOps.
//
// Lockstep: each round runs the app step inside CVM::enter, then cVM1's
// run_once under the service's compartment mutex (marking attached urings
// parked when that turn was idle, as the service loop does), then the
// peer's turn. A round without progress advances the VirtualClock to the
// earliest deadline any party announced, capped at the heartbeat the
// threaded loops use — the TimeArbiter's job done inline. Rounds at one
// virtual instant are bounded; the forced advances count as capped
// instants. Hard limits on virtual time, rounds and wall time turn a
// livelock into a failed run instead of a hang.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "apps/ff_ops.hpp"
#include "intravisor/compartment_mutex.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/scenario2.hpp"
#include "timed_ops.hpp"

namespace s2bench {

namespace scen = cherinet::scen;
namespace sim = cherinet::sim;
namespace iv = cherinet::iv;
namespace machine = cherinet::machine;
namespace apps = cherinet::apps;
namespace fstack = cherinet::fstack;

/// Idle heartbeat of the threaded service loop (scenario2.cpp kHeartbeat).
inline constexpr sim::Ns kHeartbeat{500'000};
/// Rounds allowed at one virtual instant before time is forced forward.
inline constexpr std::uint32_t kRoundsPerInstant = 16;

struct Rig {
  Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  scen::MorelloTestbed tb;
  iv::CVM* cvm1 = nullptr;
  std::unique_ptr<scen::FullStackInstance> inst;
  std::unique_ptr<scen::Scenario2Service> svc;
  iv::CVM* app = nullptr;
  std::unique_ptr<apps::FfOps> proxy;
  std::unique_ptr<TimedOps> ops;  // the app's view of the proxied ff_* API

  std::unique_ptr<cherinet::nic::E82576Device> peer_card;
  std::unique_ptr<machine::CompartmentHeap> peer_heap;
  std::unique_ptr<scen::FullStackInstance> peer;
  std::unique_ptr<apps::DirectFfOps> peer_ops;

  [[nodiscard]] sim::VirtualClock& clock() noexcept { return tb.clock(); }
  [[nodiscard]] fstack::FfStack& stack() noexcept { return inst->stack(); }
  [[nodiscard]] fstack::FfStack& peer_stack() noexcept {
    return peer->stack();
  }
  /// One cVM1 main-loop turn, serialized like Scenario2Service's loop.
  bool service_turn();
};

/// Host-time and round accounting of one lockstep phase.
struct StepStats {
  std::uint64_t rounds = 0;
  std::uint64_t idle_app_steps = 0;
  std::uint64_t idle_turns = 0;  // cVM1 run_once calls without progress
  std::uint64_t clock_advances = 0;
  std::uint64_t capped_instants = 0;
  std::uint64_t app_ns = 0;   // traced only
  std::uint64_t turn_ns = 0;  // traced only
  std::uint64_t peer_ns = 0;  // traced only
  /// Traced only: the clock step after each round (deadline scan, advance).
  std::uint64_t advance_ns = 0;
};

// Limits of one phase, after which it counts as failed instead of running on.
inline constexpr sim::Ns kVirtualLimit{20'000'000'000};  // 20 s virtual
inline constexpr std::uint64_t kRoundLimit = 400'000'000;
inline constexpr std::chrono::seconds kWallLimit{40};

class Lockstep {
 public:
  Lockstep(Rig& rig, std::function<bool()> app_step,
           std::function<bool()> peer_step,
           std::function<std::optional<sim::Ns>()> peer_deadline)
      : rig_(rig),
        app_step_(std::move(app_step)),
        peer_step_(std::move(peer_step)),
        peer_deadline_(std::move(peer_deadline)) {}

  void set_traced(bool on) noexcept { traced_ = on; }
  [[nodiscard]] const StepStats& stats() const noexcept { return st_; }
  void reset_stats() noexcept { st_ = StepStats{}; }

  /// Run rounds until `done()` holds. Returns false when a limit hit first.
  bool run_until(const std::function<bool()>& done);
  /// Run until no party made progress for `quiet` of virtual time.
  bool quiesce(sim::Ns quiet);

 private:
  bool round();
  void advance(bool progress);
  /// One round and the clock step that follows it.
  bool step();
  [[nodiscard]] bool over(sim::Ns v_end,
                          std::uint64_t r_end,
                          std::chrono::steady_clock::time_point w_end) const;

  Rig& rig_;
  std::function<bool()> app_step_;
  std::function<bool()> peer_step_;
  std::function<std::optional<sim::Ns>()> peer_deadline_;
  bool traced_ = false;
  std::uint32_t same_instant_ = 0;
  StepStats st_;
};

}  // namespace s2bench
