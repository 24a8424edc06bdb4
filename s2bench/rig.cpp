#include "rig.hpp"

#include <algorithm>

namespace s2bench {

namespace {

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::optional<sim::Ns> earliest(std::optional<sim::Ns> a,
                                std::optional<sim::Ns> b) {
  if (!a) return b;
  if (!b) return a;
  return std::min(*a, *b);
}

}  // namespace

Rig::Rig() {
  iv::Intravisor& intra = tb.intravisor();
  // Same compartment sizes as the Scenario 2 runners in experiment.cpp.
  cvm1 = &intra.create_cvm("cVM1", 96u << 20);
  inst = std::make_unique<scen::FullStackInstance>(
      tb.card(), 0, cvm1->heap(), tb.clock(), tb.morello_cfg(0));
  svc = std::make_unique<scen::Scenario2Service>(intra, *cvm1, *inst);
  app = &intra.create_cvm("cVM2", 16u << 20);
  proxy = svc->make_proxy_ops(*app);
  ops = std::make_unique<TimedOps>(proxy.get());

  // The peer host of scenarios/peer.cpp, minus its polling thread.
  machine::AddressSpace& as = intra.address_space();
  peer_card = std::make_unique<cherinet::nic::E82576Device>(
      &as.mem(), &tb.clock(),
      std::array<cherinet::nic::MacAddr, 2>{
          cherinet::nic::MacAddr::local(200),
          cherinet::nic::MacAddr::local(201)});
  peer_card->connect(0, &tb.wire(0), 1);
  peer_heap = std::make_unique<machine::CompartmentHeap>(
      &as.mem(),
      as.carve(32u << 20, cherinet::cheri::PermSet::data_rw(), "peer0-heap"));
  peer = std::make_unique<scen::FullStackInstance>(
      *peer_card, 0, *peer_heap, tb.clock(), tb.peer_cfg(0));
  peer_ops = std::make_unique<apps::DirectFfOps>(&peer->stack());
}

bool Rig::service_turn() {
  iv::CompartmentLockGuard lk(svc->mutex());
  const bool progress = inst->run_once();
  if (!progress) inst->stack().urings_set_parked(true);
  return progress;
}

bool Lockstep::round() {
  ++st_.rounds;
  bool app_progress;
  bool turn_progress;
  bool peer_progress;
  if (traced_) {
    using std::chrono::steady_clock;
    const auto t0 = steady_clock::now();
    app_progress = rig_.app->enter(app_step_);
    const auto t1 = steady_clock::now();
    turn_progress = rig_.service_turn();
    const auto t2 = steady_clock::now();
    peer_progress = rig_.peer->run_once();
    peer_progress |= peer_step_();
    const auto t3 = steady_clock::now();
    st_.app_ns += ns_between(t0, t1);
    st_.turn_ns += ns_between(t1, t2);
    st_.peer_ns += ns_between(t2, t3);
  } else {
    app_progress = rig_.app->enter(app_step_);
    turn_progress = rig_.service_turn();
    peer_progress = rig_.peer->run_once();
    peer_progress |= peer_step_();
  }
  if (!app_progress) ++st_.idle_app_steps;
  if (!turn_progress) ++st_.idle_turns;
  return app_progress || turn_progress || peer_progress;
}

void Lockstep::advance(bool progress) {
  const bool capped = ++same_instant_ >= kRoundsPerInstant;
  if (progress && !capped) return;
  sim::VirtualClock& clock = rig_.clock();
  const sim::Ns now = clock.now();
  const std::optional<sim::Ns> d = earliest(
      earliest(rig_.inst->next_deadline(), rig_.peer->next_deadline()),
      peer_deadline_());
  sim::Ns target = now + kHeartbeat;
  if (d && *d < target) target = *d;
  if (target <= now) {
    // A deadline already due re-polls at this instant (the arbiter's
    // kick); only a capped instant forces time forward.
    if (!capped) return;
    target = now + sim::Ns{1};
  }
  if (capped && progress) ++st_.capped_instants;
  same_instant_ = 0;
  clock.advance_to(target);
  ++st_.clock_advances;
}

bool Lockstep::step() {
  const bool progress = round();
  if (traced_) {
    const auto t0 = std::chrono::steady_clock::now();
    advance(progress);
    st_.advance_ns += ns_between(t0, std::chrono::steady_clock::now());
  } else {
    advance(progress);
  }
  return progress;
}

bool Lockstep::over(sim::Ns v_end, std::uint64_t r_end,
                    std::chrono::steady_clock::time_point w_end) const {
  if (rig_.clock().now() > v_end || st_.rounds > r_end) return true;
  return (st_.rounds & 0xfff) == 0 && std::chrono::steady_clock::now() > w_end;
}

bool Lockstep::run_until(const std::function<bool()>& done) {
  const sim::Ns v_end = rig_.clock().now() + kVirtualLimit;
  const std::uint64_t r_end = st_.rounds + kRoundLimit;
  const auto w_end = std::chrono::steady_clock::now() + kWallLimit;
  while (!done()) {
    if (over(v_end, r_end, w_end)) return false;
    step();
  }
  return true;
}

bool Lockstep::quiesce(sim::Ns quiet) {
  const sim::Ns v_end = rig_.clock().now() + kVirtualLimit;
  const std::uint64_t r_end = st_.rounds + kRoundLimit;
  const auto w_end = std::chrono::steady_clock::now() + kWallLimit;
  sim::Ns last_busy = rig_.clock().now();
  while (!over(v_end, r_end, w_end)) {
    if (step()) {
      last_busy = rig_.clock().now();
    } else if (rig_.clock().now() - last_busy >= quiet) {
      return true;
    }
  }
  return false;
}

}  // namespace s2bench
