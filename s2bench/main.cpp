// s2bench: the Scenario 2 host-cost benchmark.
//
//   s2bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats episodes of one workload for about --seconds of wall time. An
// episode builds a fresh testbed (timed as set-up, with connection
// set-up), runs the measured phase, tears the applications down and checks
// the outputs. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, taken from
// traced episodes that alternate with untraced ones (their wall-time ratio
// is the tracing overhead). Every lockstep episode of one seed must repeat
// every count and virtual metric bit for bit; a mismatch fails the run.
// Exit status 0 only when every check passed.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace s2bench {
namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, double>;

constexpr int kMinEpisodes = 4;
constexpr int kMaxEpisodes = 400;
constexpr sim::Ns kQuiet{50'000'000};  // teardown: 50 ms without progress
// Proxied calls of the per-episode probe (see probe_calls).
constexpr int kProbeCalls = 2000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear interpolation between closest ranks (numpy's default).
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double f = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - f) +
         static_cast<double>(v[hi]) * f;
}

std::uint32_t in_use(const cherinet::updk::Mempool& p) {
  return p.size() - p.available();
}

/// Every monotone counter the per-layer metrics are differences of.
Counters snapshot(Rig& rig) {
  Counters c;
  fstack::FfStack& st = rig.stack();
  const auto& s = st.stats();
  c["fstack.rx_frames"] = static_cast<double>(s.rx_frames);
  c["fstack.tx_frames"] = static_cast<double>(s.tx_frames);
  c["fstack.rx_dropped"] = static_cast<double>(s.rx_dropped);
  c["fstack.tcp_rst_out"] = static_cast<double>(s.tcp_rst_out);
  c["fstack.csum_errors"] = static_cast<double>(s.csum_errors);
  c["fstack.tx_stage_deferred"] = static_cast<double>(s.tx_stage_deferred);
  c["fstack.tx_stage_drops"] = static_cast<double>(s.tx_stage_drops);
  const auto& tx = st.tx_stats();
  c["fstack.tx_copied_bytes"] = static_cast<double>(tx.copied_bytes);
  c["fstack.tx_zc_bytes"] = static_cast<double>(tx.zc_bytes);
  c["fstack.tx_emit_read_bytes"] =
      static_cast<double>(tx.emit_payload_reads);
  c["fstack.tx_stack_checksum_bytes"] =
      static_cast<double>(tx.stack_checksum_bytes);
  const auto& rx = st.rx_stats();
  c["fstack.rx_copied_bytes"] = static_cast<double>(rx.copied_bytes);
  c["fstack.rx_loaned_bytes"] = static_cast<double>(rx.loaned_bytes);
  const auto rec = st.tcp_recovery_stats();
  c["fstack.rexmits"] = static_cast<double>(rec.rexmits);
  c["fstack.fast_rexmits"] = static_cast<double>(rec.fast_rexmits);
  c["fstack.rto_expirations"] = static_cast<double>(rec.rto_expirations);
  c["fstack.spurious_rexmit_bytes"] =
      static_cast<double>(rec.spurious_rexmit_bytes);
  const auto& api = st.api_stats();
  c["uring.sqes"] = static_cast<double>(api.uring_sqes);
  c["uring.cqes"] = static_cast<double>(api.uring_cqes);
  c["uring.doorbells"] = static_cast<double>(api.uring_doorbells);
  c["uring.sqe_errors"] = static_cast<double>(api.uring_sqe_errors);
  c["updk.pool_alloc_failures"] =
      static_cast<double>(rig.inst->pool().stats().alloc_failures);
  const auto es = rig.inst->dev().stats();
  c["updk.opackets"] = static_cast<double>(es.opackets);
  c["updk.tx_bursts"] = static_cast<double>(es.tx_bursts);
  c["updk.tx_descs"] = static_cast<double>(es.tx_segs);
  c["updk.tso_frames"] = static_cast<double>(es.tso_frames);
  c["updk.imissed"] = static_cast<double>(es.imissed);
  for (int side = 0; side < 2; ++side) {
    const auto ws = rig.tb.wire(0).stats(side);
    c["nic.wire_frames"] += static_cast<double>(ws.tx_frames);
    c["nic.wire_bytes"] += static_cast<double>(ws.tx_bytes);
    c["nic.wire_dropped"] += static_cast<double>(ws.dropped);
    c["nic.side" + std::to_string(side) + "_frames"] =
        static_cast<double>(ws.tx_frames);
  }
  c["intravisor.crossings"] =
      static_cast<double>(rig.tb.intravisor().entries().crossings());
  c["intravisor.tramp_syscalls"] =
      static_cast<double>(rig.app->trampoline().crossings() +
                          rig.cvm1->trampoline().crossings());
  c["intravisor.mutex_fast"] =
      static_cast<double>(rig.svc->mutex().fast_acquires());
  c["intravisor.mutex_contended"] =
      static_cast<double>(rig.svc->mutex().contended_acquires());
  c["scenarios.proxied_calls"] =
      static_cast<double>(rig.svc->proxied_calls());
  const auto& ops = rig.ops->stats();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::string base = std::string("ffapi.") + kOpNames[i];
    c[base + ".calls"] = static_cast<double>(ops[i].calls);
    c[base + ".ns"] = static_cast<double>(ops[i].ns);
    c[base + ".eagain"] = static_cast<double>(ops[i].eagain);
  }
  return c;
}

struct Episode {
  bool traced = false;
  std::vector<std::string> failures;
  double setup_s = 0;
  double wall_ns = 0;
  double cpu_ns = 0;
  double bytes = 0;
  double msgs = 0;
  double nominal_msgs = 0;  // what a failed episode counts as failed
  double goodput_mbps = 0;
  double crossings = 0;
  std::vector<std::int64_t> rtt_ns;
  std::vector<std::uint32_t> ffcall_ns;
  Counters layer;  // per-layer values of this episode
  /// Counts and virtual metrics that must repeat bit for bit.
  std::vector<double> signature;
};

/// Per-layer metrics derived from the measured phase's counter deltas.
Counters derive_layers(const Counters& d, const StepStats& ds,
                       double wall_ns, sim::Ns vspan, bool lockstep) {
  const auto at = [&d](const std::string& k) {
    const auto it = d.find(k);
    return it == d.end() ? 0.0 : it->second;
  };
  const auto share = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  // Raw deltas pass through under their own names; run() prints only the
  // per-layer names.
  Counters m = d;
  m["uring.useful_sqe_share"] =
      at("uring.sqes") > 0 ? 1.0 - at("uring.sqe_errors") / at("uring.sqes")
                           : 0.0;
  m["updk.frames_per_tx_burst"] =
      share(at("updk.opackets"), at("updk.tx_bursts"));
  const sim::CostModel price = sim::CostModel::morello();
  m["intravisor.spin_ns_modeled"] =
      at("intravisor.crossings") *
          static_cast<double>(price.domain_switch_extra.count()) +
      at("intravisor.tramp_syscalls") *
          static_cast<double>(price.trampoline_crossing().count());
  m["scenarios.mutex_contended_share"] =
      share(at("intravisor.mutex_contended"),
            at("intravisor.mutex_fast") + at("intravisor.mutex_contended"));
  double calls = 0, ns = 0, eagain = 0;
  for (const char* op : kOpNames) {
    const std::string base = std::string("ffapi.") + op;
    calls += at(base + ".calls");
    ns += at(base + ".ns");
    eagain += at(base + ".eagain");
  }
  m["ffapi.calls"] = calls;
  m["ffapi.ns"] = ns;
  m["ffapi.eagain_share"] = share(eagain, calls);
  const double rounds = static_cast<double>(ds.rounds);
  m["apps.step_ns"] = static_cast<double>(ds.app_ns);
  m["apps.idle_step_share"] =
      share(static_cast<double>(ds.idle_app_steps), rounds);
  m["fstack.turn_ns"] = static_cast<double>(ds.turn_ns);
  m["fstack.idle_turn_share"] =
      lockstep ? share(static_cast<double>(ds.idle_turns), rounds) : 0.0;
  m["peer.turn_ns"] = static_cast<double>(ds.peer_ns);
  m["sim.clock_ns"] = static_cast<double>(vspan.count());
  m["sim.clock_advances"] = static_cast<double>(ds.clock_advances);
  m["sim.capped_instants"] = static_cast<double>(ds.capped_instants);
  m["sim.rounds"] = rounds;
  m["sim.advance_ns"] = static_cast<double>(ds.advance_ns);
  m["trace.closure_share"] =
      lockstep ? share(static_cast<double>(ds.app_ns + ds.turn_ns +
                                           ds.peer_ns + ds.advance_ns),
                       wall_ns)
               : 0.0;
  return m;
}

/// A fixed train of proxied ff_epoll_wait calls on an empty epoll set,
/// issued by the app cVM after the measured phase: the sealed entry, the
/// compartment mutex, the cost-model spin and a minimal ff_* body. It gives
/// every workload enough ffcall samples; the zc stream apps make about ten
/// proxied calls per episode.
void probe_calls(Rig& rig) {
  rig.app->enter([&] {
    const int epfd = rig.ops->epoll_create();
    fstack::FfEpollEvent ev[1];
    for (int i = 0; i < kProbeCalls; ++i) rig.ops->epoll_wait(epfd, ev);
    rig.ops->close(epfd);
  });
}

/// Run the threaded measured phase: Scenario2Service's own loop on cVM1's
/// thread, the app on its cVM thread, the peer on a plain thread, all
/// paced by the testbed's TimeArbiter.
bool run_threaded(Rig& rig, Workload& wl, bool traced, StepStats& ds) {
  sim::TimeArbiter& arb = rig.tb.arbiter();
  sim::VirtualClock& clock = rig.clock();
  arb.expect_participants(3);
  std::atomic<bool> stop{false};
  rig.cvm1->start([&] { rig.svc->run_loop(stop, arb); });
  std::uint64_t app_ns = 0, app_steps = 0, app_idle = 0;
  rig.app->start([&] {
    sim::Participant part(arb, "cVM2");
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t token = part.prepare();
      const auto t0 = Clock::now();
      const bool progress = wl.app_step();
      if (traced) app_ns += ns_since(t0);
      ++app_steps;
      if (progress) continue;
      ++app_idle;
      part.wait(token, clock.now() + sim::Ns{1'000'000});
    }
  });
  std::uint64_t peer_ns = 0;
  std::thread peer([&] {
    sim::Participant part(arb, "peer0");
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t token = part.prepare();
      const auto t0 = Clock::now();
      bool progress = rig.peer->run_once();
      progress |= wl.peer_step();
      if (traced) peer_ns += ns_since(t0);
      if (progress) continue;
      std::optional<sim::Ns> d = rig.peer->next_deadline();
      const auto p = wl.peer_deadline();
      if (p && (!d || *p < *d)) d = p;
      const sim::Ns cap = clock.now() + kHeartbeat;
      part.wait(token, d && *d < cap ? *d : cap);
    }
  });
  const auto give_up = Clock::now() + kWallLimit;
  bool finished = true;
  while (!wl.measure_done()) {
    if (Clock::now() > give_up) {
      finished = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop.store(true, std::memory_order_release);
  arb.kick();
  rig.app->join();
  rig.cvm1->join();
  peer.join();
  ds.rounds = app_steps;
  ds.idle_app_steps = app_idle;
  ds.app_ns = app_ns;
  ds.peer_ns = peer_ns;
  return finished;
}

Episode run_episode(const std::string& name, std::uint64_t seed,
                    bool traced) {
  Episode ep;
  ep.traced = traced;
  const auto t_setup = Clock::now();
  Rig rig;
  const std::uint32_t base_st = in_use(rig.inst->pool());
  const std::uint32_t base_peer = in_use(rig.peer->pool());
  std::unique_ptr<Workload> wl = make_workload(name);
  Rng rng(seed);
  wl->build(rig, rng);
  ep.nominal_msgs = wl->nominal_messages();
  Lockstep ls(
      rig, [&] { return wl->app_step(); }, [&] { return wl->peer_step(); },
      [&] { return wl->peer_deadline(); });
  if (!ls.run_until([&] { return wl->setup_done(); })) {
    ep.failures.push_back("connection set-up hit the lockstep limits");
    wl->teardown(rig);
    return ep;
  }
  ep.setup_s = seconds_since(t_setup);

  // ---- measured phase ----
  wl->begin_measure();
  const Counters c0 = snapshot(rig);
  const sim::Ns v0 = rig.clock().now();
  ls.reset_stats();
  ls.set_traced(traced);
  StepStats ds;
  const double cpu0 = cpu_ns();
  const auto w0 = Clock::now();
  bool finished = true;
  if (wl->threaded()) {
    finished = run_threaded(rig, *wl, traced, ds);
  } else {
    finished = ls.run_until([&] { return wl->measure_done(); });
    ds = ls.stats();
  }
  ep.wall_ns = static_cast<double>(ns_since(w0));
  ep.cpu_ns = cpu_ns() - cpu0;
  const sim::Ns vspan = rig.clock().now() - v0;
  const Counters c1 = snapshot(rig);
  ls.set_traced(false);
  wl->end_measure();
  if (!finished) ep.failures.push_back("measured phase hit the lockstep limits");

  Counters delta;
  for (const auto& [k, v] : c1) delta[k] = v - c0.at(k);
  ep.bytes = wl->bytes();
  const auto msgs = wl->messages();
  ep.msgs = msgs ? *msgs
                 : delta.at("nic.side" + std::to_string(wl->data_side()) +
                            "_frames");
  ep.goodput_mbps = wl->goodput_mbps();
  ep.crossings =
      delta.at("intravisor.crossings") + delta.at("intravisor.tramp_syscalls");
  ep.layer = derive_layers(delta, ds, ep.wall_ns, vspan, !wl->threaded());

  probe_calls(rig);

  // ---- teardown and output checks ----
  if (!ls.quiesce(kQuiet)) ep.failures.push_back("teardown did not quiesce");
  wl->teardown(rig);
  if (!ls.quiesce(kQuiet)) ep.failures.push_back("teardown did not quiesce");
  ep.rtt_ns = std::move(wl->rtt_ns());
  ep.ffcall_ns = rig.ops->samples();  // every call, the probe's included
  wl->check(rig, ep.failures);
  if (rig.app->faulted() || rig.cvm1->faulted()) {
    ep.failures.push_back("a compartment faulted");
  }
  if (in_use(rig.inst->pool()) != base_st ||
      in_use(rig.peer->pool()) != base_peer) {
    ep.failures.push_back(
        "mempool in-use did not return to baseline: cVM1 " +
        std::to_string(in_use(rig.inst->pool())) + " vs " +
        std::to_string(base_st) + ", peer " +
        std::to_string(in_use(rig.peer->pool())) + " vs " +
        std::to_string(base_peer));
  }
  const auto drops = [](fstack::FfStack& st) {
    return st.stats().rx_dropped + st.dev().stats().imissed;
  };
  if (drops(rig.stack()) != 0 || drops(rig.peer_stack()) != 0) {
    ep.failures.push_back("frames dropped on receive");
  }
  if (rig.tb.wire(0).stats(0).dropped + rig.tb.wire(0).stats(1).dropped != 0) {
    ep.failures.push_back("frames dropped on the clean wire");
  }

  if (!wl->threaded()) {
    // Host times are excluded: everything else must repeat per seed.
    for (const auto& [k, v] : delta) {
      if (k.size() < 3 || k.compare(k.size() - 3, 3, ".ns") != 0) {
        ep.signature.push_back(v);
      }
    }
    for (double v : {static_cast<double>(ds.rounds),
                     static_cast<double>(ds.idle_app_steps),
                     static_cast<double>(ds.idle_turns),
                     static_cast<double>(ds.clock_advances),
                     static_cast<double>(ds.capped_instants),
                     static_cast<double>(vspan.count()), ep.bytes, ep.msgs,
                     ep.goodput_mbps,
                     static_cast<double>(ep.ffcall_ns.size())}) {
      ep.signature.push_back(v);
    }
    for (std::int64_t r : ep.rtt_ns) {
      ep.signature.push_back(static_cast<double>(r));
    }
  }
  return ep;
}

struct Metric {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported with tracing off.
constexpr Metric kEndToEnd[] = {
    {"host_ns_per_kib", "ns/KiB"}, {"cpu_ns_per_kib", "ns/KiB"},
    {"host_ns_per_msg", "ns/msg"}, {"ffcall_ns_p90", "ns"},
    {"rtt_us_p50", "us"},
    {"rtt_us_p99", "us"},          {"goodput_mbps", "Mbit/s"},
    {"crossings_per_mib", "1/MiB"}, {"crossings_per_msg", "1/msg"},
    {"setup_s", "s"},              {"ok_share", "share"},
};

// Per-op ffapi metrics are reported for the calls the workloads make.
constexpr const char* kLayerOps[] = {
    "write", "writev", "readv", "close", "epoll_ctl", "zc_recycle_batch",
    "uring_detach", "uring_doorbell"};

std::string layer_unit(const std::string& name) {
  const auto ends = [&name](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_share")) return "share";
  if (ends("_ns") || ends(".ns") || ends("_ns_modeled") || ends("_ns_p50")) {
    return "ns";
  }
  if (ends("_bytes")) return "bytes";
  if (ends("frames_per_tx_burst")) return "frames/burst";
  return "count";
}

std::vector<std::string> layer_names() {
  std::vector<std::string> names = {
      "apps.step_ns", "apps.idle_step_share", "ffapi.calls", "ffapi.ns",
      "ffapi.eagain_share", "ffapi.call_ns_p50"};
  for (const char* op : kLayerOps) {
    names.push_back(std::string("ffapi.") + op + ".calls");
    names.push_back(std::string("ffapi.") + op + ".ns");
  }
  for (const char* n :
       {"intravisor.crossings", "intravisor.tramp_syscalls",
        "intravisor.mutex_fast", "intravisor.mutex_contended",
        "intravisor.spin_ns_modeled", "fstack.turn_ns",
        "fstack.idle_turn_share", "fstack.rx_frames", "fstack.tx_frames",
        "fstack.rx_dropped", "fstack.tcp_rst_out", "fstack.csum_errors",
        "fstack.tx_stage_deferred", "fstack.tx_stage_drops",
        "fstack.tx_copied_bytes", "fstack.tx_zc_bytes",
        "fstack.tx_emit_read_bytes", "fstack.tx_stack_checksum_bytes",
        "fstack.rx_copied_bytes", "fstack.rx_loaned_bytes", "fstack.rexmits",
        "fstack.fast_rexmits", "fstack.rto_expirations",
        "fstack.spurious_rexmit_bytes", "uring.sqes", "uring.cqes",
        "uring.doorbells", "uring.useful_sqe_share",
        "updk.pool_alloc_failures", "updk.frames_per_tx_burst",
        "updk.tx_descs", "updk.tso_frames", "updk.imissed",
        "nic.wire_frames", "nic.wire_bytes", "nic.wire_dropped",
        "sim.clock_ns", "sim.clock_advances", "sim.capped_instants",
        "sim.rounds", "sim.advance_ns", "peer.turn_ns", "scenarios.proxied_calls",
        "scenarios.mutex_contended_share", "trace.closure_share",
        "trace.overhead_share"}) {
    names.emplace_back(n);
  }
  return names;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Reading {
  std::string name;
  double value;
  std::string unit;
};

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Reading>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": "
       << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: s2bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::stoull(v);
    } else if (k == "--seconds") {
      seconds = std::stod(v);
    } else if (k == "--trace") {
      trace = v == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !make_workload(workload)) return usage();

  const auto start = Clock::now();
  std::vector<Episode> eps;
  while (static_cast<int>(eps.size()) < kMinEpisodes ||
         (seconds_since(start) < seconds &&
          static_cast<int>(eps.size()) < kMaxEpisodes)) {
    const bool traced = trace && eps.size() % 2 == 1;
    eps.push_back(run_episode(workload, seed, traced));
    for (const auto& f : eps.back().failures) {
      std::fprintf(stderr, "episode %zu: %s\n", eps.size() - 1, f.c_str());
    }
    if (!eps.back().failures.empty()) break;  // the run has failed
  }

  // Determinism self-check: lockstep episodes of one seed repeat exactly.
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  bool correct = true;
  for (std::size_t i = 0; i < eps.size(); ++i) {
    if (eps[i].signature != eps[0].signature) {
      eps[i].failures.push_back("counts differ from episode 0 of this seed");
      std::fprintf(stderr, "episode %zu: counts differ from episode 0\n", i);
    }
    const bool ok = eps[i].failures.empty();
    const auto units = static_cast<std::uint64_t>(
        ok ? std::max(1.0, eps[i].msgs)
           : std::max(eps[i].msgs, eps[i].nominal_msgs));
    attempted += units;
    if (!ok) {
      correct = false;
      failed += units;
    }
  }

  std::vector<double> per_kib, cpu_kib, per_msg, goodput, xmib, xmsg, setup;
  std::vector<std::uint32_t> ffcall, ffcall_traced;
  std::vector<std::int64_t> rtt;
  std::vector<double> wall_plain, wall_traced;
  for (const Episode& e : eps) {
    setup.push_back(e.setup_s);
    (e.traced ? wall_traced : wall_plain).push_back(e.wall_ns);
    if (e.traced) {
      ffcall_traced.insert(ffcall_traced.end(), e.ffcall_ns.begin(),
                           e.ffcall_ns.end());
      continue;
    }
    const double kib = e.bytes / 1024.0;
    per_kib.push_back(kib > 0 ? e.wall_ns / kib : 0.0);
    cpu_kib.push_back(kib > 0 ? e.cpu_ns / kib : 0.0);
    per_msg.push_back(e.msgs > 0 ? e.wall_ns / e.msgs : 0.0);
    goodput.push_back(e.goodput_mbps);
    xmib.push_back(kib > 0 ? e.crossings / (kib / 1024.0) : 0.0);
    xmsg.push_back(e.msgs > 0 ? e.crossings / e.msgs : 0.0);
    ffcall.insert(ffcall.end(), e.ffcall_ns.begin(), e.ffcall_ns.end());
    rtt.insert(rtt.end(), e.rtt_ns.begin(), e.rtt_ns.end());
  }

  std::vector<Reading> out;
  if (!trace) {
    const double values[] = {
        median(per_kib), median(cpu_kib), median(per_msg),
        percentile(ffcall, 90),
        percentile(rtt, 50) / 1e3, percentile(rtt, 99) / 1e3,
        median(goodput), median(xmib), median(xmsg), median(setup),
        attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                      : 0.0};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.push_back({kEndToEnd[i].name, values[i], kEndToEnd[i].unit});
    }
  } else {
    for (const std::string& name : layer_names()) {
      std::vector<double> v;
      for (const Episode& e : eps) {
        const auto it = e.layer.find(name);
        if (e.traced && it != e.layer.end()) v.push_back(it->second);
      }
      double value = median(v);
      if (name == "trace.overhead_share") {
        value = wall_plain.empty() ? 0.0
                                   : median(wall_traced) / median(wall_plain);
      } else if (name == "ffapi.call_ns_p50") {
        value = percentile(ffcall_traced, 50);
      }
      out.push_back({name, value, layer_unit(name)});
    }
  }
  std::fprintf(stderr,
               "%s seed %llu: %zu episodes in %.1f s, %llu/%llu failed; "
               "host ns/KiB per episode:",
               workload.c_str(), static_cast<unsigned long long>(seed),
               eps.size(), seconds_since(start),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));
  for (double v : per_kib) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\n");
  emit(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace s2bench

int main(int argc, char** argv) { return s2bench::run(argc, argv); }
