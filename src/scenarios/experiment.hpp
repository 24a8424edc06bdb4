// Experiment harness: builds the full emulated testbed (Morello node +
// dual-port 82576 + wires + peer hosts) and runs the paper's evaluation
// configurations end to end. Each bench binary is a thin printer over
// run_bandwidth() (Table II) and run_ffwrite_latency() (Figures 4-6).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "intravisor/intravisor.hpp"
#include "nic/e82576.hpp"
#include "nic/shared_bus.hpp"
#include "nic/wire.hpp"
#include "scenarios/peer.hpp"
#include "scenarios/stack_instance.hpp"
#include "sim/testbed.hpp"
#include "sim/time_arbiter.hpp"
#include "updk/ethdev.hpp"

namespace cherinet::scen {

/// The five configurations of the paper's Table II / Figures 4-6.
enum class ScenarioKind : std::uint8_t {
  kBaseline2Proc,         // two MMU processes, one port each (vs Scenario 1)
  kScenario1,             // full stack replicated into cVM1/cVM2
  kBaseline1Proc,         // single process, single port (vs Scenario 2)
  kScenario2Uncontended,  // app cVM2 + network cVM1
  kScenario2Contended,    // app cVM2 + cVM3 + network cVM1
};
[[nodiscard]] const char* to_string(ScenarioKind k) noexcept;

/// Table II columns: "Server" = the Morello node receives, "Client" = sends.
enum class Direction : std::uint8_t { kMorelloReceives, kMorelloSends };
[[nodiscard]] const char* to_string(Direction d) noexcept;

struct TestbedOptions {
  sim::Testbed phys = sim::Testbed::morello_82576();
  sim::CostModel cost = sim::CostModel::morello();
  std::size_t memory_bytes = 448u << 20;
  bool inline_tcp_output = true;
  std::uint16_t mss = 1448;
  /// Morello-side TCP send buffer. Sized ABOVE the peer's receive window
  /// (BDP-style) so a window-opening ACK always finds a queued backlog to
  /// emit in one staged burst — emission is ACK-clocked, not app-refill-
  /// clocked.
  std::size_t sndbuf_bytes = 512 * 1024;
  /// Scenario 2 sharding: number of independent FfStack shards inside cVM1,
  /// each with its own mempool, PCB table, ARP cache, timer wheel, uring
  /// drain set — and its own coordination mutex. 1 = the classic
  /// single-stack service. App cVM j pins to shard j % s2_shards.
  std::uint32_t s2_shards = 1;
  /// true: all shards share port 0 through RSS multi-queue steering (one
  /// queue per shard, flows steered by Toeplitz hash / L4 filter). false:
  /// shard j owns port j outright (dual-port scale-out; at most 2 shards).
  bool s2_shards_same_port = false;
  /// Device offloads requested at eth attach, for BOTH the Morello side and
  /// the peers (updk::kOffload* bits). The default negotiates TX checksum
  /// insertion and RX checksum verdicts; pass 0 for the pure software
  /// control leg and | updk::kOffloadTxTso for the super-segment TSO legs.
  std::uint32_t offloads = updk::kOffloadDefault;
  /// Wire hostility applied to BOTH directions of every wire (see
  /// nic/impairment.hpp). Default-constructed = clean wire. The lossy-wire
  /// fig5 leg uses this to check the RX verdict path against the wire's own
  /// corruption census.
  nic::ImpairmentProfile impair;
};

/// The emulated hardware + OS fixture shared by all scenarios.
class MorelloTestbed {
 public:
  MorelloTestbed() : MorelloTestbed(TestbedOptions{}) {}
  explicit MorelloTestbed(TestbedOptions opt);

  [[nodiscard]] sim::VirtualClock& clock() noexcept { return clock_; }
  [[nodiscard]] sim::TimeArbiter& arbiter() noexcept { return arb_; }
  [[nodiscard]] iv::Intravisor& intravisor() noexcept { return *iv_; }
  [[nodiscard]] nic::E82576Device& card() noexcept { return *card_; }
  [[nodiscard]] nic::Wire& wire(int i) { return *wires_.at(i); }
  [[nodiscard]] const TestbedOptions& options() const noexcept { return opt_; }

  /// Create the peer host on the far side of wire `i` (idempotent).
  PeerHost& make_peer(int i);
  [[nodiscard]] PeerHost& peer(int i) { return *peers_.at(i); }

  [[nodiscard]] static fstack::Ipv4Addr morello_ip(int port) noexcept {
    return fstack::Ipv4Addr::of(10, 0, static_cast<std::uint8_t>(port), 1);
  }
  [[nodiscard]] static fstack::Ipv4Addr peer_ip(int port) noexcept {
    return fstack::Ipv4Addr::of(10, 0, static_cast<std::uint8_t>(port), 2);
  }
  [[nodiscard]] InstanceConfig morello_cfg(int port) const;
  [[nodiscard]] InstanceConfig peer_cfg(int port) const;

 private:
  TestbedOptions opt_;
  sim::VirtualClock clock_;
  sim::TimeArbiter arb_;
  std::unique_ptr<iv::Intravisor> iv_;
  std::unique_ptr<nic::SharedBus> bus_;
  std::unique_ptr<nic::E82576Device> card_;
  std::array<std::unique_ptr<nic::Wire>, 2> wires_;
  std::array<std::unique_ptr<PeerHost>, 2> peers_;
};

// ---------------------------------------------------------------------------
// Table II: TCP bandwidth
// ---------------------------------------------------------------------------

struct EndpointResult {
  std::string label;     // e.g. "cVM1", "Baseline (cVM2)"
  std::uint64_t bytes = 0;
  double mbps = 0.0;
};

struct BandwidthOutcome {
  ScenarioKind kind{};
  Direction dir{};
  std::vector<EndpointResult> endpoints;
  /// Driver-doorbell amortization on the Morello side, aggregated over its
  /// stack instances: opackets / tx_bursts is the frames-per-tx_burst
  /// figure the table2 bench gates on (>= 8 under sustained send load).
  struct TxBurstCensus {
    std::uint64_t frames = 0;  // frames handed to the device (opackets)
    std::uint64_t bursts = 0;  // tx_burst calls that carried frames
    std::uint64_t segs = 0;    // descriptors consumed (chain segments +
                               // context descriptors)
    std::uint64_t bytes = 0;   // frame bytes those descriptors emitted
    /// TSO census: super-segment chains handed down for device slicing and
    /// the payload bytes they carried (the table2 ablation row gates
    /// descriptors-per-byte against an offload-off control on these).
    std::uint64_t tso_frames = 0;
    std::uint64_t tso_bytes = 0;
    [[nodiscard]] double frames_per_burst() const noexcept {
      return bursts > 0 ? static_cast<double>(frames) /
                              static_cast<double>(bursts)
                        : 0.0;
    }
  };
  TxBurstCensus morello_tx;
  /// Scenario 2 only: the per-shard goodput and mutex census. With one
  /// shard this is the classic shared-mutex picture; with N shards each
  /// entry counts ONLY its own shard's mutex — cross-flow contention is
  /// structurally gone, which is what the sharded table2 legs gate on.
  struct ShardCensus {
    double mbps = 0.0;  // goodput of the stream(s) pinned to this shard
    std::uint64_t mutex_fast = 0;
    std::uint64_t mutex_contended = 0;
    std::uint64_t proxied_calls = 0;
  };
  std::vector<ShardCensus> shards;
};

/// Run one Table II cell: `bytes_per_stream` of TCP payload per endpoint.
[[nodiscard]] BandwidthOutcome run_bandwidth(
    ScenarioKind kind, Direction dir, std::uint64_t bytes_per_stream,
    const TestbedOptions& opt = TestbedOptions{});

// ---------------------------------------------------------------------------
// Figures 4-6: ff_write() execution time
// ---------------------------------------------------------------------------

struct LatencySeries {
  std::string label;
  std::vector<double> samples_ns;
  /// Scenario 2 only: per successful write, the VIRTUAL-clock span from the
  /// first ff_write attempt to the attempt that succeeded. The virtual
  /// clock advances only through the arbiter's all-wait protocol, paced by
  /// the simulated port drain — so this series measures how long the write
  /// was held back by the contending sibling and the stack mutex in
  /// simulated time, immune to host-scheduler load (unlike samples_ns,
  /// which wall-clocks the successful call itself).
  std::vector<double> virtual_ns;
};

struct LatencyOutcome {
  ScenarioKind kind{};
  std::vector<LatencySeries> series;
  /// Scenario 2 only: the shared stack-mutex acquisition census. A
  /// CONTENDED acquisition is one that found the word taken and escalated
  /// to the futex — the Fig. 6 mechanism itself, counted rather than
  /// timed, so assertions on it hold under arbitrary host load.
  std::uint64_t mutex_fast = 0;
  std::uint64_t mutex_contended = 0;
};

/// Measure `iterations` successful ff_write() calls of `write_size` bytes
/// per endpoint, timed with clock_gettime(CLOCK_MONOTONIC_RAW) through the
/// scenario's own syscall path (direct vs trampolined), as in §IV.
/// `batch` > 1 issues each measured call as ff_writev of `batch`
/// write_size-sized iovecs — the contention knob of the Fig. 6 sweep: with
/// proxied_calls_ counting batches, batch size scales bytes moved per
/// mutex acquisition.
[[nodiscard]] LatencyOutcome run_ffwrite_latency(
    ScenarioKind kind, std::size_t iterations, std::size_t write_size = 1448,
    const TestbedOptions& opt = TestbedOptions{}, std::size_t batch = 1);

// ---------------------------------------------------------------------------
// API v2 crossing census: how many compartment crossings does it take to
// move a byte volume through ff_write (batch = 1, the v1 path) versus
// ff_writev (batch > 1)?
//
// Every census leg below (TX, RX and both uring directions) runs in
// virtual-time LOCKSTEP on the app compartment's thread: after each census
// loop iteration the stack runs one iteration (Scenario 2: inside cVM1,
// under the service's compartment mutex), then the peer host one, and the
// virtual clock advances only after a round in which nobody progressed (at
// most 16 rounds per virtual instant). The counts therefore depend on seed
// and virtual time only, never on host thread scheduling. The app's calls
// still cross their real trampolines and sealed entries and take the real
// mutex — uncontended, since mutex contention is what Fig. 6
// (run_ffwrite_latency) and bench_ablation_locking measure, not the census.
// ---------------------------------------------------------------------------

struct CrossingCensus {
  std::uint64_t bytes = 0;      // payload bytes queued into the stack
  std::uint64_t api_calls = 0;  // measured write/writev invocations
  /// Compartment crossings attributed to the measured calls: the timing
  /// clock_gettime trampolines of the Fig. 4 measurement envelope
  /// (Scenario 1) plus the sealed-entry ff_* proxy jumps (Scenario 2).
  std::uint64_t crossings = 0;
  /// Those crossings priced by the Morello-calibrated CostModel, per MiB of
  /// payload — the figure the batch API exists to shrink.
  double modeled_ns_per_mib = 0.0;
};

/// Drive `total_bytes` of MSS-sized writes through one endpoint of `kind`
/// (kScenario1 or kScenario2Uncontended) with `batch` iovecs per call and
/// count the crossings. batch = 1 is exactly the v1 per-call path.
[[nodiscard]] CrossingCensus run_ffwrite_crossing_census(
    ScenarioKind kind, std::uint64_t total_bytes, std::size_t batch,
    const TestbedOptions& opt = TestbedOptions{});

// ---------------------------------------------------------------------------
// RX census: what does it cost to RECEIVE a byte volume? The v1 path pays
// one measured envelope (epoll-gated ff_read) per MSS and copies every byte
// out of the stack; the zero-copy path arms one multishot event ring and
// drains ff_zc_recv loan batches, recycling in batches — zero receive-side
// copies and an amortized fraction of the crossings.
// ---------------------------------------------------------------------------

struct RxCensus {
  std::uint64_t bytes = 0;      // payload bytes delivered to the app
  std::uint64_t api_calls = 0;  // measured receive envelopes issued
  /// Crossings inside those envelopes, as CrossingCensus::crossings counts
  /// them: the app's trampolined clock_gettime reads plus (Scenario 2) the
  /// sealed-entry ff_* jumps.
  std::uint64_t crossings = 0;
  /// Bytes the stack copied on the receive side (chain lazy copy, UDP copy
  /// out, zc bounces) — the zero-copy gate requires exactly 0.
  std::uint64_t copied_bytes = 0;
  std::uint64_t zc_loans = 0;      // loans handed out (zero_copy runs)
  std::uint64_t zc_recycles = 0;   // loans returned
  double modeled_ns_per_mib = 0.0;
};

/// Receive `total_bytes` of TCP payload from the peer through one endpoint
/// of `kind` (kScenario1 or kScenario2Uncontended). zero_copy = false is
/// the per-call v1 path (epoll_wait + ff_read per envelope); true is the
/// multishot + ff_zc_recv/ff_zc_recycle_batch pipeline, which drains one
/// loan burst per adaptive coalescing window of TURNS — one turn being one
/// stack iteration of the lockstep.
[[nodiscard]] RxCensus run_ffrecv_rx_census(
    ScenarioKind kind, std::uint64_t total_bytes, bool zero_copy,
    const TestbedOptions& opt = TestbedOptions{});

// ---------------------------------------------------------------------------
// API v3 uring census: the same byte volumes through the ff_uring ring —
// submissions by capability store, completions by capability load, ONE
// arming crossing and doorbells only when the stack parked. The fig4/fig5
// gates require >= 2x fewer crossings than the PR-2 batch paths above and
// ZERO crossings per op in sustained load (crossings stay a small constant
// while SQEs scale with the volume).
// ---------------------------------------------------------------------------

struct UringCensus {
  std::uint64_t bytes = 0;      // payload bytes moved
  std::uint64_t sqes = 0;       // submissions pushed (ring ops issued)
  std::uint64_t cqes = 0;       // completions reaped
  /// Crossings in the measured phase: the arm, the doorbells, and any
  /// residual per-call setup (e.g. the one epoll_ctl for an accepted fd).
  std::uint64_t crossings = 0;
  std::uint64_t doorbells = 0;  // doorbell crossings the app chose to make
  /// Send-side bytes the stack copied into TX stores during the run (the
  /// TCP zc TX gate requires exactly 0 — FfStack::tx_stats()).
  std::uint64_t tx_copied_bytes = 0;
  /// Payload bytes queued as retained mbuf references (the zc path).
  std::uint64_t tx_zc_bytes = 0;
  /// Payload bytes EMISSION read back (linearize fallback or a checksum
  /// range no cached partial covered) — the scatter-gather gate requires
  /// exactly 0: frames leave as indirect chains with composed checksums.
  std::uint64_t tx_emit_payload_reads = 0;
  /// Payload bytes the STACK software-checksummed on the TX path. With TX
  /// checksum offload negotiated the stack seeds the pseudo-header and the
  /// device walks the bytes, so the fig4/fig5 offload gate requires exactly
  /// 0 here (FfStack::tx_stats().stack_checksum_bytes).
  std::uint64_t stack_checksum_bytes = 0;
  /// TSO census from the device (EthStats): oversized chains the hardware
  /// sliced into wire frames, and the payload bytes those chains carried.
  std::uint64_t tso_frames = 0;
  std::uint64_t tso_bytes = 0;
  /// TX descriptors the driver consumed (EthStats::tx_segs) and the frame
  /// bytes those descriptors actually emitted (EthStats::obytes) — the TSO
  /// gate compares descriptors per EMITTED byte against an offload-off
  /// control, since the census app may exit with queued bytes unemitted
  /// (zc send completion is queue-time, emission is ACK-clocked).
  std::uint64_t tx_descs = 0;
  std::uint64_t tx_wire_bytes = 0;
  /// Lossy-wire leg instrumentation: frames the Morello port rejected at
  /// FCS, the wire's own peer-egress corruption census, and frames the
  /// stack dropped on a checksum (software or device-verdict) mismatch.
  /// Wire bit flips must die at FCS; a bad frame that somehow passes FCS
  /// must die at the verdict check — never reach a socket.
  std::uint64_t rx_crc_errors = 0;
  std::uint64_t wire_corrupts = 0;
  std::uint64_t stack_csum_drops = 0;
  double modeled_ns_per_mib = 0.0;
};

/// Send `total_bytes` of MSS-sized TCP payload through the ring.
/// zero_copy = false: OP_WRITEV SQEs (8 exactly-bounded iovec caps per
/// entry). zero_copy = true: the TCP zc TX pipeline — OP_ZC_ALLOC grants
/// writable mbuf data rooms, the payload is composed in place, OP_ZC_SEND
/// queues retained references held until cumulative ACK; the gate requires
/// zero send-side byte copies at the same doorbell-only crossing budget.
[[nodiscard]] UringCensus run_uring_tx_census(
    ScenarioKind kind, std::uint64_t total_bytes,
    const TestbedOptions& opt = TestbedOptions{}, bool zero_copy = false);

/// Receive `total_bytes` through the full ring pipeline: OP_ACCEPT_MULTISHOT
/// (accepted fds as CQEs), OP_EPOLL_ARM (readiness as CQEs), OP_ZC_RECV
/// (loans as CQEs) and OP_RECYCLE (token batches back) — zero receive-side
/// copies and zero crossings per op in steady state.
[[nodiscard]] UringCensus run_uring_rx_census(
    ScenarioKind kind, std::uint64_t total_bytes,
    const TestbedOptions& opt = TestbedOptions{});

}  // namespace cherinet::scen
