#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

#include "fstack/uring.hpp"

namespace s2bench {

namespace {

constexpr std::uint16_t kIperfPort = 5201;
constexpr std::uint16_t kEchoPort = 7;
constexpr std::uint32_t kSqSlots = 64;  // the ring shape of experiment.cpp
constexpr std::uint32_t kCqSlots = 128;

// Stream volumes per episode; the seed picks the payload bytes and the ping
// schedule, the RPC request sizes and bytes.
constexpr std::uint64_t kRxBytes = 64u << 20;
constexpr std::uint64_t kTxZcBytes = 8u << 20;
constexpr std::uint64_t kThreadedBytes = 32u << 20;
constexpr std::uint64_t kRpcMessages = 40000;  // measured, plus one warm-up
constexpr std::size_t kRpcMin = 16;
constexpr std::size_t kRpcMax = 256;
// Ping gap while a stream runs.
constexpr sim::Ns kPingMin{200'000};
constexpr sim::Ns kPingMax{400'000};

machine::CapView seeded_buffer(machine::CapView buf, Rng& rng) {
  std::vector<std::byte> bytes(static_cast<std::size_t>(buf.size()));
  rng.fill(bytes);
  buf.write(0, bytes);
  return buf;
}

machine::CapView ring_memory(Rig& rig) {
  return rig.app->alloc(fstack::FfUring::bytes_for(kSqSlots, kCqSlots));
}

std::uint64_t first_conn_bytes(const apps::IperfServer& srv) {
  const auto reports = srv.connection_reports();
  return reports.empty() ? 0 : reports.front().bytes;
}

/// A stream from a sender to an IperfServer, with a pinger on the peer.
class StreamBase : public Workload {
 public:
  bool peer_step() override {
    bool progress = peer_app_step();
    progress |= ping_->step();
    return progress;
  }
  [[nodiscard]] std::optional<sim::Ns> peer_deadline() const override {
    return ping_->deadline();
  }
  [[nodiscard]] bool setup_done() const override {
    return first_conn_bytes(*server_) > 0;
  }
  void begin_measure() override {
    bytes0_ = first_conn_bytes(*server_);
    ping_->start();
  }
  [[nodiscard]] bool measure_done() const override {
    return server_->finished();
  }
  /// The stream is over: keep its report (the receiver may be an app-side
  /// object that teardown destroys).
  void end_measure() override {
    ping_->stop();
    report_ = server_->report();
  }
  [[nodiscard]] double bytes() const override {
    return static_cast<double>(report_.bytes - bytes0_);
  }
  [[nodiscard]] double goodput_mbps() const override {
    return report_.mbit_per_sec();
  }
  /// The stream's volume in MSS-sized frames.
  [[nodiscard]] double nominal_messages() const override {
    return std::ceil(static_cast<double>(total_) /
                     static_cast<double>(scen::TestbedOptions{}.mss));
  }
  std::vector<std::int64_t>& rtt_ns() override { return ping_->rtt_ns(); }
  void check(Rig&, std::vector<std::string>& failures) override {
    if (report_.bytes != total_) {
      failures.push_back("delivered " + std::to_string(report_.bytes) +
                         " bytes of " + std::to_string(total_));
    }
    if (!ping_->idle()) failures.push_back("ping never answered");
  }

 protected:
  virtual bool peer_app_step() = 0;
  void make_pinger(Rig& rig, Rng& rng) {
    ping_ = std::make_unique<Pinger>(&rig.peer_stack(), &rig.clock(),
                                     scen::MorelloTestbed::morello_ip(0),
                                     rng.next(), kPingMin, kPingMax);
  }

  std::uint64_t total_ = 0;
  std::uint64_t bytes0_ = 0;
  apps::IperfServer* server_ = nullptr;  // the receiving side
  apps::IperfReport report_;
  std::unique_ptr<Pinger> ping_;
};

/// The peer streams into the app's zero-copy uring receiver.
class BulkRxZc final : public StreamBase {
 public:
  void build(Rig& rig, Rng& rng) override {
    total_ = kRxBytes;
    rig.app->enter([&] {
      srv_ = std::make_unique<apps::IperfServer>(
          rig.ops.get(), &rig.clock(), kIperfPort, rig.app->alloc(64 * 1024),
          1, /*zero_copy=*/true);
      if (srv_->use_uring(ring_memory(rig), kSqSlots, kCqSlots) != 0) {
        throw std::runtime_error("IperfServer::use_uring failed");
      }
    });
    server_ = srv_.get();
    cli_ = std::make_unique<apps::IperfClient>(
        rig.peer_ops.get(), &rig.clock(), scen::MorelloTestbed::morello_ip(0),
        kIperfPort, total_,
        seeded_buffer(rig.peer_heap->alloc_view(16 * 1024), rng));
    make_pinger(rig, rng);
  }
  bool app_step() override { return srv_ && srv_->step(); }
  [[nodiscard]] int data_side() const override { return 1; }
  void teardown(Rig& rig) override {
    rig.app->enter([&] { srv_.reset(); });
  }
  void check(Rig& rig, std::vector<std::string>& failures) override {
    StreamBase::check(rig, failures);
    const auto& api = rig.stack().api_stats();
    if (api.zc_rx_loans != api.zc_rx_recycles) {
      failures.push_back("zc loans " + std::to_string(api.zc_rx_loans) +
                         " != recycles " +
                         std::to_string(api.zc_rx_recycles));
    }
  }

 private:
  bool peer_app_step() override { return cli_ && cli_->step(); }

  std::unique_ptr<apps::IperfServer> srv_;
  std::unique_ptr<apps::IperfClient> cli_;
};

/// The app sends through the uring zero-copy TX pipeline to a peer server,
/// with the default 512 KiB send buffer.
class BulkTxZc final : public StreamBase {
 public:
  void build(Rig& rig, Rng& rng) override {
    total_ = kTxZcBytes;
    rig.app->enter([&] {
      cli_ = std::make_unique<apps::IperfClient>(
          rig.ops.get(), &rig.clock(), scen::MorelloTestbed::peer_ip(0),
          kIperfPort, total_,
          seeded_buffer(rig.app->alloc(16 * 1024), rng));
      if (cli_->use_uring(ring_memory(rig), kSqSlots, kCqSlots,
                          /*zero_copy=*/true) != 0) {
        throw std::runtime_error("IperfClient::use_uring failed");
      }
    });
    srv_ = std::make_unique<apps::IperfServer>(
        rig.peer_ops.get(), &rig.clock(), kIperfPort,
        rig.peer_heap->alloc_view(64 * 1024), 1);
    server_ = srv_.get();
    make_pinger(rig, rng);
  }
  bool app_step() override { return cli_ && cli_->step(); }
  void teardown(Rig& rig) override {
    rig.app->enter([&] { cli_.reset(); });
  }
  void check(Rig& rig, std::vector<std::string>& failures) override {
    StreamBase::check(rig, failures);
    const auto& api = rig.stack().api_stats();
    if (api.zc_allocs != api.zc_sends + api.zc_aborts) {
      failures.push_back("zc grants " + std::to_string(api.zc_allocs) +
                         " != sends + aborts " +
                         std::to_string(api.zc_sends + api.zc_aborts));
    }
  }

 private:
  bool peer_app_step() override { return srv_ && srv_->step(); }

  std::unique_ptr<apps::IperfClient> cli_;
  std::unique_ptr<apps::IperfServer> srv_;
};

/// Table II "Client" cell of Scenario 2 as run_bandwidth composes it: the
/// app's IperfClient writes MSS chunks through proxied ff_write, with
/// batched telemetry; cVM1, the app and the peer run on their own threads.
class ThreadedTx final : public StreamBase {
 public:
  [[nodiscard]] bool threaded() const override { return true; }
  void build(Rig& rig, Rng& rng) override {
    total_ = kThreadedBytes;
    const machine::CapView buf = seeded_buffer(rig.app->alloc(64 * 1024), rng);
    telemetry_ = std::make_unique<apps::TelemetryBatch>(&rig.app->libc(),
                                                        rig.app->alloc(2048));
    rig.app->enter([&] {
      cli_ = std::make_unique<apps::IperfClient>(
          rig.ops.get(), &rig.clock(), scen::MorelloTestbed::peer_ip(0),
          kIperfPort, total_, buf.window(0, 16 * 1024));
    });
    cli_->set_telemetry(telemetry_.get(), sim::Ns{250'000'000});
    srv_ = std::make_unique<apps::IperfServer>(
        rig.peer_ops.get(), &rig.clock(), kIperfPort,
        rig.peer_heap->alloc_view(64 * 1024), 1);
    server_ = srv_.get();
    make_pinger(rig, rng);
  }
  bool app_step() override { return cli_ && cli_->step(); }
  void teardown(Rig& rig) override {
    rig.app->enter([&] { cli_.reset(); });
  }

 private:
  bool peer_app_step() override { return srv_ && srv_->step(); }

  std::unique_ptr<apps::TelemetryBatch> telemetry_;
  std::unique_ptr<apps::IperfClient> cli_;
  std::unique_ptr<apps::IperfServer> srv_;
};

/// Closed-loop echo: a seeded peer client, EchoServer in the app cVM.
class SmallRpc final : public Workload {
 public:
  void build(Rig& rig, Rng& rng) override {
    clock_ = &rig.clock();
    rig.app->enter([&] {
      srv_ = std::make_unique<apps::EchoServer>(rig.ops.get(), kEchoPort,
                                                rig.app->alloc(2048));
      if (srv_->use_uring(ring_memory(rig), kSqSlots, kCqSlots) != 0) {
        throw std::runtime_error("EchoServer::use_uring failed");
      }
    });
    // The seed trims up to 7 bytes off the top of the size range, so the
    // RTT tail (set by the largest requests) differs from seed to seed.
    const std::size_t max_len = kRpcMax - rng.between(0, 7);
    cli_ = std::make_unique<RpcClient>(
        rig.peer_ops.get(), &rig.clock(), scen::MorelloTestbed::morello_ip(0),
        kEchoPort, rig.peer_heap->alloc_view(kRpcMax), rng.next(),
        kRpcMessages + 1, kRpcMin, max_len);
  }
  bool app_step() override { return srv_ && srv_->step(); }
  bool peer_step() override { return cli_->step(); }
  [[nodiscard]] bool setup_done() const override {
    return cli_->completed() >= 1;
  }
  void begin_measure() override {
    bytes0_ = cli_->bytes();
    v0_ = clock_->now();
    cli_->rtt_ns().clear();
  }
  [[nodiscard]] bool measure_done() const override { return cli_->done(); }
  void end_measure() override { v1_ = clock_->now(); }
  void teardown(Rig& rig) override {
    rig.app->enter([&] { srv_.reset(); });
  }
  /// Request and echo bytes both reach an application.
  [[nodiscard]] double bytes() const override {
    return 2.0 * static_cast<double>(cli_->bytes() - bytes0_);
  }
  [[nodiscard]] double goodput_mbps() const override {
    const double secs = static_cast<double>((v1_ - v0_).count()) / 1e9;
    return secs > 0 ? bytes() * 8.0 / secs / 1e6 : 0.0;
  }
  [[nodiscard]] std::optional<double> messages() const override {
    return nominal_messages();
  }
  [[nodiscard]] double nominal_messages() const override {
    return static_cast<double>(kRpcMessages);
  }
  std::vector<std::int64_t>& rtt_ns() override { return cli_->rtt_ns(); }
  void check(Rig&, std::vector<std::string>& failures) override {
    if (cli_->mismatches() != 0) {
      failures.push_back(std::to_string(cli_->mismatches()) +
                         " echoes differ from their request");
    }
    if (!cli_->done()) failures.push_back("echo loop did not finish");
  }

 private:
  std::unique_ptr<apps::EchoServer> srv_;
  std::unique_ptr<RpcClient> cli_;
  sim::VirtualClock* clock_ = nullptr;
  std::uint64_t bytes0_ = 0;
  sim::Ns v0_{0};
  sim::Ns v1_{0};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "s2_bulk_rx_zc", "s2_bulk_tx_zc", "s2_small_rpc", "s2_table2_threaded"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "s2_bulk_rx_zc") return std::make_unique<BulkRxZc>();
  if (name == "s2_bulk_tx_zc") return std::make_unique<BulkTxZc>();
  if (name == "s2_small_rpc") return std::make_unique<SmallRpc>();
  if (name == "s2_table2_threaded") return std::make_unique<ThreadedTx>();
  return nullptr;
}

}  // namespace s2bench
