// Load generators that run on the peer host beside the repository's apps:
// a seeded closed-loop RPC client and an ICMP pinger that measures the
// virtual round trip under bulk load.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "apps/ff_ops.hpp"
#include "fstack/stack.hpp"
#include "sim/virtual_clock.hpp"

namespace s2bench {

/// splitmix64: the benchmark's only source of input randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  void fill(std::span<std::byte> out) {
    for (std::byte& b : out) b = static_cast<std::byte>(next());
  }

 private:
  std::uint64_t s_;
};

/// Closed loop, one request outstanding: send a seeded request of
/// [min_len, max_len] bytes, read the echo back, compare it byte for byte,
/// record the virtual round trip, send the next.
class RpcClient {
 public:
  RpcClient(cherinet::apps::FfOps* ops, cherinet::sim::VirtualClock* clock,
            cherinet::fstack::Ipv4Addr dst, std::uint16_t port,
            cherinet::machine::CapView buf, std::uint64_t seed,
            std::uint64_t messages, std::size_t min_len, std::size_t max_len)
      : ops_(ops),
        clock_(clock),
        buf_(buf),
        rng_(seed),
        messages_(messages),
        min_len_(min_len),
        max_len_(max_len) {
    fd_ = ops_->socket_stream();
    ops_->connect(fd_, dst, port);
    next_request();
  }

  bool step() {
    if (done()) return false;
    bool progress = false;
    if (sent_ < req_.size()) {
      const std::size_t n = req_.size() - sent_;
      buf_.write(0, std::span<const std::byte>(req_).subspan(sent_, n));
      const std::int64_t r = ops_->write(fd_, buf_, n);
      if (r <= 0) return false;  // not connected yet, or buffer full
      if (sent_ == 0) t_send_ = clock_->now();
      sent_ += static_cast<std::size_t>(r);
      progress = true;
    }
    const std::size_t want = req_.size() - got_;
    const std::int64_t r = ops_->read(fd_, buf_, want);
    if (r > 0) {
      buf_.read(0, std::span<std::byte>(reply_).subspan(
                       got_, static_cast<std::size_t>(r)));
      got_ += static_cast<std::size_t>(r);
      progress = true;
    }
    if (got_ == req_.size()) {
      if (reply_ != req_) ++mismatches_;
      rtt_ns_.push_back((clock_->now() - t_send_).count());
      bytes_ += req_.size();
      if (++completed_ == messages_) {
        ops_->close(fd_);
      } else {
        next_request();
      }
    }
    return progress;
  }

  [[nodiscard]] bool done() const noexcept {
    return completed_ == messages_;
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return completed_;
  }
  [[nodiscard]] std::uint64_t mismatches() const noexcept {
    return mismatches_;
  }
  /// Request payload bytes whose echo came back.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::vector<std::int64_t>& rtt_ns() noexcept {
    return rtt_ns_;
  }

 private:
  void next_request() {
    req_.resize(static_cast<std::size_t>(rng_.between(min_len_, max_len_)));
    rng_.fill(req_);
    reply_.assign(req_.size(), std::byte{0});
    sent_ = 0;
    got_ = 0;
  }

  cherinet::apps::FfOps* ops_;
  cherinet::sim::VirtualClock* clock_;
  cherinet::machine::CapView buf_;
  Rng rng_;
  std::uint64_t messages_;
  std::size_t min_len_;
  std::size_t max_len_;
  int fd_ = -1;
  std::vector<std::byte> req_;
  std::vector<std::byte> reply_;
  std::size_t sent_ = 0;
  std::size_t got_ = 0;
  cherinet::sim::Ns t_send_{0};
  std::uint64_t completed_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<std::int64_t> rtt_ns_;
};

/// ICMP echo from the peer to the Morello port at seeded intervals, one
/// outstanding at a time: the virtual round trip a user sees while the bulk
/// stream fills the queues on the path.
class Pinger {
 public:
  static constexpr std::uint16_t kId = 0x5332;
  static constexpr std::size_t kPayload = 56;

  Pinger(cherinet::fstack::FfStack* st, cherinet::sim::VirtualClock* clock,
         cherinet::fstack::Ipv4Addr dst, std::uint64_t seed,
         cherinet::sim::Ns min_gap, cherinet::sim::Ns max_gap)
      : st_(st),
        clock_(clock),
        dst_(dst),
        rng_(seed),
        min_gap_(min_gap),
        max_gap_(max_gap) {}

  /// Start pinging (after connection set-up; the ARP entry is warm).
  void start() {
    running_ = true;
    due_ = clock_->now() + gap();
  }
  /// Stop sending; a ping in flight still completes.
  void stop() { running_ = false; }

  bool step() {
    const cherinet::sim::Ns now = clock_->now();
    if (outstanding_ && st_->pings().replies(kId, seq_) > 0) {
      rtt_ns_.push_back((now - sent_at_).count());
      outstanding_ = false;
      due_ = now + gap();
    }
    if (!running_ || outstanding_ || now < due_) return false;
    st_->send_ping(dst_, kId, ++seq_, kPayload);
    sent_at_ = now;
    outstanding_ = true;
    return true;
  }

  /// The next send instant, for the lockstep clock advance.
  [[nodiscard]] std::optional<cherinet::sim::Ns> deadline() const {
    if (!running_ || outstanding_) return std::nullopt;
    return due_;
  }
  [[nodiscard]] bool idle() const noexcept { return !outstanding_; }
  [[nodiscard]] std::vector<std::int64_t>& rtt_ns() noexcept {
    return rtt_ns_;
  }

 private:
  cherinet::sim::Ns gap() {
    return cherinet::sim::Ns{static_cast<std::int64_t>(rng_.between(
        static_cast<std::uint64_t>(min_gap_.count()),
        static_cast<std::uint64_t>(max_gap_.count())))};
  }

  cherinet::fstack::FfStack* st_;
  cherinet::sim::VirtualClock* clock_;
  cherinet::fstack::Ipv4Addr dst_;
  Rng rng_;
  cherinet::sim::Ns min_gap_;
  cherinet::sim::Ns max_gap_;
  bool running_ = false;
  bool outstanding_ = false;
  std::uint16_t seq_ = 0;
  cherinet::sim::Ns due_{0};
  cherinet::sim::Ns sent_at_{0};
  std::vector<std::int64_t> rtt_ns_;
};

}  // namespace s2bench
