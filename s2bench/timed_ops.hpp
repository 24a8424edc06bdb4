// TimedOps: an apps::FfOps decorator that times every call the application
// makes through it with the host's steady clock.
//
// Wrapped around Scenario 2's ProxyFfOps it measures the host time of one
// proxied ff_* call (sealed-entry jump, compartment mutex, cost-model spin
// and the ff_* body) — the quantity of the paper's Fig. 5. Per-op call
// counts, time and -EAGAIN verdicts feed the ffapi.* layer metrics; the
// per-call samples feed the ffcall_ns percentiles.
#pragma once

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "apps/ff_ops.hpp"

namespace s2bench {

enum class Op : std::uint8_t {
  kSocket, kBind, kListen, kAccept, kConnect, kWrite, kRead, kWritev,
  kReadv, kAcceptBatch, kZcAlloc, kZcSend, kZcAbort, kZcRecv, kZcRecycle,
  kUringAttach, kUringDetach, kUringDoorbell, kEpollArmMultishot,
  kEpollCancelMultishot, kSetClass, kClose, kEpollCreate, kEpollCtl,
  kEpollWait, kCount
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Op::kCount)>
    kOpNames = {"socket", "bind", "listen", "accept", "connect", "write",
                "read", "writev", "readv", "accept_batch", "zc_alloc",
                "zc_send", "zc_abort", "zc_recv", "zc_recycle_batch",
                "uring_attach", "uring_detach", "uring_doorbell",
                "epoll_wait_multishot", "epoll_cancel_multishot",
                "set_class", "close", "epoll_create", "epoll_ctl",
                "epoll_wait"};

struct OpStats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t eagain = 0;
};

class TimedOps final : public cherinet::apps::FfOps {
 public:
  using Stats = std::array<OpStats, static_cast<std::size_t>(Op::kCount)>;

  explicit TimedOps(cherinet::apps::FfOps* inner) : in_(inner) {}

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Per-call host ns of every call made through this decorator.
  [[nodiscard]] const std::vector<std::uint32_t>& samples() const noexcept {
    return samples_;
  }

  int socket_stream() override {
    return timed(Op::kSocket, [&] { return in_->socket_stream(); });
  }
  int bind(int fd, cherinet::fstack::Ipv4Addr ip,
           std::uint16_t port) override {
    return timed(Op::kBind, [&] { return in_->bind(fd, ip, port); });
  }
  int listen(int fd, int backlog) override {
    return timed(Op::kListen, [&] { return in_->listen(fd, backlog); });
  }
  int accept(int fd) override {
    return timed(Op::kAccept, [&] { return in_->accept(fd); });
  }
  int connect(int fd, cherinet::fstack::Ipv4Addr ip,
              std::uint16_t port) override {
    return timed(Op::kConnect, [&] { return in_->connect(fd, ip, port); });
  }
  std::int64_t write(int fd, const cherinet::machine::CapView& buf,
                     std::size_t n) override {
    return timed(Op::kWrite, [&] { return in_->write(fd, buf, n); });
  }
  std::int64_t read(int fd, const cherinet::machine::CapView& buf,
                    std::size_t n) override {
    return timed(Op::kRead, [&] { return in_->read(fd, buf, n); });
  }
  std::int64_t writev(
      int fd, std::span<const cherinet::fstack::FfIovec> iov) override {
    return timed(Op::kWritev, [&] { return in_->writev(fd, iov); });
  }
  std::int64_t readv(
      int fd, std::span<const cherinet::fstack::FfIovec> iov) override {
    return timed(Op::kReadv, [&] { return in_->readv(fd, iov); });
  }
  int accept_batch(int fd, std::span<int> out) override {
    return timed(Op::kAcceptBatch, [&] { return in_->accept_batch(fd, out); });
  }
  int zc_alloc(std::size_t len, cherinet::fstack::FfZcBuf* out) override {
    return timed(Op::kZcAlloc, [&] { return in_->zc_alloc(len, out); });
  }
  std::int64_t zc_send(int fd, cherinet::fstack::FfZcBuf& zc, std::size_t len,
                       const cherinet::fstack::FfSockAddrIn& to) override {
    return timed(Op::kZcSend, [&] { return in_->zc_send(fd, zc, len, to); });
  }
  int zc_abort(cherinet::fstack::FfZcBuf& zc) override {
    return timed(Op::kZcAbort, [&] { return in_->zc_abort(zc); });
  }
  std::int64_t zc_recv(
      int fd, std::span<cherinet::fstack::FfZcRxBuf> out) override {
    return timed(Op::kZcRecv, [&] { return in_->zc_recv(fd, out); });
  }
  std::int64_t zc_recycle_batch(
      std::span<cherinet::fstack::FfZcRxBuf> zcs) override {
    return timed(Op::kZcRecycle, [&] { return in_->zc_recycle_batch(zcs); });
  }
  int uring_attach(const cherinet::machine::CapView& mem,
                   std::uint32_t sq_capacity,
                   std::uint32_t cq_capacity) override {
    return timed(Op::kUringAttach, [&] {
      return in_->uring_attach(mem, sq_capacity, cq_capacity);
    });
  }
  int uring_detach(int id) override {
    return timed(Op::kUringDetach, [&] { return in_->uring_detach(id); });
  }
  int uring_doorbell(int id) override {
    return timed(Op::kUringDoorbell, [&] { return in_->uring_doorbell(id); });
  }
  int epoll_wait_multishot(int epfd, const cherinet::machine::CapView& ring,
                           std::uint32_t capacity) override {
    return timed(Op::kEpollArmMultishot, [&] {
      return in_->epoll_wait_multishot(epfd, ring, capacity);
    });
  }
  int epoll_cancel_multishot(int epfd) override {
    return timed(Op::kEpollCancelMultishot,
                 [&] { return in_->epoll_cancel_multishot(epfd); });
  }
  int set_class(int fd, std::uint32_t cls) override {
    return timed(Op::kSetClass, [&] { return in_->set_class(fd, cls); });
  }
  int close(int fd) override {
    return timed(Op::kClose, [&] { return in_->close(fd); });
  }
  int epoll_create() override {
    return timed(Op::kEpollCreate, [&] { return in_->epoll_create(); });
  }
  int epoll_ctl(int epfd, cherinet::fstack::EpollOp op, int fd,
                std::uint32_t events, std::uint64_t data) override {
    return timed(Op::kEpollCtl,
                 [&] { return in_->epoll_ctl(epfd, op, fd, events, data); });
  }
  int epoll_wait(int epfd,
                 std::span<cherinet::fstack::FfEpollEvent> out) override {
    return timed(Op::kEpollWait, [&] { return in_->epoll_wait(epfd, out); });
  }

 private:
  template <typename F>
  std::invoke_result_t<F&> timed(Op op, F&& f) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = f();
    const auto dt = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    OpStats& s = stats_[static_cast<std::size_t>(op)];
    ++s.calls;
    s.ns += dt;
    if (r == -EAGAIN) ++s.eagain;
    samples_.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(dt, UINT32_MAX)));
    return r;
  }

  cherinet::apps::FfOps* in_;
  Stats stats_{};
  std::vector<std::uint32_t> samples_;
};

}  // namespace s2bench
