// The benchmark's workloads: each builds its applications on a Rig, steps
// them, says when connection set-up and the measured phase are over, and
// checks what the applications received.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/echo.hpp"
#include "apps/iperf.hpp"
#include "apps/telemetry.hpp"
#include "peer_apps.hpp"
#include "rig.hpp"

namespace s2bench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Lockstep workloads step every party on one thread; the threaded one
  /// runs Scenario2Service's loop, the app and the peer on their own
  /// threads under the TimeArbiter.
  [[nodiscard]] virtual bool threaded() const { return false; }

  /// Create the applications (app side inside the app cVM).
  virtual void build(Rig& rig, Rng& rng) = 0;
  virtual bool app_step() = 0;
  virtual bool peer_step() = 0;
  [[nodiscard]] virtual std::optional<sim::Ns> peer_deadline() const {
    return std::nullopt;
  }
  /// Connection set-up is over.
  [[nodiscard]] virtual bool setup_done() const = 0;
  virtual void begin_measure() {}
  /// The measured phase is over (thread-safe for the threaded workload).
  [[nodiscard]] virtual bool measure_done() const = 0;
  virtual void end_measure() {}
  /// Destroy the app-side applications (their destructors detach rings).
  virtual void teardown(Rig& rig) = 0;

  /// Payload bytes delivered to applications in the measured phase.
  [[nodiscard]] virtual double bytes() const = 0;
  /// Virtual goodput of the stream (Mbit/s of application payload).
  [[nodiscard]] virtual double goodput_mbps() const = 0;
  /// Messages of the measured phase: echoes (RPC) or, for a stream, frames
  /// on the wire in the data direction (supplied by the caller).
  [[nodiscard]] virtual std::optional<double> messages() const {
    return std::nullopt;
  }
  /// Messages a complete measured phase carries; a failed episode counts
  /// this many as failed, even when it failed in set-up.
  [[nodiscard]] virtual double nominal_messages() const = 0;
  /// Wire side (0 = Morello, 1 = peer) that carries the stream's data.
  [[nodiscard]] virtual int data_side() const { return 0; }
  /// Virtual round-trip samples of the measured phase.
  [[nodiscard]] virtual std::vector<std::int64_t>& rtt_ns() = 0;
  /// Append a description of every failed output check.
  virtual void check(Rig& rig, std::vector<std::string>& failures) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace s2bench
