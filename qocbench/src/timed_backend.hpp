#pragma once
// A forwarding Backend decorator that times every call into the
// backend layer. It overrides the protected execute_* hooks and calls
// the wrapped backend's public run / run_batch / expect_batch, so the
// wrapped backend does its own inference accounting and emits its own
// library spans, exactly as when it is used bare; deterministic() and
// clone_replica() forward, so serve's caching, folding and replica
// pools behave as with the bare backend.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "qoc/backend/backend.hpp"

namespace qocbench {

/// Counters shared by a decorator and all its replicas. `on_batch`, if
/// set, runs after every batch with the evaluations and the call's
/// start and end (steady-clock ns); it may be called from several
/// threads at once.
struct BackendStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::function<void(std::span<const qoc::exec::Evaluation>, std::uint64_t,
                     std::uint64_t)>
      on_batch;
};

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class TimedBackend final : public qoc::backend::Backend {
 public:
  /// Wraps a caller-owned backend.
  TimedBackend(qoc::backend::Backend& inner, BackendStats& stats)
      : inner_(inner), stats_(stats) {}
  /// Wraps (and owns) a replica.
  TimedBackend(std::unique_ptr<qoc::backend::Backend> owned, BackendStats& stats)
      : owned_(std::move(owned)), inner_(*owned_), stats_(stats) {}

  std::string name() const override { return inner_.name(); }
  bool deterministic() const override { return inner_.deterministic(); }
  std::unique_ptr<qoc::backend::Backend> clone_replica() const override {
    auto replica = inner_.clone_replica();
    if (!replica) return nullptr;
    return std::make_unique<TimedBackend>(std::move(replica), stats_);
  }

  qoc::backend::Backend& inner() { return inner_; }

 protected:
  std::vector<double> execute(const qoc::circuit::Circuit& c,
                              std::span<const double> theta,
                              std::span<const double> input) override {
    const std::uint64_t t0 = steady_ns();
    auto out = inner_.run(c, theta, input);
    record({}, 1, t0);
    return out;
  }

  std::vector<std::vector<double>> execute_batch(
      const qoc::exec::CompiledCircuit& plan,
      std::span<const qoc::exec::Evaluation> evals, unsigned threads) override {
    const std::uint64_t t0 = steady_ns();
    auto out = inner_.run_batch(plan, evals, threads);
    record(evals, evals.size(), t0);
    return out;
  }

  // The wrapped backend counts expectation inferences itself; this
  // decorator's own inference_count() does not include them.
  std::vector<double> execute_expect_batch(
      const qoc::exec::CompiledCircuit& plan,
      const qoc::exec::CompiledObservable& observable,
      std::span<const qoc::exec::Evaluation> evals, unsigned threads) override {
    const std::uint64_t t0 = steady_ns();
    auto out = inner_.expect_batch(plan, observable, evals, threads);
    record(evals, evals.size(), t0);
    return out;
  }

 private:
  void record(std::span<const qoc::exec::Evaluation> evals, std::size_t n,
              std::uint64_t t0) {
    const std::uint64_t t1 = steady_ns();
    stats_.calls.fetch_add(1, std::memory_order_relaxed);
    stats_.evals.fetch_add(n, std::memory_order_relaxed);
    stats_.busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    if (stats_.on_batch) stats_.on_batch(evals, t0, t1);
  }

  std::unique_ptr<qoc::backend::Backend> owned_;
  qoc::backend::Backend& inner_;
  BackendStats& stats_;
};

/// The backend layer's figures (busy time, calls, evaluations per call,
/// time per evaluation) into the report.
inline void report_backend(const BackendStats& s, Report& r) {
  const auto calls = static_cast<double>(s.calls.load());
  const auto evals = static_cast<double>(s.evals.load());
  const double busy = static_cast<double>(s.busy_ns.load()) * 1e-9;
  r.set("backend.run_batch_busy_s", busy);
  r.set("backend.run_batch_calls", calls);
  r.set("backend.evals_per_call", ratio(evals, calls));
  r.set("backend.us_per_eval", ratio(busy * 1e6, evals));
}

}  // namespace qocbench
