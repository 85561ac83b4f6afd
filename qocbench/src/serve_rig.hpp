#pragma once
// Shared set-up of the two serve workloads: an exact StatevectorBackend
// replica pool (optionally wrapped in the timing decorator), a session
// over it with the circuits registered, session-metric differencing and
// the direct run_batch reference that served results must match.

#include <algorithm>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "timed_backend.hpp"
#include "qoc/backend/backend.hpp"
#include "qoc/serve/serve.hpp"

namespace qocbench {

/// Replicas of a serve pool: fixed, and never more than the host's
/// cores.
inline std::size_t serve_replicas(unsigned wanted) {
  return std::max(1u, std::min(wanted, std::thread::hardware_concurrency()));
}

struct ServeRig {
  qoc::backend::StatevectorBackend bare{0};  // exact: shots == 0
  BackendStats stats;
  std::unique_ptr<TimedBackend> timed;  // set when decorated
  std::unique_ptr<qoc::serve::ServeSession> session;
  std::vector<qoc::serve::CircuitHandle> handles;

  ServeRig(const std::vector<qoc::circuit::Circuit>& circuits,
           qoc::serve::ServeOptions options, std::size_t replicas, bool decorated) {
    qoc::backend::Backend* primary = &bare;
    if (decorated) {
      timed = std::make_unique<TimedBackend>(bare, stats);
      primary = timed.get();
    }
    session = std::make_unique<qoc::serve::ServeSession>(
        qoc::serve::BackendPool(*primary, replicas), options);
    for (const auto& c : circuits) handles.push_back(session->register_circuit(c));
  }
};

/// Differences of the cumulative session counters over a phase.
struct ServeDelta {
  double submitted = 0, completed = 0, failed = 0, cache_hits = 0,
         folded = 0, shed = 0, batches = 0, coalesced = 0,
         deadline_flushes = 0, size_flushes = 0;

  static ServeDelta between(const qoc::serve::MetricsSnapshot& a,
                            const qoc::serve::MetricsSnapshot& b) {
    const auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    ServeDelta s;
    s.submitted = d(a.submitted, b.submitted);
    s.completed = d(a.completed, b.completed);
    s.failed = d(a.failed, b.failed);
    s.cache_hits = d(a.cache_hits, b.cache_hits);
    s.folded = d(a.folded_jobs, b.folded_jobs);
    s.shed = d(a.shed_jobs, b.shed_jobs);
    s.batches = d(a.batches, b.batches);
    s.coalesced = d(a.coalesced_jobs, b.coalesced_jobs);
    s.deadline_flushes = d(a.deadline_flushes, b.deadline_flushes);
    s.size_flushes = d(a.size_flushes, b.size_flushes);
    return s;
  }

  void report(Report& r) const {
    r.set("serve.batch_occupancy", ratio(coalesced, batches));
    r.set("serve.deadline_flush_ratio",
          ratio(deadline_flushes, deadline_flushes + size_flushes));
    r.set("serve.cache_hit_ratio", ratio(cache_hits, submitted));
    r.set("serve.fold_ratio", ratio(folded, submitted));
    r.set("serve.shed_jobs", shed);
    r.set("serve.failed_jobs", failed);
  }
};

/// Decorated pool: every replica's decorator, its wrapped backend and
/// the decorator's evaluation count agree on the inferences executed.
inline void check_inference_counts(ServeRig& rig, Report& r) {
  const auto& pool = rig.session->pool();
  std::uint64_t inner = 0;
  for (std::size_t i = 0; i < pool.size(); ++i)
    inner += static_cast<TimedBackend&>(pool.replica(i)).inner().inference_count();
  r.check(inner == pool.total_inference_count() && inner == rig.stats.evals.load(),
          "decorated and wrapped backends count the same inferences");
}

/// Direct results for `evals` of `c` on a fresh exact backend (the
/// served == direct reference).
inline std::vector<std::vector<double>> direct_results(
    const qoc::circuit::Circuit& c,
    std::span<const qoc::exec::Evaluation> evals) {
  qoc::backend::StatevectorBackend fresh(0);
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  return fresh.run_batch(plan, evals);
}

}  // namespace qocbench
