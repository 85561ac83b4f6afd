#include "qoc/backend/backend.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "qoc/common/parallel.hpp"
#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/cost_model.hpp"
#include "qoc/sim/density_matrix.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/sim/statevector.hpp"

namespace qoc::backend {

using circuit::GateKind;
using linalg::cplx;
using linalg::kI;
using linalg::Matrix;

// ---------------------------------------------------------------------------
// Backend base: plan cache
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kPlanCacheCap = 512;
constexpr std::size_t kTranspileCacheCap = 128;
}  // namespace

std::shared_ptr<const exec::CompiledCircuit> Backend::plan_cached(
    const circuit::Circuit& c) {
  // Probe with an allocation-free streaming hash + field-wise compare;
  // the signature string is only materialised inside compile() on a miss.
  const std::uint64_t h = exec::structure_hash(c);

  const common::MutexLock lock(plan_cache_mutex_);
  if (plan_cache_entries_ >= kPlanCacheCap) {
    plan_cache_.clear();
    plan_cache_entries_ = 0;
  }
  auto& bucket = plan_cache_[h];
  for (const auto& plan : bucket)
    if (exec::structure_equal(c, plan->source())) return plan;
  bucket.push_back(std::make_shared<const exec::CompiledCircuit>(
      exec::CompiledCircuit::compile(c)));
  ++plan_cache_entries_;
  return bucket.back();
}

std::vector<double> Backend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  // Joint Pauli products (<Z_i Z_j ...>) cannot be reconstructed from
  // execute()'s per-qubit <Z_q>, so there is no generic fallback.
  (void)plan;
  (void)observable;
  (void)evals;
  (void)threads;
  throw std::logic_error(name() +
                         ": expect_batch requires native state access");
}

// ---------------------------------------------------------------------------
// TranspileCache
// ---------------------------------------------------------------------------

std::shared_ptr<const transpile::RoutedTemplate> TranspileCache::get(
    const exec::CompiledCircuit& plan, const noise::DeviceModel& device) {
  // Probe by the cheap structure hash, but NEVER trust a hash hit alone:
  // structure_hash() explicitly allows collisions, and serving a
  // colliding entry would execute the wrong routed circuit. Every hit is
  // verified against the full canonical signature.
  const common::MutexLock lock(mutex_);
  const auto it = cache_.find(plan.structure_hash());
  if (it != cache_.end())
    for (const auto& [sig, tmpl] : it->second)
      if (sig == plan.signature()) {
        QOC_METRIC_COUNTER_ADD("qoc_transpile_cache_hits_total", 1);
        return tmpl;
      }
  QOC_METRIC_COUNTER_ADD("qoc_transpile_cache_misses_total", 1);
  if (entries_ >= kTranspileCacheCap) {
    cache_.clear();
    entries_ = 0;
  }
  // Route before touching the map: route_template throws for unroutable
  // circuits, and an early insert would leak an empty bucket the
  // entries_ cap never sees.
  auto tmpl = std::make_shared<const transpile::RoutedTemplate>(
      transpile::route_template(plan.source(), device));
  cache_[plan.structure_hash()].emplace_back(plan.signature(), tmpl);
  ++entries_;
  return tmpl;
}

// ---------------------------------------------------------------------------
// Shared execution skeleton
// ---------------------------------------------------------------------------

namespace {

using LaneGroup = sim::LanePartition::Group;

/// sim::partition_lanes plus lane-policy observability: how much of a
/// dispatch ran k-wide, how many padding lanes the compacted ragged tail
/// burned, and how many work items fell through to the scalar path.
/// Counts work items (evaluations or noise trajectories), never drives
/// control flow.
sim::LanePartition lane_partition(int n_qubits, std::size_t total,
                                  int pinned_lanes) {
  const sim::LanePartition part =
      sim::partition_lanes(n_qubits, total, pinned_lanes);
  if (part.lanes > 1) {
    QOC_METRIC_COUNTER_ADD("qoc_sim_lane_wide_groups_total", part.groups());
    QOC_METRIC_COUNTER_ADD("qoc_sim_lane_wide_evals_total", part.tail_start);
    if (part.padded_evals > 0) {
      QOC_METRIC_COUNTER_ADD("qoc_sim_lane_tail_compacted_evals_total",
                             part.padded_evals);
      QOC_METRIC_COUNTER_ADD("qoc_sim_lane_tail_padding_lanes_total",
                             part.lanes - part.padded_evals);
    }
  }
  QOC_METRIC_COUNTER_ADD("qoc_sim_lane_scalar_evals_total",
                         total - part.tail_start);
  return part;
}

/// Walk an evaluation-major lane partition of `total` work items
/// (evaluations or noise trajectories): every lane group, then every
/// scalar-tail index, each range fanned over up to `threads` workers in
/// chunks. make_group() / make_scalar() run once per chunk and return
/// the step that chunk calls per group / per tail index, so a step's
/// scratch (states, angle buffers) is built once per chunk, and only
/// for the kind of work the chunk holds. Lane L of a group evolves
/// bit-identically to the scalar path and padding lanes are discarded,
/// so the partition never shows in the results.
template <typename MakeGroupStep, typename MakeScalarStep>
void walk_lanes(const sim::LanePartition& part, std::size_t total,
                unsigned threads, const MakeGroupStep& make_group,
                const MakeScalarStep& make_scalar) {
  parallel_for_chunked(
      0, part.groups(),
      [&](std::size_t lo, std::size_t hi) {
        auto step = make_group();
        for (std::size_t g = lo; g < hi; ++g) step(part.group(g));
      },
      threads);
  parallel_for_chunked(
      part.tail_start, total,
      [&](std::size_t lo, std::size_t hi) {
        auto step = make_scalar();
        for (std::size_t k = lo; k < hi; ++k) step(k);
      },
      threads);
}

/// Lower every evaluation from the routed template, fanned over up to
/// `threads` workers: make_step() runs once per chunk and returns the
/// step called as step(k, t) with evaluation k's transpiled circuit.
/// Shared by the two transpiling backends.
template <typename MakeStep>
void for_each_transpiled(const exec::CompiledCircuit& plan,
                         const transpile::RoutedTemplate& tmpl,
                         const noise::DeviceModel& device,
                         std::span<const exec::Evaluation> evals,
                         unsigned threads, const MakeStep& make_step) {
  parallel_for_chunked(
      0, evals.size(),
      [&](std::size_t lo, std::size_t hi) {
        auto step = make_step();
        std::vector<double> angles;
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& e = evals[k];
          plan.resolve_source_angles(e.theta, e.input, e.shift_op, e.shift,
                                     angles);
          step(k, transpile::transpile_with_angles(tmpl, angles, device));
        }
      },
      threads);
}

/// The register a device backend simulates for one routed structure:
/// the template's active qubits (transpile::active_register) renumbered
/// 0..n-1 in ascending physical order. Every other device qubit stays
/// exactly |0>, because gates and noise act on gate operands only. The
/// ascending order is what keeps results bit-identical to simulating
/// the whole device: a full-register basis index with every idle bit
/// clear maps monotonically onto its compact index, so each in-order
/// reduction (Kraus weights, norms, the sampling CDF, <Z>,
/// probabilities) sees the same nonzero terms in the same order and
/// only drops +0.0 terms, and a sampled compact index reads the same
/// bits as the full one. Built once per batch.
struct CompactRegister {
  int n = 0;                  // simulated qubits
  std::vector<int> physical;  // compact index -> physical qubit
  std::vector<int> index;     // physical qubit -> compact index, -1 if idle
  std::vector<int> layout;    // logical qubit -> compact index

  CompactRegister(const transpile::RoutedTemplate& t, int n_phys)
      : n(static_cast<int>(t.active_qubits.size())),
        physical(t.active_qubits),
        index(static_cast<std::size_t>(n_phys), -1) {
    for (int c = 0; c < n; ++c)
      index[static_cast<std::size_t>(physical[static_cast<std::size_t>(c)])] =
          c;
    layout.reserve(t.final_layout.size());
    for (const int p : t.final_layout)
      layout.push_back(index[static_cast<std::size_t>(p)]);
    QOC_METRIC_GAUGE_SET("qoc_backend_register_qubits", n);
  }

  int operator[](int phys) const {
    return index[static_cast<std::size_t>(phys)];
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// StatevectorBackend
// ---------------------------------------------------------------------------

StatevectorBackend::StatevectorBackend(int shots, std::uint64_t seed)
    : StatevectorBackend(StatevectorBackendOptions{shots, seed}) {}

StatevectorBackend::StatevectorBackend(const StatevectorBackendOptions& options)
    : shots_(options.shots),
      seed_(options.seed),
      batch_lanes_(options.batch_lanes),
      rng_(options.seed) {
  if (options.shots < 0)
    throw std::invalid_argument("StatevectorBackend: shots < 0");
}

std::vector<Prng> StatevectorBackend::eval_streams(
    std::span<const exec::Evaluation> evals) {
  std::vector<Prng> rngs;
  rngs.reserve(evals.size());
  const common::MutexLock lock(rng_mutex_);
  for (const auto& e : evals)
    rngs.push_back(e.rng_stream == exec::Evaluation::kAutoStream
                       ? rng_.split()
                       : Prng(seed_ + 0x9E3779B97F4A7C15ULL *
                                          (e.rng_stream + 1)));
  return rngs;
}

namespace {

/// Finite-shot estimate of each <Z_q> from full-register samples.
std::vector<double> expectations_from_samples(
    const std::vector<std::uint64_t>& samples, int n_qubits, int shots) {
  std::vector<double> acc(static_cast<std::size_t>(n_qubits), 0.0);
  for (const auto s : samples) {
    for (int q = 0; q < n_qubits; ++q) {
      const std::uint64_t bit = (s >> (n_qubits - 1 - q)) & 1ULL;
      acc[static_cast<std::size_t>(q)] += bit ? -1.0 : 1.0;
    }
  }
  for (auto& v : acc) v /= static_cast<double>(shots);
  return acc;
}

/// Prepare every evaluation's state through `plan` along the lane
/// partition and hand it to the caller's measurement step: a lane group
/// on a BatchedStatevector (a padded group repeats its last real
/// evaluation in the padding lanes), a tail evaluation on a
/// Statevector. make_group() returns step(bsv, grp), make_scalar()
/// returns step(sv, k); see walk_lanes.
template <typename MakeGroupStep, typename MakeScalarStep>
void prepare_lanes(const exec::CompiledCircuit& plan,
                   std::span<const exec::Evaluation> evals,
                   const sim::LanePartition& part, unsigned threads,
                   const MakeGroupStep& make_group,
                   const MakeScalarStep& make_scalar) {
  const int n = plan.num_qubits();
  walk_lanes(
      part, evals.size(), threads,
      [&] {
        return [&, step = make_group(),
                bsv = sim::BatchedStatevector(n, part.lanes),
                angles = std::vector<double>(),
                padded = std::vector<exec::Evaluation>(),
                scratch = exec::CompiledCircuit::LaneScratch()](
                   LaneGroup grp) mutable {
          std::span<const exec::Evaluation> lanes =
              evals.subspan(grp.first, grp.real);
          if (grp.real < part.lanes) {
            padded.assign(lanes.begin(), lanes.end());
            padded.resize(part.lanes, lanes.back());
            lanes = padded;
          }
          plan.resolve_slots_lanes(lanes, angles);
          bsv.reset();
          plan.apply_batched(bsv, angles, scratch);
          step(bsv, grp);
        };
      },
      [&] {
        return [&, step = make_scalar(), sv = sim::Statevector(n),
                angles = std::vector<double>()](std::size_t k) mutable {
          const auto& e = evals[k];
          plan.resolve_slots(e.theta, e.input, e.shift_op, e.shift, angles);
          sv.reset();
          plan.apply(sv, angles);
          step(sv, k);
        };
      });
}

}  // namespace

std::vector<std::vector<double>> StatevectorBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  const int n = plan.num_qubits();
  std::vector<std::vector<double>> results(evals.size());
  const sim::LanePartition part =
      lane_partition(n, evals.size(), batch_lanes_);
  // `lanes` is the cost model's k-wide SoA verdict; the span shows how
  // much of a served batch actually ran grouped vs on the scalar tail.
  QOC_TRACE_SPAN_ARG("kernel", "sv_batch", "lanes",
                     static_cast<std::int64_t>(part.lanes));

  if (shots_ == 0) {
    // Exact mode: stateless, lock-free; scales linearly with threads.
    prepare_lanes(
        plan, evals, part, threads,
        [&] {
          return [&, zexp = std::vector<double>()](
                     sim::BatchedStatevector& bsv, LaneGroup grp) mutable {
            // One fused measurement pass for the whole lane group
            // (bit-identical per lane to expectation_z_all(l)).
            bsv.expectation_z_all_lanes(zexp);
            for (std::size_t l = 0; l < grp.real; ++l) {
              auto& r = results[grp.first + l];
              r.resize(static_cast<std::size_t>(n));
              for (int q = 0; q < n; ++q)
                r[static_cast<std::size_t>(q)] =
                    zexp[static_cast<std::size_t>(q) * part.lanes + l];
            }
          };
        },
        [&] {
          return [&](sim::Statevector& sv, std::size_t k) {
            results[k] = sv.expectation_z_all();
          };
        });
    return results;
  }

  // Sampled mode: each lane samples from its own evaluation's stream, so
  // grouping cannot reorder draws.
  std::vector<Prng> rngs = eval_streams(evals);
  prepare_lanes(
      plan, evals, part, threads,
      [&] {
        return [&](sim::BatchedStatevector& bsv, LaneGroup grp) {
          for (std::size_t k = grp.first; k < grp.first + grp.real; ++k)
            results[k] = expectations_from_samples(
                bsv.sample(k - grp.first, shots_, rngs[k]), n, shots_);
        };
      },
      [&] {
        return [&](sim::Statevector& sv, std::size_t k) {
          results[k] =
              expectations_from_samples(sv.sample(shots_, rngs[k]), n, shots_);
        };
      });
  return results;
}

std::vector<double> StatevectorBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  const int n = plan.num_qubits();
  const auto& groups = observable.groups();
  std::vector<double> results(evals.size());
  const sim::LanePartition part =
      lane_partition(n, evals.size(), batch_lanes_);
  QOC_TRACE_SPAN_ARG("kernel", "sv_expect_batch", "lanes",
                     static_cast<std::int64_t>(part.lanes));

  if (shots_ == 0) {
    // Exact mode: one state per evaluation, every term analytic. The
    // per-term loop inside CompiledObservable::expectation is
    // bit-identical to vqe::Hamiltonian::expectation; the lane path
    // replays the same loop with each term's Pauli product applied once
    // per lane group.
    add_inferences(evals.size());
    prepare_lanes(
        plan, evals, part, threads,
        [&] {
          return [&, lane_out = std::vector<double>()](
                     sim::BatchedStatevector& bsv, LaneGroup grp) mutable {
            // Full-width scratch: a padded group still computes every
            // lane; only the real entries land in results.
            lane_out.assign(part.lanes, 0.0);
            observable.expectation_lanes(bsv, lane_out);
            for (std::size_t l = 0; l < grp.real; ++l)
              results[grp.first + l] = lane_out[l];
          };
        },
        [&] {
          return [&](sim::Statevector& sv, std::size_t k) {
            results[k] = observable.expectation(sv);
          };
        });
    return results;
  }

  // Sampled mode: one ansatz preparation per evaluation, one measured
  // execution per commuting group (basis-change suffix + Z sampling),
  // each consuming the evaluation's stream in group order. The lane
  // path iterates groups outer / lanes inner, so each lane's stream
  // still sees its groups in the scalar order -- identical draws. All-Z
  // groups have no suffix and sample the prepared state directly
  // instead of paying an O(2^n) copy.
  add_inferences(evals.size() * groups.size());
  std::vector<Prng> rngs = eval_streams(evals);
  prepare_lanes(
      plan, evals, part, threads,
      [&] {
        return [&, bmeas = sim::BatchedStatevector(n, part.lanes)](
                   sim::BatchedStatevector& bsv, LaneGroup grp) mutable {
          const std::size_t end = grp.first + grp.real;
          for (std::size_t k = grp.first; k < end; ++k)
            results[k] = observable.constant();
          for (std::size_t g = 0; g < groups.size(); ++g) {
            // One suffix application per lane group (not per lane).
            const sim::BatchedStatevector* src = &bsv;
            if (!groups[g].suffix.empty()) {
              bmeas = bsv;
              observable.apply_suffix_lanes(bmeas, g);
              src = &bmeas;
            }
            for (std::size_t k = grp.first; k < end; ++k)
              results[k] += observable.group_energy_from_samples(
                  src->sample(k - grp.first, shots_, rngs[k]), g, shots_);
          }
        };
      },
      [&] {
        return [&, meas = sim::Statevector(n)](sim::Statevector& sv,
                                               std::size_t k) mutable {
          double energy = observable.constant();
          for (std::size_t g = 0; g < groups.size(); ++g) {
            const sim::Statevector* src = &sv;
            if (!groups[g].suffix.empty()) {
              meas = sv;
              observable.apply_suffix(meas, g);
              src = &meas;
            }
            energy += observable.group_energy_from_samples(
                src->sample(shots_, rngs[k]), g, shots_);
          }
          results[k] = energy;
        };
      });
  return results;
}

// ---------------------------------------------------------------------------
// DensityMatrixBackend
// ---------------------------------------------------------------------------

DensityMatrixBackend::DensityMatrixBackend(noise::DeviceModel device,
                                           Options options)
    : device_(std::move(device)), options_(options) {
  device_.validate();
  if (options_.noise_scale < 0.0)
    throw std::invalid_argument("DensityMatrixBackend: negative noise_scale");
}

namespace {

/// Batch-invariant exact-noise configuration of one routed structure:
/// its simulated register, the depolarizing and relaxation channels,
/// and the readout flip rates gathered into compact order. Built once
/// per batched call.
struct DensityTables {
  CompactRegister reg;
  DensityMatrixBackend::Options options;
  noise::KrausChannel depol_1q, depol_2q;
  std::vector<noise::KrausChannel> relax_1q, relax_2q;  // compact order
  std::vector<std::pair<double, double>> readout;       // (e01, e10)

  DensityTables(const noise::DeviceModel& device,
                const DensityMatrixBackend::Options& opts,
                const transpile::RoutedTemplate& tmpl)
      : reg(tmpl, device.n_qubits),
        options(opts),
        depol_1q(noise::depolarizing_1q(
            std::min(1.0, device.err_1q * opts.noise_scale))),
        depol_2q(noise::depolarizing_2q(
            std::min(1.0, device.err_2q * opts.noise_scale))) {
    // O(4^n) memory: the bound applies to the routed register, not to
    // the device it sits on.
    if (reg.n > 12)
      throw std::invalid_argument(
          "DensityMatrixBackend: routed register of " + std::to_string(reg.n) +
          " qubits too large for O(4^n) simulation");
    const double scale = opts.noise_scale;
    for (const int p : reg.physical) {
      const auto& cal = device.qubits[static_cast<std::size_t>(p)];
      if (opts.enable_relaxation) {
        relax_1q.push_back(noise::thermal_relaxation(
            cal.t1_s, cal.t2_s, device.gate_time_1q_s * scale));
        relax_2q.push_back(noise::thermal_relaxation(
            cal.t1_s, cal.t2_s, device.gate_time_2q_s * scale));
      }
      readout.emplace_back(cal.readout_err_0to1 * scale,
                           cal.readout_err_1to0 * scale);
    }
  }

  /// Exact effect of classical readout bit flips on compact qubit c's
  /// <Z> (identity when readout error is off).
  double readout_z(int c, double z) const {
    if (!options.enable_readout_error) return z;
    const auto [e01, e10] = readout[static_cast<std::size_t>(c)];
    return (1.0 - e01 - e10) * z + (e10 - e01);
  }

  sim::DensityMatrix evolve(const transpile::Transpiled& t) const {
    QOC_TRACE_SPAN("kernel", "density_evolve");
    sim::DensityMatrix rho(reg.n);
    std::vector<int> qs;
    for (const auto& op : t.ops) {
      qs.clear();
      for (const int q : op.qubits) qs.push_back(reg[q]);
      rho.apply_unitary(circuit::gate_matrix(op.kind, op.angle), qs);
      if (op.kind == GateKind::Rz) continue;  // virtual, error-free
      if (qs.size() == 1) {
        if (options.enable_gate_noise) rho.apply_channel(depol_1q.kraus(), qs);
        if (options.enable_relaxation)
          rho.apply_channel(relax_1q[static_cast<std::size_t>(qs[0])].kraus(),
                            qs);
      } else {
        if (options.enable_gate_noise) rho.apply_channel(depol_2q.kraus(), qs);
        if (options.enable_relaxation)
          for (const int q : qs)
            rho.apply_channel(relax_2q[static_cast<std::size_t>(q)].kraus(),
                              {q});
      }
    }
    return rho;
  }
};

}  // namespace

std::vector<std::vector<double>> DensityMatrixBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  const auto tmpl = transpile_cache_.get(plan, device_);
  const DensityTables tables(device_, options_, *tmpl);
  const int n_logical = plan.num_qubits();
  std::vector<std::vector<double>> results(evals.size());
  for_each_transpiled(plan, *tmpl, device_, evals, threads, [&] {
    return [&](std::size_t k, const transpile::Transpiled& t) {
      const auto z = tables.evolve(t).expectation_z_all();
      auto& out = results[k];
      out.resize(static_cast<std::size_t>(n_logical));
      for (int l = 0; l < n_logical; ++l) {
        const int c = tables.reg.layout[static_cast<std::size_t>(l)];
        out[static_cast<std::size_t>(l)] =
            tables.readout_z(c, z[static_cast<std::size_t>(c)]);
      }
    };
  });
  return results;
}

std::vector<double> DensityMatrixBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  const auto tmpl = transpile_cache_.get(plan, device_);
  const DensityTables tables(device_, options_, *tmpl);
  const int n_logical = plan.num_qubits();
  const int n = tables.reg.n;
  const auto& layout = tables.reg.layout;
  std::vector<double> results(evals.size());
  // One exact noisy evolution per evaluation; every group's terms are
  // then read from the final density matrix (deterministic oracle, so a
  // single execution is counted per evaluation).
  add_inferences(evals.size());
  for_each_transpiled(plan, *tmpl, device_, evals, threads, [&] {
    return [&, meas = sim::DensityMatrix(n)](
               std::size_t k, const transpile::Transpiled& t) mutable {
      const sim::DensityMatrix rho = tables.evolve(t);
      double energy = observable.constant();
      for (std::size_t g = 0; g < observable.groups().size(); ++g) {
        const auto& group = observable.groups()[g];
        // Ideal basis-change suffix on the measured qubits; all-Z groups
        // have none, so read rho directly instead of paying an O(4^n)
        // copy.
        const sim::DensityMatrix* src = &rho;
        if (!group.suffix.empty()) {
          meas = rho;
          for (const auto& bc : group.suffix) {
            const int c = layout[static_cast<std::size_t>(bc.qubit)];
            if (bc.y) meas.apply_unitary(sim::gate_sdg(), {c});
            meas.apply_unitary(sim::gate_h(), {c});
          }
          src = &meas;
        }
        const auto probs = src->probabilities();
        for (const auto& term : group.terms) {
          // E[prod (-1)^{b'_q}] with independent classical readout
          // flips: condition on each basis state and multiply the
          // per-qubit flip-adjusted parities.
          double acc = 0.0;
          for (std::size_t s = 0; s < probs.size(); ++s) {
            double f = probs[s];
            for (int q = 0; q < n_logical; ++q) {
              if (!(term.z_mask &
                    exec::CompiledObservable::qubit_bit(q, n_logical)))
                continue;
              const int c = layout[static_cast<std::size_t>(q)];
              const int bit = static_cast<int>((s >> (n - 1 - c)) & 1ULL);
              f *= tables.readout_z(c, bit ? -1.0 : 1.0);
            }
            acc += f;
          }
          energy += term.coeff * acc;
        }
      }
      results[k] = energy;
    };
  });
  return results;
}

// ---------------------------------------------------------------------------
// NoisyBackend
// ---------------------------------------------------------------------------

NoisyBackend::NoisyBackend(noise::DeviceModel device,
                           NoisyBackendOptions options)
    : device_(std::move(device)), options_(options) {
  device_.validate();
  if (options_.trajectories < 1)
    throw std::invalid_argument("NoisyBackend: trajectories < 1");
  if (options_.shots < 1)
    throw std::invalid_argument("NoisyBackend: shots < 1");
  if (options_.noise_scale < 0.0)
    throw std::invalid_argument("NoisyBackend: negative noise_scale");
}

namespace {

/// One lane of a k-wide trajectory group behind the Pauli interface of
/// a Statevector: the single-lane kernels are bit-identical on that lane
/// and leave every other lane untouched.
struct LaneView {
  sim::BatchedStatevector& bsv;
  std::size_t lane;
  void apply_pauli_x(int q) { bsv.apply_pauli_x_lane(q, lane); }
  void apply_pauli_y(int q) { bsv.apply_pauli_y_lane(q, lane); }
  void apply_pauli_z(int q) { bsv.apply_pauli_z_lane(q, lane); }
};

/// Depolarizing error after a physical gate, on a Statevector or a
/// LaneView. For Pauli channels the branch weights are state-independent,
/// so we sample Paulis directly instead of paying the generic
/// Kraus-branch norm computation.
template <typename State>
void inject_depolarizing(State&& sv, int q0, int q1, double p, Prng& rng) {
  if (p <= 0.0) return;
  if (q1 < 0) {
    // I with 1 - 3p/4, else X/Y/Z with p/4 each.
    const double u = rng.uniform();
    if (u >= 0.75 * p) return;
    const int which = static_cast<int>(u / (0.25 * p));
    switch (which) {
      case 0: sv.apply_pauli_x(q0); break;
      case 1: sv.apply_pauli_y(q0); break;
      default: sv.apply_pauli_z(q0); break;
    }
    return;
  }
  // Two-qubit: one of the 15 non-identity Pauli pairs w.p. p/16 each.
  const double u = rng.uniform();
  if (u >= 15.0 / 16.0 * p) return;
  const int idx = 1 + static_cast<int>(u / (p / 16.0));  // 1..15
  const int pa = idx >> 2;
  const int pb = idx & 3;
  auto apply_pauli = [&sv](int pauli, int q) {
    switch (pauli) {
      case 1: sv.apply_pauli_x(q); break;
      case 2: sv.apply_pauli_y(q); break;
      case 3: sv.apply_pauli_z(q); break;
      default: break;
    }
  };
  apply_pauli(pa, q0);
  apply_pauli(pb, q1);
}

/// Per-evaluation trajectory program: the transpiled op stream with all
/// structure-dependent work (matrix construction, kernel selection, noise
/// classification) hoisted out of the trajectory loop. With 64
/// trajectories per execution this alone removes 64x redundant gate-matrix
/// builds per op. The lowered basis is exactly {RZ, SX, X, CX}; anything
/// else is a pipeline bug and throws rather than degrading the noise
/// model silently.
struct TrajectoryProgram {
  enum class K : std::uint8_t { Rz, Sx, X, Cx };
  struct Op {
    K k;
    int q0 = -1, q1 = -1;
    cplx d0, d1;  // Rz diagonal
  };
  std::vector<Op> ops;
  Matrix sx = sim::gate_sx();

  /// `t`'s op stream with every operand relabelled onto `reg`.
  TrajectoryProgram(const transpile::Transpiled& t,
                    const CompactRegister& reg) {
    ops.reserve(t.ops.size());
    for (const auto& bop : t.ops) {
      Op op;
      op.q0 = reg[bop.qubits[0]];
      switch (bop.kind) {
        case GateKind::Rz:
          op.k = K::Rz;
          op.d0 = std::exp(-kI * (bop.angle / 2.0));
          op.d1 = std::exp(kI * (bop.angle / 2.0));
          break;
        case GateKind::Sx:
          op.k = K::Sx;
          break;
        case GateKind::X:
          op.k = K::X;
          break;
        case GateKind::Cx:
          op.k = K::Cx;
          op.q1 = reg[bop.qubits[1]];
          break;
        default:
          throw std::logic_error("TrajectoryProgram: unexpected gate '" +
                                 circuit::gate_name(bop.kind) +
                                 "' in transpiled stream");
      }
      ops.push_back(op);
    }
  }

  /// Apply one op to a Statevector, or to every lane of a k-wide
  /// trajectory group: the transpiled gate stream is binding-independent,
  /// so all trajectories share it, and per lane each uniform application
  /// is bit-identical to the scalar one (the batched kernels' per-lane
  /// contract).
  template <typename State>
  void apply(State& sv, const Op& op) const {
    switch (op.k) {
      case K::Rz:
        sv.apply_diag_1q(op.d0, op.d1, op.q0);
        break;
      case K::Sx:
        sv.apply_1q(sx, op.q0);
        break;
      case K::X:
        sv.apply_pauli_x(op.q0);
        break;
      case K::Cx:
        sv.apply_cx(op.q0, op.q1);
        break;
    }
  }
};

}  // namespace

/// Batch-invariant trajectory configuration: the simulated register of
/// the batch's routed structure, the noise model tables gathered into
/// its compact order, and the trajectory loop's shape. Built once per
/// batched call -- per-evaluation construction was pure redundant work
/// (identical channels every time).
struct NoisyBackend::NoiseTables {
  CompactRegister reg;
  int trajectories = 0;
  int shots_per_traj = 0;  // total shots split across trajectories
  int batch_lanes = -1;
  double p1 = 0.0, p2 = 0.0;
  bool relaxation = false;
  std::vector<noise::KrausChannel> relax_1q, relax_2q;  // compact order
  std::vector<noise::ReadoutError> readout;             // compact order

  NoiseTables(const noise::DeviceModel& device,
              const NoisyBackendOptions& options,
              const transpile::RoutedTemplate& tmpl)
      : reg(tmpl, device.n_qubits),
        trajectories(options.trajectories),
        shots_per_traj(std::max(1, options.shots / options.trajectories)),
        batch_lanes(options.batch_lanes) {
    const double scale = options.noise_scale;
    p1 = options.enable_gate_noise ? device.err_1q * scale : 0.0;
    p2 = options.enable_gate_noise ? device.err_2q * scale : 0.0;
    relaxation = options.enable_relaxation;
    for (const int p : reg.physical) {
      const auto& cal = device.qubits[static_cast<std::size_t>(p)];
      if (options.enable_relaxation) {
        relax_1q.push_back(noise::thermal_relaxation(
            cal.t1_s, cal.t2_s, device.gate_time_1q_s * scale));
        relax_2q.push_back(noise::thermal_relaxation(
            cal.t1_s, cal.t2_s, device.gate_time_2q_s * scale));
      }
      if (options.enable_readout_error)
        readout.push_back(
            {cal.readout_err_0to1 * scale, cal.readout_err_1to0 * scale});
    }
  }

  /// Evolve one noisy trajectory of `program` into sv.
  void evolve(const TrajectoryProgram& program, sim::Statevector& sv,
              Prng& rng) const {
    for (const auto& op : program.ops) {
      program.apply(sv, op);
      // Virtual RZ: frame change only, no physical pulse, no error.
      if (op.k == TrajectoryProgram::K::Rz) continue;
      if (op.q1 < 0) {
        inject_depolarizing(sv, op.q0, -1, p1, rng);
        if (relaxation)
          relax_1q[static_cast<std::size_t>(op.q0)].sample_and_apply(
              sv, {op.q0}, rng);
      } else {
        inject_depolarizing(sv, op.q0, op.q1, p2, rng);
        if (relaxation) {
          relax_2q[static_cast<std::size_t>(op.q0)].sample_and_apply(
              sv, {op.q0}, rng);
          relax_2q[static_cast<std::size_t>(op.q1)].sample_and_apply(
              sv, {op.q1}, rng);
        }
      }
    }
  }

  /// Evolve one lane group of noisy trajectories in lockstep: the
  /// uniform gate stream applies to all lanes at once, and every noise
  /// event draws per lane from that trajectory's own stream (ascending
  /// lane order at each event -- within a single stream the order is
  /// exactly evolve()'s, so lane L is bit-identical to a scalar
  /// trajectory run on lane L's rng). A nullptr lane_rngs entry marks a
  /// padding lane of a compacted ragged tail: it rides the uniform
  /// gates and Kraus branch 0 but consumes no randomness, so padding
  /// can never shift a real trajectory's draws. The payoff is the
  /// relaxation path: per gate, sample_and_apply_lanes runs the Born
  /// weight passes and the renormalization as k independent accumulator
  /// chains instead of k serial scalar passes.
  void evolve_lanes(const TrajectoryProgram& program,
                    sim::BatchedStatevector& bsv,
                    std::span<Prng* const> lane_rngs) const {
    for (const auto& op : program.ops) {
      program.apply(bsv, op);
      // Virtual RZ: frame change only, no physical pulse, no error.
      if (op.k == TrajectoryProgram::K::Rz) continue;
      if (op.q1 < 0) {
        for (std::size_t l = 0; l < lane_rngs.size(); ++l)
          if (lane_rngs[l] != nullptr)
            inject_depolarizing(LaneView{bsv, l}, op.q0, -1, p1, *lane_rngs[l]);
        if (relaxation)
          relax_1q[static_cast<std::size_t>(op.q0)].sample_and_apply_lanes(
              bsv, op.q0, lane_rngs);
      } else {
        for (std::size_t l = 0; l < lane_rngs.size(); ++l)
          if (lane_rngs[l] != nullptr)
            inject_depolarizing(LaneView{bsv, l}, op.q0, op.q1, p2,
                                *lane_rngs[l]);
        if (relaxation) {
          relax_2q[static_cast<std::size_t>(op.q0)].sample_and_apply_lanes(
              bsv, op.q0, lane_rngs);
          relax_2q[static_cast<std::size_t>(op.q1)].sample_and_apply_lanes(
              bsv, op.q1, lane_rngs);
        }
      }
    }
  }

  /// Run every noise trajectory of one execution of `t` on the calling
  /// thread, through the trajectory lane partition: k trajectories
  /// evolve in lockstep per lane group (padding lanes of a part-filled
  /// final group ride the gates, consume no randomness and are
  /// discarded) and the rest one at a time. Streams are pre-split from
  /// exec_rng in trajectory order -- the sequence a scalar loop splits
  /// lazily -- so trajectory j consumes the same stream at every lane
  /// width. make_group() returns step(bsv, rngs), called with the
  /// streams of the group's real lanes; make_scalar() returns
  /// step(sv, rng); see walk_lanes.
  template <typename MakeGroupStep, typename MakeScalarStep>
  void run_trajectories(const transpile::Transpiled& t, Prng exec_rng,
                        const MakeGroupStep& make_group,
                        const MakeScalarStep& make_scalar) const {
    const TrajectoryProgram program(t, reg);
    const auto n_traj = static_cast<std::size_t>(trajectories);
    const sim::LanePartition part = lane_partition(reg.n, n_traj, batch_lanes);
    std::vector<Prng> rngs;
    rngs.reserve(n_traj);
    for (std::size_t j = 0; j < n_traj; ++j) rngs.push_back(exec_rng.split());
    // One thread walks the partition, so the lane-stream table is shared.
    std::array<Prng*, sim::BatchedStatevector::kMaxLanes> lane_rngs{};
    walk_lanes(
        part, n_traj, /*threads=*/1,
        [&] {
          return [&, step = make_group(),
                  bsv = sim::BatchedStatevector(reg.n, part.lanes)](
                     LaneGroup grp) mutable {
            for (std::size_t l = 0; l < part.lanes; ++l)
              lane_rngs[l] = l < grp.real ? &rngs[grp.first + l] : nullptr;
            bsv.reset();
            evolve_lanes(program, bsv,
                         std::span<Prng* const>(lane_rngs.data(), part.lanes));
            step(bsv, std::span<Prng>(rngs).subspan(grp.first, grp.real));
          };
        },
        [&] {
          return [&, step = make_scalar(),
                  sv = sim::Statevector(reg.n)](std::size_t j) mutable {
            sv.reset();
            evolve(program, sv, rngs[j]);
            step(sv, rngs[j]);
          };
        });
  }
};

namespace {

/// RNG serial of evaluation k of a batch whose auto serials start at
/// `base`: auto evaluations take base + k (submission order); pinned
/// ones use their stream id, so their draws do not depend on the batch.
std::uint64_t execution_serial(const exec::Evaluation& e, std::uint64_t base,
                               std::size_t k) {
  return e.rng_stream == exec::Evaluation::kAutoStream ? base + k
                                                       : e.rng_stream;
}

}  // namespace

std::vector<double> NoisyBackend::run_transpiled(
    const transpile::Transpiled& t, const NoiseTables& tables, int n_logical,
    std::uint64_t serial) const {
  const int n = tables.reg.n;
  const int shots = tables.shots_per_traj;
  std::vector<double> acc(static_cast<std::size_t>(n_logical), 0.0);

  // Readout: sample bitstrings from a final trajectory state and apply
  // per-qubit classical flip errors. Shared verbatim by the scalar loop
  // and every lane of the k-wide path, so the accumulation order over
  // (trajectory, shot, qubit) -- and every readout draw -- is identical
  // at every lane width.
  const auto accumulate = [&](const std::vector<std::uint64_t>& samples,
                              Prng& rng) {
    for (const auto s : samples) {
      for (int l = 0; l < n_logical; ++l) {
        const int c = tables.reg.layout[static_cast<std::size_t>(l)];
        int bit = static_cast<int>((s >> (n - 1 - c)) & 1ULL);
        if (options_.enable_readout_error)
          bit = tables.readout[static_cast<std::size_t>(c)].apply(bit, rng);
        acc[static_cast<std::size_t>(l)] += bit ? -1.0 : 1.0;
      }
    }
  };

  QOC_TRACE_SPAN("kernel", "noisy_trajectories");
  tables.run_trajectories(
      t, execution_rng(serial),
      [&] {
        return [&](sim::BatchedStatevector& bsv, std::span<Prng> rngs) {
          for (std::size_t l = 0; l < rngs.size(); ++l)
            accumulate(bsv.sample(l, shots, rngs[l]), rngs[l]);
        };
      },
      [&] {
        return [&](sim::Statevector& sv, Prng& rng) {
          accumulate(sv.sample(shots, rng), rng);
        };
      });

  const auto total_samples =
      static_cast<std::uint64_t>(shots) * tables.trajectories;
  for (auto& v : acc) v /= static_cast<double>(total_samples);
  return acc;
}

double NoisyBackend::expect_transpiled(
    const transpile::Transpiled& t, const NoiseTables& tables,
    const exec::CompiledObservable& observable, std::uint64_t serial) const {
  // One measured hardware execution: noisy trajectories of the routed
  // circuit, an ideal basis-change suffix per commuting group, then shot
  // sampling with classical readout flips on the measured qubits.
  const int n_logical = observable.num_qubits();
  const int n = tables.reg.n;
  const auto& layout = tables.reg.layout;
  const int shots = tables.shots_per_traj;

  const auto& groups = observable.groups();
  // parity_sum[g][i]: summed parities of group g's i-th term.
  std::vector<std::vector<double>> parity_sum(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    parity_sum[g].assign(groups[g].terms.size(), 0.0);

  // Parity accumulation for one measured group's samples. Shared by the
  // scalar trajectory loop and every lane of the k-wide path; lanes are
  // visited in ascending trajectory order per observable group, so the
  // additions into parity_sum[g][i] happen in exactly the scalar order.
  const auto accumulate_group = [&](std::size_t g,
                                    const std::vector<std::uint64_t>& samples,
                                    Prng& rng) {
    const auto& group = groups[g];
    for (const auto s : samples) {
      // Read every measured qubit once (flips shared by all terms of
      // the group, exactly as one hardware shot would behave), packed
      // into a logical-bit word the term masks index directly.
      std::uint64_t word = 0;
      for (int q = 0; q < n_logical; ++q) {
        const std::uint64_t lbit =
            exec::CompiledObservable::qubit_bit(q, n_logical);
        if (!(group.measured_mask & lbit)) continue;
        const int c = layout[static_cast<std::size_t>(q)];
        int bit = static_cast<int>((s >> (n - 1 - c)) & 1ULL);
        if (options_.enable_readout_error)
          bit = tables.readout[static_cast<std::size_t>(c)].apply(bit, rng);
        if (bit) word |= lbit;
      }
      for (std::size_t i = 0; i < group.terms.size(); ++i)
        parity_sum[g][i] +=
            (std::popcount(word & group.terms[i].z_mask) & 1) ? -1.0 : 1.0;
    }
  };

  // Each trajectory's stream sees evolve draws, then group 0 sampling +
  // flips, then group 1, ... at every lane width. All-Z groups have no
  // suffix and sample the trajectory state directly instead of paying
  // an O(2^n) copy.
  QOC_TRACE_SPAN("kernel", "noisy_trajectories");
  tables.run_trajectories(
      t, execution_rng(serial),
      [&] {
        return [&, bmeas = std::optional<sim::BatchedStatevector>()](
                   sim::BatchedStatevector& bsv,
                   std::span<Prng> rngs) mutable {
          for (std::size_t g = 0; g < groups.size(); ++g) {
            // One suffix application per lane group (not per lane).
            const sim::BatchedStatevector* src = &bsv;
            if (!groups[g].suffix.empty()) {
              bmeas = bsv;
              observable.apply_suffix_lanes(*bmeas, g, layout);
              src = &*bmeas;
            }
            for (std::size_t l = 0; l < rngs.size(); ++l)
              accumulate_group(g, src->sample(l, shots, rngs[l]), rngs[l]);
          }
        };
      },
      [&] {
        return [&, meas = sim::Statevector(n)](sim::Statevector& sv,
                                               Prng& rng) mutable {
          for (std::size_t g = 0; g < groups.size(); ++g) {
            const sim::Statevector* src = &sv;
            if (!groups[g].suffix.empty()) {
              meas = sv;
              observable.apply_suffix(meas, g, layout);
              src = &meas;
            }
            accumulate_group(g, src->sample(shots, rng), rng);
          }
        };
      });

  const auto total_samples =
      static_cast<std::uint64_t>(shots) * tables.trajectories;
  double energy = observable.constant();
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t i = 0; i < groups[g].terms.size(); ++i)
      energy += groups[g].terms[i].coeff *
                (parity_sum[g][i] / static_cast<double>(total_samples));
  return energy;
}

std::vector<std::vector<double>> NoisyBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  const auto tmpl = transpile_cache_.get(plan, device_);
  const NoiseTables tables(device_, options_, *tmpl);
  // Auto evaluations draw serials from the internal counter in
  // submission order; the counter advances by the full batch so auto
  // serials stay position-stable whatever the batch pins.
  const std::uint64_t base =
      run_serial_.fetch_add(evals.size(), std::memory_order_relaxed);
  std::vector<std::vector<double>> results(evals.size());
  for_each_transpiled(plan, *tmpl, device_, evals, threads, [&] {
    return [&](std::size_t k, const transpile::Transpiled& t) {
      results[k] = run_transpiled(t, tables, plan.num_qubits(),
                                  execution_serial(evals[k], base, k));
    };
  });
  return results;
}

std::vector<double> NoisyBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  const auto tmpl = transpile_cache_.get(plan, device_);
  const NoiseTables tables(device_, options_, *tmpl);
  // Same serials as execute_batch; each evaluation's groups then
  // consume its stream sequentially inside expect_transpiled, so results
  // are deterministic and thread-count invariant.
  const std::uint64_t base =
      run_serial_.fetch_add(evals.size(), std::memory_order_relaxed);
  add_inferences(evals.size() * observable.groups().size());
  std::vector<double> results(evals.size());
  for_each_transpiled(plan, *tmpl, device_, evals, threads, [&] {
    return [&](std::size_t k, const transpile::Transpiled& t) {
      results[k] = expect_transpiled(t, tables, observable,
                                     execution_serial(evals[k], base, k));
    };
  });
  return results;
}

double NoisyBackend::estimate_duration_s(const circuit::Circuit& c,
                                         std::span<const double> theta,
                                         std::span<const double> input) const {
  const auto t = transpile::transpile(c, theta, input, device_);
  return transpile::estimated_duration_s(t, device_);
}

}  // namespace qoc::backend
