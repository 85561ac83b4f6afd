// Tests for the evaluation-major (k-wide) batch execution path: the
// lane-grouped run_batch / expect_batch results must be BITWISE identical
// to the scalar per-evaluation path (the oracle), including the non-
// multiple tail, mixed zero-angle bindings, sampled mode and pinned RNG
// streams. Also unit-tests the lane-width policy (StatevectorBackendOptions
// pin, cost-model crossover).

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/cost_model.hpp"
#include "qoc/sim/kernels.hpp"

namespace {

using namespace qoc::backend;
using qoc::circuit::Circuit;
using qoc::circuit::ParamRef;
using qoc::exec::CompiledCircuit;
using qoc::exec::Evaluation;
using qoc::sim::batch_lane_width;

constexpr std::uint64_t kSeed = 0xBADC0FFEEULL;

// A structurally rich circuit on n qubits: fixed gates (structured and
// dense), diagonal and dense rotations, controlled rotations, a
// multi-op diagonal run and -- for n >= 3 -- a Ccx, so every apply_batched
// dispatch arm executes. Uses n trainable angles plus 2 encoder inputs.
Circuit dense_circuit(int n) {
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.h(q);
  for (int q = 0; q < n; ++q) c.ry(q, ParamRef::trainable(q));
  for (int q = 0; q + 1 < n; q += 2) c.cx(q, q + 1);
  c.rx(0, ParamRef::input(0, 0.5, 0.1));
  c.rz(n - 1, ParamRef::trainable(0));
  c.phase(0, ParamRef::trainable((n > 1) ? 1 : 0));
  // Adjacent s/t/sx on one qubit: s and t extend the diagonal run the
  // rz/phase above start, and sx (followed by a Pauli, so it cannot pair)
  // takes the dense Fixed1q arm of apply_batched.
  c.s(0);
  c.t(0);
  c.sx(0);
  c.x(0);
  c.y(n - 1);
  c.z(0);
  if (n >= 2) {
    c.rzz(0, n - 1, ParamRef::trainable(0));
    c.rxx(0, 1, ParamRef::trainable(n - 1));
    c.crx(0, 1, ParamRef::trainable(0));
    c.cp(1, 0, ParamRef::input(1, 1.0, 0.0));
    c.cz(0, 1);
    c.swap(0, n - 1);
  }
  if (n >= 3) {
    c.ryy(1, 2, ParamRef::trainable(2));
    c.rzx(2, 0, ParamRef::trainable(1));
    c.ccx(0, 1, 2);
  }
  return c;
}

// Batch of `count` evaluations with distinct bindings. Every 5th binding
// is all-zero (the mixed zero-angle case), every 7th carries a parameter
// shift, and -- when `pin_streams` -- every 3rd pins its RNG stream.
struct EvalSet {
  std::vector<std::vector<double>> thetas;
  std::vector<std::vector<double>> inputs;
  std::vector<Evaluation> evals;
};

EvalSet make_evals(int n, std::size_t count, bool pin_streams = false) {
  EvalSet s;
  s.thetas.resize(count);
  s.inputs.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    s.thetas[i].resize(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
      s.thetas[i][static_cast<std::size_t>(q)] =
          (i % 5 == 0) ? 0.0 : 0.3 * static_cast<double>(i + 1) + 0.11 * q;
    s.inputs[i] = {0.25 * static_cast<double>(i), -0.4};
  }
  for (std::size_t i = 0; i < count; ++i) {
    Evaluation e;
    e.theta = s.thetas[i];
    e.input = s.inputs[i];
    if (i % 7 == 3) {
      e.shift_op = static_cast<std::size_t>(n);  // first ry op
      e.shift = 1.5707963267948966;
    }
    if (pin_streams && i % 3 == 0)
      e.rng_stream = (std::uint64_t{1} << 63) | i;
    s.evals.push_back(e);
  }
  return s;
}

StatevectorBackend scalar_backend(int shots = 0) {
  return StatevectorBackend(StatevectorBackendOptions{
      .shots = shots, .seed = kSeed, .batch_lanes = 1});
}

StatevectorBackend wide_backend(int shots = 0, int lanes = -1) {
  return StatevectorBackend(StatevectorBackendOptions{
      .shots = shots, .seed = kSeed, .batch_lanes = lanes});
}

// ---- Policy unit tests -----------------------------------------------------

TEST(BatchLanePolicy, CostModelCrossover) {
  // No pin: the static rule is full width across the supported range,
  // scalar beyond it.
  for (int n = 1; n <= qoc::sim::kBatchedLaneMaxQubits; ++n)
    EXPECT_EQ(batch_lane_width(n, 64), qoc::sim::kBatchedLanes) << "n=" << n;
  for (const int n : {qoc::sim::kBatchedLaneMaxQubits + 1, 20, 30})
    EXPECT_EQ(batch_lane_width(n, 64), 1u) << "n=" << n;
  // Tail compaction makes a half-full group profitable, so a width no
  // longer needs k full evaluations: k/2 suffice, one fewer does not.
  EXPECT_EQ(batch_lane_width(10, qoc::sim::kBatchedLanes - 1),
            qoc::sim::kBatchedLanes);
  EXPECT_EQ(batch_lane_width(10, qoc::sim::kBatchedLanes / 2),
            qoc::sim::kBatchedLanes);
  EXPECT_EQ(batch_lane_width(10, qoc::sim::kBatchedLanes / 2 - 1), 1u);
  EXPECT_EQ(batch_lane_width(qoc::sim::kBatchedLaneMaxQubits, 3), 1u);
}

TEST(BatchLanePolicy, OptionsPin) {
  EXPECT_EQ(batch_lane_width(20, 64, 8), 8u);   // pin beats the cost model
  EXPECT_EQ(batch_lane_width(10, 64, 0), 1u);   // kill switch
  EXPECT_EQ(batch_lane_width(10, 64, 1), 1u);
  EXPECT_EQ(batch_lane_width(10, 64, 4), 4u);
  EXPECT_EQ(batch_lane_width(10, 3, 4), 4u);    // half-full batch: compacted
  EXPECT_EQ(batch_lane_width(10, 1, 4), 1u);    // below half: scalar
  EXPECT_EQ(batch_lane_width(10, 64, 7), 6u);   // odd pins clamp down
  EXPECT_EQ(batch_lane_width(10, 64, 40), 32u); // kMaxLanes cap
}

TEST(BatchLanePolicy, PartitionLanes) {
  using qoc::sim::partition_lanes;
  // Per-group view: group g starts at g * lanes, full groups hold
  // `lanes` real evaluations and the padded group padded_evals, and the
  // groups tile [0, tail_start) exactly once.
  auto check_groups = [](const qoc::sim::LanePartition& p, std::size_t batch) {
    std::vector<int> covered(batch, 0);
    std::size_t real_sum = 0;
    for (std::size_t g = 0; g < p.groups(); ++g) {
      const auto grp = p.group(g);
      EXPECT_EQ(grp.first, g * p.lanes) << "batch=" << batch << " g=" << g;
      EXPECT_EQ(grp.real, g < p.full_groups ? p.lanes : p.padded_evals)
          << "batch=" << batch << " g=" << g;
      EXPECT_GE(grp.real, 1u);
      EXPECT_LE(grp.real, p.lanes);
      for (std::size_t k = grp.first; k < grp.first + grp.real; ++k)
        ++covered[k];
      real_sum += grp.real;
    }
    EXPECT_EQ(real_sum, p.tail_start) << "batch=" << batch;
    for (std::size_t k = 0; k < batch; ++k)
      EXPECT_EQ(covered[k], k < p.tail_start ? 1 : 0)
          << "batch=" << batch << " k=" << k;
  };
  // 260 @ 8: 32 full groups + a 4-eval tail compacted into one padded
  // group (exactly half full) -> 33 groups, nothing scalar.
  auto p = partition_lanes(10, 260, 8);
  EXPECT_EQ(p.lanes, 8u);
  EXPECT_EQ(p.full_groups, 32u);
  EXPECT_EQ(p.padded_evals, 4u);
  EXPECT_EQ(p.groups(), 33u);
  EXPECT_EQ(p.tail_start, 260u);
  check_groups(p, 260);

  // 9 @ 8: a 1-eval tail is below half -> scalar tail, no padded group.
  p = partition_lanes(10, 9, 8);
  EXPECT_EQ(p.full_groups, 1u);
  EXPECT_EQ(p.padded_evals, 0u);
  EXPECT_EQ(p.groups(), 1u);
  EXPECT_EQ(p.tail_start, 8u);
  check_groups(p, 9);

  // 5 @ 8: no full group, but the batch fills >= half the lanes ->
  // one padded group covers everything.
  p = partition_lanes(10, 5, 8);
  EXPECT_EQ(p.lanes, 8u);
  EXPECT_EQ(p.full_groups, 0u);
  EXPECT_EQ(p.padded_evals, 5u);
  EXPECT_EQ(p.groups(), 1u);
  EXPECT_EQ(p.tail_start, 5u);
  check_groups(p, 5);

  // 3 @ 8: below half -> batch_lane_width degrades to scalar outright.
  p = partition_lanes(10, 3, 8);
  EXPECT_EQ(p.lanes, 1u);
  EXPECT_EQ(p.groups(), 0u);
  EXPECT_EQ(p.tail_start, 0u);
  check_groups(p, 3);

  // Beyond the static rule's range everything is scalar.
  p = partition_lanes(qoc::sim::kBatchedLaneMaxQubits + 1, 64);
  EXPECT_EQ(p.lanes, 1u);
  EXPECT_EQ(p.tail_start, 0u);
  check_groups(p, 64);

  // The per-group view over the ragged sizes above and more: full
  // batches, padded tails, scalar tails and all-scalar batches, at
  // several widths.
  for (const std::size_t lanes : {2u, 4u, 8u, 16u})
    for (const std::size_t batch :
         {1u, 3u, 5u, 8u, 9u, 12u, 16u, 19u, 33u, 260u}) {
      p = partition_lanes(10, batch, static_cast<int>(lanes));
      check_groups(p, batch);
    }
}

TEST(BatchedStatevectorShape, ValidatesConstruction) {
  using qoc::sim::BatchedStatevector;
  EXPECT_THROW(BatchedStatevector(0, 8), std::invalid_argument);
  EXPECT_THROW(BatchedStatevector(31, 8), std::invalid_argument);
  EXPECT_THROW(BatchedStatevector(4, 0), std::invalid_argument);
  EXPECT_THROW(BatchedStatevector(4, 1), std::invalid_argument);
  EXPECT_THROW(BatchedStatevector(4, 3), std::invalid_argument);  // odd
  EXPECT_THROW(BatchedStatevector(4, 34), std::invalid_argument);
  BatchedStatevector sv(3, 4);
  EXPECT_EQ(sv.num_qubits(), 3);
  EXPECT_EQ(sv.lanes(), 4u);
  EXPECT_EQ(sv.dim(), 8u);

  // A compiled plan's fusion schedule is resolved for its own register.
  const CompiledCircuit plan = CompiledCircuit::compile(dense_circuit(4));
  std::vector<double> angles;
  plan.resolve_slots_lanes(make_evals(4, 4).evals, angles);
  CompiledCircuit::LaneScratch scratch;
  EXPECT_THROW(plan.apply_batched(sv, angles, scratch), std::invalid_argument);
}

// ---- Bitwise parity: run_batch ---------------------------------------------

void expect_run_batch_parity(int n, std::size_t count, int shots,
                             bool pin_streams, unsigned threads) {
  const Circuit c = dense_circuit(n);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const EvalSet s = make_evals(n, count, pin_streams);

  StatevectorBackend oracle = scalar_backend(shots);
  StatevectorBackend wide = wide_backend(shots);
  const auto ref = oracle.run_batch(plan, s.evals, threads);
  const auto got = wide.run_batch(plan, s.evals, threads);

  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].size(), got[i].size());
    for (std::size_t q = 0; q < ref[i].size(); ++q)
      EXPECT_EQ(ref[i][q], got[i][q])  // bitwise, not approximate
          << "n=" << n << " eval=" << i << " qubit=" << q;
  }
}

TEST(BatchKernelParity, RunBatchExactSmall) {
  expect_run_batch_parity(/*n=*/2, /*count=*/19, /*shots=*/0, false, 1);
}

TEST(BatchKernelParity, RunBatchExactMedium) {
  expect_run_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/0, false, 2);
}

TEST(BatchKernelParity, RunBatchExactCrossoverEdge) {
  // n = 14 is the largest register the cost model routes to lanes.
  expect_run_batch_parity(/*n=*/14, /*count=*/9, /*shots=*/0, false, 2);
}

TEST(BatchKernelParity, RunBatchTailOnlyBatch) {
  // Batch smaller than a lane group: everything takes the scalar tail,
  // and both backends must agree trivially (guards the partition math).
  expect_run_batch_parity(/*n=*/8, /*count=*/5, /*shots=*/0, false, 1);
}

// The serving-workload shape: rotation layers alternating with rzz
// entangling rings. Each ring (a fused diagonal run) butts into the
// next layer's first dense pair, so this pins the fused
// diag-run -> 1q-pair pass; the first layer on |0...0> also exercises
// the all-zero-block skip in the dense kernels.
Circuit layered_circuit(int n) {
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.ry(q, ParamRef::trainable(q));
  for (int rep = 0; rep < 2; ++rep) {
    for (int q = 0; q < n; ++q)
      c.rzz(q, (q + 1) % n, ParamRef::trainable((q + rep) % n));
    for (int q = 0; q < n; ++q)
      c.ry(q, ParamRef::trainable((q + rep + 1) % n));
  }
  return c;
}

TEST(BatchKernelParity, RunBatchLayeredRingFusion) {
  for (const int n : {2, 5, 8}) {  // odd n leaves an unpaired layer tail
    const CompiledCircuit plan = CompiledCircuit::compile(layered_circuit(n));
    const EvalSet s = make_evals(n, 19);
    StatevectorBackend oracle = scalar_backend();
    StatevectorBackend wide = wide_backend();
    const auto ref = oracle.run_batch(plan, s.evals, 1);
    const auto got = wide.run_batch(plan, s.evals, 1);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i].size(), got[i].size());
      for (std::size_t q = 0; q < ref[i].size(); ++q)
        EXPECT_EQ(ref[i][q], got[i][q])  // bitwise, not approximate
            << "n=" << n << " eval=" << i << " qubit=" << q;
    }
  }
}

TEST(BatchKernelParity, RunBatchRaggedTailCompaction) {
  // Partition shapes around the padded final group: tail exactly half
  // full, tail above half, a batch smaller than one group, and a tail
  // below half (which must fall back to the scalar loop). Results must
  // be bitwise identical to the scalar oracle in every shape.
  struct Shape {
    int lanes;
    std::size_t count;
  };
  const Shape shapes[] = {{8, 132}, {8, 12}, {8, 5}, {8, 9}, {4, 10}, {2, 7}};
  const Circuit c = dense_circuit(6);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  for (const auto& shape : shapes) {
    const EvalSet s = make_evals(6, shape.count);
    StatevectorBackend oracle = scalar_backend();
    StatevectorBackend wide = wide_backend(0, shape.lanes);
    const auto ref = oracle.run_batch(plan, s.evals, 1);
    for (const unsigned threads : {1u, 3u}) {
      const auto got = wide.run_batch(plan, s.evals, threads);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        for (std::size_t q = 0; q < ref[i].size(); ++q)
          EXPECT_EQ(ref[i][q], got[i][q])
              << "lanes=" << shape.lanes << " count=" << shape.count
              << " threads=" << threads << " eval=" << i;
    }
  }
}

TEST(BatchKernelParity, RunBatchRaggedTailSampled) {
  // Padded groups in sampled mode: padding lanes must never consume a
  // draw, so every real evaluation's stream is intact. Mixed pinned and
  // auto streams.
  const Circuit c = dense_circuit(6);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  for (const std::size_t count : {12u, 5u}) {
    const EvalSet s = make_evals(6, count, /*pin_streams=*/true);
    StatevectorBackend oracle = scalar_backend(128);
    StatevectorBackend wide = wide_backend(128, 8);
    const auto ref = oracle.run_batch(plan, s.evals, 2);
    const auto got = wide.run_batch(plan, s.evals, 2);
    for (std::size_t i = 0; i < ref.size(); ++i)
      for (std::size_t q = 0; q < ref[i].size(); ++q)
        EXPECT_EQ(ref[i][q], got[i][q]) << "count=" << count << " i=" << i;
  }
}

qoc::exec::CompiledObservable chain_observable(int n);  // defined below

TEST(BatchKernelParity, ExpectBatchRaggedTail) {
  const Circuit c = dense_circuit(6);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const auto obs = chain_observable(6);
  for (const int shots : {0, 128}) {
    for (const std::size_t count : {12u, 5u}) {
      const EvalSet s = make_evals(6, count, /*pin_streams=*/shots > 0);
      StatevectorBackend oracle = scalar_backend(shots);
      StatevectorBackend wide = wide_backend(shots, 8);
      const auto ref = oracle.expect_batch(plan, obs, s.evals, 2);
      const auto got = wide.expect_batch(plan, obs, s.evals, 2);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ref[i], got[i])
            << "shots=" << shots << " count=" << count << " i=" << i;
    }
  }
}

TEST(BatchKernelParity, RunBatchSampledAutoStreams) {
  // Sampled mode: stream assignment is submission-order, so lane
  // grouping must not change which stream an evaluation consumes.
  expect_run_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/256, false, 1);
  expect_run_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/256, false, 4);
}

TEST(BatchKernelParity, RunBatchSampledPinnedStreams) {
  expect_run_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/128, true, 2);
}

TEST(BatchKernelParity, PinnedWidthsAgreeWithScalar) {
  const Circuit c = dense_circuit(6);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const EvalSet s = make_evals(6, 13);
  StatevectorBackend oracle = scalar_backend();
  const auto ref = oracle.run_batch(plan, s.evals);
  for (int lanes : {2, 4, 8}) {
    StatevectorBackend wide = wide_backend(0, lanes);
    const auto got = wide.run_batch(plan, s.evals);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      for (std::size_t q = 0; q < ref[i].size(); ++q)
        EXPECT_EQ(ref[i][q], got[i][q]) << "lanes=" << lanes << " i=" << i;
  }
}

// ---- Bitwise parity: expect_batch ------------------------------------------

// Heisenberg-style chain built directly from raw terms (the Hamiltonian
// factory caps at 10 qubits; the crossover test needs 14).
qoc::exec::CompiledObservable chain_observable(int n) {
  std::vector<qoc::exec::ObservableTerm> terms;
  terms.push_back({std::string(static_cast<std::size_t>(n), 'I'), 0.25});
  for (int q = 0; q + 1 < n; ++q) {
    for (char p : {'X', 'Y', 'Z'}) {
      std::string s(static_cast<std::size_t>(n), 'I');
      s[static_cast<std::size_t>(q)] = p;
      s[static_cast<std::size_t>(q) + 1] = p;
      terms.push_back({s, 0.9 + 0.01 * q});
    }
  }
  return qoc::exec::CompiledObservable::compile(n, terms);
}

void expect_expect_batch_parity(int n, std::size_t count, int shots,
                                unsigned threads) {
  const Circuit c = dense_circuit(n);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const auto obs = chain_observable(n);
  const EvalSet s = make_evals(n, count, /*pin_streams=*/shots > 0);

  StatevectorBackend oracle = scalar_backend(shots);
  StatevectorBackend wide = wide_backend(shots);
  const auto ref = oracle.expect_batch(plan, obs, s.evals, threads);
  const auto got = wide.expect_batch(plan, obs, s.evals, threads);

  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(ref[i], got[i]) << "n=" << n << " eval=" << i;
}

TEST(BatchKernelParity, ExpectBatchExact) {
  expect_expect_batch_parity(/*n=*/2, /*count=*/19, /*shots=*/0, 1);
  expect_expect_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/0, 2);
}

TEST(BatchKernelParity, ExpectBatchExactCrossoverEdge) {
  expect_expect_batch_parity(/*n=*/14, /*count=*/9, /*shots=*/0, 2);
}

TEST(BatchKernelParity, ExpectBatchSampled) {
  // Sampled energies: one measurement per commuting group per lane; the
  // per-evaluation stream must see the exact draw sequence of the scalar
  // path (groups outer, shots inner).
  expect_expect_batch_parity(/*n=*/6, /*count=*/19, /*shots=*/128, 1);
  expect_expect_batch_parity(/*n=*/6, /*count=*/19, /*shots=*/128, 4);
}

TEST(BatchKernelParity, RunThenRunBatchSampledSerialStateMatches) {
  // Interleaving: a backend that already served single runs must still
  // assign batch streams exactly like the scalar backend would.
  const Circuit c = dense_circuit(4);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const EvalSet s = make_evals(4, 17);

  StatevectorBackend oracle = scalar_backend(64);
  StatevectorBackend wide = wide_backend(64);
  (void)oracle.run(plan, s.thetas[0], s.inputs[0]);
  (void)wide.run(plan, s.thetas[0], s.inputs[0]);
  const auto ref = oracle.run_batch(plan, s.evals);
  const auto got = wide.run_batch(plan, s.evals);
  for (std::size_t i = 0; i < ref.size(); ++i)
    for (std::size_t q = 0; q < ref[i].size(); ++q)
      EXPECT_EQ(ref[i][q], got[i][q]);
}

// ---- Golden outputs on large registers, every kernel mode ------------------

// Ring-and-layer circuit sized to reach every fused-layer shape of the
// k-wide path: an H layer (dense pairs on |0...0>, all-zero block skip),
// then a diagonal run longer than kMaxDiagRun (RZZ rings alternating
// with RZ layers: 42 ops at n = 14, 40 at n = 10), so it chunks and its
// last chunk welds into an RY + RX double layer (n dense pairs: more
// than kMaxPairRun, so the tiled run chunks; at n = 14 the large-stride
// pairs stream and the rest tile), and one unpaired RY before a CX.
Circuit large_layered_circuit(int n) {
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.h(q);
  for (int layer = 0; n * layer <= 32; ++layer) {
    for (int q = 0; q < n; ++q) {
      if (layer % 2 == 0)
        c.rzz(q, (q + 1 + layer / 2) % n,
              ParamRef::trainable((q + layer) % n));
      else
        c.rz(q, ParamRef::input(q % 2, 0.5, 0.1 * (q + layer)));
    }
  }
  for (int q = 0; q < n; ++q) c.ry(q, ParamRef::trainable((q + 1) % n));
  for (int q = 0; q < n; ++q) c.rx(q, ParamRef::trainable((q + 3) % n));
  c.ry(0, ParamRef::trainable(0));
  c.cx(0, n - 1);
  return c;
}

// A three-term observable (Z-, X- and Y-basis groups) for expect_batch.
qoc::exec::CompiledObservable small_observable(int n) {
  std::string zz(static_cast<std::size_t>(n), 'I');
  std::string xx = zz;
  std::string y = zz;
  zz[0] = zz[1] = 'Z';
  xx[static_cast<std::size_t>(n) - 2] = xx[static_cast<std::size_t>(n) - 1] =
      'X';
  y[static_cast<std::size_t>(n) / 2] = 'Y';
  const std::vector<qoc::exec::ObservableTerm> terms = {
      {zz, 0.5}, {xx, 0.25}, {y, -0.75}};
  return qoc::exec::CompiledObservable::compile(n, terms);
}

// FNV-1a over the bit patterns of every value, with zeros folded to +0
// (the kernels' documented sign-of-zeros latitude).
std::uint64_t digest(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    const double c = (v == 0.0) ? 0.0 : v;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::vector<double> flatten(const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  for (const auto& r : rows) out.insert(out.end(), r.begin(), r.end());
  return out;
}

struct LargeGolden {
  int n;
  std::size_t count;
  std::uint64_t exact_run;
  std::uint64_t exact_expect;
  std::uint64_t sampled_run;
};

TEST(BatchKernelGolden, LargeRegistersEveryModeAndWidth) {
  using qoc::sim::kernels::KernelMode;
  using qoc::sim::kernels::set_kernel_mode;
  // Every kernel mode and lane width reproduces these digests bit for
  // bit, the scalar path (lanes = 1) included.
  const LargeGolden goldens[] = {
      {10, 19, 0x4838434494fdb67fULL, 0x92f12e2d19f03413ULL,
       0x8f0711edb2bf9531ULL},
      {14, 8, 0x7999eb7b97ce082fULL, 0xd8a72d6046fbf8d0ULL,
       0xcf42722859c7b3a2ULL},
  };
  for (const LargeGolden& g : goldens) {
    const CompiledCircuit plan =
        CompiledCircuit::compile(large_layered_circuit(g.n));
    const auto obs = small_observable(g.n);
    const EvalSet s = make_evals(g.n, g.count, /*pin_streams=*/true);
    for (const KernelMode mode :
         {KernelMode::Auto, KernelMode::Blocked, KernelMode::Scalar}) {
      set_kernel_mode(mode);
      for (const int lanes : {-1, 2, 4, 16, 1}) {
        SCOPED_TRACE("n=" + std::to_string(g.n) +
                     " mode=" + std::to_string(static_cast<int>(mode)) +
                     " lanes=" + std::to_string(lanes));
        StatevectorBackend exact = wide_backend(0, lanes);
        EXPECT_EQ(digest(flatten(exact.run_batch(plan, s.evals, 4))),
                  g.exact_run);
        EXPECT_EQ(digest(exact.expect_batch(plan, obs, s.evals, 4)),
                  g.exact_expect);
        StatevectorBackend sampled = wide_backend(256, lanes);
        EXPECT_EQ(digest(flatten(sampled.run_batch(plan, s.evals, 4))),
                  g.sampled_run);
      }
    }
  }
  set_kernel_mode(KernelMode::Auto);
}

TEST(BatchKernelParity, FusedStepMatchesPerGatePasses) {
  // batched_apply_fused against one per-gate pass per diagonal and two
  // per pair, in every kernel mode, on a state whose first quarter is
  // zero (the all-zero block skip). n = 12 at k = 16 puts the pairs on
  // qubits 0 and 1 over the kPairTileBytes tile, so the tiled run streams
  // its first two pairs and tiles the other six; pairs mix real (ry-like)
  // and complex matrices, and the weld's first pair is complex in one
  // shape and real in another.
  namespace kn = qoc::sim::kernels;
  using cplx = std::complex<double>;
  constexpr int n = 12;
  constexpr std::size_t k = 16;
  constexpr std::size_t dim = std::size_t{1} << n;
  std::mt19937_64 rng(kSeed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const auto stride = [](int q) { return std::size_t{1} << (n - 1 - q); };
  // Entry-major per-lane buffer of `entries` entries; real keeps im = 0.
  const auto lane_entries = [&](std::size_t entries, bool real) {
    std::vector<cplx> e(entries * k);
    for (auto& v : e) v = {u(rng), real ? 0.0 : u(rng)};
    return e;
  };
  std::vector<cplx> state(dim * k);
  for (std::size_t i = dim / 4 * k; i < state.size(); ++i)
    state[i] = {u(rng), u(rng)};

  struct Shape {
    std::size_t nd;
    std::vector<std::pair<int, int>> pairs;
    bool real_weld;
  };
  const std::vector<std::pair<int, int>> layer = {
      {0, 1}, {1, 0}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {3, 2}};
  std::vector<std::pair<int, int>> welded = {{5, 2}};
  welded.insert(welded.end(), layer.begin(), layer.end());
  const Shape shapes[] = {
      {7, {}, false},                    // the chain
      {3, {{4, 9}}, false},              // complex weld, nothing after it
      {5, {{2, 7}, {0, 3}}, false},      // complex weld, one pair after it
      {kn::kMaxDiagRun, welded, true},   // real weld, full tiled run after
      {0, layer, false},                 // the tiled run
      {0, {{11, 0}}, false},             // one pair, one pass
  };
  std::vector<std::vector<cplx>> storage;
  for (const Shape& shape : shapes) {
    std::vector<kn::BatchedDiagOp> diag;
    for (std::size_t r = 0; r < shape.nd; ++r) {
      const int a = static_cast<int>((5 * r) % n);
      const int b = (a + 1 + static_cast<int>(r % (n - 1))) % n;  // b != a
      const bool two_q = r % 3 != 1;
      storage.push_back(lane_entries(two_q ? 4 : 2, false));
      diag.push_back({storage.back().data(), stride(a),
                      two_q ? stride(b) : 0});
    }
    std::vector<kn::BatchedPairOp> pairs;
    for (std::size_t p = 0; p < shape.pairs.size(); ++p) {
      const bool real = (p == 0) ? shape.real_weld : p % 2 == 0;
      storage.push_back(lane_entries(4, real));
      const cplx* m_a = storage.back().data();
      storage.push_back(lane_entries(4, real));
      pairs.push_back({stride(shape.pairs[p].first),
                       stride(shape.pairs[p].second), m_a,
                       storage.back().data()});
    }
    for (const kn::KernelMode mode :
         {kn::KernelMode::Auto, kn::KernelMode::Blocked,
          kn::KernelMode::Scalar}) {
      kn::set_kernel_mode(mode);
      std::vector<cplx> ref = state;
      for (const auto& d : diag) {
        if (d.sb == 0)
          kn::batched_apply_diag_1q(ref.data(), dim, d.sa, k, d.d);
        else
          kn::batched_apply_diag_2q(ref.data(), dim, d.sa, d.sb, k, d.d);
      }
      for (const auto& p : pairs) {
        kn::batched_apply_1q(ref.data(), dim, p.sa, k, p.m_a);
        kn::batched_apply_1q(ref.data(), dim, p.sb, k, p.m_b);
      }
      std::vector<cplx> got = state;
      kn::batched_apply_fused(got.data(), dim, diag.data(), diag.size(),
                              pairs.data(), pairs.size(), k);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < got.size(); ++i)
        mismatches += (got[i].real() != ref[i].real() ||
                       got[i].imag() != ref[i].imag());  // +0 == -0
      EXPECT_EQ(mismatches, 0u)
          << "nd=" << shape.nd << " np=" << pairs.size()
          << " mode=" << static_cast<int>(mode);
    }
  }
  kn::set_kernel_mode(kn::KernelMode::Auto);
}

}  // namespace
