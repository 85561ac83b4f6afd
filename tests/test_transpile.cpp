// Tests for the transpile pipeline: binding, basis lowering (verified by
// unitary equivalence up to global phase), routing, and gate statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/sim/statevector.hpp"
#include "qoc/transpile/transpile.hpp"
#include "random_circuit.hpp"

namespace {

using namespace qoc::transpile;
using qoc::Prng;
using qoc::circuit::Circuit;
using qoc::circuit::GateKind;
using qoc::circuit::ParamRef;
using qoc::linalg::cplx;
using qoc::linalg::equal_up_to_global_phase;
using qoc::linalg::kPi;
using qoc::linalg::Matrix;
using qoc::noise::DeviceModel;
using qoc::testgen::kAllKinds;
using qoc::testgen::kGenInputs;
using qoc::testgen::kGenThetas;
using qoc::testgen::random_angles;
using qoc::testgen::random_circuit;

/// Apply a BoundOp list to a fresh statevector register of n qubits and
/// return the full unitary by columns (small n only).
Matrix ops_unitary(const std::vector<BoundOp>& ops, int n) {
  const std::size_t dim = std::size_t{1} << n;
  Matrix u(dim, dim);
  for (std::size_t col = 0; col < dim; ++col) {
    qoc::sim::Statevector sv(n);
    std::vector<cplx> amps(dim, cplx{0, 0});
    amps[col] = 1.0;
    sv.set_amplitudes(amps);
    for (const auto& op : ops)
      sv.apply_matrix(qoc::circuit::gate_matrix(op.kind, op.angle), op.qubits);
    for (std::size_t row = 0; row < dim; ++row) u(row, col) = sv.amplitude(row);
  }
  return u;
}

TEST(Bind, ResolvesAllAngleSources) {
  Circuit c(2);
  c.rx(0, ParamRef::trainable(0));
  c.ry(1, ParamRef::input(0, 2.0));
  c.rz(0, ParamRef::constant(0.25));
  c.cx(0, 1);
  const std::vector<double> theta = {1.5};
  const std::vector<double> input = {0.3};
  const auto bound = bind_circuit(c, theta, input);
  ASSERT_EQ(bound.size(), 4u);
  EXPECT_DOUBLE_EQ(bound[0].angle, 1.5);
  EXPECT_DOUBLE_EQ(bound[1].angle, 0.6);
  EXPECT_DOUBLE_EQ(bound[2].angle, 0.25);
}

// ---- ZYZ decomposition ---------------------------------------------------------

TEST(Zyz, ReconstructsRandomUnitaries) {
  Prng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Matrix u = qoc::sim::gate_u3(rng.uniform(0, kPi),
                                       rng.uniform(-kPi, kPi),
                                       rng.uniform(-kPi, kPi));
    const EulerZYZ e = zyz_decompose(u);
    const Matrix rebuilt = qoc::sim::gate_rz(e.phi) * qoc::sim::gate_ry(e.theta) *
                           qoc::sim::gate_rz(e.lambda);
    EXPECT_TRUE(equal_up_to_global_phase(rebuilt, u, 1e-9)) << i;
  }
}

TEST(Zyz, HandlesDiagonalAndAntiDiagonal) {
  const EulerZYZ ez = zyz_decompose(qoc::sim::gate_rz(0.7));
  EXPECT_NEAR(ez.theta, 0.0, 1e-12);
  const EulerZYZ ex = zyz_decompose(qoc::sim::gate_x());
  EXPECT_NEAR(ex.theta, kPi, 1e-9);
}

TEST(Zyz, RejectsWrongShapes) {
  EXPECT_THROW(zyz_decompose(Matrix(3, 3)), std::invalid_argument);
}

// ---- Basis lowering: unitary equivalence ---------------------------------------

class LoweringEquivalence1q : public ::testing::TestWithParam<GateKind> {};

TEST_P(LoweringEquivalence1q, PreservesUnitaryUpToPhase) {
  const GateKind kind = GetParam();
  Prng rng(2);
  const double angle = rng.uniform(-3, 3);
  const std::vector<BoundOp> original = {{kind, {0}, angle}};
  const auto lowered = lower_to_basis(original);
  // Everything must be in the basis.
  for (const auto& op : lowered)
    EXPECT_TRUE(op.kind == GateKind::Rz || op.kind == GateKind::Sx ||
                op.kind == GateKind::X || op.kind == GateKind::Cx);
  EXPECT_TRUE(equal_up_to_global_phase(ops_unitary(lowered, 1),
                                       ops_unitary(original, 1), 1e-9))
      << qoc::circuit::gate_name(kind);
}

INSTANTIATE_TEST_SUITE_P(Gates1q, LoweringEquivalence1q,
                         ::testing::Values(GateKind::H, GateKind::X,
                                           GateKind::Y, GateKind::Z,
                                           GateKind::S, GateKind::Sdg,
                                           GateKind::T, GateKind::Tdg,
                                           GateKind::Sx, GateKind::Rx,
                                           GateKind::Ry, GateKind::Rz,
                                           GateKind::Phase));

class LoweringEquivalence2q : public ::testing::TestWithParam<GateKind> {};

TEST_P(LoweringEquivalence2q, PreservesUnitaryUpToPhase) {
  const GateKind kind = GetParam();
  Prng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const double angle = rng.uniform(-3, 3);
    const std::vector<BoundOp> original = {{kind, {0, 1}, angle}};
    const auto lowered = lower_to_basis(original);
    EXPECT_TRUE(equal_up_to_global_phase(ops_unitary(lowered, 2),
                                         ops_unitary(original, 2), 1e-9))
        << qoc::circuit::gate_name(kind) << " angle=" << angle;
  }
}

INSTANTIATE_TEST_SUITE_P(Gates2q, LoweringEquivalence2q,
                         ::testing::Values(GateKind::Cx, GateKind::Cz,
                                           GateKind::Swap, GateKind::Rzz,
                                           GateKind::Rxx, GateKind::Ryy,
                                           GateKind::Rzx));

TEST(Lowering, WholeTaskCircuitEquivalent) {
  // The Fashion-4 ansatz (encoder + 3x RZZ+RY) lowered end-to-end.
  Circuit c(4);
  qoc::circuit::add_image_encoder_16(c);
  for (int b = 0; b < 3; ++b) {
    qoc::circuit::add_rzz_ring_layer(c);
    qoc::circuit::add_ry_layer(c);
  }
  Prng rng(4);
  std::vector<double> theta(static_cast<std::size_t>(c.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-kPi, kPi);
  std::vector<double> input(16);
  for (auto& x : input) x = rng.uniform(0, kPi);

  const auto bound = bind_circuit(c, theta, input);
  const auto lowered = lower_to_basis(bound);
  EXPECT_TRUE(equal_up_to_global_phase(ops_unitary(lowered, 4),
                                       ops_unitary(bound, 4), 1e-8));
}

TEST(Lowering, ElidesZeroAngleRz) {
  const std::vector<BoundOp> ops = {{GateKind::Rz, {0}, 0.0}};
  EXPECT_TRUE(lower_to_basis(ops).empty());
}

TEST(Lowering, RzzCostsExactlyTwoCx) {
  const std::vector<BoundOp> ops = {{GateKind::Rzz, {0, 1}, 0.5}};
  const auto lowered = lower_to_basis(ops);
  const auto stats = compute_stats(lowered, 2);
  EXPECT_EQ(stats.n_cx, 2u);
}

// ---- Routing ------------------------------------------------------------------

TEST(Routing, AdjacentGatesPassThrough) {
  const auto device = DeviceModel::ibmq_manila();
  const std::vector<BoundOp> ops = {{GateKind::Cx, {0, 1}, 0.0},
                                    {GateKind::Cx, {1, 2}, 0.0}};
  const auto result = route(ops, 4, device);
  EXPECT_EQ(result.n_swaps_inserted, 0u);
  EXPECT_EQ(result.ops.size(), 2u);
}

TEST(Routing, InsertsSwapsForFarPairs) {
  const auto device = DeviceModel::ibmq_manila();  // line 0-1-2-3-4
  const std::vector<BoundOp> ops = {{GateKind::Cx, {0, 3}, 0.0}};
  const auto result = route(ops, 4, device);
  EXPECT_GE(result.n_swaps_inserted, 1u);
  // All emitted 2q ops must be on coupled pairs.
  for (const auto& op : result.ops)
    if (op.qubits.size() == 2)
      EXPECT_TRUE(device.connected(op.qubits[0], op.qubits[1]));
}

TEST(Routing, SemanticsPreservedUnderPermutation) {
  // Routed circuit must equal the original up to the final layout
  // permutation of qubits.
  const auto device = DeviceModel::ibmq_manila();
  Prng rng(5);
  std::vector<BoundOp> ops;
  for (int g = 0; g < 6; ++g) {
    const int a = static_cast<int>(rng.uniform_int(4));
    int b = static_cast<int>(rng.uniform_int(4));
    while (b == a) b = static_cast<int>(rng.uniform_int(4));
    ops.push_back({GateKind::Rzz, {a, b}, rng.uniform(-2, 2)});
    ops.push_back({GateKind::Ry, {a}, rng.uniform(-2, 2)});
  }
  const auto result = route(ops, 4, device);

  // Simulate original on 5 qubits (logical i = physical i initially).
  qoc::sim::Statevector orig(5), routed(5);
  for (const auto& op : ops)
    orig.apply_matrix(qoc::circuit::gate_matrix(op.kind, op.angle), op.qubits);
  for (const auto& op : result.ops)
    routed.apply_matrix(qoc::circuit::gate_matrix(op.kind, op.angle),
                        op.qubits);

  // Compare <Z> of each logical qubit: logical l sits at final_layout[l].
  for (int l = 0; l < 4; ++l)
    EXPECT_NEAR(orig.expectation_z(l),
                routed.expectation_z(result.final_layout[l]), 1e-9)
        << "logical " << l;
}

TEST(Routing, ThrowsWhenCircuitLargerThanDevice) {
  const auto device = DeviceModel::ibmq_manila();
  EXPECT_THROW(route({}, 6, device), std::invalid_argument);
}

// ---- Full pipeline + stats ------------------------------------------------------

TEST(FullTranspile, TaskCircuitOnManila) {
  Circuit c(4);
  qoc::circuit::add_image_encoder_16(c);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  Prng rng(6);
  std::vector<double> theta(static_cast<std::size_t>(c.num_trainable()), 0.5);
  std::vector<double> input(16, 1.0);

  const auto t = transpile(c, theta, input, DeviceModel::ibmq_manila());
  // Ring on a line needs at least one SWAP for the (3,0) closure.
  EXPECT_GE(t.n_swaps_inserted, 1u);
  EXPECT_GT(t.stats.n_cx, 8u);  // 4 RZZ x 2 CX + 3 CX per SWAP
  EXPECT_GT(t.stats.n_rz, 0u);
  EXPECT_GT(t.stats.depth, 0u);
}

TEST(FullTranspile, SuccessProbabilityInUnitInterval) {
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  std::vector<double> theta(4, 0.3);
  const auto device = DeviceModel::ibmq_lima();
  const auto t = transpile(c, theta, {}, device);
  const double p = estimated_success_probability(t, device);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(FullTranspile, DurationPositiveAndScalesWithDepth) {
  Circuit small(4), big(4);
  qoc::circuit::add_rzz_ring_layer(small);
  for (int i = 0; i < 5; ++i) qoc::circuit::add_rzz_ring_layer(big);
  std::vector<double> ts(4, 0.3), tb(20, 0.3);
  const auto device = DeviceModel::ibmq_santiago();
  const auto a = transpile(small, ts, {}, device);
  const auto b = transpile(big, tb, {}, device);
  EXPECT_GT(estimated_duration_s(a, device), 0.0);
  EXPECT_GT(estimated_duration_s(b, device), estimated_duration_s(a, device));
}

// ---- Template path vs full pipeline ---------------------------------------------

/// Bitwise equality of two transpiled streams (ops, layout, active
/// register, stats).
void expect_transpiled_equal(const Transpiled& a, const Transpiled& b) {
  EXPECT_EQ(a.final_layout, b.final_layout);
  EXPECT_EQ(a.active_qubits, b.active_qubits);
  EXPECT_EQ(a.n_swaps_inserted, b.n_swaps_inserted);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind) << "op " << i;
    EXPECT_EQ(a.ops[i].qubits, b.ops[i].qubits) << "op " << i;
    EXPECT_EQ(a.ops[i].angle, b.ops[i].angle) << "op " << i;
  }
  EXPECT_EQ(a.stats.n_rz, b.stats.n_rz);
  EXPECT_EQ(a.stats.n_sx, b.stats.n_sx);
  EXPECT_EQ(a.stats.n_x, b.stats.n_x);
  EXPECT_EQ(a.stats.n_cx, b.stats.n_cx);
  EXPECT_EQ(a.stats.n_other, b.stats.n_other);
  EXPECT_EQ(a.stats.depth, b.stats.depth);
}

/// One circuit with the bindings it is checked under.
struct TemplateCase {
  std::string name;
  Circuit circuit;
  DeviceModel device;
  std::vector<std::vector<double>> thetas;
  std::vector<std::vector<double>> inputs;  // one per theta, or empty
};

/// Representative mix: every lowering recipe class (affine RZ family,
/// ZYZ rotations incl. scaled Cry, fixed-gate conjugations, routed
/// SWAPs from the non-adjacent pair on a line device), bound with
/// progressively pruned parameters.
TemplateCase lowering_mix_case() {
  Circuit c(4);
  c.h(0);
  c.rx(1, ParamRef::trainable(0));
  c.ry(2, ParamRef::trainable(1));
  c.rz(3, ParamRef::trainable(2));
  c.rzz(0, 1, ParamRef::trainable(3));
  c.cry(1, 2, ParamRef::trainable(4));
  c.crz(2, 3, ParamRef::trainable(5));
  c.cp(0, 3, ParamRef::trainable(6));  // non-adjacent on manila: SWAPs
  c.cz(1, 3);
  c.swap(0, 2);
  c.ryy(2, 3, ParamRef::trainable(7));
  Prng rng(77);
  std::vector<std::vector<double>> thetas;
  for (int k = 0; k < 4; ++k) {
    std::vector<double> theta(8);
    for (auto& v : theta) v = rng.uniform(-3, 3);
    if (k >= 1) theta[1] = 0.0;
    if (k >= 2) theta[3] = theta[6] = 0.0;
    thetas.push_back(std::move(theta));
  }
  return {"lowering mix", std::move(c), DeviceModel::ibmq_manila(),
          std::move(thetas), {}};
}

/// rz(theta) merges with an adjacent constant rz(-0.7): at theta = 0.7
/// the merged rotation is zero, and it and the then-adjacent CX pair
/// vanish; at theta = 0.5 nothing cancels.
TemplateCase merged_rz_case() {
  Circuit c(2);
  c.rz(0, ParamRef::trainable(0));
  c.rz(0, ParamRef::constant(-0.7));
  c.cx(0, 1);
  c.ry(1, ParamRef::trainable(1));
  return {"merged rz", std::move(c), DeviceModel::ibmq_manila(),
          {{0.7, 0.4}, {0.5, 0.4}}, {}};
}

/// A hardware-efficient stack whose RZZ ring needs SWAPs on santiago.
TemplateCase task_scale_case() {
  Circuit c(4);
  qoc::circuit::add_ry_layer(c);
  qoc::circuit::add_rz_layer(c);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  Prng rng(5);
  std::vector<std::vector<double>> thetas;
  for (int k = 0; k < 3; ++k) {
    std::vector<double> theta(static_cast<std::size_t>(c.num_trainable()));
    for (auto& v : theta) v = rng.uniform(-3, 3);
    thetas.push_back(std::move(theta));
  }
  return {"task scale", std::move(c), DeviceModel::ibmq_santiago(),
          std::move(thetas), {}};
}

TEST(TemplatePath, MatchesFullPipeline) {
  // transpile_with_angles(route_template(c, d), angles, d) -- the path
  // every transpiling backend evaluation takes -- must equal the full
  // transpile(c, theta, input, d) bit for bit, active register included,
  // on generated circuits and on three pinned ones.
  std::vector<TemplateCase> cases;
  cases.push_back(lowering_mix_case());
  cases.push_back(merged_rz_case());
  cases.push_back(task_scale_case());
  Prng rng(2026);
  std::vector<bool> kinds_seen(std::size(kAllKinds), false);
  for (int i = 0; i < 60; ++i) {
    TemplateCase tc{"generated " + std::to_string(i),
                    random_circuit(rng, 4 + i % 2, 24),
                    DeviceModel::ibmq_manila(),
                    {},
                    {}};
    for (const auto& op : tc.circuit.ops())
      for (std::size_t k = 0; k < std::size(kAllKinds); ++k)
        if (op.kind == kAllKinds[k]) kinds_seen[k] = true;
    for (int b = 0; b < 8; ++b) {
      tc.thetas.push_back(random_angles(rng, kGenThetas));
      tc.inputs.push_back(random_angles(rng, kGenInputs));
    }
    cases.push_back(std::move(tc));
  }
  for (std::size_t k = 0; k < std::size(kAllKinds); ++k)
    EXPECT_TRUE(kinds_seen[k]) << qoc::circuit::gate_name(kAllKinds[k]);

  std::size_t swaps = 0;
  for (const auto& tc : cases) {
    SCOPED_TRACE(tc.name);
    const auto tmpl = route_template(tc.circuit, tc.device);
    swaps += tmpl.n_swaps_inserted;
    for (std::size_t b = 0; b < tc.thetas.size(); ++b) {
      SCOPED_TRACE("binding " + std::to_string(b));
      const std::vector<double> input =
          tc.inputs.empty() ? std::vector<double>{} : tc.inputs[b];
      const auto expected =
          transpile(tc.circuit, tc.thetas[b], input, tc.device);
      std::vector<double> angles;
      for (const auto& bop : bind_circuit(tc.circuit, tc.thetas[b], input))
        angles.push_back(bop.angle);
      expect_transpiled_equal(
          transpile_with_angles(tmpl, angles, tc.device), expected);
      // The active register is ascending and covers every lowered
      // operand and the final layout.
      const auto& active = expected.active_qubits;
      EXPECT_TRUE(std::is_sorted(active.begin(), active.end()));
      const auto is_active = [&](int q) {
        return std::binary_search(active.begin(), active.end(), q);
      };
      for (const auto& op : expected.ops)
        for (const int q : op.qubits) EXPECT_TRUE(is_active(q)) << q;
      for (const int q : expected.final_layout) EXPECT_TRUE(is_active(q)) << q;
    }
  }
  EXPECT_GT(swaps, 0u);  // the line devices forced SWAP insertion

  // The pinned merged-rz bindings really disagree in structure.
  const auto& merged = cases[1];
  EXPECT_LT(transpile(merged.circuit, merged.thetas[0], {}, merged.device)
                .ops.size(),
            transpile(merged.circuit, merged.thetas[1], {}, merged.device)
                .ops.size());
}

TEST(Stats, CountsByKind) {
  const std::vector<BoundOp> ops = {{GateKind::Rz, {0}, 1.0},
                                    {GateKind::Sx, {0}, 0.0},
                                    {GateKind::Sx, {1}, 0.0},
                                    {GateKind::Cx, {0, 1}, 0.0},
                                    {GateKind::X, {1}, 0.0}};
  const auto s = compute_stats(ops, 2);
  EXPECT_EQ(s.n_rz, 1u);
  EXPECT_EQ(s.n_sx, 2u);
  EXPECT_EQ(s.n_x, 1u);
  EXPECT_EQ(s.n_cx, 1u);
  EXPECT_EQ(s.physical_1q(), 3u);
  // Depth ignores the virtual RZ: sx(0), then cx, then x -> depth 3.
  EXPECT_EQ(s.depth, 3u);
}

// ---- Stream digest: the paper task models on their devices ------------------

/// 64-bit FNV-1a over 8-byte little-endian words.
struct StreamDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  /// Kind, qubits and angle bit pattern of every op, then the layout,
  /// the SWAP count and the stats.
  void add(const Transpiled& t) {
    add(t.ops.size());
    for (const auto& op : t.ops) {
      add(static_cast<std::uint64_t>(op.kind));
      add(op.qubits.size());
      for (const int q : op.qubits) add(static_cast<std::uint64_t>(q));
      add(std::bit_cast<std::uint64_t>(op.angle));
    }
    for (const int l : t.final_layout) add(static_cast<std::uint64_t>(l));
    add(t.n_swaps_inserted);
    add(t.stats.n_rz);
    add(t.stats.n_sx);
    add(t.stats.n_x);
    add(t.stats.n_cx);
    add(t.stats.n_other);
    add(t.stats.depth);
  }
};

TEST(TranspileGolden, PaperTaskStreamDigest) {
  // Pins the transpiled op streams of the five paper task models on
  // their paper devices, bit for bit, over seeded bindings as the
  // training loop produces them: random parameters and inputs with
  // entries zeroed (pruned parameters, dark pixels), whole zero
  // bindings, and +-pi/2 parameter shifts on single source ops. Any
  // change to binding, routing, lowering or the optimize passes that
  // moves one angle bit changes the digest.
  struct TaskDevice {
    qoc::qml::QnnModel (*make)();
    const char* device;
  };
  const TaskDevice tasks[] = {
      {qoc::qml::make_mnist2_model, "ibmq_jakarta"},
      {qoc::qml::make_mnist4_model, "ibmq_jakarta"},
      {qoc::qml::make_fashion4_model, "ibmq_manila"},
      {qoc::qml::make_fashion2_model, "ibmq_santiago"},
      {qoc::qml::make_vowel4_model, "ibmq_lima"},
  };
  constexpr int kBindingsPerTask = 400;
  StreamDigest digest;
  Prng rng(0x5EED'D16E57ULL);
  std::vector<double> angles;
  for (const auto& task : tasks) {
    const auto model = task.make();
    const auto device = DeviceModel::by_name(task.device);
    const auto& plan = model.plan();
    const auto tmpl = route_template(model.circuit(), device);
    std::vector<std::size_t> shiftable;
    for (std::size_t i = 0; i < model.circuit().num_ops(); ++i)
      if (qoc::circuit::gate_is_parameterised(model.circuit().op(i).kind))
        shiftable.push_back(i);
    std::vector<double> theta(static_cast<std::size_t>(model.num_params()));
    std::vector<double> input(static_cast<std::size_t>(model.num_inputs()));
    for (int b = 0; b < kBindingsPerTask; ++b) {
      const bool all_zero = b % 10 == 0;
      for (auto* v : {&theta, &input})
        for (auto& x : *v)
          x = all_zero || rng.uniform() < 0.25 ? 0.0 : rng.uniform(-kPi, kPi);
      std::size_t shift_op = qoc::exec::Evaluation::kNoShift;
      double shift = 0.0;
      if (b % 2 == 1) {
        shift_op = shiftable[rng.uniform_int(shiftable.size())];
        shift = rng.uniform() < 0.5 ? kPi / 2.0 : -kPi / 2.0;
      }
      plan.resolve_source_angles(theta, input, shift_op, shift, angles);
      digest.add(transpile_with_angles(tmpl, angles, device));
    }
  }
  EXPECT_EQ(digest.h, 0xad3f72c081ce9878ULL)
      << std::hex << "digest 0x" << digest.h;
}

}  // namespace
