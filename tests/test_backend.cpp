// Tests for the execution backends: exact vs sampled statevector execution,
// noisy-device trajectory behaviour, inference counting, and failure
// injection (garbage configurations must be rejected).

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/transpile/transpile.hpp"
#include "qoc/vqe/vqe.hpp"
#include "random_circuit.hpp"

namespace {

using namespace qoc::backend;
using qoc::Prng;
using qoc::circuit::Circuit;
using qoc::circuit::ParamRef;
using qoc::linalg::kPi;
using qoc::noise::DeviceModel;

Circuit ry_circuit(double /*unused*/ = 0.0) {
  Circuit c(2);
  c.ry(0, ParamRef::trainable(0));
  c.ry(1, ParamRef::trainable(1));
  return c;
}

TEST(StatevectorBackend, ExactExpectationMatchesAnalytic) {
  // <Z> after RY(t) on |0> is cos(t).
  StatevectorBackend backend(0);
  const Circuit c = ry_circuit();
  const std::vector<double> theta = {0.7, -1.3};
  const auto f = backend.run(c, theta, {});
  EXPECT_NEAR(f[0], std::cos(0.7), 1e-12);
  EXPECT_NEAR(f[1], std::cos(-1.3), 1e-12);
}

TEST(StatevectorBackend, ShotNoiseConvergesWithShots) {
  const Circuit c = ry_circuit();
  const std::vector<double> theta = {1.1, 0.4};
  StatevectorBackend exact(0);
  const auto f_exact = exact.run(c, theta, {});

  StatevectorBackend few(64, 1);
  StatevectorBackend many(16384, 1);
  double err_few = 0, err_many = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto ff = few.run(c, theta, {});
    const auto fm = many.run(c, theta, {});
    err_few += std::abs(ff[0] - f_exact[0]);
    err_many += std::abs(fm[0] - f_exact[0]);
  }
  EXPECT_LT(err_many, err_few);
}

TEST(StatevectorBackend, InferenceCounterIncrements) {
  StatevectorBackend backend(0);
  const Circuit c = ry_circuit();
  const std::vector<double> theta = {0.1, 0.2};
  EXPECT_EQ(backend.inference_count(), 0u);
  backend.run(c, theta, {});
  backend.run(c, theta, {});
  EXPECT_EQ(backend.inference_count(), 2u);
  backend.reset_inference_count();
  EXPECT_EQ(backend.inference_count(), 0u);
}

TEST(StatevectorBackend, RejectsNegativeShots) {
  EXPECT_THROW(StatevectorBackend(-1), std::invalid_argument);
}

TEST(NoisyBackend, NoiseFreeDeviceMatchesExactUpToShotNoise) {
  NoisyBackendOptions opt;
  opt.trajectories = 8;
  opt.shots = 65536;
  NoisyBackend noisy(DeviceModel::ideal(4), opt);
  StatevectorBackend exact(0);

  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const std::vector<double> theta = {0.3, -0.8, 1.2, 0.5, 0.9, -0.4, 0.2, 1.5};

  const auto f_exact = exact.run(c, theta, {});
  const auto f_noisy = noisy.run(c, theta, {});
  for (std::size_t q = 0; q < 4; ++q)
    EXPECT_NEAR(f_noisy[q], f_exact[q], 0.03) << "qubit " << q;
}

TEST(NoisyBackend, NoiseShrinksExpectationMagnitudes) {
  // Depolarizing noise pulls <Z> toward 0: a circuit preparing <Z> = 1
  // exactly should read slightly less than 1 on a noisy device.
  NoisyBackendOptions opt;
  opt.trajectories = 256;
  opt.shots = 8192;
  opt.noise_scale = 5.0;  // exaggerate for test stability
  NoisyBackend noisy(DeviceModel::ibmq_lima(), opt);

  Circuit c(4);
  // Identity-ish circuit with many CX pairs: state stays |0000>.
  for (int rep = 0; rep < 4; ++rep)
    for (int q = 0; q + 1 < 4; ++q) {
      c.cx(q, q + 1);
      c.cx(q, q + 1);
    }
  const auto f = noisy.run(c, {}, {});
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_LT(f[q], 0.95) << "qubit " << q;
    EXPECT_GT(f[q], 0.05) << "qubit " << q;
  }
}

TEST(NoisyBackend, NoisierDeviceDegradesMore) {
  auto make_run = [](const DeviceModel& device) {
    NoisyBackendOptions opt;
    opt.trajectories = 512;
    opt.shots = 8192;
    opt.noise_scale = 4.0;
    NoisyBackend backend(device, opt);
    Circuit c(4);
    for (int rep = 0; rep < 3; ++rep) {
      qoc::circuit::add_cz_chain_layer(c);
      qoc::circuit::add_cz_chain_layer(c);
    }
    const auto f = backend.run(c, {}, {});
    double sum = 0;
    for (double v : f) sum += v;
    return sum / static_cast<double>(f.size());
  };
  const double z_clean = make_run(DeviceModel::ibmq_santiago());
  const double z_noisy = make_run(DeviceModel::ibmq_casablanca());
  EXPECT_GT(z_clean, z_noisy);
}

TEST(NoisyBackend, ReadoutErrorAloneBiasesGroundState) {
  NoisyBackendOptions opt;
  opt.trajectories = 1;
  opt.shots = 40000;
  opt.enable_gate_noise = false;
  opt.enable_relaxation = false;
  opt.enable_readout_error = true;
  NoisyBackend backend(DeviceModel::ibmq_lima(), opt);
  Circuit c(2);
  c.x(0);
  c.x(0);  // identity; state |00>
  const auto f = backend.run(c, {}, {});
  const auto& cal = backend.device().qubits[0];
  // <Z> = 1 - 2 * P(flip 0 -> 1).
  EXPECT_NEAR(f[0], 1.0 - 2.0 * cal.readout_err_0to1, 0.02);
}

TEST(NoisyBackend, DeterministicGivenSameSeedAndSerial) {
  auto build = [] {
    NoisyBackendOptions opt;
    opt.trajectories = 16;
    opt.shots = 256;
    opt.seed = 777;
    return NoisyBackend(DeviceModel::ibmq_manila(), opt);
  };
  NoisyBackend a = build();
  NoisyBackend b = build();
  Circuit c(3);
  qoc::circuit::add_cz_chain_layer(c);
  c.ry(0, ParamRef::constant(0.9));
  const auto fa = a.run(c, {}, {});
  const auto fb = b.run(c, {}, {});
  for (std::size_t q = 0; q < 3; ++q) EXPECT_DOUBLE_EQ(fa[q], fb[q]);
}

TEST(NoisyBackend, SuccessiveRunsDiffer) {
  NoisyBackendOptions opt;
  opt.trajectories = 4;
  opt.shots = 64;
  NoisyBackend backend(DeviceModel::ibmq_manila(), opt);
  Circuit c(2);
  c.ry(0, ParamRef::constant(1.2));
  const auto f1 = backend.run(c, {}, {});
  const auto f2 = backend.run(c, {}, {});
  // With 64 shots, exact equality across independent runs is vanishingly
  // unlikely; guards against accidentally reusing the RNG stream.
  EXPECT_NE(f1[0], f2[0]);
}

// One noisy execution with an explicit trajectory lane width; everything
// else (seed, device, circuit, bindings) held fixed so widths can be
// compared bitwise.
std::vector<double> run_noisy_lanes(int lanes, int trajectories, bool gate_noise,
                                    bool relaxation, bool readout) {
  NoisyBackendOptions opt;
  opt.trajectories = trajectories;
  opt.shots = 512;
  opt.seed = 0xFEEDFACEULL;
  opt.enable_gate_noise = gate_noise;
  opt.enable_relaxation = relaxation;
  opt.enable_readout_error = readout;
  opt.batch_lanes = lanes;
  NoisyBackend backend(DeviceModel::ibmq_manila(), opt);
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const std::vector<double> theta = {0.3, -0.8, 1.2, 0.5, 0.9, -0.4, 0.2, 1.5};
  return backend.run(c, theta, {});
}

TEST(NoisyBackend, KWideTrajectoriesBitIdenticalToScalar) {
  // The k-wide trajectory loop (gates lane-uniform, noise drawn per lane
  // from each trajectory's own stream) must reproduce the scalar loop
  // BITWISE -- including ragged trajectory counts: 16 = full groups,
  // 12 = full group + padded group, 5 = one padded group, 9 = full
  // group + scalar tail.
  for (const int traj : {16, 12, 5, 9}) {
    for (const bool relaxation : {true, false}) {
      const auto ref = run_noisy_lanes(1, traj, true, relaxation, true);
      const auto wide = run_noisy_lanes(8, traj, true, relaxation, true);
      ASSERT_EQ(ref.size(), wide.size());
      for (std::size_t q = 0; q < ref.size(); ++q)
        EXPECT_EQ(ref[q], wide[q])  // bitwise, not approximate
            << "traj=" << traj << " relaxation=" << relaxation << " q=" << q;
    }
  }
  // Width invariance: every lane width is the same trajectory sequence.
  const auto ref = run_noisy_lanes(1, 16, true, true, true);
  for (const int lanes : {2, 4}) {
    const auto wide = run_noisy_lanes(lanes, 16, true, true, true);
    for (std::size_t q = 0; q < ref.size(); ++q)
      EXPECT_EQ(ref[q], wide[q]) << "lanes=" << lanes << " q=" << q;
  }
  // Noise-free config: the fused Diag2q stream runs lane-uniform too.
  const auto ref_clean = run_noisy_lanes(1, 12, false, false, false);
  const auto wide_clean = run_noisy_lanes(8, 12, false, false, false);
  for (std::size_t q = 0; q < ref_clean.size(); ++q)
    EXPECT_EQ(ref_clean[q], wide_clean[q]) << "q=" << q;
}

TEST(NoisyBackend, KWideBatchPinnedStreamsMatchScalar) {
  // run_batch over a noisy backend with pinned per-evaluation streams:
  // lane-grouped trajectories must not shift any evaluation's draws.
  auto build = [](int lanes) {
    NoisyBackendOptions opt;
    opt.trajectories = 12;
    opt.shots = 384;
    opt.seed = 0xFEEDFACEULL;
    opt.batch_lanes = lanes;
    return NoisyBackend(DeviceModel::ibmq_manila(), opt);
  };
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  std::vector<std::vector<double>> thetas;
  std::vector<qoc::exec::Evaluation> evals;
  for (int i = 0; i < 5; ++i) {
    std::vector<double> t(8);
    for (int j = 0; j < 8; ++j) t[j] = 0.2 * (i + 1) + 0.13 * j;
    thetas.push_back(std::move(t));
  }
  for (int i = 0; i < 5; ++i) {
    qoc::exec::Evaluation e;
    e.theta = thetas[static_cast<std::size_t>(i)];
    if (i % 2 == 0) e.rng_stream = 77u + static_cast<std::uint64_t>(i);
    evals.push_back(e);
  }
  NoisyBackend scalar = build(1);
  NoisyBackend wide = build(8);
  const auto ref = scalar.run_batch(plan, evals, 2);
  const auto got = wide.run_batch(plan, evals, 2);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    for (std::size_t q = 0; q < ref[i].size(); ++q)
      EXPECT_EQ(ref[i][q], got[i][q]) << "eval=" << i << " q=" << q;
}

TEST(NoisyBackend, KWideExpectBitIdenticalToScalar) {
  // expect_batch through the k-wide trajectory loop: basis-change
  // suffixes are applied lane-uniform through the routed final layout,
  // and readout flips consume each trajectory's stream in scalar order.
  auto build = [](int lanes, int trajectories) {
    NoisyBackendOptions opt;
    opt.trajectories = trajectories;
    opt.shots = 384;
    opt.seed = 0xFEEDFACEULL;
    opt.batch_lanes = lanes;
    return NoisyBackend(DeviceModel::ibmq_manila(), opt);
  };
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  std::vector<qoc::exec::ObservableTerm> terms;
  terms.push_back({"IIII", 0.5});
  for (int q = 0; q + 1 < 4; ++q)
    for (const char p : {'X', 'Y', 'Z'}) {
      std::string s(4, 'I');
      s[static_cast<std::size_t>(q)] = p;
      s[static_cast<std::size_t>(q) + 1] = p;
      terms.push_back({s, 0.8 + 0.05 * q});
    }
  const auto obs = qoc::exec::CompiledObservable::compile(4, terms);
  std::vector<std::vector<double>> thetas;
  std::vector<qoc::exec::Evaluation> evals;
  for (int i = 0; i < 3; ++i) {
    std::vector<double> t(8);
    for (int j = 0; j < 8; ++j) t[j] = 0.31 * (i + 1) - 0.07 * j;
    thetas.push_back(std::move(t));
  }
  for (int i = 0; i < 3; ++i) {
    qoc::exec::Evaluation e;
    e.theta = thetas[static_cast<std::size_t>(i)];
    if (i == 1) e.rng_stream = 99u;
    evals.push_back(e);
  }
  for (const int traj : {12, 5}) {
    NoisyBackend scalar = build(1, traj);
    NoisyBackend wide = build(8, traj);
    const auto ref = scalar.expect_batch(plan, obs, evals, 2);
    const auto got = wide.expect_batch(plan, obs, evals, 2);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(ref[i], got[i]) << "traj=" << traj << " eval=" << i;
  }
}

TEST(NoisyBackend, RejectsBadOptions) {
  NoisyBackendOptions opt;
  opt.trajectories = 0;
  EXPECT_THROW(NoisyBackend(DeviceModel::ibmq_lima(), opt),
               std::invalid_argument);
  opt.trajectories = 4;
  opt.shots = 0;
  EXPECT_THROW(NoisyBackend(DeviceModel::ibmq_lima(), opt),
               std::invalid_argument);
  opt.shots = 64;
  opt.noise_scale = -1.0;
  EXPECT_THROW(NoisyBackend(DeviceModel::ibmq_lima(), opt),
               std::invalid_argument);
}

TEST(NoisyBackend, CircuitLargerThanDeviceThrows) {
  NoisyBackend backend(DeviceModel::ibmq_manila(), {});
  Circuit c(6);
  c.h(0);
  EXPECT_THROW(backend.run(c, {}, {}), std::invalid_argument);
}

TEST(NoisyBackend, DurationEstimatePositive) {
  NoisyBackend backend(DeviceModel::ibmq_santiago(), {});
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  std::vector<double> theta(4, 0.4);
  EXPECT_GT(backend.estimate_duration_s(c, theta, {}), 0.0);
}

// ---- expect_batch ----------------------------------------------------------

TEST(ExpectBatch, ExactStatevectorBitIdenticalToPerTermLoop) {
  const auto h = qoc::vqe::Hamiltonian::heisenberg(3, 0.7);
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(3, 2);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);

  Prng rng(21);
  StatevectorBackend qc(0);
  std::vector<std::vector<double>> thetas(7);
  std::vector<qoc::exec::Evaluation> evals;
  for (auto& theta : thetas) {
    theta.resize(static_cast<std::size_t>(ansatz.num_trainable()));
    for (auto& t : theta) t = rng.uniform(-2.0, 2.0);
    evals.push_back({theta, {}, qoc::exec::Evaluation::kNoShift, 0.0});
  }
  const auto energies = qc.expect_batch(plan, obs, evals, 0);

  // Reference: prepare the state through the plan and run the classic
  // per-term loop. Results must match BITWISE (EXPECT_EQ on doubles).
  for (std::size_t k = 0; k < evals.size(); ++k) {
    std::vector<double> angles;
    plan.resolve_slots(thetas[k], {}, qoc::exec::Evaluation::kNoShift, 0.0,
                       angles);
    qoc::sim::Statevector psi(plan.num_qubits());
    plan.apply(psi, angles);
    EXPECT_EQ(energies[k], h.expectation(psi));
  }
  EXPECT_EQ(qc.inference_count(), evals.size());
}

TEST(ExpectBatch, SampledStatevectorConvergesToExact) {
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(2, 2);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  Prng rng(22);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  const qoc::exec::Evaluation eval{theta, {},
                                   qoc::exec::Evaluation::kNoShift, 0.0};

  StatevectorBackend exact(0);
  const double e_exact =
      exact.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];

  StatevectorBackend sampled(40000, 99);
  const double e_sampled =
      sampled.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];
  EXPECT_NEAR(e_sampled, e_exact, 0.03);
  // One measured execution per commuting group.
  EXPECT_EQ(sampled.inference_count(), obs.groups().size());
}

TEST(ExpectBatch, DensityMatrixNoiseFreeMatchesExact) {
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(2, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  Prng rng(23);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  const qoc::exec::Evaluation eval{theta, {},
                                   qoc::exec::Evaluation::kNoShift, 0.0};

  StatevectorBackend sv(0);
  const double e_exact = sv.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];

  DensityMatrixBackend::Options opt;
  opt.enable_gate_noise = false;
  opt.enable_relaxation = false;
  opt.enable_readout_error = false;
  DensityMatrixBackend dm(DeviceModel::ibmq_manila(), opt);
  const double e_dm = dm.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];
  EXPECT_NEAR(e_dm, e_exact, 1e-9);
}

TEST(ExpectBatch, NoisyTrajectoriesMatchDensityMatrixOracle) {
  // With noise enabled, trajectory estimates must converge to the exact
  // density-matrix result for the same device.
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(2, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  Prng rng(24);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  const qoc::exec::Evaluation eval{theta, {},
                                   qoc::exec::Evaluation::kNoShift, 0.0};

  DensityMatrixBackend dm(DeviceModel::ibmq_manila());
  const double e_dm = dm.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];

  NoisyBackendOptions opt;
  opt.trajectories = 256;
  opt.shots = 16384;
  NoisyBackend noisy(DeviceModel::ibmq_manila(), opt);
  const double e_traj =
      noisy.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];
  EXPECT_NEAR(e_traj, e_dm, 0.08);
}

TEST(ExpectBatch, QubitMismatchThrows) {
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(3, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  StatevectorBackend qc(0);
  EXPECT_THROW(qc.expect_batch(plan, obs, {}, 1), std::invalid_argument);
}

TEST(ExpectBatch, BackendsWithoutNativeStateAccessReject) {
  // The default execute_expect_batch cannot reconstruct joint Pauli
  // products from per-qubit <Z>, so it must refuse loudly.
  class MinimalBackend final : public Backend {
   public:
    std::string name() const override { return "minimal"; }

   protected:
    std::vector<std::vector<double>> execute_batch(
        const qoc::exec::CompiledCircuit& plan,
        std::span<const qoc::exec::Evaluation> evals, unsigned) override {
      return std::vector<std::vector<double>>(
          evals.size(),
          std::vector<double>(static_cast<std::size_t>(plan.num_qubits())));
    }
  };
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(2, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  MinimalBackend qc;
  EXPECT_THROW(qc.expect_batch(plan, obs, {}, 1), std::logic_error);
}


// ---- golden outputs ----------------------------------------------------------

// Fixed-seed outputs of every batched execution path, pinned as exact
// literals. The lane-width parity tests above compare one path of the
// backend against another, so a drift that hits both sides would pass
// them; these values do not move unless the numerics do.
qoc::exec::CompiledObservable golden_observable() {
  const std::vector<qoc::exec::ObservableTerm> terms = {
      {"III", 0.25}, {"ZZI", 0.7}, {"XXI", -0.4}, {"IYY", 0.3}, {"ZIZ", 0.55}};
  return qoc::exec::CompiledObservable::compile(3, terms);
}

struct GoldenBatch {
  Circuit circuit{3};
  qoc::exec::CompiledObservable observable;
  std::vector<std::vector<double>> thetas, inputs;
  std::vector<qoc::exec::Evaluation> evals;

  /// `n` evaluations of a 3-qubit encoder + RZZ ring + RY circuit; every
  /// third one shifts a trainable op, and with `pin` every third one
  /// (offset by one) pins its RNG stream.
  GoldenBatch(int n, bool pin)
      : observable(golden_observable()) {
    for (int q = 0; q < 3; ++q) circuit.ry(q, ParamRef::input(q));
    qoc::circuit::add_rzz_ring_layer(circuit);
    qoc::circuit::add_ry_layer(circuit);
    for (int i = 0; i < n; ++i) {
      std::vector<double> t(static_cast<std::size_t>(circuit.num_trainable()));
      for (std::size_t j = 0; j < t.size(); ++j)
        t[j] = 0.17 * (i + 1) - 0.11 * static_cast<double>(j);
      thetas.push_back(std::move(t));
      inputs.push_back({0.3 - 0.05 * i, 0.8 + 0.02 * i, -0.4 + 0.07 * i});
    }
    for (int i = 0; i < n; ++i) {
      qoc::exec::Evaluation e;
      e.theta = thetas[static_cast<std::size_t>(i)];
      e.input = inputs[static_cast<std::size_t>(i)];
      if (i % 3 == 0) {
        e.shift_op = 3 + static_cast<std::size_t>(i % 6);
        e.shift = (i % 2 == 0 ? 0.5 : -0.5) * kPi;
      }
      if (pin && i % 3 == 1) e.rng_stream = 1000u + static_cast<std::uint64_t>(i);
      evals.push_back(e);
    }
  }

  qoc::exec::CompiledCircuit plan() const {
    return qoc::exec::CompiledCircuit::compile(circuit);
  }
};

std::vector<double> flatten(const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  for (const auto& r : rows) out.insert(out.end(), r.begin(), r.end());
  return out;
}

void expect_golden(const std::vector<double>& got,
                   const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << what << " [" << i << "]";
}

// Values printed with %a from the code these tests guard.
// sv exact run
const std::vector<double> kSvExactRun = {
    0x1.df92d2a31fdc6p-1, 0x1.4226c25ee8086p-1, 0x1.6c10c7bc80a4ap-1,
    0x1.eee7c8b6ffcc9p-1, 0x1.7b40bcf41776bp-1, 0x1.b8ec77f36fcafp-1,
    0x1.e018da7d5d54dp-1, 0x1.44450ce9a8f95p-1, 0x1.ea22369268295p-1,
    0x1.a5a1664a34e09p-2, 0x1.267b781c01edbp-1, 0x1.fa10088b40d71p-1,
    0x1.b3ab9b3fdc2adp-1, 0x1.2d3c976ea657bp-1, 0x1.ebdc794008bddp-1,
    0x1.8aa064229efd1p-1, 0x1.571c35c3e2e6fp-1, 0x1.c8cb099f722c1p-1,
    0x1.4e0c48a8e637cp-1, 0x1.b772dbdfe72c6p-1, 0x1.9ba81f2fbd562p-1,
    0x1.fb7333337f337p-2, 0x1.d0e2e700cb0a4p-1, 0x1.6c22860566372p-1,
    0x1.3e1f499b72adap-2, 0x1.ee5f13e9aa00fp-1, 0x1.3bdb3435ba385p-1,
    0x1.f86e6596b05b7p-1, 0x1.d8a6ce99b1181p-1, 0x1.0640399a18af3p-1,
    -0x1.0158eaa9c2b54p-4, 0x1.86030c567ec56p-1, 0x1.86669e0c840d9p-2,
    -0x1.af034d3cf7dbcp-3, 0x1.f799aa0381434p-2, 0x1.adb71faaf7f7bp-3,
    -0x1.0727f56dd4002p-3, -0x1.a34d998aa9987p-1, -0x1.89c4fd699d0cp-8,
    -0x1.8a78e69913082p-2, -0x1.9ff91ece92541p-3, -0x1.04aeeeb60b458p-2,
    -0x1.b75d59633eb5ep-2, -0x1.061f4211e3db3p-1, -0x1.048250b8ce029p-1,
    0x1.a35742a89840dp-1, -0x1.741b5446dd6c3p-1, -0x1.76e02ce1aea38p-1,
    -0x1.0818e8b717536p-1, -0x1.a4fda774f428ap-1, -0x1.c6f14581dacc6p-1,
    -0x1.2ae881cc7eeeap-1, -0x1.9a05980519b72p-1, -0x1.e7d232bed541ep-1,
    -0x1.9dff8f1dc7b02p-1, -0x1.671cc4dadcdaap-2, -0x1.d6346c37ea448p-1,
};

// sv exact expect
const std::vector<double> kSvExactExpect = {
    0x1.df313730b0e56p-1, 0x1.23e82542e55c6p+0, 0x1.10b43bf563731p+0,
    0x1.784697b1b0bd8p-1, 0x1.fbff35e6e5084p-1, 0x1.edf1eb3059651p-1,
    0x1.e2382039df1a4p-1, 0x1.800a9126a447fp-1, 0x1.17a6029c3f021p-1,
    0x1.324bb04c5869cp+0, 0x1.1a652f167acaep-3, 0x1.7b1b3e03cbdf2p-5,
    0x1.ef3cadde54d5ep-4, 0x1.c05ce83c09e5ep-3, 0x1.c3931b25446f6p-2,
    -0x1.0e820da15bf85p-1, 0x1.d204c0ee03606p-1, 0x1.0fc77b83ccb5bp+0,
    0x1.ec225f06ecd24p-1,
};

// sv sampled run
const std::vector<double> kSvSampledRun = {
    0x1.d4p-1, 0x1.e8p-2, 0x1.68p-1,
    0x1.fp-1, 0x1.5cp-1, 0x1.ccp-1,
    0x1.d8p-1, 0x1.1cp-1, 0x1.e4p-1,
    0x1.c8p-2, 0x1.24p-1, 0x1.fcp-1,
    0x1.bcp-1, 0x1.3p-1, 0x1.f8p-1,
    0x1.88p-1, 0x1.58p-1, 0x1.cp-1,
    0x1.6p-1, 0x1.8p-1, 0x1.a4p-1,
    0x1.b8p-2, 0x1.dp-1, 0x1.6p-1,
    0x1.58p-2, 0x1.ecp-1, 0x1.38p-1,
    0x1.fp-1, 0x1.c8p-1, 0x1.e8p-2,
    -0x1p-5, 0x1.68p-1, 0x1.98p-2,
    -0x1.2p-2, 0x1p-1, 0x1.1p-2,
    -0x1.9p-3, -0x1.bp-1, -0x1.ap-4,
    -0x1.7p-2, -0x1.8p-3, -0x1.fp-3,
    -0x1.3p-2, -0x1.0cp-1, -0x1.1p-1,
    0x1.cp-1, -0x1.7cp-1, -0x1.7p-1,
    -0x1.0cp-1, -0x1.98p-1, -0x1.acp-1,
    -0x1.2p-1, -0x1.9cp-1, -0x1.ecp-1,
    -0x1.a8p-1, -0x1.58p-2, -0x1.dp-1,
};

// sv sampled expect
const std::vector<double> kSvSampledExpect = {
    0x1.dc99999999999p-1, 0x1.2a8p+0, 0x1.15cccccccccccp+0,
    0x1.4d66666666666p-1, 0x1.0d7ffffffffffp+0, 0x1.f8ccccccccccep-1,
    0x1.b733333333333p-1, 0x1.3bp-1, 0x1.5e66666666666p-1,
    0x1.1fb3333333333p+0, 0x1.2bffffffffffep-3, 0x1.0666666666665p-4,
    0x1.6cccccccccccp-6, 0x1.c0cccccccccccp-3, 0x1.2733333333333p-2,
    -0x1.0d9999999999ap-1, 0x1.c4ccccccccccdp-1, 0x1.0c9999999999ap+0,
    0x1.f6cccccccccccp-1,
};

// noisy run, 12 trajectories
const std::vector<double> kNoisyRun12 = {
    0x1.92aaaaaaaaaabp-1, 0x1.4d55555555555p-1, 0x1.4aaaaaaaaaaabp-1,
    0x1.d555555555555p-1, 0x1.1d55555555555p-1, 0x1.72aaaaaaaaaabp-1,
    0x1.dp-1, 0x1.e555555555555p-2, 0x1.8d55555555555p-1,
};

// noisy expect, 12 trajectories
const std::vector<double> kNoisyExpect12 = {
    0x1.d533333333334p-1, 0x1.db55555555554p-1, 0x1.fe66666666665p-1,
};

// noisy run, 9 trajectories
const std::vector<double> kNoisyRun9 = {
    0x1.7321dcc877322p-1, 0x1.3cf3cf3cf3cf4p-1, 0x1.4a7f529fd4a7fp-1,
    0x1.e233788cde233p-1, 0x1.015ac056b015bp-1, 0x1.5d75d75d75d76p-1,
    0x1.c9d1f2747c9d2p-1, 0x1.29fd4a7f529fdp-1, 0x1.d75d75d75d75dp-1,
};

// noisy expect, 9 trajectories
const std::vector<double> kNoisyExpect9 = {
    0x1.e0935e8b3e093p-1, 0x1.c3b990ee643bap-1, 0x1.0854854854855p+0,
};

// density run
const std::vector<double> kDensityRun = {
    0x1.c176a05ef79eap-1, 0x1.2cb821909605p-1, 0x1.524a0ae5cd9b1p-1,
    0x1.cf937216d46bcp-1, 0x1.5e72cc157e417p-1, 0x1.95e939cb63674p-1,
    0x1.c21e9630ad4f4p-1, 0x1.2ec747d4d90e5p-1, 0x1.c112c26306e9ap-1,
};

// density expect
const std::vector<double> kDensityExpect = {
    0x1.bcde9aa63ce01p-1, 0x1.088ab6c9288f1p+0, 0x1.f15a84e029b4bp-1,
};

TEST(Backend, GoldenOutputs) {
  // Statevector: a ragged batch of 19 -- at width 8, two full lane groups
  // plus a scalar tail of 3; at width 4, four full groups plus a padded
  // group -- must give the same values at every width.
  const GoldenBatch sv_batch(19, /*pin=*/true);
  const auto sv_plan = sv_batch.plan();
  for (const int lanes : {-1, 4, 1}) {
    const std::string tag = "lanes=" + std::to_string(lanes);
    StatevectorBackend exact(StatevectorBackendOptions{0, 7, lanes});
    expect_golden(flatten(exact.run_batch(sv_plan, sv_batch.evals, 2)),
                  kSvExactRun, "sv exact run " + tag);
    expect_golden(
        exact.expect_batch(sv_plan, sv_batch.observable, sv_batch.evals, 2),
        kSvExactExpect, "sv exact expect " + tag);
    // Sampled: auto evaluations split from the backend's generator in
    // submission order, across the run and then the expect call.
    StatevectorBackend sampled(StatevectorBackendOptions{256, 7, lanes});
    expect_golden(flatten(sampled.run_batch(sv_plan, sv_batch.evals, 2)),
                  kSvSampledRun, "sv sampled run " + tag);
    expect_golden(
        sampled.expect_batch(sv_plan, sv_batch.observable, sv_batch.evals, 2),
        kSvSampledExpect, "sv sampled expect " + tag);
  }

  // Noisy trajectories: 12 = a full lane group + a padded group, 9 = a
  // full group + a scalar trajectory, both also run fully scalar.
  const GoldenBatch noisy_batch(3, /*pin=*/true);
  const auto noisy_plan = noisy_batch.plan();
  for (const int traj : {12, 9}) {
    for (const int lanes : {1, 8}) {
      const std::string tag =
          "traj=" + std::to_string(traj) + " lanes=" + std::to_string(lanes);
      NoisyBackendOptions opt;
      opt.trajectories = traj;
      opt.shots = 384;
      opt.seed = 0xFEEDFACEULL;
      opt.batch_lanes = lanes;
      NoisyBackend noisy(DeviceModel::ibmq_manila(), opt);
      expect_golden(flatten(noisy.run_batch(noisy_plan, noisy_batch.evals, 2)),
                    traj == 12 ? kNoisyRun12 : kNoisyRun9, "noisy run " + tag);
      expect_golden(noisy.expect_batch(noisy_plan, noisy_batch.observable,
                                       noisy_batch.evals, 2),
                    traj == 12 ? kNoisyExpect12 : kNoisyExpect9,
                    "noisy expect " + tag);
    }
  }

  DensityMatrixBackend dm(DeviceModel::ibmq_manila());
  expect_golden(flatten(dm.run_batch(noisy_plan, noisy_batch.evals, 2)),
                kDensityRun, "density run");
  expect_golden(dm.expect_batch(noisy_plan, noisy_batch.observable,
                                noisy_batch.evals, 2),
                kDensityExpect, "density expect");
}


// ---- golden outputs: the five paper tasks on their devices ------------------

// Each paper task's model on the device the paper trains it on, through
// both device backends. The noisy values hold at lane widths 1 and 8
// with 9 trajectories (one lane group plus a scalar trajectory).
struct PaperTaskGolden {
  const char* task;
  DeviceModel (*device)();
  std::vector<double> noisy_run, noisy_expect, density_run, density_expect;
};

/// Source-op index of the circuit's second trainable op.
std::size_t second_trainable_op(const Circuit& c) {
  int seen = 0;
  for (std::size_t i = 0; i < c.num_ops(); ++i)
    if (c.op(i).param.source == ParamRef::Source::Trainable && ++seen == 2)
      return i;
  return qoc::exec::Evaluation::kNoShift;
}

/// Three evaluations of `model`: the second shifts the second trainable
/// op by +pi/2, the third pins its RNG stream.
struct PaperTaskBatch {
  std::vector<std::vector<double>> thetas, inputs;
  std::vector<qoc::exec::Evaluation> evals;

  explicit PaperTaskBatch(const qoc::qml::QnnModel& model) {
    for (int i = 0; i < 3; ++i) {
      std::vector<double> t(static_cast<std::size_t>(model.num_params()));
      for (std::size_t j = 0; j < t.size(); ++j)
        t[j] = 0.23 * (i + 1) - 0.09 * static_cast<double>(j);
      std::vector<double> x(static_cast<std::size_t>(model.num_inputs()));
      for (std::size_t j = 0; j < x.size(); ++j)
        x[j] = 0.4 - 0.05 * static_cast<double>(j) + 0.13 * i;
      thetas.push_back(std::move(t));
      inputs.push_back(std::move(x));
    }
    for (int i = 0; i < 3; ++i) {
      qoc::exec::Evaluation e;
      e.theta = thetas[static_cast<std::size_t>(i)];
      e.input = inputs[static_cast<std::size_t>(i)];
      if (i == 1) {
        e.shift_op = second_trainable_op(model.circuit());
        e.shift = 0.5 * kPi;
      }
      if (i == 2) e.rng_stream = 4242;
      evals.push_back(e);
    }
  }
};

qoc::exec::CompiledObservable paper_task_observable() {
  const std::vector<qoc::exec::ObservableTerm> terms = {
      {"IIII", 0.1}, {"ZZII", 0.6}, {"IXXI", -0.35}, {"ZIIZ", 0.45},
      {"IIYY", 0.25}};
  return qoc::exec::CompiledObservable::compile(4, terms);
}

const std::vector<PaperTaskGolden>& paper_task_goldens() {
  static const std::vector<PaperTaskGolden> goldens = {
      {"mnist4",
       &DeviceModel::ibmq_jakarta,
       // noisy run
       {
        0x1.5555555555555p-6, 0x1p-4, -0x1.1c71c71c71c72p-5,
        -0x1.238e38e38e38ep-2, 0x1.8e38e38e38e39p-3, 0x1.aaaaaaaaaaaabp-4,
        0x1.5555555555555p-5, 0x1.0e38e38e38e39p-2, -0x1.5555555555555p-6,
        0x1.31c71c71c71c7p-2, 0x1.8p-3, 0x1.638e38e38e38ep-2,
       },
       // noisy expect
       {
        0x1.949f49f49f49dp-3, 0x1.d11111111111p-3, 0x1.1f49f49f49f4cp-5,
       },
       // density run
       {
        0x1.a86b7cd5795eep-4, 0x1.d58faae93ab5p-6, -0x1.f54b1f2a33344p-8,
        -0x1.5a86a870201afp-3, 0x1.3d24f00e3cff1p-3, 0x1.2001bd4235956p-4,
        0x1.20a81b8ae6db6p-4, 0x1.e3999ded38c98p-3, 0x1.431c8cf1cf736p-5,
        0x1.76565fbfbf8ffp-3, 0x1.7e785ecd57972p-3, 0x1.50159fa4725e2p-2,
       },
       // density expect
       {
        0x1.3748b003f97b3p-3, 0x1.928a3b71166a1p-3, 0x1.6392154b1d65bp-6,
       }},
      {"mnist2",
       &DeviceModel::ibmq_jakarta,
       // noisy run
       {
        0x1.78e38e38e38e4p-1, 0x1.ee38e38e38e39p-1, 0x1.caaaaaaaaaaabp-1,
        0x1.71c71c71c71c7p-1, 0x1.ap-1, 0x1.9c71c71c71c72p-1,
        0x1.dc71c71c71c72p-1, 0x1.ep-1, 0x1.6e38e38e38e39p-1,
        0x1.8p-1, 0x1.a71c71c71c71cp-1, 0x1.ap-1,
       },
       // noisy expect
       {
        0x1.f5b05b05b05afp-1, 0x1.bc9f49f49f49fp-1, 0x1.4a4fa4fa4fa4fp-1,
       },
       // density run
       {
        0x1.d6e7ab29ad376p-1, 0x1.c568041921c7ap-1, 0x1.a9c0e4addd4adp-1,
        0x1.94208a3f998b6p-1, 0x1.9fb5d87d56fcbp-1, 0x1.b5db6e17e95ffp-1,
        0x1.aec5d376afa8fp-1, 0x1.c926becc4d8e2p-1, 0x1.42fc18b2ca50dp-1,
        0x1.6d5395c0db637p-1, 0x1.822428b0691f4p-1, 0x1.a57c99919bf91p-1,
       },
       // density expect
       {
        0x1.d67cd9aa07722p-1, 0x1.aebc1c203a77ep-1, 0x1.2e6878b589852p-1,
       }},
      {"fashion4",
       &DeviceModel::ibmq_manila,
       // noisy run
       {
        0x1.5555555555555p-4, 0x1.1c71c71c71c72p-4, 0x1.5555555555555p-6,
        0x1.1c71c71c71c72p-3, 0x1.e38e38e38e38ep-3, 0x1p-2,
        0x1.5c71c71c71c72p-2, 0x1.8e38e38e38e39p-3, 0x1.51c71c71c71c7p-1,
        0x1p-1, 0x1.b8e38e38e38e4p-2, 0x1p-2,
       },
       // noisy expect
       {
        0x1.4000000000001p-4, 0x1.6d82d82d82d82p-3, 0x1.cp-3,
       },
       // density run
       {
        0x1.b1cffb5b7b315p-4, 0x1.a6da79119961dp-4, 0x1.35be431b28612p-4,
        0x1.026c5904a0d96p-3, 0x1.6eea8942533ccp-3, 0x1.01147cd415596p-2,
        0x1.74d9abdeed8fbp-3, 0x1.a03bf095c8b4bp-3, 0x1.0296345c4f3c5p-1,
        0x1.03d1ccd7b75dfp-1, 0x1.7a5213947049cp-2, 0x1.15e6c70a74d1cp-2,
       },
       // density expect
       {
        0x1.8c700a89cc65cp-6, 0x1.462e092721c38p-3, 0x1.d33344309dd93p-3,
       }},
      {"fashion2",
       &DeviceModel::ibmq_santiago,
       // noisy run
       {
        0x1.ee38e38e38e39p-1, 0x1.871c71c71c71cp-1, 0x1.d555555555555p-1,
        0x1.b1c71c71c71c7p-1, 0x1.ap-1, 0x1.b555555555555p-1,
        0x1.e38e38e38e38ep-1, 0x1.eaaaaaaaaaaabp-1, 0x1.78e38e38e38e4p-1,
        0x1.8p-1, 0x1.b555555555555p-1, 0x1.a71c71c71c71cp-1,
       },
       // noisy expect
       {
        0x1.0360b60b60b61p+0, 0x1.c666666666666p-1, 0x1.4c9f49f49f4ap-1,
       },
       // density run
       {
        0x1.e2a3376777bc4p-1, 0x1.d2dc9939410a8p-1, 0x1.bffde94b672d6p-1,
        0x1.97b68283634e4p-1, 0x1.a9648515fd74cp-1, 0x1.c29a168bf9f5ep-1,
        0x1.c500b8602f10ap-1, 0x1.ce2a33d305ac8p-1, 0x1.491d05cb35771p-1,
        0x1.76c91fb3b806cp-1, 0x1.952ed9916871cp-1, 0x1.a9a42e80eb713p-1,
       },
       // density expect
       {
        0x1.e8948ed061093p-1, 0x1.bd91d25663cdep-1, 0x1.3636757df021fp-1,
       }},
      {"vowel4",
       &DeviceModel::ibmq_lima,
       // noisy run
       {
        0x1.8e38e38e38e39p-5, 0x1.e38e38e38e38ep-4, 0x1.38e38e38e38e4p-3,
        0x1.c71c71c71c71cp-5, -0x1.c71c71c71c71cp-6, 0x1.0e38e38e38e39p-2,
        0x1.4p-2, 0x1.1c71c71c71c72p-3, 0x1.f1c71c71c71c7p-2,
        0x1.a71c71c71c71cp-1, 0x1.58e38e38e38e4p-1, 0x1.ce38e38e38e39p-2,
       },
       // noisy expect
       {
        0x1.49f49f49f49f5p-4, 0x1.5111111111111p-3, 0x1.e71c71c71c71bp-2,
       },
       // density run
       {
        0x1.8ab6ccbea0bc5p-4, 0x1.5af8db01206b2p-3, 0x1.09ba7713e63c8p-3,
        0x1.03e4724dc2411p-4, 0x1.0d63d10f573f8p-2, 0x1.5dd3199069d35p-2,
        0x1.1ff5c9cb5be39p-2, 0x1.d4c92e4023e48p-3, 0x1.af192c7b5e729p-2,
        0x1.0070f1812bebap-1, 0x1.b808ec60845e3p-2, 0x1.8a373798744f9p-2,
       },
       // density expect
       {
        0x1.8ddc699f307b1p-3, 0x1.1d73071e9c02ap-2, 0x1.94e26172a80b7p-2,
       }},
  };
  return goldens;
}

TEST(Backend, PaperTaskGoldenOutputs) {
  const auto observable = paper_task_observable();
  for (const auto& g : paper_task_goldens()) {
    SCOPED_TRACE(g.task);
    const auto model = qoc::qml::make_task_model(g.task);
    const PaperTaskBatch batch(model);
    for (const int lanes : {1, 8}) {
      const std::string tag = "lanes=" + std::to_string(lanes);
      NoisyBackendOptions opt;
      opt.trajectories = 9;
      opt.shots = 9 * 32;
      opt.seed = 0xC0FFEEULL;
      opt.batch_lanes = lanes;
      NoisyBackend noisy(g.device(), opt);
      const auto run = flatten(noisy.run_batch(model.plan(), batch.evals, 2));
      const auto expect =
          noisy.expect_batch(model.plan(), observable, batch.evals, 2);
      expect_golden(run, g.noisy_run, "noisy run " + tag);
      expect_golden(expect, g.noisy_expect, "noisy expect " + tag);
    }
    DensityMatrixBackend dm(g.device());
    const auto drun = flatten(dm.run_batch(model.plan(), batch.evals, 2));
    const auto dexp = dm.expect_batch(model.plan(), observable, batch.evals, 2);
    expect_golden(drun, g.density_run, "density run");
    expect_golden(dexp, g.density_expect, "density expect");
  }
}

TEST(NoisyBackend, RunsMnist4OnToronto) {
  // The paper's Fig. 8 device has 27 qubits; MNIST-4 routes onto four of
  // them (0-1-2-3, a line on toronto's heavy-hex map), so trajectories
  // are 16 amplitudes wide, not 2^27. The results equal those of a
  // device cut down to that line, bit for bit.
  const auto model = qoc::qml::make_task_model("mnist4");
  const DeviceModel toronto = DeviceModel::ibmq_toronto();
  EXPECT_EQ(qoc::transpile::route_template(model.circuit(), toronto)
                .active_qubits,
            (std::vector<int>{0, 1, 2, 3}));
  DeviceModel line = toronto;
  line.name = "toronto_0123";
  line.n_qubits = 4;
  line.coupling = {{0, 1}, {1, 2}, {2, 3}};
  line.qubits.resize(4);
  const PaperTaskBatch batch(model);
  const auto observable = paper_task_observable();
  NoisyBackendOptions opt;
  opt.trajectories = 9;
  opt.shots = 9 * 32;
  opt.seed = 0x7020ULL;
  NoisyBackend full(toronto, opt);
  NoisyBackend cut(line, opt);
  const auto run = flatten(full.run_batch(model.plan(), batch.evals, 2));
  ASSERT_EQ(run.size(), 12u);
  for (const double z : run) EXPECT_LE(std::abs(z), 1.0);
  expect_golden(run, flatten(cut.run_batch(model.plan(), batch.evals, 2)),
                "toronto run");
  expect_golden(full.expect_batch(model.plan(), observable, batch.evals, 2),
                cut.expect_batch(model.plan(), observable, batch.evals, 2),
                "toronto expect");
}

// ---- idle-qubit differential ------------------------------------------------

/// `d` plus `extra` qubits that copy d's calibrations and have no
/// coupling edge: no route runs through them, so every circuit routes
/// exactly as on `d` and leaves them idle.
DeviceModel with_idle_qubits(DeviceModel d, int extra) {
  const int n = d.n_qubits;
  d.name += "+idle";
  for (int i = 0; i < extra; ++i)
    d.qubits.push_back(d.qubits[static_cast<std::size_t>(i % n)]);
  d.n_qubits += extra;
  d.validate();
  return d;
}

/// A random observable over n qubits: five Pauli strings plus identity.
qoc::exec::CompiledObservable random_observable(Prng& rng, int n) {
  std::vector<qoc::exec::ObservableTerm> terms = {
      {std::string(static_cast<std::size_t>(n), 'I'), 0.15}};
  for (int t = 0; t < 5; ++t) {
    std::string pauli;
    for (int q = 0; q < n; ++q) pauli += "IXYZ"[rng.uniform_int(4)];
    terms.push_back({pauli, rng.uniform(-1.0, 1.0)});
  }
  return qoc::exec::CompiledObservable::compile(n, terms);
}

TEST(IdleQubits, DeviceBackendsMatchOnPaddedDevice) {
  // Generated circuits on a device D and on D with three idle qubits
  // appended must give bit-identical noisy and density results: qubits
  // no gate touches stay |0> and contribute nothing to any result.
  using qoc::testgen::kGenInputs;
  using qoc::testgen::kGenThetas;
  const DeviceModel devices[] = {DeviceModel::ibmq_lima(),
                                 DeviceModel::ibmq_manila()};
  Prng rng(4711);
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE("circuit " + std::to_string(i));
    const DeviceModel& base = devices[i / 3];
    const DeviceModel padded = with_idle_qubits(base, 3);
    const int n = 4 + i % 2;
    const Circuit c = qoc::testgen::random_circuit(rng, n, 16);
    const auto plan = qoc::exec::CompiledCircuit::compile(c);
    const auto observable = random_observable(rng, n);
    std::vector<std::vector<double>> thetas, inputs;
    for (int b = 0; b < 3; ++b) {
      thetas.push_back(qoc::testgen::random_angles(rng, kGenThetas));
      inputs.push_back(qoc::testgen::random_angles(rng, kGenInputs));
    }
    std::vector<qoc::exec::Evaluation> evals;
    for (int b = 0; b < 3; ++b) {
      qoc::exec::Evaluation e;
      e.theta = thetas[static_cast<std::size_t>(b)];
      e.input = inputs[static_cast<std::size_t>(b)];
      if (b == 1) e.rng_stream = 77;
      evals.push_back(e);
    }
    for (const int lanes : {1, 8}) {
      const std::string tag = "lanes=" + std::to_string(lanes);
      NoisyBackendOptions opt;
      opt.trajectories = 9;
      opt.shots = 9 * 16;
      opt.seed = 0x1D1EULL + static_cast<std::uint64_t>(i);
      opt.batch_lanes = lanes;
      NoisyBackend on_base(base, opt);
      NoisyBackend on_padded(padded, opt);
      expect_golden(flatten(on_padded.run_batch(plan, evals, 2)),
                    flatten(on_base.run_batch(plan, evals, 2)),
                    "noisy run " + tag);
      expect_golden(on_padded.expect_batch(plan, observable, evals, 2),
                    on_base.expect_batch(plan, observable, evals, 2),
                    "noisy expect " + tag);
    }
    DensityMatrixBackend dm_base(base);
    DensityMatrixBackend dm_padded(padded);
    expect_golden(flatten(dm_padded.run_batch(plan, evals, 2)),
                  flatten(dm_base.run_batch(plan, evals, 2)), "density run");
    expect_golden(dm_padded.expect_batch(plan, observable, evals, 2),
                  dm_base.expect_batch(plan, observable, evals, 2),
                  "density expect");
  }
}

}  // namespace
