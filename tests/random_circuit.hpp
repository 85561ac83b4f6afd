#pragma once
// Seeded random-circuit generator shared by the differential tests: the
// transpile template-path check (test_transpile.cpp) and the idle-qubit
// register check of the device backends (test_backend.cpp).

#include <algorithm>
#include <iterator>
#include <vector>

#include "qoc/circuit/circuit.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/linalg/matrix.hpp"

namespace qoc::testgen {

using circuit::Circuit;
using circuit::GateKind;
using circuit::ParamRef;
using linalg::kPi;

/// Every gate kind lower_1q / lower_2q handles, plus CCX (expanded before
/// routing).
inline constexpr GateKind kAllKinds[] = {
    GateKind::I,   GateKind::X,   GateKind::Y,    GateKind::Z,
    GateKind::H,   GateKind::S,   GateKind::Sdg,  GateKind::T,
    GateKind::Tdg, GateKind::Sx,  GateKind::Rx,   GateKind::Ry,
    GateKind::Rz,  GateKind::Phase, GateKind::Cx, GateKind::Cz,
    GateKind::Swap, GateKind::Rxx, GateKind::Ryy, GateKind::Rzz,
    GateKind::Rzx, GateKind::Crx, GateKind::Cry,  GateKind::Crz,
    GateKind::Cp,  GateKind::Ccx,
};
inline constexpr int kGenThetas = 6;
inline constexpr int kGenInputs = 3;

/// Seeded random circuit over kAllKinds. Rotation angles come from a
/// trainable parameter, a scaled and offset input, or a constant that is
/// sometimes exactly 0 or +-pi/2.
inline Circuit random_circuit(Prng& rng, int n_qubits, int n_ops) {
  Circuit c(n_qubits);
  for (int i = 0; i < n_ops; ++i) {
    const GateKind kind = kAllKinds[rng.uniform_int(std::size(kAllKinds))];
    std::vector<int> qubits;
    while (static_cast<int>(qubits.size()) < qoc::circuit::gate_arity(kind)) {
      const int q = static_cast<int>(rng.uniform_int(n_qubits));
      if (std::find(qubits.begin(), qubits.end(), q) == qubits.end())
        qubits.push_back(q);
    }
    ParamRef p;
    if (qoc::circuit::gate_is_parameterised(kind)) {
      const double special[] = {0.0, kPi / 2.0, -kPi / 2.0};
      switch (rng.uniform_int(4)) {
        case 0:
          p = ParamRef::input(static_cast<int>(rng.uniform_int(kGenInputs)),
                              rng.uniform() < 0.5 ? 1.0 : 0.5,
                              rng.uniform() < 0.5 ? 0.0 : kPi / 2.0);
          break;
        case 1:
          p = ParamRef::constant(rng.uniform() < 0.5
                                     ? special[rng.uniform_int(3)]
                                     : rng.uniform(-kPi, kPi));
          break;
        default:
          p = ParamRef::trainable(
              static_cast<int>(rng.uniform_int(kGenThetas)));
          break;
      }
    }
    c.add(kind, std::move(qubits), p);
  }
  return c;
}

/// Random angles with exact zeros, +-pi/2 and +-pi/2 parameter shifts.
inline std::vector<double> random_angles(Prng& rng, int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    switch (rng.uniform_int(5)) {
      case 0: x = 0.0; break;
      case 1: x = rng.uniform() < 0.5 ? kPi / 2.0 : -kPi / 2.0; break;
      case 2: x = rng.uniform(-kPi, kPi) + kPi / 2.0; break;
      case 3: x = rng.uniform(-kPi, kPi) - kPi / 2.0; break;
      default: x = rng.uniform(-kPi, kPi); break;
    }
  }
  return v;
}

}  // namespace qoc::testgen
