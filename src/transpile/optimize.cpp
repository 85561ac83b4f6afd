#include "qoc/transpile/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace qoc::transpile {

using circuit::GateKind;

bool rz_angle_is_zero(double a) {
  const double two_pi = 2.0 * linalg::kPi;
  double m = std::fmod(a, two_pi);
  if (m < 0) m += two_pi;
  return m < 1e-12 || two_pi - m < 1e-12;
}

std::vector<BoundOp> merge_rz(std::vector<BoundOp> ops) {
  // last[q]: index of the last kept op touching q. An RZ folds into that
  // op when it is an RZ; otherwise the RZ is kept. Angles accumulate in
  // stream order, and zero rotations are dropped only after every merge
  // (a partial sum may pass through zero).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t n_qubits = 0;
  for (const auto& op : ops)
    for (const int q : op.qubits)
      n_qubits = std::max(n_qubits, static_cast<std::size_t>(q) + 1);
  std::vector<std::size_t> last(n_qubits, kNone);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    BoundOp& op = ops[i];
    if (op.kind == GateKind::Rz) {
      const std::size_t prev = last[static_cast<std::size_t>(op.qubits[0])];
      if (prev != kNone && ops[prev].kind == GateKind::Rz) {
        ops[prev].angle += op.angle;
        continue;
      }
    }
    for (const int q : op.qubits) last[static_cast<std::size_t>(q)] = kept;
    if (kept != i) ops[kept] = std::move(op);
    ++kept;
  }
  ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(kept), ops.end());
  std::erase_if(ops, [](const BoundOp& op) {
    return op.kind == GateKind::Rz && rz_angle_is_zero(op.angle);
  });
  return ops;
}

std::vector<BoundOp> cancel_cx(std::vector<BoundOp> ops) {
  // Remove the first cancellable pair, then rescan from the start, until
  // none is left.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != GateKind::Cx) continue;
      const int control = ops[i].qubits[0];
      const int target = ops[i].qubits[1];
      // Scan forward for the partner CX; RZ on the control commutes.
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        const auto& next = ops[j];
        if (next.kind == GateKind::Cx && next.qubits[0] == control &&
            next.qubits[1] == target) {
          ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(j));
          ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
          changed = true;
          break;
        }
        // RZ on the control commutes with CX (both diagonal on control).
        if (next.kind == GateKind::Rz && next.qubits[0] == control) continue;
        // Anything else touching either qubit blocks cancellation.
        bool blocks = false;
        for (const int q : next.qubits)
          if (q == control || q == target) blocks = true;
        if (blocks) break;
      }
      if (changed) break;
    }
  }
  return ops;
}

std::vector<BoundOp> optimize(std::vector<BoundOp> ops) {
  for (;;) {
    const std::size_t before = ops.size();
    ops = cancel_cx(merge_rz(std::move(ops)));
    if (ops.size() >= before) return ops;
  }
}

}  // namespace qoc::transpile
