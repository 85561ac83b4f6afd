#include "qoc/exec/compiled_circuit.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/gates.hpp"

namespace qoc::exec {

using circuit::GateKind;
using circuit::ParamRef;
using linalg::cplx;
using linalg::kI;
using linalg::Matrix;

namespace {

bool is_diag_2q_kind(GateKind k) {
  return k == GateKind::Rzz || k == GateKind::Crz || k == GateKind::Cp;
}

/// Ops fusable into one diagonal pass: everything whose batched arm is a
/// per-lane complex *multiply* (PauliZ / Cz negate instead, so folding
/// them into a product chain would perturb signed zeros).
bool is_mult_diag_op(const CompiledOp& op) {
  switch (op.code) {
    case OpCode::Diag1q:
      return true;
    case OpCode::Rot1q:
      return op.kind == GateKind::Rz || op.kind == GateKind::Phase;
    case OpCode::Rot2q:
      return is_diag_2q_kind(op.kind);
    default:
      return false;
  }
}

/// Ops the batched path lowers to a dense per-lane 2x2 (candidates for
/// the fused pair passes).
bool is_dense_1q_op(const CompiledOp& op) {
  switch (op.code) {
    case OpCode::Fixed1q:
      return true;
    case OpCode::Rot1q:
      return !(op.kind == GateKind::Rz || op.kind == GateKind::Phase);
    default:
      return false;
  }
}

/// 2x2 entries of an angle-dependent 1q gate, row-major. Mirrors the
/// exact arithmetic of sim::gate_rx/ry/rz/p so compiled execution stays
/// bit-identical to the Matrix-building path.
void rot1q_entries(GateKind kind, double angle, cplx out[4]) {
  switch (kind) {
    case GateKind::Rx: {
      const double c = std::cos(angle / 2.0);
      const double s = std::sin(angle / 2.0);
      out[0] = c;
      out[1] = -kI * s;
      out[2] = -kI * s;
      out[3] = c;
      return;
    }
    case GateKind::Ry: {
      const double c = std::cos(angle / 2.0);
      const double s = std::sin(angle / 2.0);
      out[0] = c;
      out[1] = -s;
      out[2] = s;
      out[3] = c;
      return;
    }
    case GateKind::Rz: {
      out[0] = std::exp(-kI * (angle / 2.0));
      out[1] = 0.0;
      out[2] = 0.0;
      out[3] = std::exp(kI * (angle / 2.0));
      return;
    }
    case GateKind::Phase: {
      out[0] = 1.0;
      out[1] = 0.0;
      out[2] = 0.0;
      out[3] = std::exp(kI * angle);
      return;
    }
    default:
      throw std::logic_error("rot1q_entries: not a 1q rotation");
  }
}

/// 4x4 entries of an angle-dependent 2q gate, row-major. Mirrors the
/// exact arithmetic of sim::two_qubit_rotation / sim::controlled on the
/// stack, so no heap Matrix is built per evaluation.
void rot2q_entries(GateKind kind, double angle, cplx out[16]) {
  switch (kind) {
    case GateKind::Rxx:
    case GateKind::Ryy:
    case GateKind::Rzz:
    case GateKind::Rzx: {
      // exp(-i angle/2 P) = cos(angle/2) I - i sin(angle/2) P. The Pauli
      // products have exact entries in {0, +-1, +-i}, so replaying
      // I*c - P*(i*s) entry-wise reproduces the Matrix path bit-for-bit.
      static constexpr cplx kZero{0.0, 0.0};
      static constexpr cplx kOne{1.0, 0.0};
      static constexpr cplx kMinusOne{-1.0, 0.0};
      const double c = std::cos(angle / 2.0);
      const double s = std::sin(angle / 2.0);
      const cplx cc{c, 0.0};
      const cplx is = kI * s;
      cplx p[16] = {};
      switch (kind) {
        case GateKind::Rzz:
          p[0] = kOne;
          p[5] = kMinusOne;
          p[10] = kMinusOne;
          p[15] = kOne;
          break;
        case GateKind::Rxx:
          p[3] = kOne;
          p[6] = kOne;
          p[9] = kOne;
          p[12] = kOne;
          break;
        case GateKind::Ryy:
          // kron(Y, Y): (-i)(-i) = -1, (-i)(i) = 1, (i)(-i) = 1,
          // (i)(i) = -1 -- all exact.
          p[3] = kMinusOne;
          p[6] = kOne;
          p[9] = kOne;
          p[12] = kMinusOne;
          break;
        default:  // Rzx: kron(Z, X)
          p[1] = kOne;
          p[4] = kOne;
          p[11] = kMinusOne;
          p[14] = kMinusOne;
          break;
      }
      for (int e = 0; e < 16; ++e) {
        const cplx ident = (e % 5 == 0) ? kOne : kZero;
        out[e] = ident * cc - p[e] * is;
      }
      return;
    }
    case GateKind::Crx:
    case GateKind::Cry:
    case GateKind::Crz:
    case GateKind::Cp: {
      GateKind base = GateKind::Rx;
      if (kind == GateKind::Cry) base = GateKind::Ry;
      if (kind == GateKind::Crz) base = GateKind::Rz;
      if (kind == GateKind::Cp) base = GateKind::Phase;
      cplx u[4];
      rot1q_entries(base, angle, u);
      for (int e = 0; e < 16; ++e) out[e] = cplx{0.0, 0.0};
      out[0] = 1.0;
      out[5] = 1.0;
      out[10] = u[0];
      out[11] = u[1];
      out[14] = u[2];
      out[15] = u[3];
      return;
    }
    default:
      throw std::logic_error("rot2q_entries: not a 2q rotation");
  }
}

/// Diagonal of an angle-dependent diagonal 2q gate (Rzz/Crz/Cp),
/// computing exactly the four entries the Matrix path would produce.
void rot2q_diag_entries(GateKind kind, double angle, cplx out[4]) {
  if (kind == GateKind::Rzz) {
    // diag(I*c - ZZ*(i s)) with ZZ diag = (1, -1, -1, 1).
    const double c = std::cos(angle / 2.0);
    const double s = std::sin(angle / 2.0);
    const cplx cc{c, 0.0};
    const cplx is = kI * s;
    out[0] = cc - is;
    out[1] = cc - cplx{-1.0, 0.0} * is;
    out[2] = out[1];
    out[3] = out[0];
    return;
  }
  // Controlled diagonal: identity block + the base rotation's diagonal.
  cplx u[4];
  rot1q_entries(kind == GateKind::Crz ? GateKind::Rz : GateKind::Phase, angle,
                u);
  out[0] = 1.0;
  out[1] = 1.0;
  out[2] = u[0];
  out[3] = u[3];
}

void append_hex_u64(std::string& s, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  s += buf;
}

void append_double_bits(std::string& s, double v) {
  append_hex_u64(s, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::string structure_signature(const circuit::Circuit& c) {
  std::string sig;
  sig.reserve(c.num_ops() * 48 + 32);
  sig += "n";
  sig += std::to_string(c.num_qubits());
  sig += ";t";
  sig += std::to_string(c.num_trainable());
  sig += ";i";
  sig += std::to_string(c.num_inputs());
  sig += ";";
  for (const auto& op : c.ops()) {
    sig += "k";
    sig += std::to_string(static_cast<int>(op.kind));
    sig += ":";
    for (const int q : op.qubits) {
      sig += std::to_string(q);
      sig += ",";
    }
    sig += "p";
    sig += std::to_string(static_cast<int>(op.param.source));
    sig += ",";
    sig += std::to_string(op.param.index);
    sig += ",";
    append_double_bits(sig, op.param.scale);
    sig += ",";
    append_double_bits(sig, op.param.value);
    sig += ";";
  }
  return sig;
}

std::uint64_t structure_hash(const circuit::Circuit& c) {
  // FNV-1a over the structural fields, allocation-free.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  mix(static_cast<std::uint64_t>(c.num_qubits()));
  mix(static_cast<std::uint64_t>(c.num_trainable()));
  mix(static_cast<std::uint64_t>(c.num_inputs()));
  for (const auto& op : c.ops()) {
    mix(static_cast<std::uint64_t>(op.kind));
    for (const int q : op.qubits) mix(static_cast<std::uint64_t>(q) + 1);
    mix(static_cast<std::uint64_t>(op.param.source));
    mix(static_cast<std::uint64_t>(op.param.index) + 1);
    mix(std::bit_cast<std::uint64_t>(op.param.scale));
    mix(std::bit_cast<std::uint64_t>(op.param.value));
  }
  return h;
}

bool structure_equal(const circuit::Circuit& a, const circuit::Circuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.num_ops() != b.num_ops() ||
      a.num_trainable() != b.num_trainable() ||
      a.num_inputs() != b.num_inputs())
    return false;
  for (std::size_t i = 0; i < a.num_ops(); ++i) {
    const auto& x = a.op(i);
    const auto& y = b.op(i);
    if (x.kind != y.kind || x.qubits != y.qubits ||
        x.param.source != y.param.source || x.param.index != y.param.index ||
        std::bit_cast<std::uint64_t>(x.param.scale) !=
            std::bit_cast<std::uint64_t>(y.param.scale) ||
        std::bit_cast<std::uint64_t>(x.param.value) !=
            std::bit_cast<std::uint64_t>(y.param.value))
      return false;
  }
  return true;
}

CompiledCircuit CompiledCircuit::compile(const circuit::Circuit& c) {
  CompiledCircuit plan;
  plan.source_ = c;
  plan.slot_of_src_op_.assign(c.num_ops(), -1);
  plan.signature_ = structure_signature(c);
  plan.hash_ = exec::structure_hash(c);

  // ---- Lower to the flat op stream ----------------------------------------
  auto cached_matrix = [&plan](GateKind kind) -> std::int32_t {
    for (std::size_t i = 0; i < plan.matrices_.size(); ++i) {
      // Fixed-gate matrices are keyed by kind via a parallel scan; the
      // cache is tiny (a handful of distinct fixed gates per circuit).
      if (plan.matrix_kinds_[i] == kind) return static_cast<std::int32_t>(i);
    }
    plan.matrices_.push_back(circuit::gate_matrix(kind));
    plan.matrix_kinds_.push_back(kind);
    return static_cast<std::int32_t>(plan.matrices_.size() - 1);
  };

  plan.ops_.reserve(c.num_ops());
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    const auto& op = c.op(i);
    CompiledOp out;
    out.kind = op.kind;
    out.q0 = op.qubits.empty() ? -1 : op.qubits[0];
    out.q1 = op.qubits.size() > 1 ? op.qubits[1] : -1;

    if (circuit::gate_is_parameterised(op.kind)) {
      out.slot = static_cast<std::int32_t>(plan.slots_.size());
      plan.slot_of_src_op_[i] = out.slot;
      plan.slots_.push_back({op.param, static_cast<std::uint32_t>(i)});
      out.code =
          circuit::gate_arity(op.kind) == 1 ? OpCode::Rot1q : OpCode::Rot2q;
      plan.ops_.push_back(std::move(out));
      continue;
    }

    switch (op.kind) {
      case GateKind::I:
        continue;  // exact identity; elide
      case GateKind::X: out.code = OpCode::PauliX; break;
      case GateKind::Y: out.code = OpCode::PauliY; break;
      case GateKind::Z: out.code = OpCode::PauliZ; break;
      case GateKind::Cx: out.code = OpCode::Cx; break;
      case GateKind::Cz: out.code = OpCode::Cz; break;
      case GateKind::Swap: out.code = OpCode::Swap; break;
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::T:
      case GateKind::Tdg:
        out.code = OpCode::Diag1q;
        out.matrix = cached_matrix(op.kind);
        break;
      case GateKind::H:
      case GateKind::Sx:
        out.code = OpCode::Fixed1q;
        out.matrix = cached_matrix(op.kind);
        break;
      case GateKind::Ccx:
        out.code = OpCode::FixedK;
        out.matrix = cached_matrix(op.kind);
        out.qubits = op.qubits;
        break;
      default:
        // Any other fixed gate: cache its matrix, dispatch by arity.
        out.matrix = cached_matrix(op.kind);
        out.code = circuit::gate_arity(op.kind) == 1 ? OpCode::Fixed1q
                                                     : OpCode::Fixed2q;
        break;
    }
    plan.ops_.push_back(std::move(out));
  }

  // ---- Plan the k-wide fusion schedule ------------------------------------
  // A run of >= 2 multiplicative diagonals chains in kMaxDiagRun chunks;
  // the last chunk welds into the dense pairs right after it. Adjacent
  // dense 1q gates on distinct qubits pair up greedily into tiled runs of
  // up to kMaxPairRun (a rotation layer pairs up completely). Every other
  // op is a step of its own.
  using sim::kernels::kMaxDiagRun;
  using sim::kernels::kMaxPairRun;
  const int n = c.num_qubits();
  const auto stride = [n](std::int32_t q) {
    return std::size_t{1} << (n - 1 - q);
  };
  const auto& ops = plan.ops_;
  const auto pairable = [&ops](std::size_t i) {
    return i + 1 < ops.size() && is_dense_1q_op(ops[i]) &&
           is_dense_1q_op(ops[i + 1]) && ops[i].q0 != ops[i + 1].q0;
  };
  // A step over the diagonals ops[op, op + nd), pairs still to come.
  const auto open_step = [&](std::size_t op, std::size_t nd) {
    for (std::size_t r = op; r < op + nd; ++r)
      plan.batched_diag_.push_back(
          {nullptr, stride(ops[r].q0),
           ops[r].code == OpCode::Rot2q ? stride(ops[r].q1) : 0});
    return BatchedStep{op, plan.batched_diag_.size() - nd,
                       plan.batched_pairs_.size(), nd, 0};
  };
  const auto close_step = [&plan](const BatchedStep& step) {
    plan.batched_entries_ =
        std::max(plan.batched_entries_, 4 * step.nd + 8 * step.np);
    plan.batched_steps_.push_back(step);
  };
  for (std::size_t i = 0; i < ops.size();) {
    std::size_t end = i;
    while (end < ops.size() && is_mult_diag_op(ops[end])) ++end;
    if (end - i < 2) end = i;  // a lone diagonal is a step of its own
    for (; end - i > kMaxDiagRun; i += kMaxDiagRun)
      close_step(open_step(i, kMaxDiagRun));
    BatchedStep step = open_step(i, end - i);
    i = end;
    const std::size_t max_np = kMaxPairRun + (step.nd > 0 ? 1 : 0);
    for (; step.np < max_np && pairable(i); ++step.np, i += 2)
      plan.batched_pairs_.push_back(
          {stride(ops[i].q0), stride(ops[i + 1].q0), nullptr, nullptr});
    if (step.nd + step.np == 0) ++i;
    close_step(step);
  }
  return plan;
}

void CompiledCircuit::resolve_slots(std::span<const double> theta,
                                    std::span<const double> input,
                                    std::size_t shift_op, double shift,
                                    std::vector<double>& out) const {
  if (shift_op != Evaluation::kNoShift) {
    if (shift_op >= source_.num_ops())
      throw std::out_of_range("resolve_slots: shift op index");
    if (slot_of_src_op_[shift_op] < 0)
      throw std::invalid_argument("resolve_slots: shift op not parameterised");
  }
  out.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ParamRef ref = slots_[i].ref;
    if (slots_[i].src_op == shift_op) ref.value += shift;
    out[i] = circuit::resolve_angle(ref, theta, input);
  }
}

void CompiledCircuit::resolve_source_angles(std::span<const double> theta,
                                            std::span<const double> input,
                                            std::size_t shift_op, double shift,
                                            std::vector<double>& out) const {
  if (shift_op != Evaluation::kNoShift) {
    if (shift_op >= source_.num_ops())
      throw std::out_of_range("resolve_source_angles: shift op index");
    if (!circuit::gate_is_parameterised(source_.op(shift_op).kind))
      throw std::invalid_argument(
          "resolve_source_angles: shift op not parameterised");
  }
  out.resize(source_.num_ops());
  for (std::size_t i = 0; i < source_.num_ops(); ++i) {
    ParamRef ref = source_.op(i).param;
    if (i == shift_op) ref.value += shift;
    out[i] = circuit::resolve_angle(ref, theta, input);
  }
}

void CompiledCircuit::apply(sim::Statevector& sv,
                            std::span<const double> slot_angles) const {
  for (const auto& op : ops_) {
    switch (op.code) {
      case OpCode::PauliX:
        sv.apply_pauli_x(op.q0);
        break;
      case OpCode::PauliY:
        sv.apply_pauli_y(op.q0);
        break;
      case OpCode::PauliZ:
        sv.apply_pauli_z(op.q0);
        break;
      case OpCode::Cx:
        sv.apply_cx(op.q0, op.q1);
        break;
      case OpCode::Cz:
        sv.apply_cz(op.q0, op.q1);
        break;
      case OpCode::Swap:
        sv.apply_swap(op.q0, op.q1);
        break;
      case OpCode::Diag1q: {
        const Matrix& m = matrices_[static_cast<std::size_t>(op.matrix)];
        sv.apply_diag_1q(m(0, 0), m(1, 1), op.q0);
        break;
      }
      case OpCode::Fixed1q:
        sv.apply_1q(matrices_[static_cast<std::size_t>(op.matrix)], op.q0);
        break;
      case OpCode::Fixed2q:
        sv.apply_2q(matrices_[static_cast<std::size_t>(op.matrix)], op.q0,
                    op.q1);
        break;
      case OpCode::FixedK:
        sv.apply_matrix(matrices_[static_cast<std::size_t>(op.matrix)],
                        op.qubits);
        break;
      case OpCode::Rot1q: {
        const double angle = slot_angles[static_cast<std::size_t>(op.slot)];
        if (op.kind == GateKind::Rz || op.kind == GateKind::Phase) {
          cplx m[4];
          rot1q_entries(op.kind, angle, m);
          sv.apply_diag_1q(m[0], m[3], op.q0);
        } else {
          cplx m[4];
          rot1q_entries(op.kind, angle, m);
          sv.apply_1q(m, op.q0);
        }
        break;
      }
      case OpCode::Rot2q: {
        const double angle = slot_angles[static_cast<std::size_t>(op.slot)];
        if (is_diag_2q_kind(op.kind)) {
          cplx d[4];
          rot2q_diag_entries(op.kind, angle, d);
          sv.apply_diag_2q(d[0], d[1], d[2], d[3], op.q0, op.q1);
        } else {
          cplx m[16];
          rot2q_entries(op.kind, angle, m);
          sv.apply_2q(m, op.q0, op.q1);
        }
        break;
      }
    }
  }
}

void CompiledCircuit::resolve_slots_lanes(std::span<const Evaluation> evals,
                                          std::vector<double>& out) const {
  const std::size_t k = evals.size();
  for (const auto& e : evals) {
    if (e.shift_op != Evaluation::kNoShift) {
      if (e.shift_op >= source_.num_ops())
        throw std::out_of_range("resolve_slots_lanes: shift op index");
      if (slot_of_src_op_[e.shift_op] < 0)
        throw std::invalid_argument(
            "resolve_slots_lanes: shift op not parameterised");
    }
  }
  out.resize(slots_.size() * k);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    for (std::size_t l = 0; l < k; ++l) {
      const Evaluation& e = evals[l];
      ParamRef ref = slots_[i].ref;
      if (slots_[i].src_op == e.shift_op) ref.value += e.shift;
      out[i * k + l] = circuit::resolve_angle(ref, e.theta, e.input);
    }
  }
}

void CompiledCircuit::apply_batched(sim::BatchedStatevector& sv,
                                    std::span<const double> slot_angles,
                                    LaneScratch& scratch) const {
  using sim::kernels::kMaxDiagRun;
  using sim::kernels::kMaxPairRun;
  // The schedule's strides were resolved for num_qubits() qubits.
  if (sv.num_qubits() != num_qubits())
    throw std::invalid_argument("apply_batched: register size mismatch");
  const std::size_t k = sv.lanes();
  auto& buf = scratch.buf;
  buf.resize(batched_entries_ * k);
  const auto angle_at = [&](std::int32_t slot, std::size_t lane) {
    return slot_angles[static_cast<std::size_t>(slot) * k + lane];
  };

  // Per-lane entries of one dense 1q op (is_dense_1q_op): 4 per lane.
  const auto build_dense_1q = [&](const CompiledOp& op, cplx* out) {
    switch (op.code) {
      case OpCode::Fixed1q: {
        const Matrix& m = matrices_[static_cast<std::size_t>(op.matrix)];
        for (std::size_t l = 0; l < k; ++l) {
          out[0 * k + l] = m(0, 0);
          out[1 * k + l] = m(0, 1);
          out[2 * k + l] = m(1, 0);
          out[3 * k + l] = m(1, 1);
        }
        break;
      }
      default: {  // Rot1q
        cplx m[4];
        for (std::size_t l = 0; l < k; ++l) {
          rot1q_entries(op.kind, angle_at(op.slot, l), m);
          for (int e = 0; e < 4; ++e)
            out[static_cast<std::size_t>(e) * k + l] = m[e];
        }
        break;
      }
    }
  };

  // Per-lane diagonal of one multiplicative diagonal op
  // (is_mult_diag_op): 2 entries per lane for 1q, 4 for 2q.
  const auto build_diag = [&](const CompiledOp& op, cplx* d) {
    switch (op.code) {
      case OpCode::Diag1q: {
        const Matrix& m = matrices_[static_cast<std::size_t>(op.matrix)];
        std::fill_n(d, k, m(0, 0));
        std::fill_n(d + k, k, m(1, 1));
        break;
      }
      case OpCode::Rot1q: {
        cplx m[4];
        for (std::size_t l = 0; l < k; ++l) {
          rot1q_entries(op.kind, angle_at(op.slot, l), m);
          d[l] = m[0];
          d[k + l] = m[3];
        }
        break;
      }
      default: {  // Rot2q, diagonal kind
        cplx e[4];
        for (std::size_t l = 0; l < k; ++l) {
          rot2q_diag_entries(op.kind, angle_at(op.slot, l), e);
          for (int j = 0; j < 4; ++j)
            d[static_cast<std::size_t>(j) * k + l] = e[j];
        }
        break;
      }
    }
  };

  std::array<sim::kernels::BatchedDiagOp, kMaxDiagRun> diag;
  std::array<sim::kernels::BatchedPairOp, kMaxPairRun + 1> pairs;
  for (const BatchedStep& step : batched_steps_) {
    const CompiledOp* first = ops_.data() + step.op;
    if (step.nd + step.np > 0) {
      cplx* e = buf.data();
      for (std::size_t r = 0; r < step.nd; ++r, e += 4 * k) {
        diag[r] = batched_diag_[step.diag + r];
        diag[r].d = e;
        build_diag(first[r], e);
      }
      const CompiledOp* dense = first + step.nd;
      for (std::size_t p = 0; p < step.np; ++p, e += 8 * k) {
        pairs[p] = batched_pairs_[step.pair + p];
        pairs[p].m_a = e;
        pairs[p].m_b = e + 4 * k;
        build_dense_1q(dense[2 * p], e);
        build_dense_1q(dense[2 * p + 1], e + 4 * k);
      }
      sv.apply_fused(diag.data(), step.nd, pairs.data(), step.np);
      continue;
    }
    const CompiledOp& op = *first;
    switch (op.code) {
      case OpCode::PauliX:
        sv.apply_pauli_x(op.q0);
        break;
      case OpCode::PauliY:
        sv.apply_pauli_y(op.q0);
        break;
      case OpCode::PauliZ:
        sv.apply_pauli_z(op.q0);
        break;
      case OpCode::Cx:
        sv.apply_cx(op.q0, op.q1);
        break;
      case OpCode::Cz:
        sv.apply_cz(op.q0, op.q1);
        break;
      case OpCode::Swap:
        sv.apply_swap(op.q0, op.q1);
        break;
      case OpCode::Diag1q: {
        const Matrix& m = matrices_[static_cast<std::size_t>(op.matrix)];
        sv.apply_diag_1q(m(0, 0), m(1, 1), op.q0);
        break;
      }
      case OpCode::Fixed1q:
        sv.apply_1q(matrices_[static_cast<std::size_t>(op.matrix)], op.q0);
        break;
      case OpCode::Fixed2q:
        sv.apply_2q(matrices_[static_cast<std::size_t>(op.matrix)], op.q0,
                    op.q1);
        break;
      case OpCode::FixedK:
        sv.apply_matrix(matrices_[static_cast<std::size_t>(op.matrix)],
                        op.qubits);
        break;
      case OpCode::Rot1q:
        if (is_mult_diag_op(op)) {
          build_diag(op, buf.data());
          sv.apply_diag_1q_lanes(buf.data(), op.q0);
        } else {
          build_dense_1q(op, buf.data());
          sv.apply_1q_lanes(buf.data(), op.q0);
        }
        break;
      case OpCode::Rot2q:
        if (is_mult_diag_op(op)) {
          build_diag(op, buf.data());
          sv.apply_diag_2q_lanes(buf.data(), op.q0, op.q1);
        } else {
          cplx m[16];
          for (std::size_t l = 0; l < k; ++l) {
            rot2q_entries(op.kind, angle_at(op.slot, l), m);
            for (int e = 0; e < 16; ++e)
              buf[static_cast<std::size_t>(e) * k + l] = m[e];
          }
          sv.apply_2q_lanes(buf.data(), op.q0, op.q1);
        }
        break;
    }
  }
}

std::vector<double> CompiledCircuit::expectations(
    std::span<const double> theta, std::span<const double> input,
    std::size_t shift_op, double shift) const {
  std::vector<double> angles;
  resolve_slots(theta, input, shift_op, shift, angles);
  sim::Statevector sv(num_qubits());
  apply(sv, angles);
  return sv.expectation_z_all();
}

}  // namespace qoc::exec
