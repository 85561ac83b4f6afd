#pragma once
// Vectorized, cache-blocked statevector kernels.
//
// Every Statevector gate application funnels through this layer. A gate on
// qubit q touches amplitude pairs separated by stride = 2^(n-1-q), which
// splits the qubit range into two regimes:
//
//   * the "low" regime (the qubit -- or for 2q kernels the lower
//     operand -- has stride 1): paired amplitudes are adjacent in
//     memory, so one SIMD register spans a whole amplitude group. Each
//     kernel has a dedicated stride==1 (2q: min-stride==1) path using
//     shuffle/broadcast forms of the complex arithmetic.
//   * the "high" regime (every other stride): the pairs are far apart,
//     but each group decomposes into *contiguous runs* of length
//     min-stride (>= 2, so full vector width). The blocked enumeration
//     walks base blocks so the kernel streams 2 (1q) or 4 (2q)
//     sequential runs at a time -- L1/L2-friendly and SIMD-vectorizable
//     along the run -- instead of scanning the full index space with a
//     skip-mask branch per element.
//
// Dispatch policy (see also src/README.md, "Kernel dispatch"):
//   * KernelMode::Scalar   -- the scalar reference loops (the pre-SIMD
//                             implementation, kept as the parity oracle).
//   * KernelMode::Blocked  -- blocked enumeration, portable C++ only.
//   * KernelMode::Simd     -- blocked enumeration with the AVX2 inner
//                             loops when (a) the build enabled them
//                             (CMake compiles kernels_avx2.cpp with
//                             -mavx2 when the compiler supports it) and
//                             (b) the CPU reports AVX2 at runtime;
//                             otherwise falls back to Blocked.
//   * KernelMode::Auto     -- Simd. The default.
//
// Bit-exactness contract: for every kernel and every mode, the arithmetic
// performed on each amplitude is IDENTICAL (same IEEE operations in the
// same order) to the scalar reference -- the SIMD forms only batch
// independent groups, never re-associate sums, and the kernel TUs are
// compiled with -ffp-contract=off so no path contracts to FMA. Results
// are therefore bit-identical across modes (up to the sign of zeros,
// which probabilities and expectation values cannot see). Asserted for
// n = 16/18/20 in tests/test_kernels.cpp.

#include <complex>
#include <cstddef>

#include "qoc/linalg/matrix.hpp"

namespace qoc::sim::kernels {

using linalg::cplx;

enum class KernelMode { Auto, Scalar, Blocked, Simd };

/// Process-wide kernel mode (atomic; Auto by default). Intended for
/// tests and benchmarks -- production code leaves it at Auto.
void set_kernel_mode(KernelMode mode);
KernelMode kernel_mode();

/// Name of the SIMD backend Simd/Auto dispatches to on this build+CPU:
/// "avx2", or "portable" when no vector ISA path is available.
const char* simd_backend();

// ---- Kernels ---------------------------------------------------------------
// All strides are in units of cplx elements and are powers of two; `dim`
// is the full amplitude count (2^n). Matrices are row-major stack
// buffers. Callers validate qubit indices; kernels assume valid input.

/// amps[i0], amps[i1=i0+stride] <- 2x2 m applied to each pair.
void apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
              const cplx* m);

/// 4x4 m applied to each (sa, sb) group; sa indexes the higher matrix bit.
void apply_2q(cplx* amps, std::size_t dim, std::size_t sa, std::size_t sb,
              const cplx* m);

/// diag(d0, d1) on the stride-`stride` qubit.
void apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride, cplx d0,
                   cplx d1);

/// diag(d[0..3]) over the (sa, sb) pair; d indexed by (bit_a << 1) | bit_b.
void apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                   std::size_t sb, const cplx* d);

/// CX: swap the target pair where the control bit is set.
void apply_cx(cplx* amps, std::size_t dim, std::size_t sc, std::size_t st);

/// CZ: negate amplitudes where both bits are set.
void apply_cz(cplx* amps, std::size_t dim, std::size_t sa, std::size_t sb);

/// SWAP: exchange the |01> and |10> amplitudes of each group.
void apply_swap(cplx* amps, std::size_t dim, std::size_t sa, std::size_t sb);

void apply_pauli_x(cplx* amps, std::size_t dim, std::size_t stride);
void apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride);
void apply_pauli_z(cplx* amps, std::size_t dim, std::size_t stride);

// ---- Evaluation-major (batched) kernels ------------------------------------
// k-wide SoA layout: `k` independent states interleaved lane-contiguous,
// amps[row * k + lane], so one gate application streams every lane of a
// row through the vector units at once (PR 3 vectorized *within* one
// state; these vectorize *across* states -- the distinct-binding
// run_batch traffic the serve coalescer produces). `dim` and the strides
// are in rows (amplitude indices of one state), exactly as in the
// single-state kernels above; `k` must be even so the AVX2 forms can
// process two complex lanes per register.
//
// Matrices and diagonals are ENTRY-MAJOR per-lane buffers: m[e * k + lane]
// holds entry e of lane `lane`'s matrix, so a vector load of consecutive
// lanes picks up one matrix entry across states. Uniform (lane-invariant)
// gates simply broadcast their entries into such a buffer.
//
// Bit-exactness: lanes are fully independent, and the per-lane arithmetic
// of every mode is the single-state scalar reference operation-for-
// operation, so lane L of a batched application is bit-identical to the
// scalar per-evaluation path (same caveats as above: finite values, sign
// of zeros). Asserted end-to-end in tests/test_batch_kernels.cpp.
//
// The AVX2 dense forms take two shortcuts that live entirely inside the
// sign-of-zeros caveat:
//  - All-zero blocks are skipped: a dense 1q butterfly maps an all-zero
//    block to an all-zero block, so skipping leaves the input's zeros in
//    place where the arithmetic could produce -0. This makes the first
//    dense layer on |0...0> (support grows from 1 row) nearly free
//    instead of a full sweep of the k-wide buffer, at one or-tree +
//    ptest per block on dense data.
//  - Purely real gate matrices (ry, h -- i.e. every rotation-layer
//    gate) use real butterflies that drop the im-part products. Those
//    products are exact zeros (x*0 = +-0), and adding or subtracting
//    them can only change the sign of a zero result, never a nonzero
//    one -- at less than half the vector ops of the complex form.
// Neither shortcut is observable through probabilities, expectation
// values, or samples, since norm(+-0) = +0 and zeros never become
// nonzero; the bitwise parity tests assert exactly that end-to-end.

/// 2x2 per-lane matrices applied to each (stride-separated) row pair.
void batched_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                      std::size_t k, const cplx* m);

/// 4x4 per-lane matrices over each (sa, sb) row group.
void batched_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
                      std::size_t sb, std::size_t k, const cplx* m);

/// Per-lane diag(d[0*k+l], d[1*k+l]) on the stride-`stride` qubit.
void batched_apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k, const cplx* d);

/// Per-lane diag(d[0..3]) over the (sa, sb) pair.
void batched_apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                           std::size_t sb, std::size_t k, const cplx* d);

// ---- Fused layer -----------------------------------------------------------
// Every pass of the k-wide layout streams k states through memory, so a
// layered circuit's cost is its pass count. One kernel runs one step of
// a compiled circuit's fusion schedule (exec::CompiledCircuit plans the
// steps once per structure): a run of multiplicative diagonals (an RZZ
// entangling ring, RZ layers) and/or a run of dense 1q gate pairs (a
// rotation layer pairs up completely), in as few passes as the shapes
// allow. Per amplitude every pass performs the IEEE operation sequence
// of the separate per-gate passes, so results are bit-identical to one
// batched_apply_diag_1q/_2q call per diagonal, in order, followed by
// two batched_apply_1q calls per pair.

/// One diagonal of a fused step. `d` is an entry-major per-lane buffer
/// like the standalone diag kernels: 2 entries per lane when sb == 0
/// (1q, indexed by the sa bit), 4 entries per lane otherwise (2q,
/// indexed (bit_a << 1) | bit_b).
struct BatchedDiagOp {
  const cplx* d = nullptr;
  std::size_t sa = 0;  // row stride of qubit a
  std::size_t sb = 0;  // row stride of qubit b; 0 marks a 1q diagonal
};

/// One dense 1q pair of a fused step: gate A (stride sa, entry-major
/// matrices m_a) then gate B (stride sb, m_b) on distinct qubits
/// (sa != sb). The two gates' orbits close over 4-row blocks
/// {i, i+sb, i+sa, i+sa+sb}, so both butterflies chain in registers
/// per block.
struct BatchedPairOp {
  std::size_t sa = 0;
  std::size_t sb = 0;
  const cplx* m_a = nullptr;
  const cplx* m_b = nullptr;
};

/// Longest diagonal chain one step takes; planners chunk longer runs
/// (chunk boundaries don't change any amplitude's product chain).
inline constexpr std::size_t kMaxDiagRun = 32;

/// Longest tiled pair run one step takes (8 pairs cover a rotation
/// layer up to 16 qubits); a welded step takes one pair more.
inline constexpr std::size_t kMaxPairRun = 8;

/// Tile footprint target for cache-blocked pair runs: a tile of the
/// k-wide buffer at most this large stays resident while several pair
/// passes run over it (one quarter of the 2 MiB L2 this targets).
inline constexpr std::size_t kPairTileBytes = 512 * 1024;

/// One fused step: `nd` diagonals then `np` dense pairs.
///  * nd > 0, np == 0 -- the chain: one row-sequential pass in which
///    each amplitude runs its product chain in registers
///    (amp <- d_nd * (... * (d_1 * amp)), every intermediate rounded to
///    double exactly as a stored intermediate would be).
///  * nd > 0, np > 0 -- the weld: the chain rides pairs[0]'s 4-row block
///    pass, each block's amplitudes feeding straight into the two
///    butterflies; pairs[1..np) then run as the tiled run below.
///  * nd == 0 -- the tiled run: pairs whose 4-row blocks span more than
///    a kPairTileBytes tile stream the buffer once each; the trailing
///    small-span pairs are cache-blocked -- every pair's blocks sit
///    inside an aligned tile, so the tile takes all their passes while
///    resident. Only the order of disjoint blocks changes. A rotation
///    layer thus costs ~2 sweeps instead of one per pair; one pair is
///    one pass.
/// Requires nd <= kMaxDiagRun, at most kMaxPairRun pairs in the tiled
/// run, and sa != sb for every pair (throws std::invalid_argument).
void batched_apply_fused(cplx* amps, std::size_t dim,
                         const BatchedDiagOp* diag, std::size_t nd,
                         const BatchedPairOp* pairs, std::size_t np,
                         std::size_t k);

/// Structured lane-invariant row permutations / sign flips.
void batched_apply_cx(cplx* amps, std::size_t dim, std::size_t sc,
                      std::size_t st, std::size_t k);
void batched_apply_cz(cplx* amps, std::size_t dim, std::size_t sa,
                      std::size_t sb, std::size_t k);
void batched_apply_swap(cplx* amps, std::size_t dim, std::size_t sa,
                        std::size_t sb, std::size_t k);
void batched_apply_pauli_x(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k);
void batched_apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k);
void batched_apply_pauli_z(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k);

// ---- Single-lane kernels (trajectory noise on a k-wide state) --------------
// Touch exactly ONE lane of the SoA buffer, leaving every other lane's
// bits untouched. The k-wide noisy-trajectory path needs these: gates
// and Kraus branch applications are lane-uniform or per-lane-batched,
// but a depolarizing hit injects a Pauli into a single trajectory's
// lane. The per-lane arithmetic is the single-state scalar reference
// (swaps, negations and +-i rotations), so lane `lane` after a call is
// bit-identical to the scalar state after the matching apply_pauli_*.
// Strided single-lane access has no SIMD form; all modes share the
// portable loop.

void lane_apply_pauli_x(cplx* amps, std::size_t dim, std::size_t stride,
                        std::size_t k, std::size_t lane);
void lane_apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride,
                        std::size_t k, std::size_t lane);
void lane_apply_pauli_z(cplx* amps, std::size_t dim, std::size_t stride,
                        std::size_t k, std::size_t lane);

// ---- Trajectory-noise weight and renormalization kernels -------------------
// The per-gate relaxation step of a noisy trajectory is dominated not by
// the gate butterflies but by the Born weight pass ||K_i |psi>||^2 per
// Kraus branch and the renormalization that follows the sampled branch.
// These kernels give that inner loop the same dispatch treatment as the
// gates above.
//
// Weight reference arithmetic (one 2x2 branch m, row-major, uniform
// across lanes -- candidate branches are lane-invariant, only the
// SAMPLED branch differs per lane): one accumulator per state receives,
// per (base, off) row pair in the blocked order,
//   w += |m00*a0 + m01*a1|^2 + |m10*a0 + m11*a1|^2
// with every complex product expanded to real mul/add (no __muldc3
// libcalls). Matrices with structural zeros (the relaxation channels'
// Kraus operators are real diagonal or real anti-diagonal) take
// shortcut forms that drop the all-zero products -- exact zeros, inside
// the sign-of-zeros caveat above, and the weights are sums of squares
// so not even a zero sign can change. The scalar and k-wide forms share
// the per-element expression tree AND the shortcut classification, so
// lane L of the batched pass is bit-identical to the scalar pass on
// state L.

/// ||m |psi>||^2 on the stride-`stride` qubit of one state.
double kraus_weight(const cplx* amps, std::size_t dim, std::size_t stride,
                    const cplx* m);

/// k-wide weight pass: w[l] = ||m |psi_l>||^2 for each lane.
void batched_kraus_weight(const cplx* amps, std::size_t dim,
                          std::size_t stride, std::size_t k, const cplx* m,
                          double* w);

/// Per-lane squared norms: sums[l] receives Statevector::norm_squared's
/// accumulation chain (std::norm terms, row ascending) for lane l.
/// `sums` must hold k doubles.
void batched_norms(const cplx* amps, std::size_t dim, std::size_t k,
                   double* sums);

/// row[l] *= scale[l] for every row of a k-wide buffer: the per-lane
/// renormalization scaling pass (complex times real, elementwise).
void batched_scale(cplx* amps, std::size_t dim, std::size_t k,
                   const double* scale);

namespace detail {

/// Function table for one SIMD ISA. Entries may be null (kernel has no
/// ISA-specific form; the portable blocked loop is used instead).
struct SimdVTable {
  const char* name = nullptr;
  void (*apply_1q)(cplx*, std::size_t, std::size_t, const cplx*) = nullptr;
  void (*apply_2q)(cplx*, std::size_t, std::size_t, std::size_t,
                   const cplx*) = nullptr;
  void (*apply_diag_1q)(cplx*, std::size_t, std::size_t, cplx,
                        cplx) = nullptr;
  void (*apply_diag_2q)(cplx*, std::size_t, std::size_t, std::size_t,
                        const cplx*) = nullptr;
  void (*apply_pauli_y)(cplx*, std::size_t, std::size_t) = nullptr;
  // Evaluation-major forms (k lanes, entry-major matrices). Null entries
  // fall back to the portable per-lane loops.
  void (*batched_apply_1q)(cplx*, std::size_t, std::size_t, std::size_t,
                           const cplx*) = nullptr;
  void (*batched_apply_2q)(cplx*, std::size_t, std::size_t, std::size_t,
                           std::size_t, const cplx*) = nullptr;
  void (*batched_apply_diag_1q)(cplx*, std::size_t, std::size_t, std::size_t,
                                const cplx*) = nullptr;
  void (*batched_apply_diag_2q)(cplx*, std::size_t, std::size_t, std::size_t,
                                std::size_t, const cplx*) = nullptr;
  void (*batched_apply_fused)(cplx*, std::size_t, const BatchedDiagOp*,
                              std::size_t, const BatchedPairOp*, std::size_t,
                              std::size_t) = nullptr;
  void (*batched_apply_pauli_y)(cplx*, std::size_t, std::size_t,
                                std::size_t) = nullptr;
  void (*batched_kraus_weight)(const cplx*, std::size_t, std::size_t,
                               std::size_t, const cplx*, double*) = nullptr;
  void (*batched_norms)(const cplx*, std::size_t, std::size_t,
                        double*) = nullptr;
  void (*batched_scale)(cplx*, std::size_t, std::size_t,
                        const double*) = nullptr;
};

/// Defined in kernels_avx2.cpp: the AVX2 table when that TU was built
/// with -mavx2, nullptr otherwise. Runtime CPU support is checked by the
/// dispatcher, not here.
const SimdVTable* avx2_vtable();

}  // namespace detail

}  // namespace qoc::sim::kernels
