// AVX2 statevector kernels. CMake compiles this TU with -mavx2 (and
// -ffp-contract=off) when the compiler supports it; without __AVX2__ the
// file contributes only a null vtable, and the dispatcher falls back to
// the portable blocked loops.
//
// Every vector expression mirrors the scalar reference arithmetic
// operation-for-operation: complex products expand to mul/mul/addsub
// (never FMA), and sums keep the reference's left-to-right association.
// Only independent amplitude groups are batched into lanes, so results
// are bit-identical to KernelMode::Scalar (see kernels.hpp).

#include "qoc/sim/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

namespace qoc::sim::kernels {
namespace {

/// Per-lane complex product a*b of two packed [re, im, re, im] vectors.
/// Lane arithmetic: re = a.re*b.re - a.im*b.im; im = a.im*b.re + a.re*b.im
/// -- the scalar operator* products and sum order, commuted per factor
/// (IEEE mul/add are commutative bitwise for finite values).
inline __m256d cmul(__m256d a, __m256d b) {
  const __m256d b_re = _mm256_movedup_pd(b);       // [b.re, b.re] per lane
  const __m256d b_im = _mm256_permute_pd(b, 0xF);  // [b.im, b.im] per lane
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);  // [a.im, a.re] per lane
  return _mm256_addsub_pd(_mm256_mul_pd(a, b_re), _mm256_mul_pd(a_sw, b_im));
}

/// One complex scalar broadcast to both lanes.
inline __m256d bcast(const cplx* p) {
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(p));
}

/// Two complex scalars packed as [lo | hi].
inline __m256d pack2(const cplx* lo, const cplx* hi) {
  return _mm256_set_m128d(_mm_loadu_pd(reinterpret_cast<const double*>(hi)),
                          _mm_loadu_pd(reinterpret_cast<const double*>(lo)));
}

inline __m256d load2(const cplx* p) {
  return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
}

inline void store2(cplx* p, __m256d v) {
  _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
}

inline __m256d dup_lo(__m256d v) { return _mm256_permute2f128_pd(v, v, 0x00); }
inline __m256d dup_hi(__m256d v) { return _mm256_permute2f128_pd(v, v, 0x11); }

/// cmul with the second factor pre-split into [re, re] / [im, im]
/// vectors and the swapped first factor supplied by the caller. This is
/// cmul(a, b) expression-for-expression -- the b shuffles just run once
/// per kernel call and the a swap once per amplitude vector instead of
/// once per product -- so results are bit-identical; it exists because
/// the expanded form saturates the shuffle port in the evaluation-major
/// kernels, where one amplitude vector meets several matrix entries.
inline __m256d cmul_pre(__m256d a, __m256d a_sw, __m256d b_re, __m256d b_im) {
  return _mm256_addsub_pd(_mm256_mul_pd(a, b_re), _mm256_mul_pd(a_sw, b_im));
}

inline __m256d swap_ri(__m256d a) { return _mm256_permute_pd(a, 0x5); }

// Widest lane-pair count of a batched kernel (BatchedStatevector::kMaxLanes
// / 2): sizes the per-call pre-split entry tables.
constexpr std::size_t kMaxLp = 16;

// True when every entry's imaginary part is (+/-)0 -- gates whose
// complex products reduce to componentwise scaling (ry, h). The dense
// kernels use this to pick real-matrix butterflies; the dropped
// im-part products are exact zeros, so only zero signs can change
// (see kernels.hpp).
inline bool entries_real(const cplx* m, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (m[i].imag() != 0.0) return false;
  return true;
}

/// Pre-split one entry-major lane row (d[e * k + lane], lane pair l)
/// into its re/im broadcast halves.
inline void split_entry(const cplx* d, std::size_t l, __m256d& re,
                        __m256d& im) {
  const __m256d v = load2(d + l);
  re = _mm256_movedup_pd(v);
  im = _mm256_permute_pd(v, 0xF);
}

void avx2_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                   const cplx* m) {
  if (stride == 1) {
    // Lowest qubit: each 32-byte load holds one full (a0, a1) group.
    const __m256d c0 = pack2(&m[0], &m[2]);  // [m00 | m10]
    const __m256d c1 = pack2(&m[1], &m[3]);  // [m01 | m11]
    for (std::size_t base = 0; base < dim; base += 2) {
      const __m256d v = load2(amps + base);
      const __m256d r =
          _mm256_add_pd(cmul(dup_lo(v), c0), cmul(dup_hi(v), c1));
      store2(amps + base, r);
    }
    return;
  }
  const __m256d m00 = bcast(&m[0]), m01 = bcast(&m[1]);
  const __m256d m10 = bcast(&m[2]), m11 = bcast(&m[3]);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; off += 2) {
      cplx* p0 = amps + base + off;
      cplx* p1 = p0 + stride;
      const __m256d a0 = load2(p0);
      const __m256d a1 = load2(p1);
      store2(p0, _mm256_add_pd(cmul(a0, m00), cmul(a1, m01)));
      store2(p1, _mm256_add_pd(cmul(a0, m10), cmul(a1, m11)));
    }
  }
}

void avx2_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
                   std::size_t sb, const cplx* m) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);

  if (s1 == 1) {
    // One operand is the lowest qubit: each group is two adjacent pairs
    // at i and i + s2. Pair memory order depends on which operand has
    // stride 1 (sb == 1: pairs are (a00,a01)/(a10,a11); sa == 1:
    // (a00,a10)/(a01,a11)). Row/column packing below follows that map.
    const bool b_low = (sb == 1);
    const int p0r0 = 0, p0r1 = b_low ? 1 : 2;
    const int p1r0 = b_low ? 2 : 1, p1r1 = 3;
    __m256d m_p0[4], m_p1[4];  // per-column matrix entries for each pair
    for (int c = 0; c < 4; ++c) {
      m_p0[c] = pack2(&m[p0r0 * 4 + c], &m[p0r1 * 4 + c]);
      m_p1[c] = pack2(&m[p1r0 * 4 + c], &m[p1r1 * 4 + c]);
    }
    for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
      for (std::size_t i = b2; i < b2 + s2; i += 2) {
        const __m256d pair0 = load2(amps + i);
        const __m256d pair1 = load2(amps + i + s2);
        // Column amplitudes broadcast to both lanes, in matrix order.
        const __m256d a0 = dup_lo(pair0);
        const __m256d a1 = b_low ? dup_hi(pair0) : dup_lo(pair1);
        const __m256d a2 = b_low ? dup_lo(pair1) : dup_hi(pair0);
        const __m256d a3 = dup_hi(pair1);
        const __m256d r0 = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_add_pd(cmul(a0, m_p0[0]), cmul(a1, m_p0[1])),
                cmul(a2, m_p0[2])),
            cmul(a3, m_p0[3]));
        const __m256d r1 = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_add_pd(cmul(a0, m_p1[0]), cmul(a1, m_p1[1])),
                cmul(a2, m_p1[2])),
            cmul(a3, m_p1[3]));
        store2(amps + i, r0);
        store2(amps + i + s2, r1);
      }
    }
    return;
  }

  __m256d mm[16];
  for (int e = 0; e < 16; ++e) mm[e] = bcast(&m[e]);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      for (std::size_t i = b1; i < b1 + s1; i += 2) {
        cplx* p00 = amps + i;
        cplx* p01 = amps + i + sb;
        cplx* p10 = amps + i + sa;
        cplx* p11 = amps + i + sa + sb;
        const __m256d a00 = load2(p00), a01 = load2(p01);
        const __m256d a10 = load2(p10), a11 = load2(p11);
        store2(p00, _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(cmul(a00, mm[0]), cmul(a01, mm[1])),
                            cmul(a10, mm[2])),
                        cmul(a11, mm[3])));
        store2(p01, _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(cmul(a00, mm[4]), cmul(a01, mm[5])),
                            cmul(a10, mm[6])),
                        cmul(a11, mm[7])));
        store2(p10, _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(cmul(a00, mm[8]), cmul(a01, mm[9])),
                            cmul(a10, mm[10])),
                        cmul(a11, mm[11])));
        store2(p11,
               _mm256_add_pd(
                   _mm256_add_pd(
                       _mm256_add_pd(cmul(a00, mm[12]), cmul(a01, mm[13])),
                       cmul(a10, mm[14])),
                   cmul(a11, mm[15])));
      }
    }
  }
}

void avx2_apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride,
                        cplx d0, cplx d1) {
  if (stride == 1) {
    const __m256d d01 = pack2(&d0, &d1);
    for (std::size_t base = 0; base < dim; base += 2)
      store2(amps + base, cmul(load2(amps + base), d01));
    return;
  }
  const __m256d v0 = bcast(&d0), v1 = bcast(&d1);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; i += 2)
      store2(amps + i, cmul(load2(amps + i), v0));
    for (std::size_t i = base + stride; i < base + 2 * stride; i += 2)
      store2(amps + i, cmul(load2(amps + i), v1));
  }
}

void avx2_apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                        std::size_t sb, const cplx* d) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  if (s1 == 1) {
    const bool b_low = (sb == 1);
    const __m256d p0d = b_low ? pack2(&d[0], &d[1]) : pack2(&d[0], &d[2]);
    const __m256d p1d = b_low ? pack2(&d[2], &d[3]) : pack2(&d[1], &d[3]);
    for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
      for (std::size_t i = b2; i < b2 + s2; i += 2) {
        store2(amps + i, cmul(load2(amps + i), p0d));
        store2(amps + i + s2, cmul(load2(amps + i + s2), p1d));
      }
    }
    return;
  }
  const __m256d v0 = bcast(&d[0]), v1 = bcast(&d[1]);
  const __m256d v2 = bcast(&d[2]), v3 = bcast(&d[3]);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      for (std::size_t i = b1; i < b1 + s1; i += 2)
        store2(amps + i, cmul(load2(amps + i), v0));
      for (std::size_t i = b1 + sb; i < b1 + sb + s1; i += 2)
        store2(amps + i, cmul(load2(amps + i), v1));
      for (std::size_t i = b1 + sa; i < b1 + sa + s1; i += 2)
        store2(amps + i, cmul(load2(amps + i), v2));
      for (std::size_t i = b1 + sa + sb; i < b1 + sa + sb + s1; i += 2)
        store2(amps + i, cmul(load2(amps + i), v3));
    }
  }
}

void avx2_apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride) {
  const cplx neg_i{0.0, -1.0};
  const cplx pos_i{0.0, 1.0};
  if (stride == 1) {
    // out = [-i*a1, i*a0]: swap the halves, multiply by [-i | i].
    const __m256d f = pack2(&neg_i, &pos_i);
    for (std::size_t base = 0; base < dim; base += 2) {
      const __m256d v = load2(amps + base);
      store2(amps + base,
             cmul(_mm256_permute2f128_pd(v, v, 0x01), f));
    }
    return;
  }
  const __m256d vneg = bcast(&neg_i), vpos = bcast(&pos_i);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; off += 2) {
      cplx* p0 = amps + base + off;
      cplx* p1 = p0 + stride;
      const __m256d a0 = load2(p0);
      const __m256d a1 = load2(p1);
      store2(p0, cmul(a1, vneg));
      store2(p1, cmul(a0, vpos));
    }
  }
}

// ---- Evaluation-major (batched) forms --------------------------------------
// Rows are k lanes contiguous (k even), so every kernel walks the lane
// axis two complex lanes per register -- no stride-1 special cases
// needed, and per-lane matrix entries are plain vector loads from the
// entry-major buffer (m[e * k + lane]). The arithmetic per lane matches
// the scalar reference exactly as above (cmul commuted per factor).

void avx2_batched_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k, const cplx* m) {
  // Matrix entries split into re/im halves once per call; the row loop
  // then spends its shuffle budget on one swap per amplitude vector.
  // All-real matrices (per-lane RY columns, picked relaxation Kraus
  // branches) take the real-butterfly path -- componentwise scaling, as
  // in the pair kernels; the dropped im-part products are exact zeros,
  // so only zero signs can change (see kernels.hpp).
  __m256d re[4][kMaxLp], im[4][kMaxLp];
  const std::size_t lp = k / 2;
  for (int e = 0; e < 4; ++e)
    for (std::size_t l = 0; l < lp; ++l)
      split_entry(m + static_cast<std::size_t>(e) * k, 2 * l, re[e][l],
                  im[e][l]);
  const __m256d sign = _mm256_set1_pd(-0.0);
  if (entries_real(m, 4 * k)) {
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
      for (std::size_t off = 0; off < stride; ++off) {
        cplx* p0 = amps + (base + off) * k;
        cplx* p1 = p0 + stride * k;
        for (std::size_t l = 0; l < lp; ++l) {
          const __m256d a0 = load2(p0 + 2 * l);
          const __m256d a1 = load2(p1 + 2 * l);
          const __m256d mag = _mm256_andnot_pd(sign, _mm256_or_pd(a0, a1));
          if (_mm256_testz_si256(_mm256_castpd_si256(mag),
                                 _mm256_castpd_si256(mag)))
            continue;
          store2(p0 + 2 * l, _mm256_add_pd(_mm256_mul_pd(a0, re[0][l]),
                                           _mm256_mul_pd(a1, re[1][l])));
          store2(p1 + 2 * l, _mm256_add_pd(_mm256_mul_pd(a0, re[2][l]),
                                           _mm256_mul_pd(a1, re[3][l])));
        }
      }
    }
    return;
  }
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      cplx* p0 = amps + (base + off) * k;
      cplx* p1 = p0 + stride * k;
      for (std::size_t l = 0; l < lp; ++l) {
        const __m256d a0 = load2(p0 + 2 * l);
        const __m256d a1 = load2(p1 + 2 * l);
        // All-zero pair block: the butterfly would only write (+/-)0
        // back; leave the zeros that are already there (see kernels.hpp
        // on the zero-sign caveat).
        const __m256d mag = _mm256_andnot_pd(sign, _mm256_or_pd(a0, a1));
        if (_mm256_testz_si256(_mm256_castpd_si256(mag),
                               _mm256_castpd_si256(mag)))
          continue;
        const __m256d a0s = swap_ri(a0);
        const __m256d a1s = swap_ri(a1);
        store2(p0 + 2 * l,
               _mm256_add_pd(cmul_pre(a0, a0s, re[0][l], im[0][l]),
                             cmul_pre(a1, a1s, re[1][l], im[1][l])));
        store2(p1 + 2 * l,
               _mm256_add_pd(cmul_pre(a0, a0s, re[2][l], im[2][l]),
                             cmul_pre(a1, a1s, re[3][l], im[3][l])));
      }
    }
  }
}

void avx2_batched_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
                           std::size_t sb, std::size_t k, const cplx* m) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      for (std::size_t i = b1; i < b1 + s1; ++i) {
        cplx* p00 = amps + i * k;
        cplx* p01 = amps + (i + sb) * k;
        cplx* p10 = amps + (i + sa) * k;
        cplx* p11 = amps + (i + sa + sb) * k;
        for (std::size_t l = 0; l < k; l += 2) {
          const __m256d a00 = load2(p00 + l), a01 = load2(p01 + l);
          const __m256d a10 = load2(p10 + l), a11 = load2(p11 + l);
          store2(p00 + l,
                 _mm256_add_pd(
                     _mm256_add_pd(
                         _mm256_add_pd(cmul(a00, load2(m + 0 * k + l)),
                                       cmul(a01, load2(m + 1 * k + l))),
                         cmul(a10, load2(m + 2 * k + l))),
                     cmul(a11, load2(m + 3 * k + l))));
          store2(p01 + l,
                 _mm256_add_pd(
                     _mm256_add_pd(
                         _mm256_add_pd(cmul(a00, load2(m + 4 * k + l)),
                                       cmul(a01, load2(m + 5 * k + l))),
                         cmul(a10, load2(m + 6 * k + l))),
                     cmul(a11, load2(m + 7 * k + l))));
          store2(p10 + l,
                 _mm256_add_pd(
                     _mm256_add_pd(
                         _mm256_add_pd(cmul(a00, load2(m + 8 * k + l)),
                                       cmul(a01, load2(m + 9 * k + l))),
                         cmul(a10, load2(m + 10 * k + l))),
                     cmul(a11, load2(m + 11 * k + l))));
          store2(p11 + l,
                 _mm256_add_pd(
                     _mm256_add_pd(
                         _mm256_add_pd(cmul(a00, load2(m + 12 * k + l)),
                                       cmul(a01, load2(m + 13 * k + l))),
                         cmul(a10, load2(m + 14 * k + l))),
                     cmul(a11, load2(m + 15 * k + l))));
        }
      }
    }
  }
}

void avx2_batched_apply_diag_1q(cplx* amps, std::size_t dim,
                                std::size_t stride, std::size_t k,
                                const cplx* d) {
  __m256d re[2][kMaxLp], im[2][kMaxLp];
  const std::size_t lp = k / 2;
  for (int e = 0; e < 2; ++e)
    for (std::size_t l = 0; l < lp; ++l)
      split_entry(d + static_cast<std::size_t>(e) * k, 2 * l, re[e][l],
                  im[e][l]);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; ++i) {
      cplx* p = amps + i * k;
      for (std::size_t l = 0; l < lp; ++l) {
        const __m256d a = load2(p + 2 * l);
        store2(p + 2 * l, cmul_pre(a, swap_ri(a), re[0][l], im[0][l]));
      }
    }
    for (std::size_t i = base + stride; i < base + 2 * stride; ++i) {
      cplx* p = amps + i * k;
      for (std::size_t l = 0; l < lp; ++l) {
        const __m256d a = load2(p + 2 * l);
        store2(p + 2 * l, cmul_pre(a, swap_ri(a), re[1][l], im[1][l]));
      }
    }
  }
}

void avx2_batched_apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                                std::size_t sb, std::size_t k,
                                const cplx* d) {
  __m256d re[4][kMaxLp], im[4][kMaxLp];
  const std::size_t lp = k / 2;
  for (int e = 0; e < 4; ++e)
    for (std::size_t l = 0; l < lp; ++l)
      split_entry(d + static_cast<std::size_t>(e) * k, 2 * l, re[e][l],
                  im[e][l]);
  const auto sweep = [&](std::size_t lo, std::size_t hi, int e) {
    for (std::size_t i = lo; i < hi; ++i) {
      cplx* p = amps + i * k;
      for (std::size_t l = 0; l < lp; ++l) {
        const __m256d a = load2(p + 2 * l);
        store2(p + 2 * l, cmul_pre(a, swap_ri(a), re[e][l], im[e][l]));
      }
    }
  };
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      sweep(b1, b1 + s1, 0);
      sweep(b1 + sb, b1 + sb + s1, 1);
      sweep(b1 + sa, b1 + sa + s1, 2);
      sweep(b1 + sa + sb, b1 + sa + sb + s1, 3);
    }
  }
}

void avx2_batched_apply_pauli_y(cplx* amps, std::size_t dim,
                                std::size_t stride, std::size_t k) {
  const cplx neg_i{0.0, -1.0};
  const cplx pos_i{0.0, 1.0};
  const __m256d vneg = bcast(&neg_i), vpos = bcast(&pos_i);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      cplx* p0 = amps + (base + off) * k;
      cplx* p1 = p0 + stride * k;
      for (std::size_t l = 0; l < k; l += 2) {
        const __m256d a0 = load2(p0 + l);
        const __m256d a1 = load2(p1 + l);
        store2(p0 + l, cmul(a1, vneg));
        store2(p1 + l, cmul(a0, vpos));
      }
    }
  }
}

// ---- Fused layer (batched_apply_fused) -------------------------------------
// One copy of each piece: the diagonal chain (pre-split entries, per-row
// entry selection), the dense pair butterfly (real or complex) and the
// 4-row block walk that feeds the chain into the butterfly. The
// diagonal-only pass, the weld and the tiled pair run are compositions
// of these. Per amplitude every form performs the operation sequence of
// the separate per-gate passes, so results stay bit-identical.

/// A step's diagonal chain: every op's entries pre-split into re/im
/// halves once per call (layout [op][entry][lane pair][re|im]).
struct DiagChain {
  DiagChain(const BatchedDiagOp* o, std::size_t n, std::size_t k)
      : ops(o), count(n), lp(k / 2), pre(n * 4 * lp * 2) {
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t entries = ops[r].sb != 0 ? 4 : 2;
      for (std::size_t e = 0; e < entries; ++e)
        for (std::size_t l = 0; l < lp; ++l) {
          __m256d* slot = pre.data() + ((r * 4 + e) * lp + l) * 2;
          split_entry(ops[r].d + e * k, 2 * l, slot[0], slot[1]);
        }
    }
  }

  /// Offset in `pre` of op r's entry for row i (lane pair 0).
  std::size_t entry(std::size_t i, std::size_t r) const {
    const BatchedDiagOp& op = ops[r];
    std::size_t e = (i & op.sa) ? 1 : 0;
    if (op.sb != 0) e = 2 * e + ((i & op.sb) ? 1 : 0);
    return (r * 4 + e) * lp * 2;
  }

  const BatchedDiagOp* ops;
  std::size_t count;
  std::size_t lp;
  std::vector<__m256d> pre;
};

/// The diagonal-only pass: row-sequential, each amplitude chains its
/// products in registers, two rows interleaved -- one amplitude's chain
/// is serial by construction, so the second row's chain is what keeps
/// the multiply units busy during each step's latency.
void diag_rows(cplx* amps, std::size_t dim, std::size_t k,
               const DiagChain& chain) {
  std::size_t e0[kMaxDiagRun], e1[kMaxDiagRun];
  for (std::size_t i = 0; i < dim; i += 2) {
    for (std::size_t r = 0; r < chain.count; ++r) {
      e0[r] = chain.entry(i, r);
      e1[r] = chain.entry(i + 1, r);
    }
    cplx* p0 = amps + i * k;
    cplx* p1 = p0 + k;
    for (std::size_t l = 0; l < chain.lp; ++l) {
      __m256d a0 = load2(p0 + 2 * l);
      __m256d a1 = load2(p1 + 2 * l);
      for (std::size_t r = 0; r < chain.count; ++r) {
        const __m256d* d0 = chain.pre.data() + e0[r] + 2 * l;
        const __m256d* d1 = chain.pre.data() + e1[r] + 2 * l;
        a0 = cmul_pre(a0, swap_ri(a0), d0[0], d0[1]);
        a1 = cmul_pre(a1, swap_ri(a1), d1[0], d1[1]);
      }
      store2(p0 + 2 * l, a0);
      store2(p1 + 2 * l, a1);
    }
  }
}

/// One dense pair's matrices, pre-split per lane pair. `real` selects
/// the real-matrix butterflies: both gate matrices purely real
/// (rotation layers: ry, h), so each component just scales -- the
/// dropped im-part products are exact zeros whose only effect is the
/// sign of zero results (see kernels.hpp), at less than half the vector
/// ops of the complex form.
struct PairMatrices {
  __m256d rea[4][kMaxLp], ima[4][kMaxLp], reb[4][kMaxLp], imb[4][kMaxLp];
  std::size_t sa, sb;
  bool real;
};

void split_pair(const BatchedPairOp& p, std::size_t k, PairMatrices& out) {
  for (int e = 0; e < 4; ++e) {
    for (std::size_t l = 0; l < k / 2; ++l) {
      split_entry(p.m_a + static_cast<std::size_t>(e) * k, 2 * l,
                  out.rea[e][l], out.ima[e][l]);
      split_entry(p.m_b + static_cast<std::size_t>(e) * k, 2 * l,
                  out.reb[e][l], out.imb[e][l]);
    }
  }
  out.sa = p.sa;
  out.sb = p.sb;
  out.real = entries_real(p.m_a, 4 * k) && entries_real(p.m_b, 4 * k);
}

/// x * m[e] + y * m[e + 1] for lane pair l (xs, ys: swapped x, y).
template <bool kReal>
[[gnu::always_inline]] inline __m256d mac2(__m256d x, __m256d xs, __m256d y,
                                           __m256d ys,
                                           const __m256d (&re)[4][kMaxLp],
                                           const __m256d (&im)[4][kMaxLp],
                                           int e, std::size_t l) {
  if constexpr (kReal)
    return _mm256_add_pd(_mm256_mul_pd(x, re[e][l]),
                         _mm256_mul_pd(y, re[e + 1][l]));
  else
    return _mm256_add_pd(cmul_pre(x, xs, re[e][l], im[e][l]),
                         cmul_pre(y, ys, re[e + 1][l], im[e + 1][l]));
}

/// The pair butterfly over one 4-row block, lane pair l: gate A on the
/// stride-sa pairs (a00, a10) and (a01, a11), then gate B on the
/// stride-sb pairs (b00, b01) and (b10, b11), results stored at p**.
template <bool kReal>
[[gnu::always_inline]] inline void pair_butterfly(
    const PairMatrices& m, std::size_t l, __m256d a00, __m256d a01,
    __m256d a10, __m256d a11, cplx* p00, cplx* p01, cplx* p10, cplx* p11) {
  const __m256d a00s = swap_ri(a00), a01s = swap_ri(a01);
  const __m256d a10s = swap_ri(a10), a11s = swap_ri(a11);
  const __m256d b00 = mac2<kReal>(a00, a00s, a10, a10s, m.rea, m.ima, 0, l);
  const __m256d b10 = mac2<kReal>(a00, a00s, a10, a10s, m.rea, m.ima, 2, l);
  const __m256d b01 = mac2<kReal>(a01, a01s, a11, a11s, m.rea, m.ima, 0, l);
  const __m256d b11 = mac2<kReal>(a01, a01s, a11, a11s, m.rea, m.ima, 2, l);
  const __m256d b00s = swap_ri(b00), b01s = swap_ri(b01);
  const __m256d b10s = swap_ri(b10), b11s = swap_ri(b11);
  store2(p00 + 2 * l, mac2<kReal>(b00, b00s, b01, b01s, m.reb, m.imb, 0, l));
  store2(p01 + 2 * l, mac2<kReal>(b00, b00s, b01, b01s, m.reb, m.imb, 2, l));
  store2(p10 + 2 * l, mac2<kReal>(b10, b10s, b11, b11s, m.reb, m.imb, 0, l));
  store2(p11 + 2 * l, mac2<kReal>(b10, b10s, b11, b11s, m.reb, m.imb, 2, l));
}

/// One pair's pass over the 4-row blocks in rows [row0, row1) (block
/// aligned). With kDiag, `chain` runs on each block's amplitudes first
/// and feeds straight into the butterflies: the weld. All-zero blocks
/// are skipped -- the chain and both butterflies would only write
/// (+/-)0 back (see kernels.hpp on the zero-sign caveat); on |0...0>
/// the first layer's support grows 4x per pair pass, so its early
/// passes touch almost nothing.
template <bool kReal, bool kDiag>
void sweep_pair(cplx* amps, std::size_t k, const PairMatrices& m,
                std::size_t row0, std::size_t row1, const DiagChain* chain) {
  const std::size_t sa = m.sa;
  const std::size_t sb = m.sb;
  const std::size_t hi = sa > sb ? sa : sb;
  const std::size_t lo = sa > sb ? sb : sa;
  const __m256d sign = _mm256_set1_pd(-0.0);
  std::size_t e00[kDiag ? kMaxDiagRun : 1], e01[kDiag ? kMaxDiagRun : 1];
  std::size_t e10[kDiag ? kMaxDiagRun : 1], e11[kDiag ? kMaxDiagRun : 1];
  for (std::size_t base = row0; base < row1; base += 2 * hi) {
    for (std::size_t mid = base; mid < base + hi; mid += 2 * lo) {
      for (std::size_t off = 0; off < lo; ++off) {
        const std::size_t i00 = mid + off;
        if constexpr (kDiag) {
          for (std::size_t r = 0; r < chain->count; ++r) {
            e00[r] = chain->entry(i00, r);
            e01[r] = chain->entry(i00 + sb, r);
            e10[r] = chain->entry(i00 + sa, r);
            e11[r] = chain->entry(i00 + sa + sb, r);
          }
        }
        cplx* p00 = amps + i00 * k;
        cplx* p01 = p00 + sb * k;
        cplx* p10 = p00 + sa * k;
        cplx* p11 = p10 + sb * k;
        for (std::size_t l = 0; l < k / 2; ++l) {
          __m256d a00 = load2(p00 + 2 * l);
          __m256d a01 = load2(p01 + 2 * l);
          __m256d a10 = load2(p10 + 2 * l);
          __m256d a11 = load2(p11 + 2 * l);
          const __m256d mag = _mm256_andnot_pd(
              sign, _mm256_or_pd(_mm256_or_pd(a00, a01),
                                 _mm256_or_pd(a10, a11)));
          if (_mm256_testz_si256(_mm256_castpd_si256(mag),
                                 _mm256_castpd_si256(mag)))
            continue;
          if constexpr (kDiag) {
            // Four independent chains in flight, as in diag_rows.
            for (std::size_t r = 0; r < chain->count; ++r) {
              const __m256d* d00 = chain->pre.data() + e00[r] + 2 * l;
              const __m256d* d01 = chain->pre.data() + e01[r] + 2 * l;
              const __m256d* d10 = chain->pre.data() + e10[r] + 2 * l;
              const __m256d* d11 = chain->pre.data() + e11[r] + 2 * l;
              a00 = cmul_pre(a00, swap_ri(a00), d00[0], d00[1]);
              a01 = cmul_pre(a01, swap_ri(a01), d01[0], d01[1]);
              a10 = cmul_pre(a10, swap_ri(a10), d10[0], d10[1]);
              a11 = cmul_pre(a11, swap_ri(a11), d11[0], d11[1]);
            }
          }
          pair_butterfly<kReal>(m, l, a00, a01, a10, a11, p00, p01, p10, p11);
        }
      }
    }
  }
}

void sweep(cplx* amps, std::size_t k, const PairMatrices& m, std::size_t row0,
           std::size_t row1, const DiagChain* chain) {
  if (chain != nullptr) {
    if (m.real)
      sweep_pair<true, true>(amps, k, m, row0, row1, chain);
    else
      sweep_pair<false, true>(amps, k, m, row0, row1, chain);
  } else if (m.real) {
    sweep_pair<true, false>(amps, k, m, row0, row1, nullptr);
  } else {
    sweep_pair<false, false>(amps, k, m, row0, row1, nullptr);
  }
}

void avx2_batched_apply_fused(cplx* amps, std::size_t dim,
                              const BatchedDiagOp* diag, std::size_t nd,
                              const BatchedPairOp* pairs, std::size_t np,
                              std::size_t k) {
  const DiagChain chain(diag, nd, k);
  if (np == 0) {
    diag_rows(amps, dim, k, chain);
    return;
  }
  PairMatrices m[kMaxPairRun + 1];
  for (std::size_t p = 0; p < np; ++p) split_pair(pairs[p], k, m[p]);
  // The weld: the chain rides pairs[0]'s block pass.
  std::size_t first = 0;
  if (nd > 0) sweep(amps, k, m[first++], 0, dim, &chain);
  // The tiled run over the rest: large-span pairs stream the buffer
  // once each; the trailing small-span pairs are cache-blocked -- an
  // aligned tile (<= kPairTileBytes) contains whole 4-row blocks of
  // every one of them, so it takes all their passes while L2-resident.
  // t0 = start of the longest suffix whose spans all fit in one tile.
  const auto span = [&](std::size_t p) {
    return 2 * std::max(m[p].sa, m[p].sb);
  };
  const std::size_t tile_rows = kPairTileBytes / (k * sizeof(cplx));
  std::size_t t0 = np;
  while (t0 > first && span(t0 - 1) <= tile_rows) --t0;
  for (std::size_t p = first; p < t0; ++p)
    sweep(amps, k, m[p], 0, dim, nullptr);
  if (np - t0 >= 2) {
    std::size_t tile = 0;
    for (std::size_t p = t0; p < np; ++p) tile = std::max(tile, span(p));
    for (std::size_t base = 0; base < dim; base += tile)
      for (std::size_t p = t0; p < np; ++p)
        sweep(amps, k, m[p], base, base + tile, nullptr);
  } else if (t0 < np) {
    sweep(amps, k, m[t0], 0, dim, nullptr);
  }
}

// ---- Trajectory-noise weight / renormalization kernels ---------------------
// Per-lane weight and norm accumulator chains must match the portable
// reference exactly. The real (diag / anti-diag) forms and the norm pass
// pack FOUR lanes per accumulator register: hadd of two adjacent
// lane-pair squares collapses each lane's re^2 + im^2 in one op,
// yielding [l0, l2, l1, l3] slot order (unpermuted at extraction), so
// no per-element permute/duplicate work is spent on horizontal
// reduction. Each slot's chain is still term-by-term the scalar sum.
// The dense form and any k % 4 tail pair keep the two-lane scheme: one
// lane pair's sums duplicated per 128-bit half ([w_l0, w_l0, w_l1,
// w_l1]), hadd collapsing per half, the duplicate slot receiving the
// same additions with operands commuted (bitwise-equal sums).
// Structural classification duplicates kernels.cpp's exact-zero tests,
// so both TUs always agree on the shortcut taken.

inline bool kraus_entries_real(const cplx* m) {
  return m[0].imag() == 0.0 && m[1].imag() == 0.0 && m[2].imag() == 0.0 &&
         m[3].imag() == 0.0;
}

void avx2_batched_kraus_weight(const cplx* amps, std::size_t dim,
                               std::size_t stride, std::size_t k,
                               const cplx* m, double* w) {
  const std::size_t lp = k / 2;
  __m256d acc[kMaxLp];
  for (std::size_t l = 0; l < lp; ++l) acc[l] = _mm256_setzero_pd();

  // Quad-lane layout for the real forms: q4 four-lane accumulators in
  // [l0, l2, l1, l3] slot order, plus one duplicated-pair accumulator
  // (at index q4) when k % 4 == 2.
  const std::size_t q4 = k / 4;
  const bool pair_tail = (k % 4) != 0;

  const bool real = kraus_entries_real(m);
  if (real && m[1] == cplx{} && m[2] == cplx{}) {
    // Real diagonal: b0 = m00 * a0, b1 = m11 * a1 componentwise.
    const __m256d m00 = _mm256_set1_pd(m[0].real());
    const __m256d m11 = _mm256_set1_pd(m[3].real());
    for (std::size_t base = 0; base < dim; base += 2 * stride)
      for (std::size_t off = 0; off < stride; ++off) {
        const cplx* r0 = amps + (base + off) * k;
        const cplx* r1 = r0 + stride * k;
        for (std::size_t q = 0; q < q4; ++q) {
          const __m256d b0x = _mm256_mul_pd(load2(r0 + 4 * q), m00);
          const __m256d b0y = _mm256_mul_pd(load2(r0 + 4 * q + 2), m00);
          const __m256d b1x = _mm256_mul_pd(load2(r1 + 4 * q), m11);
          const __m256d b1y = _mm256_mul_pd(load2(r1 + 4 * q + 2), m11);
          const __m256d n0 = _mm256_hadd_pd(_mm256_mul_pd(b0x, b0x),
                                            _mm256_mul_pd(b0y, b0y));
          const __m256d n1 = _mm256_hadd_pd(_mm256_mul_pd(b1x, b1x),
                                            _mm256_mul_pd(b1y, b1y));
          acc[q] = _mm256_add_pd(acc[q], _mm256_add_pd(n0, n1));
        }
        if (pair_tail) {
          const __m256d b0 = _mm256_mul_pd(load2(r0 + 4 * q4), m00);
          const __m256d b1 = _mm256_mul_pd(load2(r1 + 4 * q4), m11);
          const __m256d t0 = _mm256_mul_pd(b0, b0);
          const __m256d t1 = _mm256_mul_pd(b1, b1);
          const __m256d u = _mm256_hadd_pd(t0, t1);
          const __m256d term = _mm256_add_pd(u, _mm256_permute_pd(u, 0x5));
          acc[q4] = _mm256_add_pd(acc[q4], term);
        }
      }
  } else if (real && m[0] == cplx{} && m[2] == cplx{} && m[3] == cplx{}) {
    // Real upper anti-diagonal (amplitude damping): only b0 = m01 * a1.
    const __m256d m01 = _mm256_set1_pd(m[1].real());
    for (std::size_t base = 0; base < dim; base += 2 * stride)
      for (std::size_t off = 0; off < stride; ++off) {
        const cplx* r1 = amps + (base + off + stride) * k;
        for (std::size_t q = 0; q < q4; ++q) {
          const __m256d b0x = _mm256_mul_pd(load2(r1 + 4 * q), m01);
          const __m256d b0y = _mm256_mul_pd(load2(r1 + 4 * q + 2), m01);
          const __m256d n0 = _mm256_hadd_pd(_mm256_mul_pd(b0x, b0x),
                                            _mm256_mul_pd(b0y, b0y));
          acc[q] = _mm256_add_pd(acc[q], n0);
        }
        if (pair_tail) {
          const __m256d b0 = _mm256_mul_pd(load2(r1 + 4 * q4), m01);
          const __m256d t0 = _mm256_mul_pd(b0, b0);
          acc[q4] = _mm256_add_pd(acc[q4], _mm256_hadd_pd(t0, t0));
        }
      }
  } else {
    // Dense 2x2: the full per-element expression, entries pre-split.
    __m256d re[4], im[4];
    for (int e = 0; e < 4; ++e) {
      re[e] = _mm256_set1_pd(m[e].real());
      im[e] = _mm256_set1_pd(m[e].imag());
    }
    for (std::size_t base = 0; base < dim; base += 2 * stride)
      for (std::size_t off = 0; off < stride; ++off) {
        const cplx* r0 = amps + (base + off) * k;
        const cplx* r1 = r0 + stride * k;
        for (std::size_t l = 0; l < lp; ++l) {
          const __m256d a0 = load2(r0 + 2 * l);
          const __m256d a1 = load2(r1 + 2 * l);
          const __m256d a0s = swap_ri(a0);
          const __m256d a1s = swap_ri(a1);
          const __m256d b0 = _mm256_add_pd(cmul_pre(a0, a0s, re[0], im[0]),
                                           cmul_pre(a1, a1s, re[1], im[1]));
          const __m256d b1 = _mm256_add_pd(cmul_pre(a0, a0s, re[2], im[2]),
                                           cmul_pre(a1, a1s, re[3], im[3]));
          const __m256d t0 = _mm256_mul_pd(b0, b0);
          const __m256d t1 = _mm256_mul_pd(b1, b1);
          const __m256d u = _mm256_hadd_pd(t0, t1);
          const __m256d term = _mm256_add_pd(u, _mm256_permute_pd(u, 0x5));
          acc[l] = _mm256_add_pd(acc[l], term);
        }
      }
    // Dense used the two-lane duplicated-pair layout throughout.
    for (std::size_t l = 0; l < lp; ++l) {
      alignas(32) double out[4];
      _mm256_store_pd(out, acc[l]);
      w[2 * l] = out[0];
      w[2 * l + 1] = out[2];
    }
    return;
  }

  // Real forms: unpermute the quad accumulators, then the tail pair.
  for (std::size_t q = 0; q < q4; ++q) {
    alignas(32) double out[4];
    _mm256_store_pd(out, acc[q]);
    w[4 * q] = out[0];
    w[4 * q + 1] = out[2];
    w[4 * q + 2] = out[1];
    w[4 * q + 3] = out[3];
  }
  if (pair_tail) {
    alignas(32) double out[4];
    _mm256_store_pd(out, acc[q4]);
    w[k - 2] = out[0];
    w[k - 1] = out[2];
  }
}

void avx2_batched_norms(const cplx* amps, std::size_t dim, std::size_t k,
                        double* sums) {
  const std::size_t lp = k / 2;
  const std::size_t q4 = k / 4;
  const bool pair_tail = (k % 4) != 0;
  __m256d acc[kMaxLp];
  for (std::size_t l = 0; l < lp; ++l) acc[l] = _mm256_setzero_pd();
  for (std::size_t i = 0; i < dim; ++i) {
    const cplx* row = amps + i * k;
    for (std::size_t q = 0; q < q4; ++q) {
      const __m256d vx = load2(row + 4 * q);
      const __m256d vy = load2(row + 4 * q + 2);
      const __m256d n = _mm256_hadd_pd(_mm256_mul_pd(vx, vx),
                                       _mm256_mul_pd(vy, vy));
      acc[q] = _mm256_add_pd(acc[q], n);
    }
    if (pair_tail) {
      const __m256d v = load2(row + 4 * q4);
      const __m256d t = _mm256_mul_pd(v, v);
      acc[q4] = _mm256_add_pd(acc[q4], _mm256_hadd_pd(t, t));
    }
  }
  for (std::size_t q = 0; q < q4; ++q) {
    alignas(32) double out[4];
    _mm256_store_pd(out, acc[q]);
    sums[4 * q] = out[0];
    sums[4 * q + 1] = out[2];
    sums[4 * q + 2] = out[1];
    sums[4 * q + 3] = out[3];
  }
  if (pair_tail) {
    alignas(32) double out[4];
    _mm256_store_pd(out, acc[q4]);
    sums[k - 2] = out[0];
    sums[k - 1] = out[2];
  }
}

void avx2_batched_scale(cplx* amps, std::size_t dim, std::size_t k,
                        const double* scale) {
  const std::size_t lp = k / 2;
  __m256d sc[kMaxLp];
  for (std::size_t l = 0; l < lp; ++l)
    sc[l] = _mm256_set_pd(scale[2 * l + 1], scale[2 * l + 1], scale[2 * l],
                          scale[2 * l]);
  for (std::size_t i = 0; i < dim; ++i) {
    cplx* row = amps + i * k;
    for (std::size_t l = 0; l < lp; ++l)
      store2(row + 2 * l, _mm256_mul_pd(load2(row + 2 * l), sc[l]));
  }
}

const detail::SimdVTable kAvx2VTable = {
    .name = "avx2",
    .apply_1q = avx2_apply_1q,
    .apply_2q = avx2_apply_2q,
    .apply_diag_1q = avx2_apply_diag_1q,
    .apply_diag_2q = avx2_apply_diag_2q,
    .apply_pauli_y = avx2_apply_pauli_y,
    .batched_apply_1q = avx2_batched_apply_1q,
    .batched_apply_2q = avx2_batched_apply_2q,
    .batched_apply_diag_1q = avx2_batched_apply_diag_1q,
    .batched_apply_diag_2q = avx2_batched_apply_diag_2q,
    .batched_apply_fused = avx2_batched_apply_fused,
    .batched_apply_pauli_y = avx2_batched_apply_pauli_y,
    .batched_kraus_weight = avx2_batched_kraus_weight,
    .batched_norms = avx2_batched_norms,
    .batched_scale = avx2_batched_scale,
};

}  // namespace

namespace detail {
const SimdVTable* avx2_vtable() { return &kAvx2VTable; }
}  // namespace detail

}  // namespace qoc::sim::kernels

#else  // !defined(__AVX2__)

namespace qoc::sim::kernels::detail {
const SimdVTable* avx2_vtable() { return nullptr; }
}  // namespace qoc::sim::kernels::detail

#endif
