// Layer glue: the BatchNorm2d, squeeze-excitation, global-average-pool and
// hard-sigmoid/-swish passes that run between the GEMMs.
//
// Reductions are channel-lane: eight channels (or planes) ride in eight f64
// lanes, each lane carrying exactly the seed's chain — start at 0.0, add
// every element of its channel in (sample, index) order, products formed in
// f64. Four contiguous floats of each of the eight planes are loaded and
// transposed 4x4, so lane k sees its own plane's values in index order.
// Lanes only ever widen across independent chains, never reassociate one,
// so the sums are the seed's bits on every ISA. Channel counts off the lane
// block repeat the last channel's pointer in the spare lanes and drop those
// results; index tails gather one value per lane.
//
// The elementwise maps are the seed expressions with no contraction (the
// clone list in isa.h adds no FMA). Hard-sigmoid is written as
// min(max(v, 0), 1), which is std::clamp's value for every input (NaN and
// -0 included), without the branch that kept the clamp loop scalar; the
// TU's -fno-trapping-math lets those compare-selects if-convert (see
// CMakeLists.txt).
#include <algorithm>

#include "kernels/isa.h"
#include "kernels/kernels.h"

namespace hetero::kernels {
namespace {

typedef float v4f __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));

constexpr std::size_t kLanes = 8;

HS_ALWAYS_INLINE v4f load4(const float* p) {
  v4f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

/// 4x4 transpose: rows r0..r3 (four indices of four planes) become columns
/// c0..c3 (four planes at one index each).
HS_ALWAYS_INLINE void transpose4(v4f r0, v4f r1, v4f r2, v4f r3, v4f& c0,
                                 v4f& c1, v4f& c2, v4f& c3) {
  const v4f t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
  const v4f t1 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
  const v4f t2 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
  const v4f t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
  c0 = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  c1 = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  c2 = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  c3 = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
}

/// Eight planes at index i..i+3, as four columns per half: col[h][j] holds
/// planes 4h..4h+3 at index i+j.
HS_ALWAYS_INLINE void load_columns(const float* const* p, std::size_t i,
                                   v4f col[2][4]) {
  for (std::size_t h = 0; h < 2; ++h) {
    transpose4(load4(p[4 * h] + i), load4(p[4 * h + 1] + i),
               load4(p[4 * h + 2] + i), load4(p[4 * h + 3] + i), col[h][0],
               col[h][1], col[h][2], col[h][3]);
  }
}

/// One index step of every lane chain: sa += a, sab += a * b, in f64.
template <bool kSameAB>
HS_ALWAYS_INLINE void accumulate(v4f a, v4f b, v4d& sa, v4d& sab) {
  const v4d da = __builtin_convertvector(a, v4d);
  sa += da;
  sab += da * (kSameAB ? da : __builtin_convertvector(b, v4d));
}

/// Runs the eight lane chains over one plane per lane (`count` floats from
/// pa[k] and pb[k]), in ascending index order.
template <bool kSameAB>
HS_ALWAYS_INLINE void lane_block(const float* const* pa,
                                 const float* const* pb, std::size_t count,
                                 v4d sa[2], v4d sab[2]) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    v4f ca[2][4], cb[2][4];
    load_columns(pa, i, ca);
    if (!kSameAB) load_columns(pb, i, cb);
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t h = 0; h < 2; ++h) {
        accumulate<kSameAB>(ca[h][j], kSameAB ? ca[h][j] : cb[h][j], sa[h],
                            sab[h]);
      }
    }
  }
  for (; i < count; ++i) {
    for (std::size_t h = 0; h < 2; ++h) {
      const float* const* qa = pa + 4 * h;
      const float* const* qb = pb + 4 * h;
      const v4f a = {qa[0][i], qa[1][i], qa[2][i], qa[3][i]};
      const v4f b = {qb[0][i], qb[1][i], qb[2][i], qb[3][i]};
      accumulate<kSameAB>(a, b, sa[h], sab[h]);
    }
  }
}

template <bool kSameAB>
HS_ALWAYS_INLINE void channel_sums_body(const float* a, const float* b,
                                        std::size_t n, std::size_t c,
                                        std::size_t hw, double* sum_a,
                                        double* sum_ab) {
  for (std::size_t c0 = 0; c0 < c; c0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, c - c0);
    v4d sa[2] = {}, sab[2] = {};
    for (std::size_t s = 0; s < n; ++s) {
      const float* pa[kLanes];
      const float* pb[kLanes];
      for (std::size_t k = 0; k < kLanes; ++k) {
        // Spare lanes re-read the block's last channel; their sums are
        // dropped below.
        const std::size_t off = (s * c + c0 + std::min(k, lanes - 1)) * hw;
        pa[k] = a + off;
        pb[k] = b + off;
      }
      lane_block<kSameAB>(pa, pb, hw, sa, sab);
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      sum_a[c0 + k] = sa[k / 4][k % 4];
      sum_ab[c0 + k] = sab[k / 4][k % 4];
    }
  }
}

HS_TILED_CLONES
void moments_kernel(const float* x, std::size_t n, std::size_t c,
                    std::size_t hw, double* sum, double* sumsq) {
  channel_sums_body<true>(x, x, n, c, hw, sum, sumsq);
}

HS_TILED_CLONES
void sums_kernel(const float* a, const float* b, std::size_t n, std::size_t c,
                 std::size_t hw, double* sum_a, double* sum_ab) {
  channel_sums_body<false>(a, b, n, c, hw, sum_a, sum_ab);
}

/// The seed's hard-sigmoid and its derivative, branch-free.
HS_ALWAYS_INLINE float hsig(float v) {
  return std::min(std::max(v / 6.0f + 0.5f, 0.0f), 1.0f);
}

HS_ALWAYS_INLINE float dhsig(float v) {
  return ((v > -3.0f) & (v < 3.0f)) ? 1.0f / 6.0f : 0.0f;
}

}  // namespace

void channel_sums(const float* a, const float* b, std::size_t n,
                  std::size_t c, std::size_t hw, double* sum_a,
                  double* sum_ab) {
  if (a == b) {
    moments_kernel(a, n, c, hw, sum_a, sum_ab);
  } else {
    sums_kernel(a, b, n, c, hw, sum_a, sum_ab);
  }
}

HS_TILED_CLONES
void bn_normalize_inplace(float* x, float* HS_RESTRICT xhat, std::size_t n,
                          std::size_t c, std::size_t hw, const float* mean,
                          const float* inv, const float* gamma,
                          const float* beta) {
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t off = (s * c + ch) * hw;
      const float m = mean[ch], iv = inv[ch], g = gamma[ch], b = beta[ch];
      float* HS_RESTRICT v = x + off;
      if (xhat != nullptr) {
        float* HS_RESTRICT xh_out = xhat + off;
        for (std::size_t i = 0; i < hw; ++i) {
          const float xh = (v[i] - m) * iv;
          xh_out[i] = xh;
          v[i] = g * xh + b;
        }
      } else {
        for (std::size_t i = 0; i < hw; ++i) v[i] = g * ((v[i] - m) * iv) + b;
      }
    }
  }
}

HS_TILED_CLONES
void bn_input_grad_inplace(float* HS_RESTRICT dy,
                           const float* HS_RESTRICT xhat, std::size_t n,
                           std::size_t c, std::size_t hw, const float* g_inv,
                           const float* k1, const float* k2) {
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t off = (s * c + ch) * hw;
      const float gi = g_inv[ch], a = k1[ch], b = k2[ch];
      for (std::size_t i = 0; i < hw; ++i) {
        dy[off + i] = gi * (dy[off + i] - a - xhat[off + i] * b);
      }
    }
  }
}

HS_TILED_CLONES
void scale_planes(const float* HS_RESTRICT x, const float* s,
                  float* HS_RESTRICT y, std::size_t planes, std::size_t hw) {
  for (std::size_t p = 0; p < planes; ++p) {
    const float g = s[p];
    for (std::size_t i = 0; i < hw; ++i) y[p * hw + i] = x[p * hw + i] * g;
  }
}

HS_TILED_CLONES
void se_input_grad(const float* HS_RESTRICT dy, const float* gate,
                   const float* pooled, float* HS_RESTRICT dx,
                   std::size_t planes, std::size_t hw) {
  for (std::size_t p = 0; p < planes; ++p) {
    const float g = gate[p], add = pooled[p];
    for (std::size_t i = 0; i < hw; ++i) {
      dx[p * hw + i] = dy[p * hw + i] * g + add;
    }
  }
}

HS_TILED_CLONES
void hsigmoid_forward(const float* HS_RESTRICT x, float* HS_RESTRICT y,
                      std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) y[i] = hsig(x[i]);
}

HS_TILED_CLONES
void hsigmoid_backward_inplace(const float* HS_RESTRICT x,
                               float* HS_RESTRICT dy, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) dy[i] = dy[i] * dhsig(x[i]);
}

HS_TILED_CLONES
void hswish_forward(const float* HS_RESTRICT x, float* HS_RESTRICT y,
                    std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) y[i] = x[i] * hsig(x[i]);
}

HS_TILED_CLONES
void hswish_backward_inplace(const float* HS_RESTRICT x,
                             float* HS_RESTRICT dy, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const float v = x[i];
    dy[i] = dy[i] * (hsig(v) + v * dhsig(v));
  }
}

// ------------------------------------------------------ in-place twins --
// The eval-forward forms of the maps above: the same loops and expressions,
// on one pointer.

HS_TILED_CLONES
void scale_planes_inplace(float* HS_RESTRICT x, const float* s,
                          std::size_t planes, std::size_t hw) {
  for (std::size_t p = 0; p < planes; ++p) {
    const float g = s[p];
    for (std::size_t i = 0; i < hw; ++i) x[p * hw + i] = x[p * hw + i] * g;
  }
}

HS_TILED_CLONES
void hsigmoid_forward_inplace(float* x, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) x[i] = hsig(x[i]);
}

HS_TILED_CLONES
void hswish_forward_inplace(float* x, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) x[i] = x[i] * hsig(x[i]);
}

}  // namespace hetero::kernels
