#include "nn/pooling.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/isa.h"
#include "kernels/kernels.h"

namespace hetero {
namespace {

// The model zoo's max pools are all 2x2 stride 2, which deinterleaves
// cleanly: sixteen input floats per row pair produce eight outputs, so the
// window max and the argmax tie-break both vectorize. All comparisons are
// written in the exact expression forms of the scalar path — max as
// (a < b) ? b : a (std::max) and the tie-break as an == select chain — so
// the vector path is bit-identical, including the -0.0/+0.0 cases. The
// clone list (see isa.h) adds no FMA, and max/compare are exact ops, so
// the AVX2 clone cannot drift either.
typedef float v8f __attribute__((vector_size(32)));
typedef int v8i __attribute__((vector_size(32)));

HS_ALWAYS_INLINE v8f load8f(const float* p) {
  v8f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

HS_ALWAYS_INLINE void store8f(float* p, v8f v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

HS_ALWAYS_INLINE void store8i(int* p, v8i v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

/// std::max(a, b) lane-wise: (a < b) ? b : a, same bits for every input.
HS_ALWAYS_INLINE v8f vmax8(v8f a, v8f b) { return a < b ? b : a; }

/// Splits 16 consecutive floats into the even- and odd-index lanes (the
/// left and right columns of eight 2-wide windows).
HS_ALWAYS_INLINE void deinterleave(const float* row, v8f& even, v8f& odd) {
  const v8f lo = load8f(row);
  const v8f hi = load8f(row + 8);
  even = __builtin_shufflevector(lo, hi, 0, 2, 4, 6, 8, 10, 12, 14);
  odd = __builtin_shufflevector(lo, hi, 1, 3, 5, 7, 9, 11, 13, 15);
}

/// Eval-mode 2x2 stride-2 pooling over `planes` (h, w) planes.
HS_TILED_CLONES
void pool2x2_eval(const float* x, float* y, std::size_t planes, std::size_t h,
                  std::size_t w, std::size_t oh, std::size_t ow) {
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane = x + p * h * w;
    float* out = y + p * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* r0 = plane + (2 * oy) * w;
      const float* r1 = r0 + w;
      float* orow = out + oy * ow;
      std::size_t ox = 0;
      for (; ox + 8 <= ow; ox += 8) {
        v8f e0, o0, e1, o1;
        deinterleave(r0 + 2 * ox, e0, o0);
        deinterleave(r1 + 2 * ox, e1, o1);
        store8f(orow + ox, vmax8(vmax8(e0, o0), vmax8(e1, o1)));
      }
      for (; ox < ow; ++ox) {
        const std::size_t ix = 2 * ox;
        orow[ox] = std::max(std::max(r0[ix], r0[ix + 1]),
                            std::max(r1[ix], r1[ix + 1]));
      }
    }
  }
}

/// Train-mode 2x2 stride-2 pooling: window max plus a 2-bit window code
/// (0..3 = top-left, top-right, bottom-left, bottom-right) per output. The
/// code select chain runs in reverse priority order so on ties the earliest
/// window position wins — the same first-max-wins rule as the generic
/// strict-`>` scan.
HS_TILED_CLONES
void pool2x2_train(const float* x, float* y, int* codes, std::size_t planes,
                   std::size_t h, std::size_t w, std::size_t oh,
                   std::size_t ow) {
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane = x + p * h * w;
    const std::size_t out_off = p * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* r0 = plane + (2 * oy) * w;
      const float* r1 = r0 + w;
      float* orow = y + out_off + oy * ow;
      int* crow = codes + out_off + oy * ow;
      std::size_t ox = 0;
      for (; ox + 8 <= ow; ox += 8) {
        v8f e0, o0, e1, o1;
        deinterleave(r0 + 2 * ox, e0, o0);
        deinterleave(r1 + 2 * ox, e1, o1);
        const v8f m = vmax8(vmax8(e0, o0), vmax8(e1, o1));
        v8i code = v8i{} + 3;
        code = (e1 == m) ? v8i{} + 2 : code;
        code = (o0 == m) ? v8i{} + 1 : code;
        code = (e0 == m) ? v8i{} : code;
        store8f(orow + ox, m);
        store8i(crow + ox, code);
      }
      for (; ox < ow; ++ox) {
        const std::size_t ix = 2 * ox;
        const float v00 = r0[ix], v01 = r0[ix + 1];
        const float v10 = r1[ix], v11 = r1[ix + 1];
        const float m = std::max(std::max(v00, v01), std::max(v10, v11));
        int code = 3;
        code = v10 == m ? 2 : code;
        code = v01 == m ? 1 : code;
        code = v00 == m ? 0 : code;
        orow[ox] = m;
        crow[ox] = code;
      }
    }
  }
}

}  // namespace

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  HS_CHECK(kernel > 0 && stride > 0, "MaxPool2d: bad kernel/stride");
}

Tensor MaxPool2d::forward(Tensor x, bool train) {
  HS_CHECK(x.rank() == 4, "MaxPool2d: input must be (N,C,H,W)");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  HS_CHECK(h >= kernel_ && w >= kernel_, "MaxPool2d: window exceeds input");
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  // Every path below writes all of y (eval folds row maxes, the train paths
  // store per window), so skip the zero-fill.
  Tensor y = Tensor::uninit({n, c, oh, ow});
  if (!train) {
    if (kernel_ == 2 && stride_ == 2) {
      pool2x2_eval(x.data(), y.data(), n * c, h, w, oh, ow);
      return y;
    }
    // Eval path: no argmax bookkeeping needed, so take the window max with
    // branchless compares (one row of the window at a time) instead of the
    // data-dependent argmax branch below, which mispredicts about half the
    // time. Same values: max over the same window.
    for (std::size_t p = 0; p < n * c; ++p) {
      const float* plane = x.data() + p * h * w;
      float* out = y.data() + p * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        float* orow = out + oy * ow;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          const float* irow = plane + (oy * stride_ + ky) * w;
          if (ky == 0) {
            for (std::size_t ox = 0; ox < ow; ++ox) {
              float m = irow[ox * stride_];
              for (std::size_t kx = 1; kx < kernel_; ++kx) {
                m = std::max(m, irow[ox * stride_ + kx]);
              }
              orow[ox] = m;
            }
          } else {
            for (std::size_t ox = 0; ox < ow; ++ox) {
              float m = orow[ox];
              for (std::size_t kx = 0; kx < kernel_; ++kx) {
                m = std::max(m, irow[ox * stride_ + kx]);
              }
              orow[ox] = m;
            }
          }
        }
      }
    }
    return y;
  }
  in_shape_ = {n, c, h, w};
  if (kernel_ == 2 && stride_ == 2) {
    // Vectorized path: caches 2-bit window codes instead of absolute input
    // indices (backward reconstructs the index from the output position),
    // which quarters the cache-state traffic on top of the vector max.
    codes_.resize(n * c * oh * ow);
    argmax_.clear();
    pool2x2_train(x.data(), y.data(), codes_.data(), n * c, h, w, oh, ow);
    return y;
  }
  argmax_.assign(n * c * oh * ow, 0);
  codes_.clear();
  if (kernel_ == 2) {
    // The model zoo's pools are all 2x2: take the window max branchlessly
    // and resolve the argmax with a first-equal select chain — the same
    // first-max-wins tie-break as the strict `>` update below, compiled to
    // cmovs instead of a data-dependent branch per element.
    std::size_t out_i = 0;
    for (std::size_t p = 0; p < n * c; ++p) {
      const float* plane = x.data() + p * h * w;
      const std::size_t plane_off = p * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        const std::size_t iy = oy * stride_;
        const float* r0 = plane + iy * w;
        const float* r1 = r0 + w;
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_i) {
          const std::size_t ix = ox * stride_;
          const float v00 = r0[ix], v01 = r0[ix + 1];
          const float v10 = r1[ix], v11 = r1[ix + 1];
          const float m = std::max(std::max(v00, v01), std::max(v10, v11));
          const std::size_t base = plane_off + iy * w + ix;
          std::size_t idx = base + w + 1;
          idx = v10 == m ? base + w : idx;
          idx = v01 == m ? base + 1 : idx;
          idx = v00 == m ? base : idx;
          y[out_i] = m;
          argmax_[out_i] = idx;
        }
      }
    }
    return y;
  }
  std::size_t out_i = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + ((s * c) + ch) * h * w;
      const std::size_t plane_off = ((s * c) + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_i) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t iy = oy * stride_ + ky;
              const std::size_t ix = ox * stride_ + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_off + iy * w + ix;
              }
            }
          }
          y[out_i] = best;
          argmax_[out_i] = best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(Tensor grad_out) {
  HS_CHECK(!argmax_.empty() || !codes_.empty(),
           "MaxPool2d::backward: no cached forward");
  Tensor grad_in(in_shape_);
  if (!codes_.empty()) {
    HS_CHECK(grad_out.size() == codes_.size(),
             "MaxPool2d::backward: grad size mismatch");
    const std::size_t h = in_shape_[2], w = in_shape_[3];
    const std::size_t oh = (h - kernel_) / stride_ + 1;
    const std::size_t ow = (w - kernel_) / stride_ + 1;
    const std::size_t planes = in_shape_[0] * in_shape_[1];
    std::size_t i = 0;
    for (std::size_t p = 0; p < planes; ++p) {
      const std::size_t plane_off = p * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++i) {
          const int code = codes_[i];
          const std::size_t iy = 2 * oy + static_cast<std::size_t>(code >> 1);
          const std::size_t ix = 2 * ox + static_cast<std::size_t>(code & 1);
          grad_in[plane_off + iy * w + ix] += grad_out[i];
        }
      }
    }
    return grad_in;
  }
  HS_CHECK(grad_out.size() == argmax_.size(),
           "MaxPool2d::backward: grad size mismatch");
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    grad_in[argmax_[i]] += grad_out[i];
  }
  return grad_in;
}

AvgPool2d::AvgPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  HS_CHECK(kernel > 0 && stride > 0, "AvgPool2d: bad kernel/stride");
}

Tensor AvgPool2d::forward(Tensor x, bool train) {
  HS_CHECK(x.rank() == 4, "AvgPool2d: input must be (N,C,H,W)");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  HS_CHECK(h >= kernel_ && w >= kernel_, "AvgPool2d: window exceeds input");
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  if (train) in_shape_ = {n, c, h, w};
  Tensor y = Tensor::uninit({n, c, oh, ow});  // every window is stored below
  const float scale = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + ((s * c) + ch) * h * w;
      float* out = y.data() + ((s * c) + ch) * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              acc += plane[(oy * stride_ + ky) * w + (ox * stride_ + kx)];
            }
          }
          out[oy * ow + ox] = acc * scale;
        }
      }
    }
  }
  return y;
}

Tensor AvgPool2d::backward(Tensor grad_out) {
  HS_CHECK(!in_shape_.empty(), "AvgPool2d::backward: no cached forward");
  const std::size_t n = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
                    w = in_shape_[3];
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  HS_CHECK(grad_out.rank() == 4 && grad_out.dim(2) == oh &&
               grad_out.dim(3) == ow,
           "AvgPool2d::backward: grad shape mismatch");
  Tensor grad_in(in_shape_);
  const float scale = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* go = grad_out.data() + ((s * c) + ch) * oh * ow;
      float* gi = grad_in.data() + ((s * c) + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = go[oy * ow + ox] * scale;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              gi[(oy * stride_ + ky) * w + (ox * stride_ + kx)] += g;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPool::forward(Tensor x, bool train) {
  HS_CHECK(x.rank() == 4, "GlobalAvgPool: input must be (N,C,H,W)");
  if (train) in_shape_ = x.shape();
  return spatial_mean(x);
}

Tensor spatial_mean(const Tensor& x) {
  HS_CHECK(x.rank() == 4, "spatial_mean: input must be (N,C,H,W)");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  // One f64 chain per (sample, channel) plane, planes side by side in lanes.
  std::vector<double> sums(n * c), sumsq(n * c);
  kernels::channel_sums(x.data(), x.data(), 1, n * c, h * w, sums.data(),
                        sumsq.data());
  Tensor y = Tensor::uninit({n, c});  // every (sample, channel) mean stored
  const float scale = 1.0f / static_cast<float>(h * w);
  for (std::size_t p = 0; p < n * c; ++p) {
    y[p] = static_cast<float>(sums[p]) * scale;
  }
  return y;
}

Tensor GlobalAvgPool::backward(Tensor grad_out) {
  HS_CHECK(!in_shape_.empty(), "GlobalAvgPool::backward: no cached forward");
  const std::size_t n = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
                    w = in_shape_[3];
  HS_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == n && grad_out.dim(1) == c,
           "GlobalAvgPool::backward: grad shape mismatch");
  // Unlike the windowed pools this backward assigns (not accumulates) every
  // element of every plane, so uninitialized storage is safe here.
  Tensor grad_in = Tensor::uninit(in_shape_);
  const float scale = 1.0f / static_cast<float>(h * w);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_out.at(s, ch) * scale;
      float* plane = grad_in.data() + ((s * c) + ch) * h * w;
      for (std::size_t i = 0; i < h * w; ++i) plane[i] = g;
    }
  }
  return grad_in;
}

Tensor Flatten::forward(Tensor x, bool train) {
  HS_CHECK(x.rank() >= 2, "Flatten: rank must be >= 2");
  if (train) in_shape_ = x.shape();
  std::size_t f = 1;
  for (std::size_t i = 1; i < x.rank(); ++i) f *= x.dim(i);
  x.reshape({x.dim(0), f});  // same storage, new shape
  return x;
}

Tensor Flatten::backward(Tensor grad_out) {
  HS_CHECK(!in_shape_.empty(), "Flatten::backward: no cached forward");
  grad_out.reshape(in_shape_);
  return grad_out;
}

}  // namespace hetero
