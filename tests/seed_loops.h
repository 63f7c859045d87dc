// The seed's hard-sigmoid/-swish and global-average-pool loops, kept
// verbatim as oracles for the layers' vectorized kernels, and the shape
// sweep the oracle tests run them over (shared by the layer and block
// suites).
#pragma once

#include <algorithm>
#include <string>
#include <utility>

#include "tensor/tensor.h"

namespace hetero::testing {

inline float seed_hsigmoid(float x) {
  return std::clamp(x / 6.0f + 0.5f, 0.0f, 1.0f);
}

inline float seed_dhsigmoid(float x) {
  return (x > -3.0f && x < 3.0f) ? 1.0f / 6.0f : 0.0f;
}

inline Tensor seed_hsigmoid_forward(const Tensor& x) {
  Tensor y = Tensor::uninit(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = seed_hsigmoid(x[i]);
  return y;
}

inline Tensor seed_hsigmoid_backward(const Tensor& cached_x,
                                     const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= seed_dhsigmoid(cached_x[i]);
  }
  return g;
}

inline Tensor seed_hswish_forward(const Tensor& x) {
  Tensor y = Tensor::uninit(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = x[i] * seed_hsigmoid(x[i]);
  }
  return y;
}

inline Tensor seed_hswish_backward(const Tensor& cached_x,
                                   const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float x = cached_x[i];
    g[i] *= seed_hsigmoid(x) + x * seed_dhsigmoid(x);
  }
  return g;
}

inline Tensor seed_gap_forward(const Tensor& x) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y = Tensor::uninit({n, c});
  const float scale = 1.0f / static_cast<float>(h * w);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + ((s * c) + ch) * h * w;
      double acc = 0.0;
      for (std::size_t i = 0; i < h * w; ++i) acc += plane[i];
      y.at(s, ch) = static_cast<float>(acc) * scale;
    }
  }
  return y;
}

inline Tensor seed_gap_backward(const std::vector<std::size_t>& in_shape,
                                const Tensor& grad_out) {
  const std::size_t n = in_shape[0], c = in_shape[1], h = in_shape[2],
                    w = in_shape[3];
  Tensor grad_in = Tensor::uninit(in_shape);
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

// ------------------------------------------------------------ shape sweep --

/// The (h, w) plane shapes swept: hw = 1, 16, 64, 256, plus 15 for a plane
/// that is not a multiple of any vector width.
inline const std::pair<std::size_t, std::size_t> kOraclePlanes[] = {
    {1, 1}, {4, 4}, {8, 8}, {16, 16}, {3, 5}};
inline const std::size_t kOracleChannels[] = {1, 3, 7, 8, 9, 12, 48};
inline const std::size_t kOracleBatches[] = {1, 10};

/// Runs `body(n, c, h, w, tag)` over the oracle shape sweep.
template <typename Body>
inline void for_oracle_shapes(Body&& body) {
  for (std::size_t n : kOracleBatches) {
    for (std::size_t c : kOracleChannels) {
      for (const auto& [h, w] : kOraclePlanes) {
        const std::string tag = "N=" + std::to_string(n) + " C=" +
                                std::to_string(c) + " HxW=" +
                                std::to_string(h) + "x" + std::to_string(w);
        body(n, c, h, w, tag);
      }
    }
  }
}

}  // namespace hetero::testing
