#include "nn/activations.h"

#include <algorithm>

#include "kernels/kernels.h"

namespace hetero {

Tensor ReLU::forward(Tensor x, bool train) {
  // In place: each element is read once and overwritten with its clamp.
  float* xp = x.data();
  const std::size_t size = x.size();
  if (train) {
    // Fused clamp + mask capture: backward only needs sign(x) > 0, so the
    // mask replaces a full tensor copy of the input.
    mask_.resize(size);
    cached_shape_ = x.shape();
    unsigned char* mp = mask_.data();
    for (std::size_t i = 0; i < size; ++i) {
      mp[i] = xp[i] > 0.0f ? 1 : 0;
      xp[i] = std::max(xp[i], 0.0f);  // same bits as the eval path (-0.0)
    }
    return x;
  }
  for (std::size_t i = 0; i < size; ++i) xp[i] = std::max(xp[i], 0.0f);
  return x;
}

Tensor ReLU::backward(Tensor grad_out) {
  HS_CHECK(!mask_.empty(), "ReLU::backward: no cached forward");
  HS_CHECK(grad_out.shape() == cached_shape_,
           "ReLU::backward: shape mismatch");
  // Branchless select: the sign of the cached input is data-dependent and
  // mispredicts heavily as a branch; the ternary compiles to a vectorized
  // compare+mask with identical results.
  float* gp = grad_out.data();
  const unsigned char* mp = mask_.data();
  const std::size_t size = grad_out.size();
  for (std::size_t i = 0; i < size; ++i) {
    gp[i] = mp[i] ? gp[i] : 0.0f;
  }
  return grad_out;
}

// The training forwards move x into the cache and write a fresh output; the
// eval forwards and the backward passes overwrite their own argument.

Tensor HSigmoid::forward(Tensor x, bool train) {
  if (!train) {
    kernels::hsigmoid_forward_inplace(x.data(), x.size());
    return x;
  }
  Tensor y = Tensor::uninit(x.shape());
  kernels::hsigmoid_forward(x.data(), y.data(), x.size());
  cached_x_ = std::move(x);
  return y;
}

Tensor HSigmoid::backward(Tensor grad_out) {
  HS_CHECK(!cached_x_.empty(), "HSigmoid::backward: no cached forward");
  HS_CHECK(grad_out.same_shape(cached_x_),
           "HSigmoid::backward: shape mismatch");
  kernels::hsigmoid_backward_inplace(cached_x_.data(), grad_out.data(),
                                     grad_out.size());
  return grad_out;
}

Tensor HSwish::forward(Tensor x, bool train) {
  if (!train) {
    kernels::hswish_forward_inplace(x.data(), x.size());
    return x;
  }
  Tensor y = Tensor::uninit(x.shape());
  kernels::hswish_forward(x.data(), y.data(), x.size());
  cached_x_ = std::move(x);
  return y;
}

Tensor HSwish::backward(Tensor grad_out) {
  HS_CHECK(!cached_x_.empty(), "HSwish::backward: no cached forward");
  HS_CHECK(grad_out.same_shape(cached_x_), "HSwish::backward: shape mismatch");
  // d/dx [x * hsig(x)] = hsig(x) + x * hsig'(x).
  kernels::hswish_backward_inplace(cached_x_.data(), grad_out.data(),
                                   grad_out.size());
  return grad_out;
}

}  // namespace hetero
