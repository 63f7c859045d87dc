#include "nn/linear.h"

#include <cmath>

#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace hetero {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      w_(Tensor::randn({out_features, in_features}, rng,
                       std::sqrt(2.0f / static_cast<float>(in_features)))),
      b_({out_features}),
      gw_({out_features, in_features}),
      gb_({out_features}) {
  HS_CHECK(in_features > 0 && out_features > 0, "Linear: zero-sized layer");
}

Tensor Linear::forward(Tensor x, bool train) {
  HS_CHECK(x.rank() == 2 && x.dim(1) == in_, "Linear: input shape mismatch");
  const std::size_t n = x.dim(0);
  Tensor y = Tensor::uninit({n, out_});  // y = x W^T (fully written below)
  kernels::gemm_nt(kernels::active_kernel(), x.data(), w_.data(), y.data(), n,
                   in_, out_, /*accumulate=*/false);
  if (has_bias_) {
    for (std::size_t i = 0; i < n; ++i) {
      float* row = y.data() + i * out_;
      for (std::size_t j = 0; j < out_; ++j) row[j] += b_[j];
    }
  }
  if (train) cached_x_ = std::move(x);
  return y;
}

Tensor Linear::backward(Tensor grad_out) {
  HS_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_,
           "Linear::backward: grad shape mismatch");
  HS_CHECK(!cached_x_.empty(), "Linear::backward: no cached forward");
  const std::size_t n = grad_out.dim(0);
  const kernels::KernelKind kind = kernels::active_kernel();
  // gw += grad_out^T x, via a workspace slab so the reduction is computed
  // fresh (seed rounding) and then added on in one f32 pass per element.
  float* dwg = ws_.get(0, out_ * in_);
  kernels::gemm_tn(kind, grad_out.data(), cached_x_.data(), dwg, n, out_, in_,
                   /*accumulate=*/false);
  float* gw = gw_.data();
  for (std::size_t i = 0; i < out_ * in_; ++i) gw[i] += dwg[i];
  if (has_bias_) {
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = grad_out.data() + i * out_;
      for (std::size_t j = 0; j < out_; ++j) gb_[j] += row[j];
    }
  }
  // grad_in = grad_out W; the non-accumulating GEMM writes every element.
  Tensor grad_in = Tensor::uninit({n, in_});
  kernels::gemm_nn(kind, grad_out.data(), w_.data(), grad_in.data(), n, out_,
                   in_, /*accumulate=*/false);
  return grad_in;
}

Linear::Linear(const Linear& other)
    : in_(other.in_),
      out_(other.out_),
      has_bias_(other.has_bias_),
      w_(other.w_),
      b_(other.b_),
      gw_(other.gw_),
      gb_(other.gb_) {}

std::unique_ptr<Layer> Linear::clone() const {
  return std::make_unique<Linear>(*this);
}

void Linear::collect(ParamGroup& group) {
  group.params.push_back(&w_);
  group.grads.push_back(&gw_);
  if (has_bias_) {
    group.params.push_back(&b_);
    group.grads.push_back(&gb_);
  }
}

}  // namespace hetero
