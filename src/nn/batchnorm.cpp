#include "nn/batchnorm.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels/kernels.h"

namespace hetero {

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : c_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::ones({channels})),
      beta_({channels}),
      ggamma_({channels}),
      gbeta_({channels}),
      run_mean_({channels}),
      run_var_(Tensor::ones({channels})) {
  HS_CHECK(channels > 0, "BatchNorm2d: zero channels");
}

Tensor BatchNorm2d::forward(Tensor x, bool train) {
  HS_CHECK(x.rank() == 4 && x.dim(1) == c_,
           "BatchNorm2d: input must be (N, C, H, W)");
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = h * w;
  const double count = static_cast<double>(n * hw);
  HS_CHECK(count > 0, "BatchNorm2d: empty batch");

  // The output overwrites x in place. Every element of the xhat cache is
  // written below, so it is not zero-filled, and it keeps its storage
  // across forwards.
  std::vector<float> mean(c_), inv(c_);
  if (train) {
    if (cached_xhat_.shape() != x.shape()) {
      cached_xhat_ = Tensor::uninit(x.shape());
    }
    cached_n_ = n;
    cached_h_ = h;
    cached_w_ = w;
    std::vector<double> sum(c_), sq(c_);
    kernels::channel_sums(x.data(), x.data(), n, c_, hw, sum.data(),
                          sq.data());
    for (std::size_t c = 0; c < c_; ++c) {
      const float mean_c = static_cast<float>(sum[c] / count);
      const float var_c = static_cast<float>(
          std::max(0.0, sq[c] / count - sum[c] / count * sum[c] / count));
      run_mean_[c] = (1 - momentum_) * run_mean_[c] + momentum_ * mean_c;
      run_var_[c] = (1 - momentum_) * run_var_[c] + momentum_ * var_c;
      mean[c] = mean_c;
      inv[c] = 1.0f / std::sqrt(var_c + eps_);
    }
    inv_std_ = inv;
  } else {
    for (std::size_t c = 0; c < c_; ++c) {
      mean[c] = run_mean_[c];
      inv[c] = 1.0f / std::sqrt(run_var_[c] + eps_);
    }
  }
  kernels::bn_normalize_inplace(x.data(),
                                train ? cached_xhat_.data() : nullptr, n, c_,
                                hw, mean.data(), inv.data(), gamma_.data(),
                                beta_.data());
  return x;
}

Tensor BatchNorm2d::backward(Tensor grad_out) {
  HS_CHECK(!cached_xhat_.empty(), "BatchNorm2d::backward: no cached forward");
  const std::size_t n = cached_n_, h = cached_h_, w = cached_w_;
  HS_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
               grad_out.dim(1) == c_ && grad_out.dim(2) == h &&
               grad_out.dim(3) == w,
           "BatchNorm2d::backward: grad shape mismatch");
  const std::size_t hw = h * w;
  const double m = static_cast<double>(n * hw);

  // Standard batch-norm backward: reduce dL/dgamma, dL/dbeta, then the
  // coupled input gradient.
  std::vector<double> sum_dy(c_), sum_dy_xhat(c_);
  kernels::channel_sums(grad_out.data(), cached_xhat_.data(), n, c_, hw,
                        sum_dy.data(), sum_dy_xhat.data());
  std::vector<float> g_inv(c_), k1(c_), k2(c_);
  for (std::size_t c = 0; c < c_; ++c) {
    ggamma_[c] += static_cast<float>(sum_dy_xhat[c]);
    gbeta_[c] += static_cast<float>(sum_dy[c]);
    // g * inv is folded once; the per-element product order is unchanged
    // (the seed expression evaluates (g * inv) * rest left-to-right).
    g_inv[c] = gamma_[c] * inv_std_[c];
    k1[c] = static_cast<float>(sum_dy[c] / m);
    k2[c] = static_cast<float>(sum_dy_xhat[c] / m);
  }
  // The input gradient overwrites grad_out in place.
  kernels::bn_input_grad_inplace(grad_out.data(), cached_xhat_.data(), n, c_,
                                 hw, g_inv.data(), k1.data(), k2.data());
  return grad_out;
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  auto copy = std::make_unique<BatchNorm2d>(c_, momentum_, eps_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->run_mean_ = run_mean_;
  copy->run_var_ = run_var_;
  return copy;
}

void BatchNorm2d::collect(ParamGroup& group) {
  group.params.push_back(&gamma_);
  group.params.push_back(&beta_);
  group.grads.push_back(&ggamma_);
  group.grads.push_back(&gbeta_);
  group.buffers.push_back(&run_mean_);
  group.buffers.push_back(&run_var_);
}

}  // namespace hetero
