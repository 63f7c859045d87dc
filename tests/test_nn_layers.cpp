// Numerical gradient checks and behaviour tests for the primitive layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "seed_loops.h"
#include "test_util.h"

namespace hetero {
namespace {

using hetero::testing::edge_case_tensor;
using hetero::testing::gradient_check;
using hetero::testing::same_bits;
using hetero::testing::for_oracle_shapes;
using hetero::testing::seed_gap_forward;
using hetero::testing::seed_hsigmoid_backward;
using hetero::testing::seed_hsigmoid_forward;
using hetero::testing::seed_hswish_backward;
using hetero::testing::seed_hswish_forward;

constexpr double kGradTol = 5e-2;  // float32 + central differences

TEST(Linear, ForwardKnownCase) {
  Rng rng(1);
  Linear lin(2, 2, rng);
  lin.weight() = Tensor({2, 2}, {1, 2, 3, 4});
  lin.bias() = Tensor({2}, {0.5f, -0.5f});
  Tensor x({1, 2}, {1, 1});
  Tensor y = lin.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3+4-0.5
}

TEST(Linear, GradCheck) {
  Rng rng(2);
  Linear lin(5, 4, rng);
  Tensor x = Tensor::randn({3, 5}, rng);
  const auto r = gradient_check(lin, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(Linear, GradCheckNoBias) {
  Rng rng(3);
  Linear lin(4, 3, rng, /*bias=*/false);
  Tensor x = Tensor::randn({2, 4}, rng);
  const auto r = gradient_check(lin, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(Linear, RejectsWrongInputShape) {
  Rng rng(4);
  Linear lin(4, 3, rng);
  EXPECT_THROW(lin.forward(Tensor({2, 5}), false), std::invalid_argument);
}

TEST(Linear, GradsAccumulateAcrossBackwards) {
  Rng rng(5);
  Linear lin(2, 2, rng);
  Tensor x = Tensor::randn({1, 2}, rng);
  Tensor g = Tensor::ones({1, 2});
  lin.forward(x, true);
  lin.backward(g);
  ParamGroup pg = lin.param_group();
  const Tensor once = *pg.grads[0];
  lin.forward(x, true);
  lin.backward(g);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR((*pg.grads[0])[i], 2.0f * once[i], 1e-5f);
  }
  lin.zero_grad();
  EXPECT_EQ(pg.grads[0]->sum(), 0.0f);
}

struct ConvCase {
  std::size_t in_c, out_c, kernel, stride, pad, groups;
};

class ConvGradSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradSweep, GradCheck) {
  const ConvCase c = GetParam();
  Rng rng(42);
  Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, c.groups, rng,
              /*bias=*/true);
  Tensor x = Tensor::randn({2, c.in_c, 6, 6}, rng);
  const auto r = gradient_check(conv, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvGradSweep,
    ::testing::Values(ConvCase{1, 1, 3, 1, 1, 1},   // basic 3x3
                      ConvCase{2, 3, 3, 1, 1, 1},   // multi channel
                      ConvCase{2, 4, 3, 2, 1, 1},   // strided
                      ConvCase{4, 4, 3, 1, 1, 4},   // depthwise
                      ConvCase{4, 6, 1, 1, 0, 2},   // grouped pointwise
                      ConvCase{3, 2, 5, 2, 2, 1})); // 5x5 strided

TEST(Conv2d, OutputShape) {
  Rng rng(6);
  Conv2d conv(3, 8, 3, 2, 1, 1, rng);
  Tensor y = conv.forward(Tensor({2, 3, 8, 8}), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 4, 4}));
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(7);
  Conv2d conv(1, 1, 1, 1, 0, 1, rng);
  conv.weight().fill(1.0f);
  Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  Tensor y = conv.forward(x, false);
  hetero::testing::expect_tensor_near(y, x, 1e-6f);
}

TEST(Conv2d, DepthwiseDoesNotMixChannels) {
  Rng rng(8);
  Conv2d conv(2, 2, 3, 1, 1, 2, rng);
  Tensor x({1, 2, 4, 4});
  // Only channel 0 carries signal.
  for (std::size_t i = 0; i < 16; ++i) x[i] = 1.0f;
  Tensor y = conv.forward(x, false);
  // Channel 1 output must be exactly zero: it sees only zero input.
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(y[16 + i], 0.0f);
}

TEST(Conv2d, ChannelGroupValidation) {
  Rng rng(9);
  EXPECT_THROW(Conv2d(3, 4, 3, 1, 1, 2, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d(4, 3, 3, 1, 1, 2, rng), std::invalid_argument);
}

TEST(BatchNorm, NormalizesBatchStatistics) {
  Rng rng(10);
  BatchNorm2d bn(3);
  Tensor x = Tensor::randn({4, 3, 5, 5}, rng, 3.0f);
  x += Tensor::full({4, 3, 5, 5}, 7.0f);
  Tensor y = bn.forward(x, true);
  // Per-channel output mean ~0, var ~1 (gamma=1, beta=0).
  for (std::size_t c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    std::size_t n = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t i = 0; i < 25; ++i) {
        const float v = y[(s * 3 + c) * 25 + i];
        sum += v;
        sq += v * v;
        ++n;
      }
    }
    EXPECT_NEAR(sum / n, 0.0, 1e-3);
    EXPECT_NEAR(sq / n, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GradCheck) {
  Rng rng(11);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn({3, 2, 4, 4}, rng);
  const auto r = gradient_check(bn, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(BatchNorm, RunningStatsConvergeToDataStats) {
  Rng rng(12);
  BatchNorm2d bn(1, /*momentum=*/0.2f);
  for (int i = 0; i < 200; ++i) {
    Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 2.0f);
    x += Tensor::full({8, 1, 4, 4}, 3.0f);
    bn.forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0f, 0.3f);
  EXPECT_NEAR(bn.running_var()[0], 4.0f, 0.8f);
}

TEST(BatchNorm, EvalModeUsesRunningStats) {
  BatchNorm2d bn(1);
  // Fresh BN: running mean 0, var 1 -> eval forward is identity-ish.
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = bn.forward(x, false);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(y[i], x[i], 1e-2f);
}

TEST(Activations, ReLUForwardAndGrad) {
  Rng rng(13);
  ReLU relu;
  Tensor x({1, 4}, {-1.0f, 2.0f, -3.0f, 4.0f});
  Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  Tensor g = relu.backward(Tensor::ones({1, 4}));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 1.0f);
  EXPECT_EQ(g[2], 0.0f);
  EXPECT_EQ(g[3], 1.0f);
}

TEST(Activations, HSigmoidSaturation) {
  HSigmoid h;
  Tensor x({1, 3}, {-10.0f, 0.0f, 10.0f});
  Tensor y = h.forward(x, false);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_EQ(y[2], 1.0f);
}

TEST(Activations, HSwishMatchesDefinition) {
  HSwish h;
  Tensor x({1, 3}, {-4.0f, 0.0f, 4.0f});
  Tensor y = h.forward(x, false);
  EXPECT_EQ(y[0], 0.0f);             // saturated low
  EXPECT_FLOAT_EQ(y[1], 0.0f);       // 0 * 0.5
  EXPECT_FLOAT_EQ(y[2], 4.0f);       // saturated high: x * 1
  Tensor x2({1, 1}, {1.2f});
  Tensor y2 = h.forward(x2, false);
  EXPECT_NEAR(y2[0], 1.2f * (1.2f / 6.0f + 0.5f), 1e-6f);
}

template <typename Act>
void activation_gradcheck(std::uint64_t seed) {
  Rng rng(seed);
  Act act;
  // Keep inputs away from the kinks at 0 / +-3 (non-differentiable points).
  Tensor x({2, 6});
  for (std::size_t i = 0; i < x.size(); ++i) {
    float v = rng.uniform_f(0.3f, 2.4f);
    if (rng.bernoulli(0.5)) v = -v;
    x[i] = v;
  }
  const auto r = gradient_check(act, x, rng, /*eps=*/1e-3f);
  EXPECT_LT(r.max_input_error, kGradTol);
}

TEST(Activations, ReLUGradCheck) { activation_gradcheck<ReLU>(14); }
TEST(Activations, HSigmoidGradCheck) { activation_gradcheck<HSigmoid>(15); }
TEST(Activations, HSwishGradCheck) { activation_gradcheck<HSwish>(16); }

TEST(MaxPool, ForwardPicksMaxima) {
  MaxPool2d pool(2, 2);
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 2, 2}));
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[3], 15.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, {1, 9, 2, 3});
  pool.forward(x, true);
  Tensor g = pool.backward(Tensor::full({1, 1, 1, 1}, 5.0f));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 5.0f);
  EXPECT_EQ(g[2], 0.0f);
}

TEST(MaxPool, GradCheck) {
  Rng rng(17);
  MaxPool2d pool(2, 2);
  Tensor x = Tensor::randn({2, 2, 4, 4}, rng);  // ties have measure ~0
  const auto r = gradient_check(pool, x, rng, 1e-3f);
  EXPECT_LT(r.max_input_error, kGradTol);
}

TEST(AvgPool, ForwardAverages) {
  AvgPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPool, GradCheck) {
  Rng rng(18);
  AvgPool2d pool(3, 2);
  Tensor x = Tensor::randn({1, 2, 7, 7}, rng);
  const auto r = gradient_check(pool, x, rng, 1e-3f);
  EXPECT_LT(r.max_input_error, kGradTol);
}

TEST(GlobalAvgPool, ForwardAndGradCheck) {
  Rng rng(19);
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = gap.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 10.0f);
  Tensor x2 = Tensor::randn({2, 3, 4, 4}, rng);
  const auto r = gradient_check(gap, x2, rng, 1e-3f);
  EXPECT_LT(r.max_input_error, kGradTol);
}

// ------------------------------------------------------ seed-loop oracles --
// The BatchNorm2d, hard-sigmoid/-swish and global-average-pool loops as the
// seed wrote them (its per-plane helpers inlined), kept verbatim as oracles:
// the layers' channel-lane and branch-free kernels must reproduce every
// byte, over channel counts off the lane block, single-pixel and odd-sized
// planes, and inputs with signed zeros, +-3, denormals, huge values and NaN.

/// Seed BatchNorm2d state, with the seed's member names.
struct SeedBatchNorm {
  std::size_t c_;
  float momentum_ = 0.1f, eps_ = 1e-5f;
  Tensor gamma_, beta_, ggamma_, gbeta_, run_mean_, run_var_;
  Tensor cached_xhat_;
  std::vector<float> inv_std_;
  std::size_t cached_n_ = 0, cached_h_ = 0, cached_w_ = 0;

  Tensor forward(const Tensor& x, bool train) {
    const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::size_t hw = h * w;
    const double count = static_cast<double>(n * hw);
    Tensor y({n, c_, h, w});
    if (train) {
      cached_xhat_ = Tensor({n, c_, h, w});
      inv_std_.assign(c_, 0.0f);
      cached_n_ = n;
      cached_h_ = h;
      cached_w_ = w;
    }
    for (std::size_t c = 0; c < c_; ++c) {
      float mean_c, var_c;
      if (train) {
        double sum = 0.0, sq = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
          const float* p = x.data() + ((s * c_) + c) * hw;
          for (std::size_t i = 0; i < hw; ++i) {
            sum += p[i];
            sq += static_cast<double>(p[i]) * p[i];
          }
        }
        mean_c = static_cast<float>(sum / count);
        var_c = static_cast<float>(
            std::max(0.0, sq / count - sum / count * sum / count));
        run_mean_[c] = (1 - momentum_) * run_mean_[c] + momentum_ * mean_c;
        run_var_[c] = (1 - momentum_) * run_var_[c] + momentum_ * var_c;
      } else {
        mean_c = run_mean_[c];
        var_c = run_var_[c];
      }
      const float inv = 1.0f / std::sqrt(var_c + eps_);
      if (train) inv_std_[c] = inv;
      const float g = gamma_[c], b = beta_[c];
      for (std::size_t s = 0; s < n; ++s) {
        const std::size_t plane = ((s * c_) + c) * hw;
        const float* src = x.data() + plane;
        float* dst = y.data() + plane;
        float* xhat = train ? cached_xhat_.data() + plane : nullptr;
        for (std::size_t i = 0; i < hw; ++i) {
          const float xh = (src[i] - mean_c) * inv;
          if (xhat) xhat[i] = xh;
          dst[i] = g * xh + b;
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) {
    const std::size_t n = cached_n_, h = cached_h_, w = cached_w_;
    const std::size_t hw = h * w;
    const double m = static_cast<double>(n * hw);
    Tensor grad_in({n, c_, h, w});
    for (std::size_t c = 0; c < c_; ++c) {
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        const std::size_t plane = ((s * c_) + c) * hw;
        const float* dy = grad_out.data() + plane;
        const float* xh = cached_xhat_.data() + plane;
        for (std::size_t i = 0; i < hw; ++i) {
          sum_dy += dy[i];
          sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
        }
      }
      ggamma_[c] += static_cast<float>(sum_dy_xhat);
      gbeta_[c] += static_cast<float>(sum_dy);
      const float g_inv = gamma_[c] * inv_std_[c];
      const float k1 = static_cast<float>(sum_dy / m);
      const float k2 = static_cast<float>(sum_dy_xhat / m);
      for (std::size_t s = 0; s < n; ++s) {
        const std::size_t plane = ((s * c_) + c) * hw;
        const float* dy = grad_out.data() + plane;
        const float* xh = cached_xhat_.data() + plane;
        float* dx = grad_in.data() + plane;
        for (std::size_t i = 0; i < hw; ++i) {
          dx[i] = g_inv * (dy[i] - k1 - xh[i] * k2);
        }
      }
    }
    return grad_in;
  }
};

TEST(BatchNorm, TrainForwardAndBackwardMatchSeedLoop) {
  Rng rng(40);
  for_oracle_shapes([&](std::size_t n, std::size_t c, std::size_t h,
                        std::size_t w, const std::string& tag) {
    BatchNorm2d bn(c);
    ParamGroup group = bn.param_group();
    SeedBatchNorm seed;
    seed.c_ = c;
    seed.gamma_ = Tensor::randn({c}, rng);
    seed.beta_ = Tensor::randn({c}, rng);
    seed.run_mean_ = Tensor::randn({c}, rng);
    seed.run_var_ = Tensor::rand_uniform({c}, rng, 0.5f, 2.0f);
    seed.ggamma_ = Tensor::randn({c}, rng);
    seed.gbeta_ = Tensor::randn({c}, rng);
    *group.params[0] = seed.gamma_;
    *group.params[1] = seed.beta_;
    *group.grads[0] = seed.ggamma_;
    *group.grads[1] = seed.gbeta_;
    *group.buffers[0] = seed.run_mean_;
    *group.buffers[1] = seed.run_var_;
    // Two steps, so the second forward reuses the first one's caches.
    for (int step = 0; step < 2; ++step) {
      const Tensor x = edge_case_tensor({n, c, h, w}, rng);
      const Tensor dy = edge_case_tensor({n, c, h, w}, rng);
      EXPECT_TRUE(same_bits(bn.forward(x, true), seed.forward(x, true)))
          << tag;
      EXPECT_TRUE(same_bits(bn.running_mean(), seed.run_mean_)) << tag;
      EXPECT_TRUE(same_bits(bn.running_var(), seed.run_var_)) << tag;
      EXPECT_TRUE(same_bits(bn.backward(dy), seed.backward(dy))) << tag;
      EXPECT_TRUE(same_bits(*group.grads[0], seed.ggamma_)) << tag;
      EXPECT_TRUE(same_bits(*group.grads[1], seed.gbeta_)) << tag;
    }
  });
}

TEST(BatchNorm, EvalForwardMatchesSeedLoop) {
  Rng rng(41);
  for_oracle_shapes([&](std::size_t n, std::size_t c, std::size_t h,
                        std::size_t w, const std::string& tag) {
    BatchNorm2d bn(c);
    ParamGroup group = bn.param_group();
    SeedBatchNorm seed;
    seed.c_ = c;
    seed.gamma_ = Tensor::randn({c}, rng);
    seed.beta_ = Tensor::randn({c}, rng);
    seed.run_mean_ = Tensor::randn({c}, rng);
    seed.run_var_ = Tensor::rand_uniform({c}, rng, 0.0f, 2.0f);
    *group.params[0] = seed.gamma_;
    *group.params[1] = seed.beta_;
    *group.buffers[0] = seed.run_mean_;
    *group.buffers[1] = seed.run_var_;
    const Tensor x = edge_case_tensor({n, c, h, w}, rng);
    EXPECT_TRUE(same_bits(bn.forward(x, false), seed.forward(x, false)))
        << tag;
  });
}

TEST(Activations, HardSigmoidAndSwishMatchSeedLoop) {
  Rng rng(42);
  for_oracle_shapes([&](std::size_t n, std::size_t c, std::size_t h,
                        std::size_t w, const std::string& tag) {
    const Tensor x = edge_case_tensor({n, c, h, w}, rng);
    const Tensor dy = edge_case_tensor({n, c, h, w}, rng);
    HSigmoid hsig;
    EXPECT_TRUE(same_bits(hsig.forward(x, false), seed_hsigmoid_forward(x)))
        << tag;
    EXPECT_TRUE(same_bits(hsig.forward(x, true), seed_hsigmoid_forward(x)))
        << tag;
    EXPECT_TRUE(same_bits(hsig.backward(dy), seed_hsigmoid_backward(x, dy)))
        << tag;
    HSwish hswish;
    EXPECT_TRUE(same_bits(hswish.forward(x, false), seed_hswish_forward(x)))
        << tag;
    EXPECT_TRUE(same_bits(hswish.forward(x, true), seed_hswish_forward(x)))
        << tag;
    EXPECT_TRUE(same_bits(hswish.backward(dy), seed_hswish_backward(x, dy)))
        << tag;
  });
}

TEST(Activations, HardSigmoidAndSwishCoverEverySpecialValue) {
  // Every special value in every lane position of a vector block and its
  // scalar tail, against both the seed forward and backward.
  const float specials[] = {-0.0f,
                            0.0f,
                            3.0f,
                            -3.0f,
                            std::nextafter(3.0f, 0.0f),
                            std::nextafter(-3.0f, 0.0f),
                            1e-40f,
                            -1e-40f,
                            1e30f,
                            -1e30f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN()};
  const std::size_t count = sizeof(specials) / sizeof(specials[0]);
  Tensor x({count, 19});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = specials[i % count];
  const Tensor dy = Tensor::full(x.shape(), 0.75f);
  HSigmoid hsig;
  EXPECT_TRUE(same_bits(hsig.forward(x, true), seed_hsigmoid_forward(x)));
  EXPECT_TRUE(same_bits(hsig.backward(dy), seed_hsigmoid_backward(x, dy)));
  HSwish hswish;
  EXPECT_TRUE(same_bits(hswish.forward(x, true), seed_hswish_forward(x)));
  EXPECT_TRUE(same_bits(hswish.backward(dy), seed_hswish_backward(x, dy)));
}

TEST(GlobalAvgPool, ForwardMatchesSeedLoop) {
  Rng rng(43);
  for_oracle_shapes([&](std::size_t n, std::size_t c, std::size_t h,
                        std::size_t w, const std::string& tag) {
    const Tensor x = edge_case_tensor({n, c, h, w}, rng);
    GlobalAvgPool gap;
    EXPECT_TRUE(same_bits(gap.forward(x, false), seed_gap_forward(x)))
        << tag;
    EXPECT_TRUE(same_bits(gap.forward(x, true), seed_gap_forward(x))) << tag;
  });
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Tensor x({2, 3, 4, 4});
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 48}));
  Tensor g = f.backward(Tensor::ones({2, 48}));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Sequential, ComposesAndCollects) {
  Rng rng(20);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(8, 2, rng));
  EXPECT_EQ(seq.size(), 3u);
  Tensor y = seq.forward(Tensor::randn({3, 4}, rng), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{3, 2}));
  ParamGroup g = seq.param_group();
  EXPECT_EQ(g.params.size(), 4u);  // two weights + two biases
  EXPECT_EQ(total_size(g.params), 4u * 8 + 8 + 8 * 2 + 2);
}

TEST(Sequential, GradCheckThroughStack) {
  Rng rng(21);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 6, rng))
      .add(std::make_unique<HSwish>())
      .add(std::make_unique<Linear>(6, 3, rng));
  Tensor x = Tensor::randn({2, 4}, rng);
  const auto r = gradient_check(seq, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(FlattenTensors, RoundTrip) {
  Rng rng(22);
  Tensor a = Tensor::randn({2, 3}, rng);
  Tensor b = Tensor::randn({4}, rng);
  std::vector<Tensor*> ts = {&a, &b};
  Tensor flat = flatten_tensors(ts);
  EXPECT_EQ(flat.size(), 10u);
  Tensor a2({2, 3}), b2({4});
  std::vector<Tensor*> dst = {&a2, &b2};
  unflatten_tensors(flat, dst);
  hetero::testing::expect_tensor_near(a2, a);
  hetero::testing::expect_tensor_near(b2, b);
  EXPECT_THROW(unflatten_tensors(Tensor({9}), dst), std::invalid_argument);
}

}  // namespace
}  // namespace hetero
