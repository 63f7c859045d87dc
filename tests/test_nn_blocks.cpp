// Gradient and shape tests for the composite blocks (SE, residual,
// inverted residual, fire, shuffle), and the value-semantics contract of
// every layer the model zoo builds.
#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "kernels/kernels.h"
#include "nn/blocks.h"
#include "seed_loops.h"
#include "test_util.h"

namespace hetero {
namespace {

using hetero::testing::edge_case_tensor;
using hetero::testing::for_oracle_shapes;
using hetero::testing::gradient_check;
using hetero::testing::same_bits;

constexpr double kGradTol = 6e-2;

TEST(SEBlock, PreservesShape) {
  Rng rng(1);
  SEBlock se(8, 4, rng);
  Tensor x = Tensor::randn({2, 8, 4, 4}, rng);
  Tensor y = se.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(SEBlock, GateBoundsOutput) {
  Rng rng(2);
  SEBlock se(4, 2, rng);
  Tensor x = Tensor::rand_uniform({1, 4, 3, 3}, rng, 0.0f, 1.0f);
  Tensor y = se.forward(x, false);
  // Gate is in [0, 1], so |y| <= |x| elementwise.
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(y[i]), std::abs(x[i]) + 1e-6f);
  }
}

TEST(SEBlock, GradCheck) {
  Rng rng(3);
  SEBlock se(4, 2, rng);
  Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  const auto r = gradient_check(se, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

/// SEBlock as the seed wrote it: the same excitation MLP (built from the
/// same generator, so it holds the same weights), the seed pooling and
/// hard-sigmoid loops, and its copy-then-scale gate passes.
struct SeedSEBlock {
  std::size_t c_;
  Linear fc1_, fc2_;
  ReLU relu_;
  Tensor cached_x_, cached_gate_, cached_fc2_;

  SeedSEBlock(std::size_t channels, std::size_t reduction, Rng& rng)
      : c_(channels),
        fc1_(channels, std::max<std::size_t>(1, channels / reduction), rng),
        fc2_(std::max<std::size_t>(1, channels / reduction), channels, rng) {}

  Tensor forward(const Tensor& x, bool train) {
    Tensor s = testing::seed_gap_forward(x);
    Tensor h = relu_.forward(fc1_.forward(s, train), train);
    Tensor pre = fc2_.forward(h, train);
    Tensor gate = testing::seed_hsigmoid_forward(pre);
    if (train) {
      cached_x_ = x;
      cached_gate_ = gate;
      cached_fc2_ = pre;
    }
    Tensor y = x;
    const std::size_t n = x.dim(0), hgt = x.dim(2), wid = x.dim(3);
    const std::size_t hw = hgt * wid;
    for (std::size_t sm = 0; sm < n; ++sm) {
      for (std::size_t ch = 0; ch < c_; ++ch) {
        float* plane = y.data() + ((sm * c_) + ch) * hw;
        const float g = gate.at(sm, ch);
        for (std::size_t i = 0; i < hw; ++i) plane[i] *= g;
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) {
    const std::size_t n = cached_x_.dim(0), hgt = cached_x_.dim(2),
                      wid = cached_x_.dim(3);
    const std::size_t hw = hgt * wid;
    Tensor grad_x = grad_out;
    Tensor grad_gate({n, c_});
    for (std::size_t sm = 0; sm < n; ++sm) {
      for (std::size_t ch = 0; ch < c_; ++ch) {
        const std::size_t plane = ((sm * c_) + ch) * hw;
        const float* dy = grad_out.data() + plane;
        const float* x = cached_x_.data() + plane;
        float* dx = grad_x.data() + plane;
        const float g = cached_gate_.at(sm, ch);
        double acc = 0.0;
        for (std::size_t i = 0; i < hw; ++i) {
          acc += static_cast<double>(dy[i]) * x[i];
          dx[i] = dy[i] * g;
        }
        grad_gate.at(sm, ch) = static_cast<float>(acc);
      }
    }
    Tensor g = testing::seed_hsigmoid_backward(cached_fc2_, grad_gate);
    g = fc2_.backward(g);
    g = relu_.backward(g);
    g = fc1_.backward(g);
    grad_x += testing::seed_gap_backward(cached_x_.shape(), g);
    return grad_x;
  }
};

TEST(SEBlock, ForwardAndBackwardMatchSeedLoop) {
  std::uint64_t seed = 60;
  for_oracle_shapes([&](std::size_t n, std::size_t c, std::size_t h,
                        std::size_t w, const std::string& tag) {
    Rng init_a(seed), init_b(seed), data(seed + 1000);
    ++seed;
    SEBlock se(c, 4, init_a);
    SeedSEBlock ref(c, 4, init_b);
    const Tensor x = edge_case_tensor({n, c, h, w}, data);
    const Tensor dy = edge_case_tensor({n, c, h, w}, data);
    EXPECT_TRUE(same_bits(se.forward(x, false), ref.forward(x, false)))
        << tag;
    EXPECT_TRUE(same_bits(se.forward(x, true), ref.forward(x, true))) << tag;
    EXPECT_TRUE(same_bits(se.backward(dy), ref.backward(dy))) << tag;
    const ParamGroup got = se.param_group();
    ParamGroup want;
    ref.fc1_.collect(want);
    ref.fc2_.collect(want);
    ASSERT_EQ(got.grads.size(), want.grads.size());
    for (std::size_t t = 0; t < got.grads.size(); ++t) {
      EXPECT_TRUE(same_bits(*got.grads[t], *want.grads[t]))
          << tag << " grad " << t;
    }
  });
}

TEST(Residual, AddsSkip) {
  Rng rng(4);
  // Inner layer: 1x1 conv initialized to zero -> residual output == input.
  auto conv = std::make_unique<Conv2d>(2, 2, 1, 1, 0, 1, rng, false);
  conv->weight().zero();
  Residual res(std::move(conv));
  Tensor x = Tensor::randn({1, 2, 3, 3}, rng);
  Tensor y = res.forward(x, false);
  hetero::testing::expect_tensor_near(y, x, 1e-6f);
}

TEST(Residual, GradCheck) {
  Rng rng(5);
  Residual res(std::make_unique<Conv2d>(2, 2, 3, 1, 1, 1, rng, true));
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  const auto r = gradient_check(res, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(ChannelUtils, RangeAndConcatRoundTrip) {
  Rng rng(6);
  Tensor x = Tensor::randn({2, 6, 3, 3}, rng);
  Tensor a = channel_range(x, 0, 2);
  Tensor b = channel_range(x, 2, 6);
  EXPECT_EQ(a.dim(1), 2u);
  EXPECT_EQ(b.dim(1), 4u);
  Tensor back = channel_concat(a, b);
  hetero::testing::expect_tensor_near(back, x, 0.0f);
}

TEST(ChannelUtils, ConcatShapeChecks) {
  Tensor a({1, 2, 3, 3}), b({1, 2, 4, 4});
  EXPECT_THROW(channel_concat(a, b), std::invalid_argument);
  EXPECT_THROW(channel_range(a, 2, 1), std::invalid_argument);
}

TEST(ChannelShuffle, IsPermutationAndInvertible) {
  ChannelShuffle shuffle(2);
  Tensor x({1, 4, 1, 1}, {0, 1, 2, 3});
  Tensor y = shuffle.forward(x, true);
  // groups=2, per=2: c -> (c%2)*2 + c/2: 0->0, 1->2, 2->1, 3->3.
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  EXPECT_EQ(y[2], 1.0f);
  EXPECT_EQ(y[3], 3.0f);
  // backward undoes forward: backward(forward(x)) == x as a gradient map.
  Tensor g = shuffle.backward(y);
  hetero::testing::expect_tensor_near(g, x, 0.0f);
}

TEST(ChannelShuffle, PreservesValuesMultiset) {
  Rng rng(7);
  ChannelShuffle shuffle(3);
  Tensor x = Tensor::randn({2, 6, 2, 2}, rng);
  Tensor y = shuffle.forward(x, false);
  EXPECT_NEAR(x.sum(), y.sum(), 1e-4f);
  EXPECT_NEAR(x.norm(), y.norm(), 1e-4f);
}

TEST(InvertedResidual, ShapesWithAndWithoutStride) {
  Rng rng(8);
  InvertedResidual b1(8, 16, 8, 3, 1, true, Nonlinearity::kReLU, rng);
  Tensor y1 = b1.forward(Tensor::randn({1, 8, 8, 8}, rng), false);
  EXPECT_EQ(y1.shape(), (std::vector<std::size_t>{1, 8, 8, 8}));

  InvertedResidual b2(8, 16, 12, 3, 2, false, Nonlinearity::kHSwish, rng);
  Tensor y2 = b2.forward(Tensor::randn({1, 8, 8, 8}, rng), false);
  EXPECT_EQ(y2.shape(), (std::vector<std::size_t>{1, 12, 4, 4}));
}

TEST(InvertedResidual, GradCheckWithSkip) {
  Rng rng(9);
  InvertedResidual block(3, 6, 3, 3, 1, true, Nonlinearity::kHSwish, rng);
  Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
  const auto r = gradient_check(block, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(InvertedResidual, GradCheckStrided) {
  Rng rng(10);
  InvertedResidual block(2, 4, 3, 3, 2, false, Nonlinearity::kReLU, rng);
  // 8x8 input -> 4x4 after stride 2: keeps BatchNorm statistics
  // well-conditioned (tiny spatial extents make 1/sqrt(var) curvature
  // explode and finite differences meaningless).
  Tensor x = Tensor::randn({2, 2, 8, 8}, rng);
  const auto r = gradient_check(block, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(FireModule, OutputChannelsAreConcat) {
  Rng rng(11);
  FireModule fire(8, 2, 4, 6, rng);
  Tensor y = fire.forward(Tensor::randn({2, 8, 4, 4}, rng), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 10, 4, 4}));
}

TEST(FireModule, GradCheck) {
  Rng rng(12);
  FireModule fire(4, 2, 3, 3, rng);
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  const auto r = gradient_check(fire, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(ShuffleUnit, Stride1PreservesShape) {
  Rng rng(13);
  ShuffleUnit unit(8, 8, 1, rng);
  Tensor y = unit.forward(Tensor::randn({2, 8, 4, 4}, rng), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 4, 4}));
}

TEST(ShuffleUnit, Stride2Downsamples) {
  Rng rng(14);
  ShuffleUnit unit(8, 16, 2, rng);
  Tensor y = unit.forward(Tensor::randn({2, 8, 4, 4}, rng), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 16, 2, 2}));
}

TEST(ShuffleUnit, GradCheckStride1) {
  Rng rng(15);
  ShuffleUnit unit(4, 4, 1, rng);
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  const auto r = gradient_check(unit, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(ShuffleUnit, GradCheckStride2) {
  Rng rng(16);
  ShuffleUnit unit(4, 8, 2, rng);
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  const auto r = gradient_check(unit, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(ShuffleUnit, ConstructorValidation) {
  Rng rng(17);
  EXPECT_THROW(ShuffleUnit(4, 6, 1, rng), std::invalid_argument);  // in!=out
  EXPECT_THROW(ShuffleUnit(4, 7, 2, rng), std::invalid_argument);  // odd out
  EXPECT_THROW(ShuffleUnit(4, 8, 3, rng), std::invalid_argument);  // stride
}

TEST(ConvBnAct, BuildsTriple) {
  Rng rng(18);
  auto seq = conv_bn_act(3, 8, 3, 1, 1, 1, Nonlinearity::kHSwish, rng);
  EXPECT_EQ(seq->size(), 3u);
  Tensor y = seq->forward(Tensor::randn({1, 3, 6, 6}, rng), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 8, 6, 6}));
}

// --------------------------------------------------------- value semantics --
// Layers own their arguments (nn/layer.h): forward/backward on an lvalue
// must leave it untouched, and handing the same values over with std::move
// must give the same bits as the lvalue call — outputs, input gradients,
// parameter gradients and BatchNorm buffers — whether the layer computed in
// place, moved the argument into a cache, or did neither.

struct ZooLayer {
  const char* name;
  std::function<std::unique_ptr<Layer>(Rng&)> make;
  std::vector<std::size_t> in_shape;
};

std::vector<ZooLayer> zoo_layers() {
  using V = std::vector<std::size_t>;
  return {
      {"Conv2d stem 3x3/2",
       [](Rng& r) { return std::make_unique<Conv2d>(3, 8, 3, 2, 1, 1, r); },
       V{3, 3, 8, 8}},
      {"Conv2d pointwise",
       [](Rng& r) { return std::make_unique<Conv2d>(8, 12, 1, 1, 0, 1, r); },
       V{3, 8, 8, 8}},
      {"Conv2d depthwise 3x3/1",
       [](Rng& r) { return std::make_unique<Conv2d>(8, 8, 3, 1, 1, 8, r); },
       V{3, 8, 8, 8}},
      {"Conv2d depthwise 5x5/2",
       [](Rng& r) { return std::make_unique<Conv2d>(8, 8, 5, 2, 2, 8, r); },
       V{3, 8, 8, 8}},
      {"Conv2d biased 3x3",
       [](Rng& r) {
         return std::make_unique<Conv2d>(4, 6, 3, 1, 1, 1, r, true);
       },
       V{2, 4, 6, 6}},
      {"BatchNorm2d",
       [](Rng&) { return std::make_unique<BatchNorm2d>(9); }, V{3, 9, 5, 3}},
      {"ReLU", [](Rng&) { return std::make_unique<ReLU>(); }, V{2, 5, 4, 4}},
      {"HSwish", [](Rng&) { return std::make_unique<HSwish>(); },
       V{2, 5, 4, 4}},
      {"HSigmoid", [](Rng&) { return std::make_unique<HSigmoid>(); },
       V{2, 5, 4, 4}},
      {"SEBlock", [](Rng& r) { return std::make_unique<SEBlock>(8, 4, r); },
       V{3, 8, 4, 4}},
      {"Linear", [](Rng& r) { return std::make_unique<Linear>(32, 10, r); },
       V{4, 32}},
      {"GlobalAvgPool", [](Rng&) { return std::make_unique<GlobalAvgPool>(); },
       V{3, 6, 4, 4}},
      {"MaxPool2d", [](Rng&) { return std::make_unique<MaxPool2d>(2, 2); },
       V{2, 4, 8, 8}},
      {"AvgPool2d", [](Rng&) { return std::make_unique<AvgPool2d>(2, 2); },
       V{2, 4, 8, 8}},
      {"Flatten", [](Rng&) { return std::make_unique<Flatten>(); },
       V{2, 3, 4, 4}},
      {"ChannelShuffle",
       [](Rng&) { return std::make_unique<ChannelShuffle>(2); },
       V{2, 8, 3, 3}},
      {"Sequential conv_bn_act",
       [](Rng& r) {
         return conv_bn_act(8, 16, 1, 1, 0, 1, Nonlinearity::kHSwish, r);
       },
       V{3, 8, 4, 4}},
      {"InvertedResidual skip",
       [](Rng& r) {
         return std::make_unique<InvertedResidual>(
             8, 16, 8, 3, 1, true, Nonlinearity::kReLU, r);
       },
       V{3, 8, 8, 8}},
      {"InvertedResidual no skip",
       [](Rng& r) {
         return std::make_unique<InvertedResidual>(
             8, 24, 16, 3, 2, false, Nonlinearity::kHSwish, r);
       },
       V{3, 8, 8, 8}},
      {"Residual",
       [](Rng& r) {
         return std::make_unique<Residual>(conv_bn(8, 8, 3, 1, 1, 1, r));
       },
       V{2, 8, 4, 4}},
      {"FireModule",
       [](Rng& r) { return std::make_unique<FireModule>(8, 4, 8, 8, r); },
       V{2, 8, 6, 6}},
      {"ShuffleUnit stride 1",
       [](Rng& r) { return std::make_unique<ShuffleUnit>(8, 8, 1, r); },
       V{2, 8, 6, 6}},
      {"ShuffleUnit stride 2",
       [](Rng& r) { return std::make_unique<ShuffleUnit>(8, 16, 2, r); },
       V{2, 8, 6, 6}},
  };
}

/// Every tensor a layer exposes: parameters, gradients, buffers.
std::vector<const Tensor*> layer_state(Layer& layer) {
  const ParamGroup g = layer.param_group();
  std::vector<const Tensor*> all(g.params.begin(), g.params.end());
  all.insert(all.end(), g.grads.begin(), g.grads.end());
  all.insert(all.end(), g.buffers.begin(), g.buffers.end());
  return all;
}

TEST(ValueSemantics, EveryZooLayerLeavesLvaluesAloneAndMovesBitIdentically) {
  const kernels::KernelKind saved = kernels::active_kernel();
  std::uint64_t seed = 900;
  for (kernels::KernelKind kind :
       {kernels::KernelKind::kTiled, kernels::KernelKind::kReference,
        kernels::KernelKind::kFast}) {
    kernels::set_active_kernel(kind);
    for (const ZooLayer& zl : zoo_layers()) {
      SCOPED_TRACE(std::string(zl.name) + " kernel=" +
                   kernels::kernel_name(kind));
      Rng init(seed), data(seed + 1);
      ++seed;
      std::unique_ptr<Layer> by_ref = zl.make(init);
      std::unique_ptr<Layer> by_move = by_ref->clone();
      // Two training steps (the second reuses the first one's caches), then
      // an eval forward.
      for (int step = 0; step < 3; ++step) {
        const bool train = step < 2;
        const Tensor x = Tensor::randn(zl.in_shape, data);
        Tensor x_lvalue = x;
        const Tensor y_ref = by_ref->forward(x_lvalue, train);
        EXPECT_TRUE(same_bits(x_lvalue, x)) << "forward changed its lvalue";
        Tensor x_moved = x;
        const Tensor y_move = by_move->forward(std::move(x_moved), train);
        EXPECT_TRUE(same_bits(y_move, y_ref)) << "forward, step " << step;
        if (train) {
          const Tensor dy = Tensor::randn(y_ref.shape(), data);
          Tensor dy_lvalue = dy;
          const Tensor g_ref = by_ref->backward(dy_lvalue);
          EXPECT_TRUE(same_bits(dy_lvalue, dy)) << "backward changed its lvalue";
          Tensor dy_moved = dy;
          const Tensor g_move = by_move->backward(std::move(dy_moved));
          EXPECT_TRUE(same_bits(g_move, g_ref)) << "backward, step " << step;
        }
        const auto want = layer_state(*by_ref);
        const auto got = layer_state(*by_move);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t t = 0; t < got.size(); ++t) {
          EXPECT_TRUE(same_bits(*got[t], *want[t]))
              << "state tensor " << t << ", step " << step;
        }
      }
    }
  }
  kernels::set_active_kernel(saved);
}

}  // namespace
}  // namespace hetero
