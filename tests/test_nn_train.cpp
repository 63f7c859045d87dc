// Losses, optimizer, Model state plumbing, and the model zoo.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "kernels/kernels.h"
#include "util/codec.h"
#include "test_util.h"

namespace hetero {
namespace {

TEST(SoftmaxCE, UniformLogitsGiveLogC) {
  Tensor logits({2, 4});
  SoftmaxCrossEntropy ce;
  const auto r = ce(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5f);
}

TEST(SoftmaxCE, PerfectPredictionNearZeroLoss) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  const auto r = SoftmaxCrossEntropy()(logits, {0});
  EXPECT_NEAR(r.loss, 0.0f, 1e-4f);
}

TEST(SoftmaxCE, GradientMatchesNumeric) {
  Rng rng(1);
  Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<std::size_t> labels = {1, 4, 0};
  SoftmaxCrossEntropy ce;
  const auto r = ce(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float numeric =
        (ce(lp, labels, false).loss - ce(lm, labels, false).loss) / (2 * eps);
    EXPECT_NEAR(r.grad[i], numeric, 5e-3f) << "logit " << i;
  }
}

TEST(SoftmaxCE, GradRowsSumToZero) {
  Rng rng(2);
  Tensor logits = Tensor::randn({4, 6}, rng);
  const auto r = SoftmaxCrossEntropy()(logits, {0, 1, 2, 3});
  for (std::size_t i = 0; i < 4; ++i) {
    float s = 0.0f;
    for (std::size_t j = 0; j < 6; ++j) s += r.grad.at(i, j);
    EXPECT_NEAR(s, 0.0f, 1e-6f);
  }
}

TEST(SoftmaxCE, Validation) {
  SoftmaxCrossEntropy ce;
  EXPECT_THROW(ce(Tensor({2, 3}), {0}), std::invalid_argument);
  EXPECT_THROW(ce(Tensor({1, 3}), {3}), std::invalid_argument);
}

TEST(BceWithLogits, KnownValue) {
  Tensor logits({1, 2}, {0.0f, 0.0f});
  Tensor targets({1, 2}, {1.0f, 0.0f});
  const auto r = BceWithLogits()(logits, targets);
  EXPECT_NEAR(r.loss, std::log(2.0f), 1e-5f);
}

TEST(BceWithLogits, StableForExtremeLogits) {
  Tensor logits({1, 2}, {500.0f, -500.0f});
  Tensor targets({1, 2}, {1.0f, 0.0f});
  const auto r = BceWithLogits()(logits, targets);
  EXPECT_NEAR(r.loss, 0.0f, 1e-5f);
  EXPECT_TRUE(std::isfinite(r.loss));
}

TEST(BceWithLogits, GradientMatchesNumeric) {
  Rng rng(3);
  Tensor logits = Tensor::randn({2, 4}, rng);
  Tensor targets({2, 4});
  for (float& t : targets.flat()) t = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  BceWithLogits bce;
  const auto r = bce(logits, targets);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float numeric =
        (bce(lp, targets, false).loss - bce(lm, targets, false).loss) /
        (2 * eps);
    EXPECT_NEAR(r.grad[i], numeric, 5e-3f);
  }
}

TEST(Accuracy, CountsMatches) {
  Tensor logits({3, 2}, {1, 0, 0, 1, 1, 0});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1, 1}), 2.0 / 3.0);
}

TEST(Sgd, PlainStepMovesAgainstGradient) {
  Rng rng(4);
  Linear lin(2, 1, rng, false);
  lin.weight() = Tensor({1, 2}, {1.0f, 1.0f});
  ParamGroup g = lin.param_group();
  (*g.grads[0])[0] = 0.5f;
  (*g.grads[0])[1] = -0.5f;
  Sgd opt(lin, SgdOptions{0.1f, 0.0f, 0.0f});
  opt.step();
  EXPECT_NEAR(lin.weight()[0], 0.95f, 1e-6f);
  EXPECT_NEAR(lin.weight()[1], 1.05f, 1e-6f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Rng rng(5);
  Linear lin(1, 1, rng, false);
  lin.weight()[0] = 2.0f;
  Sgd opt(lin, SgdOptions{0.1f, 0.0f, 0.5f});
  opt.step();  // grad 0, decay pulls towards 0: w -= lr * wd * w
  EXPECT_NEAR(lin.weight()[0], 2.0f - 0.1f * 0.5f * 2.0f, 1e-6f);
}

TEST(Sgd, MomentumAccumulates) {
  Rng rng(6);
  Linear lin(1, 1, rng, false);
  lin.weight()[0] = 0.0f;
  ParamGroup g = lin.param_group();
  Sgd opt(lin, SgdOptions{1.0f, 0.9f, 0.0f});
  (*g.grads[0])[0] = 1.0f;
  opt.step();  // v=1, w=-1
  EXPECT_NEAR(lin.weight()[0], -1.0f, 1e-6f);
  opt.step();  // v=1.9, w=-2.9
  EXPECT_NEAR(lin.weight()[0], -2.9f, 1e-6f);
}

TEST(Sgd, StepAndZeroClearsGrads) {
  Rng rng(7);
  Linear lin(2, 2, rng);
  ParamGroup g = lin.param_group();
  g.grads[0]->fill(1.0f);
  Sgd opt(lin, SgdOptions{0.01f, 0.0f, 0.0f});
  opt.step_and_zero();
  EXPECT_EQ(g.grads[0]->sum(), 0.0f);
}

TEST(Model, StateRoundTrip) {
  Rng rng(8);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  auto model = make_model(spec, rng);
  const Tensor s0 = model->state();
  EXPECT_EQ(s0.size(), model->state_size());
  Tensor perturbed = s0;
  for (float& v : perturbed.flat()) v += 0.25f;
  model->set_state(perturbed);
  hetero::testing::expect_tensor_near(model->state(), perturbed);
  model->set_state(s0);
  hetero::testing::expect_tensor_near(model->state(), s0);
}

TEST(Model, ParamsExcludeBuffers) {
  Rng rng(9);
  ModelSpec spec;  // mobile-mini has batch norms -> buffers
  auto model = make_model(spec, rng);
  EXPECT_GT(model->num_buffers(), 0u);
  EXPECT_EQ(model->state_size(), model->num_params() + model->num_buffers());
  // set_params must not disturb buffers.
  const Tensor state_before = model->state();
  Tensor p = model->params();
  for (float& v : p.flat()) v = 0.0f;
  model->set_params(p);
  const Tensor state_after = model->state();
  for (std::size_t i = model->num_params(); i < model->state_size(); ++i) {
    EXPECT_EQ(state_after[i], state_before[i]);
  }
}

class ModelZooSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelZooSweep, ForwardShapeAndFiniteLogits) {
  Rng rng(10);
  ModelSpec spec;
  spec.arch = GetParam();
  spec.num_classes = 12;
  auto model = make_model(spec, rng);
  Tensor x = Tensor::rand_uniform({2, 3, 32, 32}, rng, 0.0f, 1.0f);
  Tensor y = model->forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 12}));
  for (float v : y.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(ModelZooSweep, TrainingStepRuns) {
  Rng rng(11);
  ModelSpec spec;
  spec.arch = GetParam();
  auto model = make_model(spec, rng);
  Tensor x = Tensor::rand_uniform({4, 3, 32, 32}, rng, 0.0f, 1.0f);
  const std::vector<std::size_t> labels = {0, 1, 2, 3};
  SoftmaxCrossEntropy ce;
  Sgd opt(model->net(), SgdOptions{0.05f, 0.0f, 0.0f});
  Tensor logits = model->forward(x, true);
  const auto l0 = ce(logits, labels);
  model->backward(l0.grad);
  opt.step_and_zero();
  // One step on the same batch should not increase loss dramatically.
  const auto l1 = ce(model->forward(x, true), labels, false);
  EXPECT_LT(l1.loss, l0.loss + 0.5f);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ModelZooSweep,
                         ::testing::Values("mobile-mini", "shuffle-mini",
                                           "squeeze-mini"));

TEST(ModelZoo, UnknownArchThrows) {
  Rng rng(12);
  ModelSpec spec;
  spec.arch = "resnet-9000";
  EXPECT_THROW(make_model(spec, rng), std::invalid_argument);
}

TEST(ModelZoo, NamesListed) {
  const auto names = model_zoo_names();
  EXPECT_EQ(names.size(), 4u);
}

TEST(ModelZoo, RawInputChannelsSupported) {
  Rng rng(13);
  ModelSpec spec;
  spec.in_channels = 4;  // packed RAW planes
  spec.image_size = 16;
  auto model = make_model(spec, rng);
  Tensor y = model->forward(Tensor::rand_uniform({1, 4, 16, 16}, rng, 0, 1),
                            false);
  EXPECT_EQ(y.dim(1), 12u);
}

TEST(ModelZoo, MobileMiniLearnsToyProblem) {
  // Two linearly separable "image" classes; a few steps should fit them.
  Rng rng(14);
  ModelSpec spec;
  spec.image_size = 8;
  spec.num_classes = 2;
  auto model = make_model(spec, rng);
  Tensor x({8, 3, 8, 8});
  std::vector<std::size_t> labels(8);
  for (std::size_t i = 0; i < 8; ++i) {
    labels[i] = i % 2;
    const float v = labels[i] == 0 ? 0.15f : 0.85f;
    for (std::size_t j = 0; j < 3 * 64; ++j) x[i * 3 * 64 + j] = v;
  }
  SoftmaxCrossEntropy ce;
  Sgd opt(model->net(), SgdOptions{0.1f, 0.0f, 0.0f});
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 40; ++step) {
    Tensor logits = model->forward(x, true);
    const auto l = ce(logits, labels);
    if (step == 0) first = l.loss;
    last = l.loss;
    model->backward(l.grad);
    opt.step_and_zero();
  }
  EXPECT_LT(last, first * 0.5f);
}

// ------------------------------------------------- whole-model digests --
// Three B=10 momentum-SGD steps of mobile-mini and shuffle-mini on fixed
// inputs, then one eval forward. The CRC-32 of the parameters, the last
// step's gradients, the BN running statistics and the eval logits is
// pinned per kernel kind, so a rewrite of any layer (GEMM, convolution,
// BatchNorm, activations, SE, pooling) that moves a single bit anywhere
// in training or inference fails here.

std::uint32_t crc_of(const Tensor& t, std::uint32_t seed) {
  return crc32(reinterpret_cast<const std::uint8_t*>(t.data()),
               t.size() * sizeof(float), seed);
}

std::uint32_t train_digest(const std::string& arch,
                           kernels::KernelKind kind) {
  const kernels::KernelKind saved = kernels::active_kernel();
  kernels::set_active_kernel(kind);
  Rng rng(2024);
  ModelSpec spec;
  spec.arch = arch;
  auto model = make_model(spec, rng);
  const Tensor x = Tensor::randn({10, 3, 32, 32}, rng);
  std::vector<std::size_t> labels(10);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = (i * 5) % 12;
  SoftmaxCrossEntropy ce;
  Sgd opt(model->net(), SgdOptions{0.05f, 0.9f, 1e-4f});
  for (int step = 0; step < 3; ++step) {
    model->zero_grad();
    const auto l = ce(model->forward(x, true), labels);
    model->backward(l.grad);
    opt.step();
  }
  std::uint32_t crc = crc_of(model->state(), 0);  // params, then BN buffers
  crc = crc_of(model->grads(), crc);
  crc = crc_of(model->forward(x, false), crc);
  kernels::set_active_kernel(saved);
  return crc;
}

/// The fast kind's bits depend on which clone runs (FMA contraction only
/// happens in the x86-64-v3 one, and sanitizer builds compile clones out),
/// so its digest is pinned only where that clone is the one selected.
bool fast_clone_selected() {
#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  return __builtin_cpu_supports("x86-64-v3");
#else
  return false;
#endif
}

TEST(ModelDigest, MobileMiniTrainingIsPinned) {
  EXPECT_EQ(train_digest("mobile-mini", kernels::KernelKind::kTiled),
            0x412D87CBu);
  EXPECT_EQ(train_digest("mobile-mini", kernels::KernelKind::kReference),
            0x30990868u);
  if (fast_clone_selected()) {
    EXPECT_EQ(train_digest("mobile-mini", kernels::KernelKind::kFast),
              0x35711BC4u);
  }
}

TEST(ModelDigest, ShuffleMiniTrainingIsPinned) {
  EXPECT_EQ(train_digest("shuffle-mini", kernels::KernelKind::kTiled),
            0x11448F92u);
  EXPECT_EQ(train_digest("shuffle-mini", kernels::KernelKind::kReference),
            0xEA914248u);
  if (fast_clone_selected()) {
    EXPECT_EQ(train_digest("shuffle-mini", kernels::KernelKind::kFast),
              0x6B425CB3u);
  }
}

}  // namespace
}  // namespace hetero
