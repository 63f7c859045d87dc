// Leaf-layer bench: where one mobile-mini training step and one eval
// forward spend their time, by layer kind, and what the whole model costs.
//
// Walks the mobile-mini tree (Sequential, InvertedResidual bodies) and
// times every leaf's forward and backward separately, in the order
// Model::forward/backward would run them, for one B=10 training step and
// one B=32 eval forward on 32x32 inputs. The walk moves each activation
// from leaf to leaf as the containers do, so a leaf's time is its own work.
// Kinds: stem (dense k>1 conv), dw (depthwise conv), conv1 (1x1 conv), bn,
// hswish, relu, se (the whole squeeze-excitation block), gap and linear.
// The leaf split cannot see what the containers themselves cost, so two
// whole-model rows follow: Model::forward + backward for the B=10 step and
// Model::forward for the B=32 eval, each with its getrusage minor page
// faults per pass (mean over the repetitions). Each time is the minimum
// over N repetitions (N = 50 smoke, 300 at HS_SCALE=1). Honours HS_SEED and
// HS_KERNEL. The walked forward is checked bit for bit against
// Model::forward, so the split times the real work.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "bench_common.h"
#include "kernels/kernels.h"
#include "nn/blocks.h"
#include "nn/loss.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

using Clock = std::chrono::steady_clock;

std::string kind_of(Layer& layer) {
  const std::string name = layer.name();
  if (name == "Conv2d") {
    const Tensor& w = *layer.param_group().params.at(0);  // (out, in/g, k, k)
    if (w.dim(1) == 1 && w.dim(0) > 1) return "dw";
    return w.dim(2) == 1 ? "conv1" : "stem";
  }
  if (name == "BatchNorm2d") return "bn";
  if (name == "HSwish") return "hswish";
  if (name == "ReLU") return "relu";
  if (name == "SEBlock") return "se";
  if (name == "GlobalAvgPool") return "gap";
  if (name == "Linear") return "linear";
  return name;
}

/// Per-kind microseconds of one pass.
using KindTimes = std::map<std::string, double>;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Model::forward, one leaf at a time.
Tensor walk_forward(Layer& layer, Tensor x, bool train, KindTimes& times) {
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    for (std::size_t i = 0; i < seq->size(); ++i) {
      x = walk_forward(seq->layer(i), std::move(x), train, times);
    }
    return x;
  }
  if (auto* ir = dynamic_cast<InvertedResidual*>(&layer)) {
    if (!ir->has_skip()) {
      return walk_forward(ir->body(), std::move(x), train, times);
    }
    Tensor y = walk_forward(ir->body(), x, train, times);
    y += x;
    return y;
  }
  const auto t0 = Clock::now();
  Tensor y = layer.forward(std::move(x), train);
  times[kind_of(layer)] += us_since(t0);
  return y;
}

/// Model::backward, one leaf at a time (children in reverse).
Tensor walk_backward(Layer& layer, Tensor g, KindTimes& times) {
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    for (std::size_t i = seq->size(); i-- > 0;) {
      g = walk_backward(seq->layer(i), std::move(g), times);
    }
    return g;
  }
  if (auto* ir = dynamic_cast<InvertedResidual*>(&layer)) {
    if (!ir->has_skip()) return walk_backward(ir->body(), std::move(g), times);
    Tensor gi = walk_backward(ir->body(), g, times);
    gi += g;
    return gi;
  }
  const auto t0 = Clock::now();
  Tensor gi = layer.backward(std::move(g));
  times[kind_of(layer)] += us_since(t0);
  return gi;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Whole-model timing of one pass: the fastest wall time and the mean
/// minor faults over the repetitions.
struct PassStats {
  double best_us = std::numeric_limits<double>::infinity();
  long faults = 0;
  void add(double us, long f) {
    best_us = std::min(best_us, us);
    faults += f;
  }
};

void keep_min(KindTimes& best, const KindTimes& cur) {
  for (const auto& [kind, us] : cur) {
    auto it = best.find(kind);
    if (it == best.end() || us < it->second) best[kind] = us;
  }
}

double total(const KindTimes& t) {
  double s = 0.0;
  for (const auto& [kind, us] : t) s += us;
  return s;
}

}  // namespace

int main() {
  Scale scale;
  const auto reps = static_cast<int>(scale.n(50, 300));
  Rng rng(scale.seed());
  ModelSpec spec;
  auto model = make_model(spec, rng);
  Layer& net = model->net();
  const Tensor x_train = Tensor::rand_uniform({10, 3, 32, 32}, rng, 0, 1);
  const Tensor x_eval = Tensor::rand_uniform({32, 3, 32, 32}, rng, 0, 1);
  std::vector<std::size_t> labels(10);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 12;

  {
    KindTimes scratch;
    const Tensor walked = walk_forward(net, x_eval, false, scratch);
    const Tensor direct = model->forward(x_eval, false);
    if (std::memcmp(walked.data(), direct.data(),
                    direct.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "micro_layers: walked forward != Model::forward\n");
      return 1;
    }
  }

  SoftmaxCrossEntropy ce;
  KindTimes best_fwd, best_bwd, best_eval;
  PassStats train_pass, eval_pass;
  for (int r = 0; r < reps; ++r) {
    KindTimes fwd, bwd, eval;
    model->zero_grad();
    const Tensor logits = walk_forward(net, x_train, true, fwd);
    walk_backward(net, ce(logits, labels).grad, bwd);
    walk_forward(net, x_eval, false, eval);
    keep_min(best_fwd, fwd);
    keep_min(best_bwd, bwd);
    keep_min(best_eval, eval);

    // The whole model, as local_train and forward_all call it: the batch
    // and the loss gradient are moved in.
    model->zero_grad();
    Tensor xb = x_train;
    long f0 = minor_faults();
    auto t0 = Clock::now();
    const Tensor out = model->forward(std::move(xb), true);
    model->backward(ce(out, labels).grad);
    train_pass.add(us_since(t0), minor_faults() - f0);
    Tensor xe = x_eval;
    f0 = minor_faults();
    t0 = Clock::now();
    const Tensor eval_out = model->forward(std::move(xe), false);
    eval_pass.add(us_since(t0), minor_faults() - f0);
  }

  std::printf("micro_layers: mobile-mini 32x32, kernel=%s, min of %d\n",
              kernels::kernel_name(kernels::active_kernel()), reps);
  std::printf("%-8s %12s %12s %14s\n", "kind", "B10 fwd us", "B10 bwd us",
              "B32 eval us");
  for (const auto& [kind, us] : best_fwd) {
    std::printf("%-8s %12.1f %12.1f %14.1f\n", kind.c_str(), us,
                best_bwd[kind], best_eval[kind]);
  }
  std::printf("%-8s %12.1f %12.1f %14.1f\n", "sum", total(best_fwd),
              total(best_bwd), total(best_eval));
  std::printf("%-8s %12s %12s %14s %14s\n", "model", "B10 step us",
              "faults/pass", "B32 eval us", "faults/pass");
  std::printf("%-8s %12.1f %12.1f %14.1f %14.1f\n", "whole", train_pass.best_us,
              static_cast<double>(train_pass.faults) / reps, eval_pass.best_us,
              static_cast<double>(eval_pass.faults) / reps);
  return 0;
}
