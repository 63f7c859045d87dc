// Parity, determinism and allocation tests for the compute-kernel layer
// (src/kernels). The reference kind is the byte-for-byte seed
// implementation; these tests pin the tiled kind to it:
//   * GEMM variants are bit-identical across kinds (same per-element
//     reduction order and precision).
//   * Convolution forward and input gradient are bit-identical; the weight
//     gradient matches exactly for batch size 1 and to tight tolerance for
//     larger batches (batched single-rounding vs per-sample rounding —
//     DESIGN.md §9).
//   * Training is bit-identical across thread counts for a fixed kind.
//   * The tiled conv/linear hot paths perform zero heap allocations in
//     steady state (global operator new hook + Workspace::grow_count()).
//   * The layer-glue kernels (channel-lane sums, BatchNorm affine map)
//     reproduce the seed's scalar chains bit for bit, on exactly-sized
//     buffers so a sanitizer build catches any read past a plane's tail,
//     and every in-place twin matches its out-of-place kernel bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <new>
#include <vector>

#include "fl/algorithm.h"
#include "fl/simulation.h"
#include "kernels/kernels.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/model_zoo.h"
#include "seed_loops.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "util/rng.h"

// ------------------------------------------------- allocation counting ----
// Global counter of operator-new calls; tests snapshot it around warmed-up
// kernel invocations to prove the steady state allocates nothing.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// The replacement operator new below returns malloc memory, so free() in
// the matching deletes is correct; GCC cannot see through the replacement.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hetero {
namespace {

using kernels::ConvShape;
using kernels::KernelKind;

void fill_random(std::vector<float>& v, Rng& rng, float lo = -1.0f,
                 float hi = 1.0f) {
  for (float& x : v) x = rng.uniform_f(lo, hi);
}

/// Restores the process kernel kind on scope exit so tests compose.
struct KernelGuard {
  KernelKind saved = kernels::active_kernel();
  ~KernelGuard() { kernels::set_active_kernel(saved); }
};

// ------------------------------------------------------------ GEMM parity --

struct GemmShape {
  std::size_t m, k, n;
};

const GemmShape kGemmShapes[] = {{1, 1, 1},    {2, 3, 4},   {7, 5, 9},
                                 {16, 16, 16}, {33, 17, 65}, {5, 1, 13},
                                 {64, 48, 100}};

TEST(GemmParity, NnBitIdenticalAcrossKinds) {
  Rng rng(101);
  for (const auto& s : kGemmShapes) {
    std::vector<float> a(s.m * s.k), b(s.k * s.n);
    fill_random(a, rng);
    fill_random(b, rng);
    a[0] = 0.0f;  // exercise the reference zero-skip branch
    std::vector<float> c_ref(s.m * s.n), c_til(s.m * s.n);
    kernels::gemm_nn(KernelKind::kReference, a.data(), b.data(), c_ref.data(),
                     s.m, s.k, s.n, false);
    kernels::gemm_nn(KernelKind::kTiled, a.data(), b.data(), c_til.data(),
                     s.m, s.k, s.n, false);
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_EQ(c_ref[i], c_til[i]) << s.m << "x" << s.k << "x" << s.n
                                    << " elem " << i;
    }
  }
}

TEST(GemmParity, NtBitIdenticalAcrossKindsIncludingAccumulate) {
  Rng rng(102);
  for (const auto& s : kGemmShapes) {
    std::vector<float> a(s.m * s.k), b(s.n * s.k), base(s.m * s.n);
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(base, rng);
    std::vector<float> c_ref = base, c_til = base;
    kernels::gemm_nt(KernelKind::kReference, a.data(), b.data(), c_ref.data(),
                     s.m, s.k, s.n, true);
    kernels::gemm_nt(KernelKind::kTiled, a.data(), b.data(), c_til.data(),
                     s.m, s.k, s.n, true);
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_EQ(c_ref[i], c_til[i]) << s.m << "x" << s.k << "x" << s.n
                                    << " elem " << i;
    }
  }
}

TEST(GemmParity, TnBitIdenticalAcrossKinds) {
  Rng rng(103);
  for (const auto& s : kGemmShapes) {
    // A is (m, k): reduction over m produces a (k, n) result.
    std::vector<float> a(s.m * s.k), b(s.m * s.n);
    fill_random(a, rng);
    fill_random(b, rng);
    if (a.size() > 2) a[2] = 0.0f;  // reference zero-skip branch
    std::vector<float> c_ref(s.k * s.n), c_til(s.k * s.n);
    kernels::gemm_tn(KernelKind::kReference, a.data(), b.data(), c_ref.data(),
                     s.m, s.k, s.n, false);
    kernels::gemm_tn(KernelKind::kTiled, a.data(), b.data(), c_til.data(),
                     s.m, s.k, s.n, false);
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_EQ(c_ref[i], c_til[i]) << s.m << "x" << s.k << "x" << s.n
                                    << " elem " << i;
    }
  }
}

TEST(GemmParity, TensorOpsMatchAcrossKinds) {
  KernelGuard guard;
  Rng rng(104);
  Tensor a = Tensor::randn({9, 14}, rng, 1.0f);
  Tensor b = Tensor::randn({14, 11}, rng, 1.0f);
  Tensor bt = Tensor::randn({11, 14}, rng, 1.0f);
  Tensor c = Tensor::randn({9, 11}, rng, 1.0f);
  kernels::set_active_kernel(KernelKind::kReference);
  const Tensor nn_ref = matmul(a, b);
  const Tensor nt_ref = matmul_transpose_b(a, bt);
  const Tensor tn_ref = matmul_transpose_a(a, c);
  kernels::set_active_kernel(KernelKind::kTiled);
  const Tensor nn_til = matmul(a, b);
  const Tensor nt_til = matmul_transpose_b(a, bt);
  const Tensor tn_til = matmul_transpose_a(a, c);
  for (std::size_t i = 0; i < nn_ref.size(); ++i) {
    EXPECT_EQ(nn_ref[i], nn_til[i]);
  }
  for (std::size_t i = 0; i < nt_ref.size(); ++i) {
    EXPECT_EQ(nt_ref[i], nt_til[i]);
  }
  for (std::size_t i = 0; i < tn_ref.size(); ++i) {
    EXPECT_EQ(tn_ref[i], tn_til[i]);
  }
}

// ----------------------------------------------------- convolution parity --

struct ConvCase {
  std::size_t n, in_c, out_c, k, stride, pad, groups;
};

std::vector<ConvCase> conv_cases() {
  std::vector<ConvCase> cases;
  for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      for (std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
        for (std::size_t pad : {std::size_t{0}, std::size_t{1}}) {
          if (pad >= k) continue;  // pad < kernel keeps every tap reachable
          cases.push_back({n, 4, 6, k, stride, pad, 1});
          cases.push_back({n, 4, 6, k, stride, pad, 2});
        }
      }
    }
    // Depthwise (groups == channels), the MobileNet/ShuffleNet hot case.
    cases.push_back({n, 4, 4, 3, 1, 1, 4});
    cases.push_back({n, 4, 4, 3, 2, 1, 4});
  }
  return cases;
}

ConvShape make_shape(const ConvCase& c, std::size_t hw) {
  ConvShape s;
  s.n = c.n;
  s.in_c = c.in_c;
  s.in_h = hw;
  s.in_w = hw;
  s.out_c = c.out_c;
  s.kernel = c.k;
  s.stride = c.stride;
  s.pad = c.pad;
  s.groups = c.groups;
  return s;
}

TEST(ConvParity, ForwardBitIdenticalAcrossKinds) {
  Rng rng(201);
  for (const ConvCase& c : conv_cases()) {
    const ConvShape s = make_shape(c, 8);
    std::vector<float> x(s.n * s.in_c * s.in_h * s.in_w);
    std::vector<float> w(s.out_c * s.group_in_c() * s.kernel * s.kernel);
    std::vector<float> bias(s.out_c);
    fill_random(x, rng);
    fill_random(w, rng);
    fill_random(bias, rng);
    const std::size_t y_size = s.n * s.out_c * s.out_h() * s.out_w();
    std::vector<float> y_ref(y_size), y_til(y_size);
    std::vector<float> cols_ref(s.cols_size()), cols_til(s.cols_size());
    kernels::Workspace ws_ref, ws_til;
    kernels::conv2d_forward(KernelKind::kReference, s, x.data(), w.data(),
                            bias.data(), y_ref.data(), cols_ref.data(),
                            ws_ref);
    kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                            bias.data(), y_til.data(), cols_til.data(),
                            ws_til);
    for (std::size_t i = 0; i < y_size; ++i) {
      ASSERT_EQ(y_ref[i], y_til[i])
          << "n=" << c.n << " k=" << c.k << " s=" << c.stride
          << " p=" << c.pad << " g=" << c.groups << " elem " << i;
    }
  }
}

TEST(ConvParity, BackwardMatchesAcrossKinds) {
  Rng rng(202);
  for (const ConvCase& c : conv_cases()) {
    const ConvShape s = make_shape(c, 8);
    const std::size_t w_size =
        s.out_c * s.group_in_c() * s.kernel * s.kernel;
    const std::size_t y_size = s.n * s.out_c * s.out_h() * s.out_w();
    const std::size_t x_size = s.n * s.in_c * s.in_h * s.in_w;
    std::vector<float> x(x_size), w(w_size), grad_out(y_size);
    fill_random(x, rng);
    fill_random(w, rng);
    fill_random(grad_out, rng);
    // Non-zero starting gradients exercise the += contract.
    std::vector<float> gw_base(w_size), gb_base(s.out_c);
    fill_random(gw_base, rng, -0.1f, 0.1f);
    fill_random(gb_base, rng, -0.1f, 0.1f);

    std::vector<float> cols_ref(s.cols_size()), cols_til(s.cols_size());
    std::vector<float> y(y_size);
    kernels::Workspace ws_ref, ws_til;
    kernels::conv2d_forward(KernelKind::kReference, s, x.data(), w.data(),
                            nullptr, y.data(), cols_ref.data(), ws_ref);
    kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                            nullptr, y.data(), cols_til.data(), ws_til);

    std::vector<float> gw_ref = gw_base, gw_til = gw_base;
    std::vector<float> gb_ref = gb_base, gb_til = gb_base;
    std::vector<float> gx_ref(x_size), gx_til(x_size);
    kernels::conv2d_backward(KernelKind::kReference, s, grad_out.data(),
                             w.data(), cols_ref.data(), gw_ref.data(),
                             gb_ref.data(), gx_ref.data(), ws_ref);
    kernels::conv2d_backward(KernelKind::kTiled, s, grad_out.data(), w.data(),
                             cols_til.data(), gw_til.data(), gb_til.data(),
                             gx_til.data(), ws_til);

    // Input gradient and bias gradient: bit-identical.
    for (std::size_t i = 0; i < x_size; ++i) {
      ASSERT_EQ(gx_ref[i], gx_til[i])
          << "n=" << c.n << " k=" << c.k << " s=" << c.stride
          << " p=" << c.pad << " g=" << c.groups << " dX elem " << i;
    }
    for (std::size_t i = 0; i < s.out_c; ++i) {
      ASSERT_EQ(gb_ref[i], gb_til[i]) << "dB elem " << i;
    }
    // Weight gradient: the one tensor that drifts — the tiled kind reduces
    // it in f32 over the whole batch where the reference takes one f64 dot
    // per sample (DESIGN.md §9).
    for (std::size_t i = 0; i < w_size; ++i) {
      const float tol = 1e-4f * std::max(1.0f, std::fabs(gw_ref[i]));
      ASSERT_NEAR(gw_ref[i], gw_til[i], tol)
          << "n=" << c.n << " k=" << c.k << " s=" << c.stride
          << " p=" << c.pad << " g=" << c.groups << " dW elem " << i;
    }
  }
}

TEST(ConvParity, FixedDepthwisePlanesMatchReferenceAndTapChains) {
  // Every fixed-shape depthwise plane kernel (out_w, kernel, stride): the
  // forward and dX against the reference kind bit for bit, and dW against
  // the tiled tap chain (per-lane sums over output rows in ascending order,
  // the lanes then summed in order, samples in ascending order).
  struct DwCase {
    std::size_t hw, k, stride, pad;
  };
  const DwCase cases[] = {{16, 3, 1, 1}, {8, 3, 1, 1}, {4, 3, 1, 1},
                          {16, 3, 2, 1}, {8, 3, 2, 1}, {8, 5, 2, 2}};
  Rng rng(204);
  for (const DwCase& dc : cases) {
    const ConvCase c{3, 5, 5, dc.k, dc.stride, dc.pad, 5};
    const ConvShape s = make_shape(c, dc.hw);
    const std::size_t oh = s.out_h(), ow = s.out_w(), kk = dc.k * dc.k;
    const std::size_t x_size = s.n * s.in_c * dc.hw * dc.hw;
    const std::size_t y_size = s.n * s.out_c * oh * ow;
    std::vector<float> x(x_size), w(s.out_c * kk), bias(s.out_c),
        grad_out(y_size), gw_base(s.out_c * kk);
    fill_random(x, rng);
    fill_random(w, rng);
    fill_random(bias, rng);
    fill_random(grad_out, rng);
    fill_random(gw_base, rng, -0.1f, 0.1f);
    w[1] = 0.0f;  // a zero-weight tap, which the reference skips
    const std::string tag = "hw=" + std::to_string(dc.hw) +
                            " k=" + std::to_string(dc.k) +
                            " s=" + std::to_string(dc.stride);

    std::vector<float> y_ref(y_size), y_til(y_size);
    std::vector<float> cols_ref(s.cols_size()), cols_til(s.cols_size());
    kernels::Workspace ws_ref, ws_til;
    kernels::conv2d_forward(KernelKind::kReference, s, x.data(), w.data(),
                            bias.data(), y_ref.data(), cols_ref.data(),
                            ws_ref);
    kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                            bias.data(), y_til.data(), cols_til.data(),
                            ws_til);
    EXPECT_EQ(0, std::memcmp(y_ref.data(), y_til.data(),
                             y_size * sizeof(float)))
        << tag << " forward";

    std::vector<float> gw_ref = gw_base, gw_til = gw_base;
    std::vector<float> gx_ref(x_size), gx_til(x_size);
    kernels::conv2d_backward(KernelKind::kReference, s, grad_out.data(),
                             w.data(), cols_ref.data(), gw_ref.data(),
                             nullptr, gx_ref.data(), ws_ref);
    kernels::conv2d_backward(KernelKind::kTiled, s, grad_out.data(), w.data(),
                             x.data(), gw_til.data(), nullptr, gx_til.data(),
                             ws_til);
    EXPECT_EQ(0, std::memcmp(gx_ref.data(), gx_til.data(),
                             x_size * sizeof(float)))
        << tag << " dX";

    std::vector<float> gw_want = gw_base;
    for (std::size_t ch = 0; ch < s.out_c; ++ch) {
      for (std::size_t smp = 0; smp < s.n; ++smp) {
        const float* plane = x.data() + (smp * s.in_c + ch) * dc.hw * dc.hw;
        const float* go = grad_out.data() + (smp * s.out_c + ch) * oh * ow;
        for (std::size_t ky = 0; ky < dc.k; ++ky) {
          for (std::size_t kx = 0; kx < dc.k; ++kx) {
            std::vector<float> lanes(ow, 0.0f);
            for (std::size_t oy = 0; oy < oh; ++oy) {
              for (std::size_t l = 0; l < ow; ++l) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * dc.stride + ky) -
                    static_cast<std::ptrdiff_t>(dc.pad);
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(l * dc.stride + kx) -
                    static_cast<std::ptrdiff_t>(dc.pad);
                const bool inside = iy >= 0 && ix >= 0 &&
                                    iy < static_cast<std::ptrdiff_t>(dc.hw) &&
                                    ix < static_cast<std::ptrdiff_t>(dc.hw);
                const float xv = inside ? plane[iy * dc.hw + ix] : 0.0f;
                lanes[l] += go[oy * ow + l] * xv;
              }
            }
            float tap = 0.0f;
            for (std::size_t l = 0; l < ow; ++l) tap += lanes[l];
            gw_want[ch * kk + ky * dc.k + kx] += tap;
          }
        }
      }
    }
    EXPECT_EQ(0, std::memcmp(gw_want.data(), gw_til.data(),
                             gw_want.size() * sizeof(float)))
        << tag << " dW";
  }
}

TEST(ConvParity, LayerForwardBackwardMatchesAcrossKinds) {
  // End-to-end through the Conv2d layer (workspace caching, clone path).
  KernelGuard guard;
  Rng rng(203);
  Tensor x = Tensor::randn({2, 4, 8, 8}, rng, 1.0f);
  Tensor go = Tensor::randn({2, 6, 8, 8}, rng, 1.0f);

  auto run = [&](KernelKind kind) {
    kernels::set_active_kernel(kind);
    Rng wrng(7);
    Conv2d conv(4, 6, 3, 1, 1, 2, wrng, true);
    auto copy = conv.clone();  // satellite: cheap clone must be faithful
    const Tensor y = copy->forward(x, true);
    const Tensor gx = copy->backward(go);
    return std::make_pair(y, gx);
  };
  const auto [y_ref, gx_ref] = run(KernelKind::kReference);
  const auto [y_til, gx_til] = run(KernelKind::kTiled);
  ASSERT_EQ(y_ref.size(), y_til.size());
  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    EXPECT_EQ(y_ref[i], y_til[i]);
  }
  ASSERT_EQ(gx_ref.size(), gx_til.size());
  for (std::size_t i = 0; i < gx_ref.size(); ++i) {
    EXPECT_EQ(gx_ref[i], gx_til[i]);
  }
}

// ----------------------------------------------------------- dispatching --

TEST(KernelDispatch, SetActiveKernelRoundTrips) {
  KernelGuard guard;
  kernels::set_active_kernel(KernelKind::kReference);
  EXPECT_EQ(kernels::active_kernel(), KernelKind::kReference);
  kernels::set_active_kernel(KernelKind::kTiled);
  EXPECT_EQ(kernels::active_kernel(), KernelKind::kTiled);
  EXPECT_STREQ(kernels::kernel_name(KernelKind::kReference), "reference");
  EXPECT_STREQ(kernels::kernel_name(KernelKind::kTiled), "tiled");
}

// ---------------------------------------- determinism across thread counts --

SimulationResult run_conv_sim(std::size_t num_threads, KernelKind kind) {
  KernelGuard guard;
  kernels::set_active_kernel(kind);
  Rng mrng(31);
  ModelSpec spec;
  spec.arch = "squeeze-mini";  // conv-heavy: stem, Fire modules, 1x1 head
  spec.image_size = 8;
  spec.num_classes = 2;
  auto model = make_model(spec, mrng);

  FlPopulation pop;
  for (std::size_t i = 0; i < 4; ++i) {
    Rng rng(600 + i);
    const std::size_t n = 8;
    Tensor xs({n, 3, 8, 8});
    std::vector<std::size_t> labels(n);
    for (std::size_t j = 0; j < n; ++j) {
      labels[j] = j % 2;
      const float base = labels[j] == 0 ? 0.2f : 0.8f;
      for (std::size_t p = 0; p < 3 * 64; ++p) {
        xs[j * 3 * 64 + p] = base + rng.uniform_f(-0.05f, 0.05f);
      }
    }
    pop.client_train.emplace_back(std::move(xs), std::move(labels));
    pop.client_device.push_back(0);
  }
  {
    Rng rng(700);
    const std::size_t n = 8;
    Tensor xs({n, 3, 8, 8});
    std::vector<std::size_t> labels(n);
    for (std::size_t j = 0; j < n; ++j) {
      labels[j] = j % 2;
      for (std::size_t p = 0; p < 3 * 64; ++p) {
        xs[j * 3 * 64 + p] = rng.uniform_f(0.0f, 1.0f);
      }
    }
    pop.device_test.emplace_back(std::move(xs), std::move(labels));
    pop.device_names.push_back("synthetic");
  }

  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  FedAvg algo(cfg);
  SimulationConfig sim;
  sim.rounds = 2;
  sim.clients_per_round = 3;
  sim.seed = 31;
  sim.num_threads = num_threads;
  return run_simulation(*model, algo, pop, sim);
}

TEST(Determinism, ConvTrainingBitIdenticalAcrossThreadCountsPerKind) {
  for (KernelKind kind : {KernelKind::kTiled, KernelKind::kReference}) {
    const SimulationResult r1 = run_conv_sim(1, kind);
    const SimulationResult r2 = run_conv_sim(2, kind);
    ASSERT_EQ(r1.train_loss_history.size(), r2.train_loss_history.size());
    for (std::size_t t = 0; t < r1.train_loss_history.size(); ++t) {
      EXPECT_EQ(r1.train_loss_history[t], r2.train_loss_history[t])
          << kernels::kernel_name(kind) << " round " << t;
    }
    ASSERT_EQ(r1.final_metrics.per_device.size(),
              r2.final_metrics.per_device.size());
    for (std::size_t i = 0; i < r1.final_metrics.per_device.size(); ++i) {
      EXPECT_EQ(r1.final_metrics.per_device[i],
                r2.final_metrics.per_device[i]);
    }
    EXPECT_EQ(r1.final_metrics.average, r2.final_metrics.average);
  }
}

// --------------------------------------------------------- allocation-free --

TEST(ZeroAlloc, TiledConvSteadyStateDoesNotAllocate) {
  const ConvShape s = make_shape({4, 8, 16, 3, 1, 1, 1}, 8);
  Rng rng(301);
  std::vector<float> x(s.n * s.in_c * s.in_h * s.in_w);
  std::vector<float> w(s.out_c * s.group_in_c() * s.kernel * s.kernel);
  std::vector<float> bias(s.out_c);
  std::vector<float> grad_out(s.n * s.out_c * s.out_h() * s.out_w());
  fill_random(x, rng);
  fill_random(w, rng);
  fill_random(bias, rng);
  fill_random(grad_out, rng);
  std::vector<float> y(grad_out.size());
  std::vector<float> cols(s.cols_size());
  std::vector<float> gw(w.size()), gb(s.out_c), gx(x.size());
  kernels::Workspace ws;

  auto step = [&] {
    kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                            bias.data(), y.data(), cols.data(), ws);
    std::fill(gx.begin(), gx.end(), 0.0f);
    kernels::conv2d_backward(KernelKind::kTiled, s, grad_out.data(), w.data(),
                             cols.data(), gw.data(), gb.data(), gx.data(),
                             ws);
  };
  step();  // warm-up populates workspace slots
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t grows_before = kernels::Workspace::grow_count();
  step();
  step();
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), allocs_before);
  EXPECT_EQ(kernels::Workspace::grow_count(), grows_before);
}

TEST(ZeroAlloc, TiledGemmsDoNotAllocate) {
  Rng rng(302);
  std::vector<float> a(48 * 36), b(36 * 52), bt(52 * 36), c(48 * 52);
  std::vector<float> tn_out(36 * 52), tn_b(48 * 52);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(bt, rng);
  fill_random(tn_b, rng);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  kernels::gemm_nn(KernelKind::kTiled, a.data(), b.data(), c.data(), 48, 36,
                   52, false);
  kernels::gemm_nt(KernelKind::kTiled, a.data(), bt.data(), c.data(), 48, 36,
                   52, false);
  kernels::gemm_tn(KernelKind::kTiled, a.data(), tn_b.data(), tn_out.data(),
                   48, 36, 52, false);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before);
}

TEST(ZeroAlloc, LayerWorkspacesStopGrowingAfterWarmup) {
  // Conv2d and Linear reuse their workspace arenas across steps: after one
  // warmed-up step the process-wide grow count must stay flat.
  KernelGuard guard;
  kernels::set_active_kernel(KernelKind::kTiled);
  Rng rng(303);
  Conv2d conv(4, 8, 3, 1, 1, 1, rng, false);
  Linear fc(32, 10, rng, true);
  Tensor x = Tensor::randn({3, 4, 8, 8}, rng, 1.0f);
  Tensor go = Tensor::randn({3, 8, 8, 8}, rng, 1.0f);
  Tensor fx = Tensor::randn({5, 32}, rng, 1.0f);
  Tensor fgo = Tensor::randn({5, 10}, rng, 1.0f);

  auto step = [&] {
    (void)conv.forward(x, true);
    (void)conv.backward(go);
    (void)fc.forward(fx, true);
    (void)fc.backward(fgo);
  };
  // Two warm-ups (first builds slots, second confirms shape-stable reuse).
  step();
  const std::uint64_t grows = kernels::Workspace::grow_count();
  step();
  step();
  EXPECT_EQ(kernels::Workspace::grow_count(), grows);
}

// ------------------------------------------------------------ layer glue --

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(LayerGlue, ChannelSumsMatchSeedChains) {
  Rng rng(70);
  for (std::size_t n : {1u, 10u}) {
    for (std::size_t c : {1u, 3u, 7u, 8u, 9u, 12u, 48u}) {
      for (std::size_t hw : {1u, 3u, 15u, 16u, 64u, 256u}) {
        const std::string tag = "n=" + std::to_string(n) +
                                " c=" + std::to_string(c) +
                                " hw=" + std::to_string(hw);
        const Tensor ta = testing::edge_case_tensor({n, c, hw}, rng);
        const Tensor tb = testing::edge_case_tensor({n, c, hw}, rng);
        // Exactly-sized copies: nothing past the last plane is addressable.
        const std::vector<float> a(ta.data(), ta.data() + ta.size());
        const std::vector<float> b(tb.data(), tb.data() + tb.size());
        // The seed's chains: one f64 accumulator per channel, (sample,
        // index) ascending.
        std::vector<double> want_a(c), want_aa(c), want_ab(c);
        for (std::size_t ch = 0; ch < c; ++ch) {
          double sa = 0.0, saa = 0.0, sab = 0.0;
          for (std::size_t s = 0; s < n; ++s) {
            const float* pa = a.data() + (s * c + ch) * hw;
            const float* pb = b.data() + (s * c + ch) * hw;
            for (std::size_t i = 0; i < hw; ++i) {
              sa += pa[i];
              saa += static_cast<double>(pa[i]) * pa[i];
              sab += static_cast<double>(pa[i]) * pb[i];
            }
          }
          want_a[ch] = sa;
          want_aa[ch] = saa;
          want_ab[ch] = sab;
        }
        std::vector<double> got_a(c), got_b(c);
        kernels::channel_sums(a.data(), a.data(), n, c, hw, got_a.data(),
                              got_b.data());
        EXPECT_TRUE(same_doubles(got_a, want_a)) << tag;
        EXPECT_TRUE(same_doubles(got_b, want_aa)) << tag;
        kernels::channel_sums(a.data(), b.data(), n, c, hw, got_a.data(),
                              got_b.data());
        EXPECT_TRUE(same_doubles(got_a, want_a)) << tag;
        EXPECT_TRUE(same_doubles(got_b, want_ab)) << tag;
      }
    }
  }
}

TEST(LayerGlue, BnNormalizeStoresSeedOutputAndXhat) {
  Rng rng(71);
  for (std::size_t n : {1u, 10u}) {
    for (std::size_t c : {1u, 7u, 9u, 48u}) {
      for (std::size_t hw : {1u, 15u, 64u}) {
        const std::string tag = "n=" + std::to_string(n) +
                                " c=" + std::to_string(c) +
                                " hw=" + std::to_string(hw);
        const Tensor tx = testing::edge_case_tensor({n, c, hw}, rng);
        const std::vector<float> x(tx.data(), tx.data() + tx.size());
        std::vector<float> mean(c), inv(c), gamma(c), beta(c);
        fill_random(mean, rng);
        fill_random(inv, rng, 0.1f, 3.0f);
        fill_random(gamma, rng);
        fill_random(beta, rng);
        std::vector<float> want_y(x.size()), want_xhat(x.size());
        for (std::size_t s = 0; s < n; ++s) {
          for (std::size_t ch = 0; ch < c; ++ch) {
            for (std::size_t i = 0; i < hw; ++i) {
              const std::size_t k = (s * c + ch) * hw + i;
              const float xh = (x[k] - mean[ch]) * inv[ch];
              want_xhat[k] = xh;
              want_y[k] = gamma[ch] * xh + beta[ch];
            }
          }
        }
        std::vector<float> y = x, xhat(x.size());
        kernels::bn_normalize_inplace(y.data(), xhat.data(), n, c, hw,
                                      mean.data(), inv.data(), gamma.data(),
                                      beta.data());
        const std::size_t bytes = x.size() * sizeof(float);
        EXPECT_EQ(0, std::memcmp(y.data(), want_y.data(), bytes)) << tag;
        EXPECT_EQ(0, std::memcmp(xhat.data(), want_xhat.data(), bytes))
            << tag;
        std::vector<float> y_eval = x;
        kernels::bn_normalize_inplace(y_eval.data(), nullptr, n, c, hw,
                                      mean.data(), inv.data(), gamma.data(),
                                      beta.data());
        EXPECT_EQ(0, std::memcmp(y_eval.data(), want_y.data(), bytes))
            << tag;
      }
    }
  }
}

/// An exactly-sized copy of a tensor's elements.
std::vector<float> values_of(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.size());
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(LayerGlue, InPlaceKernelsMatchSeedLoopsAndTwins) {
  Rng rng(72);
  testing::for_oracle_shapes([&](std::size_t n, std::size_t c, std::size_t h,
                                 std::size_t w, const std::string& tag) {
    const std::size_t hw = h * w, count = n * c * hw;
    const Tensor tx = testing::edge_case_tensor({count}, rng);
    const Tensor tdy = testing::edge_case_tensor({count}, rng);
    const std::vector<float> x = values_of(tx), dy = values_of(tdy);
    std::vector<float> gi(c), k1(c), k2(c), scale(n * c);
    fill_random(gi, rng);
    fill_random(k1, rng);
    fill_random(k2, rng);
    fill_random(scale, rng, -2.0f, 2.0f);

    // BatchNorm input gradient against the seed loop (x stands in for the
    // xhat cache).
    std::vector<float> want(count);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t i = 0; i < hw; ++i) {
          const std::size_t k = (s * c + ch) * hw + i;
          want[k] = gi[ch] * (dy[k] - k1[ch] - x[k] * k2[ch]);
        }
      }
    }
    std::vector<float> v = dy;
    kernels::bn_input_grad_inplace(v.data(), x.data(), n, c, hw, gi.data(),
                                   k1.data(), k2.data());
    EXPECT_TRUE(same_floats(v, want)) << tag << " bn_input_grad_inplace";

    // Hard-sigmoid / hard-swish backward against the seed loops.
    v = dy;
    kernels::hsigmoid_backward_inplace(x.data(), v.data(), count);
    EXPECT_TRUE(same_floats(v, values_of(testing::seed_hsigmoid_backward(
                                   tx, tdy))))
        << tag << " hsigmoid_backward_inplace";
    v = dy;
    kernels::hswish_backward_inplace(x.data(), v.data(), count);
    EXPECT_TRUE(same_floats(
        v, values_of(testing::seed_hswish_backward(tx, tdy))))
        << tag << " hswish_backward_inplace";

    // The eval-forward twins against their out-of-place kernels.
    std::vector<float> y(count);
    kernels::scale_planes(x.data(), scale.data(), y.data(), n * c, hw);
    v = x;
    kernels::scale_planes_inplace(v.data(), scale.data(), n * c, hw);
    EXPECT_TRUE(same_floats(v, y)) << tag << " scale_planes";
    kernels::hsigmoid_forward(x.data(), y.data(), count);
    v = x;
    kernels::hsigmoid_forward_inplace(v.data(), count);
    EXPECT_TRUE(same_floats(v, y)) << tag << " hsigmoid_forward";
    kernels::hswish_forward(x.data(), y.data(), count);
    v = x;
    kernels::hswish_forward_inplace(v.data(), count);
    EXPECT_TRUE(same_floats(v, y)) << tag << " hswish_forward";
  });
}

}  // namespace
}  // namespace hetero
