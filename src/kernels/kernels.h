// Batched, cache-blocked compute kernels for the training hot paths.
//
// This layer sits below src/tensor and src/nn: it works on raw float
// buffers only, so the NN layers can run their hot loops without
// constructing intermediate Tensors. Two implementations of every GEMM and
// convolution entry point are kept:
//
//   * kReference — the original scalar loops, byte-for-byte the seed
//     implementation. The oracle for the parity tests.
//   * kTiled     — cache-blocked, register-tiled loops with branch-free,
//     vectorizable inner kernels, and batched convolution (one im2col +
//     one GEMM per layer per group for the whole mini-batch instead of
//     per sample).
//   * kFast      — the tiled structure recompiled for x86-64-v3 with FMA
//     contraction and f32 nt accumulators: faster, but with documented
//     drift against tiled/reference (DESIGN.md §13; the parity suite
//     bounds it per layer). Opt-in via HS_KERNEL=fast.
//
// Determinism contract (DESIGN.md §9/§13): for a fixed kernel kind, results
// are bit-identical run-to-run and across thread counts — including any
// intra-op worker count (ScopedIntraOp below): GEMMs split over a task grid
// fixed by the problem shape, each task owning a disjoint output region
// whose per-element reduction chains are untouched. The tiled GEMMs reduce
// over k in increasing order with the same accumulation precision as the
// reference loops, so gemm_nn / gemm_nt / gemm_tn — and therefore
// conv2d_forward and the conv input gradient — are bit-identical across the
// reference and tiled kinds for finite inputs. The only reference↔tiled
// drift is the convolution weight/bias gradient for batch sizes > 1, where
// batching replaces per-sample rounding with one reduction over the whole
// batch (called out in DESIGN.md §9; parity tests bound it).
//
// HS_KERNEL=reference|tiled|fast selects the process default (tiled when
// unset; any other value is rejected with an error listing the valid
// modes); set_active_kernel() overrides it programmatically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "kernels/workspace.h"

namespace hetero::kernels {

enum class KernelKind { kReference, kTiled, kFast };

/// Process-wide kernel selection: HS_KERNEL env var on first use
/// ("reference", "tiled" or "fast"; unset means tiled, anything else
/// throws), overridable at runtime via set_active_kernel(). Thread-safe.
KernelKind active_kernel();
void set_active_kernel(KernelKind kind);
const char* kernel_name(KernelKind kind);

/// Strict mode parsing: returns the kind for "reference" / "tiled" /
/// "fast", throws std::invalid_argument listing the valid modes otherwise.
KernelKind parse_kernel_kind(const std::string& value);

// ------------------------------------------------------------- eval mode --
// Every eval and probe forward runs the same f32 kernels as training, under
// the active kernel kind. The one-value EvalMode below survives only because
// the frozen paper benchmark prints eval_mode_name(eval_mode()) in its
// result header; the next benchmark change removes both names.

enum class EvalMode { kF32 };

EvalMode eval_mode();
const char* eval_mode_name(EvalMode mode);

// ---------------------------------------------------- intra-op parallelism --
// A thread-local context carrying an optional worker handle (type-erased so
// this layer never depends on src/runtime). While installed, large GEMMs
// and conv lowerings split their fixed task grids across it; results stay
// bit-identical to the serial run for any worker count because block
// ownership is a function of the problem shape alone (DESIGN.md §13).

struct IntraOpContext {
  /// Runs fn(t) for every t in [0, tasks), in any order, possibly
  /// concurrently, and returns when all calls finished. Null → serial.
  std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
      run;
  /// Workers behind `run` (1 → serial; contexts with ways <= 1 are ignored).
  std::size_t ways = 1;
};

/// The calling thread's current intra-op context (a serial default when no
/// ScopedIntraOp is live).
const IntraOpContext& intra_op();

/// Installs an intra-op context on the calling thread for the scope's
/// lifetime, restoring the previous one on exit. The context is
/// deliberately not inherited by the workers `run` fans out to, so nested
/// kernel calls inside a task run serially (no fork-bomb, no pool
/// deadlock).
class ScopedIntraOp {
 public:
  ScopedIntraOp(
      std::function<void(std::size_t,
                         const std::function<void(std::size_t)>&)> run,
      std::size_t ways);
  ~ScopedIntraOp();
  ScopedIntraOp(const ScopedIntraOp&) = delete;
  ScopedIntraOp& operator=(const ScopedIntraOp&) = delete;

 private:
  IntraOpContext saved_;
};

// ---------------------------------------------------------------- GEMM ----
// All shapes are row-major. When `accumulate` is true the result is added
// onto C (which must be initialized); otherwise C is overwritten.

/// C(m,n) = A(m,k) · B(k,n). f32 accumulation, increasing k.
void gemm_nn(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t m, std::size_t k, std::size_t n, bool accumulate);

/// C(m,n) = A(m,k) · B(n,k)^T. f64 accumulation per element, increasing k.
void gemm_nt(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t m, std::size_t k, std::size_t n, bool accumulate);

/// C(k,n) = A(m,k)^T · B(m,n). f32 accumulation, increasing m.
void gemm_tn(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t m, std::size_t k, std::size_t n, bool accumulate);

// --------------------------------------------------------- Convolution ----

/// Geometry of a batched, grouped 2-D convolution (cross-correlation).
struct ConvShape {
  std::size_t n = 1;            ///< batch size
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0;
  std::size_t kernel = 1, stride = 1, pad = 0;
  std::size_t groups = 1;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  std::size_t group_in_c() const { return in_c / groups; }
  std::size_t group_out_c() const { return out_c / groups; }
  /// Rows of a group's im2col matrix: (in_c/groups) * kernel * kernel.
  std::size_t patch() const { return group_in_c() * kernel * kernel; }
  /// Floats needed to retain the batched patch matrices of all groups.
  std::size_t cols_size() const {
    return groups * patch() * n * out_h() * out_w();
  }
};

/// Unfolds image `img` (c,h,w sub-view described by `s`, channels
/// [c0, c0+s.group_in_c())) into patch-matrix columns. The destination has
/// leading dimension `ld` (floats between consecutive rows) and the window
/// columns are written starting at column `col0`. Out-of-bounds (padding)
/// samples read as zero.
void im2col_strided(const float* img, const ConvShape& s, std::size_t c0,
                    float* dst, std::size_t ld, std::size_t col0);

/// Adjoint of im2col_strided: folds patch-matrix columns [col0, col0+ohw)
/// of `src` (leading dimension `ld`) back into image channels [c0, ...),
/// accumulating overlapping contributions onto `img` (not zeroed here).
void col2im_strided_add(const float* src, const ConvShape& s, std::size_t c0,
                        std::size_t ld, std::size_t col0, float* img);

/// True when the kind's backward for this shape reads nothing but the
/// forward input itself: the tiled/fast pointwise (1x1, stride 1, no pad)
/// and direct depthwise paths, whose "patch matrix" is the input tensor
/// verbatim. A caller that keeps the input alive until backward may then
/// pass null `cols_retained` to conv2d_forward and the input as `cols` to
/// conv2d_backward, skipping the retained copy. The reference kind and the
/// im2col path always answer false.
bool conv_reads_input(KernelKind kind, const ConvShape& s);

/// Batched grouped convolution forward: y(n,out_c,oh,ow) = x * w (+ bias).
/// w is (out_c, in_c/groups, k, k); bias is (out_c) or nullptr. When
/// `cols_retained` is non-null it receives the batched per-group patch
/// matrices (ConvShape::cols_size() floats, caller-stable until backward);
/// otherwise scratch from `ws` is used where a patch matrix is needed at
/// all. Allocation-free in steady state.
void conv2d_forward(KernelKind kind, const ConvShape& s, const float* x,
                    const float* w, const float* bias, float* y,
                    float* cols_retained, Workspace& ws);

/// Batched grouped convolution backward. Inputs: grad_out (n,out_c,oh,ow),
/// weights w, and the patch matrices retained by conv2d_forward (or, when
/// conv_reads_input(kind, s), the forward input x). Outputs:
/// gw (+=, shape of w), gb (+= per-channel sums, nullptr to skip), and
/// grad_in (n,in_c,h,w), which must be zero-initialized — the fold-back
/// accumulates straight into it (no intermediate image). Allocation-free in
/// steady state.
void conv2d_backward(KernelKind kind, const ConvShape& s,
                     const float* grad_out, const float* w, const float* cols,
                     float* gw, float* gb, float* grad_in, Workspace& ws);

// ---------------------------------------------------------- Layer glue ----
// The BatchNorm2d, squeeze-excitation, global-average-pool and hard-swish
// passes between the GEMMs (glue.cpp). Every reduction is one f64 chain per
// channel (or plane) in the seed's (sample, index) order; SIMD lanes run
// independent chains side by side and never split one, and the elementwise
// maps are the seed expressions, so every kernel kind gets the seed's bits
// (DESIGN.md §9). All tensors are contiguous (n, c, hw) or (planes, hw).

/// Per-channel sums of (n, c, hw) tensors, each one f64 chain over
/// (sample, index) ascending: sum_a[ch] = Σ a and sum_ab[ch] = Σ a·b, the
/// product formed in f64. b may equal a (the BatchNorm moments, which then
/// load once). With n = 1 every "channel" is an independent plane (pooling,
/// the SE gate gradient).
void channel_sums(const float* a, const float* b, std::size_t n,
                  std::size_t c, std::size_t hw, double* sum_a,
                  double* sum_ab);

/// BatchNorm affine map, in place: xh = (x - mean[ch]) * inv[ch] and
/// x = gamma[ch] * xh + beta[ch]; xh is stored into xhat (a separate
/// buffer) unless it is null.
void bn_normalize_inplace(float* x, float* xhat, std::size_t n, std::size_t c,
                          std::size_t hw, const float* mean, const float* inv,
                          const float* gamma, const float* beta);

/// BatchNorm input gradient, in place:
/// dy = g_inv[ch] * (dy - k1[ch] - xhat * k2[ch]).
void bn_input_grad_inplace(float* dy, const float* xhat, std::size_t n,
                           std::size_t c, std::size_t hw, const float* g_inv,
                           const float* k1, const float* k2);

/// SE gate: y[p, i] = x[p, i] * s[p].
void scale_planes(const float* x, const float* s, float* y,
                  std::size_t planes, std::size_t hw);

/// SE input gradient: dx[p, i] = dy[p, i] * gate[p] + pooled[p], the gate
/// path plus the pooled-feature path's broadcast gradient.
void se_input_grad(const float* dy, const float* gate, const float* pooled,
                   float* dx, std::size_t planes, std::size_t hw);

/// Hard-sigmoid h(x) = clamp(x/6 + 1/2, 0, 1), h'(x) = 1/6 on (-3, 3) and 0
/// elsewhere, and hard-swish x·h(x). The backward passes overwrite dy with
/// dx = dy * h'(x) and dx = dy * (h(x) + x·h'(x)); x stays read-only.
void hsigmoid_forward(const float* x, float* y, std::size_t count);
void hswish_forward(const float* x, float* y, std::size_t count);
void hsigmoid_backward_inplace(const float* x, float* dy, std::size_t count);
void hswish_backward_inplace(const float* x, float* dy, std::size_t count);

// In-place twins of the maps a layer runs both ways: out of place on a
// training forward, whose input stays cached, and in place on an eval
// forward, whose input it owns (nn/layer.h). The kernels above take
// HS_RESTRICT pointers, so they must never be called with aliased
// arguments; these are the aliasing forms. Each element is read before it
// is written and no element reads another, so every twin is bit-identical
// to its out-of-place kernel.

/// scale_planes with y == x.
void scale_planes_inplace(float* x, const float* s, std::size_t planes,
                          std::size_t hw);
/// hsigmoid_forward / hswish_forward with y == x.
void hsigmoid_forward_inplace(float* x, std::size_t count);
void hswish_forward_inplace(float* x, std::size_t count);

}  // namespace hetero::kernels
