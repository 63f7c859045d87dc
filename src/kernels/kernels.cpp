// Kernel dispatch (HS_KERNEL, HS_EVAL, HS_EVAL_CACHE), the int8 weight
// generation, and the thread-local intra-op and eval-scope state.
#include "kernels/kernels.h"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "util/config.h"

namespace hetero::kernels {

namespace {

// Unknown HS_KERNEL values used to silently mean "tiled", which turned
// typos (HS_KERNEL=Fast, HS_KERNEL=tilde) into quiet wrong-mode runs; both
// env knobs now reject anything outside their mode lists.
KernelKind kind_from_env() {
  const auto v = env_string("HS_KERNEL");
  return v ? parse_kernel_kind(*v) : KernelKind::kTiled;
}

EvalMode eval_mode_from_env() {
  const auto v = env_string("HS_EVAL");
  return v ? parse_eval_mode(*v) : EvalMode::kF32;
}

bool cache_from_env() {
  const auto v = env_string("HS_EVAL_CACHE");
  if (!v || *v == "on") return true;
  if (*v == "off") return false;
  throw std::invalid_argument("HS_EVAL_CACHE: unknown value '" + *v +
                              "' (valid values: on, off)");
}

std::atomic<KernelKind>& active_slot() {
  static std::atomic<KernelKind> slot{kind_from_env()};
  return slot;
}

std::atomic<EvalMode>& eval_slot() {
  static std::atomic<EvalMode> slot{eval_mode_from_env()};
  return slot;
}

std::atomic<bool>& cache_slot() {
  static std::atomic<bool> slot{cache_from_env()};
  return slot;
}

// Weight generation. Starts at 1 so the default Int8WeightCache stamp (0)
// can never match a live generation.
std::atomic<std::uint64_t> g_weight_version{1};

// Thread-local intra-op / eval-scope state. Plain thread_locals: both are
// strictly scope-managed (RAII installs/restores) and never observed from
// another thread.
thread_local IntraOpContext t_intra_op;
thread_local int t_eval_depth = 0;

}  // namespace

KernelKind active_kernel() {
  return active_slot().load(std::memory_order_relaxed);
}

void set_active_kernel(KernelKind kind) {
  active_slot().store(kind, std::memory_order_relaxed);
}

const char* kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kReference:
      return "reference";
    case KernelKind::kFast:
      return "fast";
    default:
      return "tiled";
  }
}

KernelKind parse_kernel_kind(const std::string& value) {
  if (value == "reference") return KernelKind::kReference;
  if (value == "tiled") return KernelKind::kTiled;
  if (value == "fast") return KernelKind::kFast;
  throw std::invalid_argument("HS_KERNEL: unknown kernel kind '" + value +
                              "' (valid modes: reference, tiled, fast)");
}

EvalMode eval_mode() { return eval_slot().load(std::memory_order_relaxed); }

void set_eval_mode(EvalMode mode) {
  eval_slot().store(mode, std::memory_order_relaxed);
}

const char* eval_mode_name(EvalMode mode) {
  return mode == EvalMode::kInt8 ? "int8" : "f32";
}

EvalMode parse_eval_mode(const std::string& value) {
  if (value == "f32") return EvalMode::kF32;
  if (value == "int8") return EvalMode::kInt8;
  throw std::invalid_argument("HS_EVAL: unknown eval mode '" + value +
                              "' (valid modes: f32, int8)");
}

EvalScope::EvalScope() { ++t_eval_depth; }
EvalScope::~EvalScope() { --t_eval_depth; }

bool int8_eval_active() {
  return t_eval_depth > 0 && eval_mode() == EvalMode::kInt8;
}

std::uint64_t weight_version() {
  return g_weight_version.load(std::memory_order_relaxed);
}

void bump_weight_version() {
  g_weight_version.fetch_add(1, std::memory_order_relaxed);
}

bool int8_cache_enabled() {
  return cache_slot().load(std::memory_order_relaxed);
}

void set_int8_cache_enabled(bool enabled) {
  cache_slot().store(enabled, std::memory_order_relaxed);
}

const IntraOpContext& intra_op() { return t_intra_op; }

ScopedIntraOp::ScopedIntraOp(
    std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
        run,
    std::size_t ways)
    : saved_(std::move(t_intra_op)) {
  t_intra_op.run = std::move(run);
  t_intra_op.ways = ways;
}

ScopedIntraOp::~ScopedIntraOp() { t_intra_op = std::move(saved_); }

}  // namespace hetero::kernels
