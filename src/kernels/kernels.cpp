// Kernel dispatch (HS_KERNEL) and the thread-local intra-op state.
#include "kernels/kernels.h"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "util/config.h"

namespace hetero::kernels {

namespace {

// Unknown HS_KERNEL values used to silently mean "tiled", which turned
// typos (HS_KERNEL=Fast, HS_KERNEL=tilde) into quiet wrong-mode runs; the
// knob now rejects anything outside its mode list.
KernelKind kind_from_env() {
  const auto v = env_string("HS_KERNEL");
  return v ? parse_kernel_kind(*v) : KernelKind::kTiled;
}

std::atomic<KernelKind>& active_slot() {
  static std::atomic<KernelKind> slot{kind_from_env()};
  return slot;
}

// Thread-local intra-op state. A plain thread_local: it is strictly
// scope-managed (RAII installs/restores) and never observed from another
// thread.
thread_local IntraOpContext t_intra_op;

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

EvalMode eval_mode() { return EvalMode::kF32; }

const char* eval_mode_name(EvalMode /*mode*/) { return "f32"; }

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
