// Layer abstraction for the manual-backprop neural-network stack.
//
// Design notes:
//  * No autograd graph. Each layer caches what its backward pass needs
//    during forward(train=true) and implements backward() explicitly. This
//    keeps memory behaviour predictable and makes federated-learning
//    parameter flattening trivial.
//  * Layers are stateful and single-threaded: one forward must be followed
//    by (at most) one backward before the next forward.
//  * Layers own their activations. forward() and backward() take their
//    argument by value, so a layer may reuse the argument's storage: compute
//    in place and return it, or move it into a backward cache. A caller that
//    still needs its tensor passes an lvalue (the parameter is then a copy,
//    and the caller's tensor is never touched); a caller that is done with
//    it passes std::move(t) and hands the storage on. Who holds what:
//      - Sequential moves each output into the next child (and each input
//        gradient into the previous one); InvertedResidual does the same
//        through its body unless it has a skip, which must keep x.
//      - BatchNorm2d, ReLU, Flatten, and the eval forwards of HSwish,
//        HSigmoid and SEBlock overwrite their argument and return it; so do
//        the backward passes of BatchNorm2d, ReLU, HSwish and HSigmoid.
//      - Linear, HSwish, HSigmoid and SEBlock move their training input
//        into cached_x_; Conv2d moves it into its own cache when the active
//        kernel's backward reads the input itself
//        (kernels::conv_reads_input), and otherwise unfolds it into the
//        workspace patch matrices as before. BatchNorm2d caches xhat, ReLU
//        a sign mask, the pools only shapes or window codes.
//    The in-place paths run the seed's per-element expressions, so results
//    are bit-identical either way.
//  * collect() exposes three tensor groups:
//      - params: trained by the optimizer, part of the FL model state;
//      - grads: same shapes as params;
//      - buffers: non-trained state that still travels with the model
//        (batch-norm running statistics) and is averaged by FL aggregation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace hetero {

/// Pointers into a layer's parameter/gradient/buffer tensors.
struct ParamGroup {
  std::vector<Tensor*> params;
  std::vector<Tensor*> grads;
  std::vector<Tensor*> buffers;
};

/// Base class for all network layers and composite blocks.
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output. When train is true, caches activations
  /// needed by backward() and uses batch statistics in normalization layers.
  /// The layer owns x and may return or cache its storage (see above).
  virtual Tensor forward(Tensor x, bool train) = 0;

  /// Propagates the loss gradient; accumulates into parameter grads and
  /// returns the gradient w.r.t. the layer input. Must follow a
  /// forward(train=true) on the same input. The layer owns grad_out and may
  /// return its storage.
  virtual Tensor backward(Tensor grad_out) = 0;

  /// Appends this layer's tensors to the group (composites recurse).
  virtual void collect(ParamGroup& group) { (void)group; }

  /// Polymorphic deep copy: a freshly allocated layer with identical
  /// architecture, parameters, and buffers. The parallel client runtime
  /// (src/runtime) builds per-worker model replicas through this. Base
  /// copy construction stays deleted so a Layer is never copied by
  /// accident; clone() is the sanctioned path. The default implementation
  /// throws for layers that do not support replication.
  virtual std::unique_ptr<Layer> clone() const;

  virtual std::string name() const = 0;

  /// Zeroes all gradient tensors.
  void zero_grad();

  /// Convenience wrappers around collect().
  ParamGroup param_group();
  std::size_t num_params();
};

/// Total element count of a tensor-pointer list.
std::size_t total_size(const std::vector<Tensor*>& tensors);

/// Concatenates tensors into one flat tensor.
Tensor flatten_tensors(const std::vector<Tensor*>& tensors);

/// Scatters a flat tensor back into the destination tensors (sizes must
/// match exactly).
void unflatten_tensors(const Tensor& flat, const std::vector<Tensor*>& dst);

}  // namespace hetero
