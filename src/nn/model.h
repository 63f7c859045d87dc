// Model: a network plus the flat-state plumbing federated learning needs.
//
// The FL server communicates *flat model states*: the concatenation of all
// trainable parameters followed by all buffers (batch-norm running stats).
// A single Model instance is reused across simulated clients by swapping
// states with set_state()/state().
#pragma once

#include <memory>
#include <string>

#include "nn/layer.h"

namespace hetero {

class Model {
 public:
  /// Takes ownership of the network. `id` is a human-readable architecture
  /// name (e.g. "mobile-mini").
  Model(std::string id, std::unique_ptr<Layer> net);

  /// Deep copy: clones the network (weights, buffers) into an independent
  /// Model. Used to build per-worker replicas for parallel client execution.
  std::unique_ptr<Model> clone() const;

  /// Runs the network; like Layer::forward/backward, the model owns its
  /// argument (pass std::move(t) to hand the storage on, an lvalue to keep
  /// it).
  Tensor forward(Tensor x, bool train = false);
  Tensor backward(Tensor grad);
  void zero_grad();

  Layer& net() { return *net_; }
  const std::string& id() const { return id_; }

  std::size_t num_params() const { return num_params_; }
  std::size_t num_buffers() const { return num_buffers_; }
  /// Flat state length = num_params + num_buffers.
  std::size_t state_size() const { return num_params_ + num_buffers_; }

  /// Flattened trainable parameters (copy).
  Tensor params() const;
  /// Flattened parameters + buffers (copy) — the FL communication payload.
  Tensor state() const;
  /// Flattened gradients (copy).
  Tensor grads() const;

  void set_params(const Tensor& flat);
  void set_state(const Tensor& flat);

 private:
  std::string id_;
  std::unique_ptr<Layer> net_;
  ParamGroup group_;
  std::size_t num_params_ = 0;
  std::size_t num_buffers_ = 0;
};

}  // namespace hetero
