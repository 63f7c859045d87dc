// Sequential container: runs children in order, backward in reverse,
// moving each activation and gradient from one child into the next.
#pragma once

#include <memory>

#include "nn/layer.h"

namespace hetero {

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Deep copy: clones every child layer. Used by clone() and by composite
  /// blocks that hold Sequential members by value.
  Sequential(const Sequential& other);

  /// Appends a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  void collect(ParamGroup& group) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace hetero
