#include "nn/sequential.h"

namespace hetero {

Sequential::Sequential(const Sequential& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

std::unique_ptr<Layer> Sequential::clone() const {
  return std::make_unique<Sequential>(*this);
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  HS_CHECK(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(Tensor x, bool train) {
  for (auto& l : layers_) x = l->forward(std::move(x), train);
  return x;
}

Tensor Sequential::backward(Tensor grad_out) {
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad_out = (*it)->backward(std::move(grad_out));
  }
  return grad_out;
}

void Sequential::collect(ParamGroup& group) {
  for (auto& l : layers_) l->collect(group);
}

}  // namespace hetero
