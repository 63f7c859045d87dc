// Pooling layers: max pooling (square window), average pooling, and global
// average pooling (the classifier-head reduction used by all zoo models).
#pragma once

#include "nn/layer.h"

namespace hetero {

class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::size_t kernel, std::size_t stride);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(kernel_, stride_);
  }
  std::string name() const override { return "MaxPool2d"; }

 private:
  std::size_t kernel_, stride_;
  std::vector<std::size_t> argmax_;  // flat input index of each output max
  /// 2x2 stride-2 forwards cache a 2-bit window code per output instead of
  /// an absolute index (backward reconstructs the index from the output
  /// position); exactly one of codes_ / argmax_ is populated.
  std::vector<int> codes_;
  std::vector<std::size_t> in_shape_;
};

class AvgPool2d : public Layer {
 public:
  AvgPool2d(std::size_t kernel, std::size_t stride);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<AvgPool2d>(kernel_, stride_);
  }
  std::string name() const override { return "AvgPool2d"; }

 private:
  std::size_t kernel_, stride_;
  std::vector<std::size_t> in_shape_;
};

/// (N, C, H, W) -> (N, C): the mean of every (sample, channel) plane, one
/// f64 chain per plane. GlobalAvgPool's forward, for callers that keep x
/// (the squeeze of SEBlock).
Tensor spatial_mean(const Tensor& x);

/// (N, C, H, W) -> (N, C): spatial mean per channel.
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<GlobalAvgPool>();
  }
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<std::size_t> in_shape_;
};

/// (N, C, H, W) -> (N, C*H*W); also accepts already-flat (N, F) unchanged.
class Flatten : public Layer {
 public:
  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>();
  }
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace hetero
