#include "image/image.h"

#include <algorithm>
#include <cmath>

#include "kernels/isa.h"

namespace hetero {

Image::Image(std::size_t height, std::size_t width)
    : h_(height), w_(width), data_(height * width * 3, 0.0f) {}

Image::Image(std::size_t height, std::size_t width, std::vector<float> data)
    : h_(height), w_(width), data_(std::move(data)) {
  HS_CHECK(data_.size() == h_ * w_ * 3, "Image: data size mismatch");
}

std::size_t Image::idx(std::size_t y, std::size_t x, std::size_t c) const {
  HS_CHECK(y < h_ && x < w_ && c < 3, "Image: index out of range");
  return (y * w_ + x) * 3 + c;
}

float& Image::at(std::size_t y, std::size_t x, std::size_t c) {
  return data_[idx(y, x, c)];
}

float Image::at(std::size_t y, std::size_t x, std::size_t c) const {
  return data_[idx(y, x, c)];
}

void Image::set_pixel(std::size_t y, std::size_t x, float r, float g,
                      float b) {
  const std::size_t base = idx(y, x, 0);
  data_[base] = r;
  data_[base + 1] = g;
  data_[base + 2] = b;
}

void Image::fill(float r, float g, float b) {
  for (std::size_t i = 0; i < data_.size(); i += 3) {
    data_[i] = r;
    data_[i + 1] = g;
    data_[i + 2] = b;
  }
}

void Image::clamp01() {
  for (float& v : data_) v = std::clamp(v, 0.0f, 1.0f);
}

std::array<double, 3> Image::channel_means() const {
  std::array<double, 3> sum{0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < data_.size(); i += 3) {
    sum[0] += data_[i];
    sum[1] += data_[i + 1];
    sum[2] += data_[i + 2];
  }
  const double n = static_cast<double>(num_pixels());
  if (n > 0) {
    for (double& s : sum) s /= n;
  }
  return sum;
}

std::array<double, 3> Image::channel_max() const {
  std::array<double, 3> mx{0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < data_.size(); i += 3) {
    mx[0] = std::max<double>(mx[0], data_[i]);
    mx[1] = std::max<double>(mx[1], data_[i + 1]);
    mx[2] = std::max<double>(mx[2], data_[i + 2]);
  }
  return mx;
}

Tensor Image::to_tensor() const {
  // Mechanically identical to the per-element at() loops (same clamp per
  // element), just deinterleaving via raw plane pointers.
  Tensor t({3, h_, w_});
  const std::size_t n = h_ * w_;
  float* tp = t.data();
  const float* src = data_.data();
  float* r = tp;
  float* g = tp + n;
  float* b = tp + 2 * n;
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = std::clamp(src[3 * i], 0.0f, 1.0f);
    g[i] = std::clamp(src[3 * i + 1], 0.0f, 1.0f);
    b[i] = std::clamp(src[3 * i + 2], 0.0f, 1.0f);
  }
  return t;
}

Image Image::from_tensor(const Tensor& t) {
  HS_CHECK(t.rank() == 3 && t.dim(0) == 3, "Image::from_tensor: need (3,H,W)");
  Image img(t.dim(1), t.dim(2));
  for (std::size_t y = 0; y < img.h_; ++y) {
    for (std::size_t x = 0; x < img.w_; ++x) {
      for (std::size_t c = 0; c < 3; ++c) {
        img.at(y, x, c) = t.at(c, y, x);
      }
    }
  }
  return img;
}

Image resize_bilinear(const Image& src, std::size_t out_h, std::size_t out_w) {
  HS_CHECK(!src.empty() && out_h > 0 && out_w > 0,
           "resize_bilinear: empty input or zero output size");
  Image dst(out_h, out_w);
  const double sy = static_cast<double>(src.height()) / out_h;
  const double sx = static_cast<double>(src.width()) / out_w;
  // The column sample positions are row-invariant: hoist them into grow-only
  // per-thread tables (same expressions as the original per-pixel loop, so
  // the output is unchanged down to the bit).
  thread_local std::vector<std::size_t> tx0, tx1;
  thread_local std::vector<float> twx;
  if (tx0.size() < out_w) {
    tx0.resize(out_w);
    tx1.resize(out_w);
    twx.resize(out_w);
  }
  for (std::size_t x = 0; x < out_w; ++x) {
    const double fx = std::max(0.0, (x + 0.5) * sx - 0.5);
    tx0[x] = std::min(static_cast<std::size_t>(fx), src.width() - 1);
    tx1[x] = std::min(tx0[x] + 1, src.width() - 1);
    twx[x] = static_cast<float>(fx - tx0[x]);
  }
  const float* sp = src.data();
  float* dp = dst.data();
  const std::size_t sw = src.width();
  for (std::size_t y = 0; y < out_h; ++y) {
    // Sample at pixel centres for alignment-stable scaling.
    const double fy = std::max(0.0, (y + 0.5) * sy - 0.5);
    const std::size_t y0 = std::min(static_cast<std::size_t>(fy),
                                    src.height() - 1);
    const std::size_t y1 = std::min(y0 + 1, src.height() - 1);
    const float wy = static_cast<float>(fy - y0);
    const float* r0 = sp + y0 * sw * 3;
    const float* r1 = sp + y1 * sw * 3;
    float* drow = dp + y * out_w * 3;
    for (std::size_t x = 0; x < out_w; ++x) {
      const std::size_t a = tx0[x] * 3, b = tx1[x] * 3;
      const float wx = twx[x];
      for (std::size_t c = 0; c < 3; ++c) {
        const float top = r0[a + c] * (1 - wx) + r0[b + c] * wx;
        const float bot = r1[a + c] * (1 - wx) + r1[b + c] * wx;
        drow[x * 3 + c] = top * (1 - wy) + bot * wy;
      }
    }
  }
  return dst;
}

namespace {

/// dst[j] = sum over taps i of k[i] * rows[i][j], for j < n. Each element
/// accumulates its taps one by one in tap order from 0.0f, the seed's
/// per-element chain; vectorization runs independent elements in lanes.
HS_TILED_CLONES
void accumulate_taps(float* HS_RESTRICT dst, const float* const* rows,
                     const float* HS_RESTRICT k, int taps, std::size_t n) {
  // Blocks of kBlock elements keep their accumulators in registers across
  // the taps; the tail runs the same chain one element at a time.
  constexpr std::size_t kBlock = 16;
  std::size_t j0 = 0;
  for (; j0 + kBlock <= n; j0 += kBlock) {
    float acc[kBlock] = {};
    for (int i = 0; i < taps; ++i) {
      const float ki = k[i];
      const float* HS_RESTRICT row = rows[i] + j0;
      for (std::size_t l = 0; l < kBlock; ++l) acc[l] += ki * row[l];
    }
    for (std::size_t l = 0; l < kBlock; ++l) dst[j0 + l] = acc[l];
  }
  for (std::size_t j = j0; j < n; ++j) {
    float acc = 0.0f;
    for (int i = 0; i < taps; ++i) acc += k[i] * rows[i][j];
    dst[j] = acc;
  }
}

}  // namespace

Image gaussian_blur(const Image& src, float sigma) {
  if (sigma <= 0.0f || src.empty()) return src;
  const int radius = std::max(1, static_cast<int>(std::ceil(2.5f * sigma)));
  const int taps = 2 * radius + 1;
  std::vector<float> kernel(static_cast<std::size_t>(taps));
  float ksum = 0.0f;
  for (int i = -radius; i <= radius; ++i) {
    kernel[i + radius] = std::exp(-0.5f * (i * i) / (sigma * sigma));
    ksum += kernel[i + radius];
  }
  for (float& k : kernel) k /= ksum;

  const int h = static_cast<int>(src.height());
  const int w = static_cast<int>(src.width());
  const std::ptrdiff_t stride = static_cast<std::ptrdiff_t>(w) * 3;
  Image tmp(src.height(), src.width());
  Image dst(src.height(), src.width());
  const float* kp = kernel.data();
  const float* sp = src.data();
  float* tp = tmp.data();
  std::vector<const float*> rows(static_cast<std::size_t>(taps));
  // Horizontal pass, row-major: the interior columns of a row are one
  // contiguous span whose tap i reads the row shifted by 3 * (i - radius);
  // the clamped border columns keep the seed's per-pixel scan.
  const int xlo = std::min(radius, w);
  const int xhi = std::max(w - radius, xlo);
  for (int y = 0; y < h; ++y) {
    const float* srow = sp + y * stride;
    float* trow = tp + y * stride;
    if (xhi > xlo) {  // xlo == radius here, so every tap row is in bounds
      for (int i = 0; i < taps; ++i) rows[i] = srow + 3 * i;
      accumulate_taps(trow + 3 * xlo, rows.data(), kp, taps,
                      static_cast<std::size_t>(3 * (xhi - xlo)));
    }
    auto border = [&](int x) {
      for (int c = 0; c < 3; ++c) {
        float acc = 0.0f;
        for (int i = -radius; i <= radius; ++i) {
          const int xx = std::clamp(x + i, 0, w - 1);
          acc += kp[i + radius] * srow[xx * 3 + c];
        }
        trow[x * 3 + c] = acc;
      }
    };
    for (int x = 0; x < xlo; ++x) border(x);
    for (int x = xhi; x < w; ++x) border(x);
  }
  // Vertical pass, row-major: tap i of output row y is the whole clamped
  // row y + i - radius, so border rows need no special case.
  for (int y = 0; y < h; ++y) {
    for (int i = 0; i < taps; ++i) {
      rows[i] = tp + std::clamp(y - radius + i, 0, h - 1) * stride;
    }
    accumulate_taps(dst.data() + y * stride, rows.data(), kp, taps,
                    static_cast<std::size_t>(stride));
  }
  return dst;
}

double image_mad(const Image& a, const Image& b) {
  HS_CHECK(a.height() == b.height() && a.width() == b.width(),
           "image_mad: size mismatch");
  if (a.empty()) return 0.0;
  double s = 0.0;
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    s += std::abs(static_cast<double>(fa[i]) - fb[i]);
  }
  return s / static_cast<double>(fa.size());
}

}  // namespace hetero
