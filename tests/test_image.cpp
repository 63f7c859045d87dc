#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "image/color.h"
#include "image/image.h"
#include "image/raw_image.h"
#include "util/rng.h"

namespace hetero {
namespace {

TEST(Image, ConstructAndAccess) {
  Image img(4, 6);
  EXPECT_EQ(img.height(), 4u);
  EXPECT_EQ(img.width(), 6u);
  EXPECT_EQ(img.num_pixels(), 24u);
  img.at(2, 3, 1) = 0.5f;
  EXPECT_FLOAT_EQ(img.at(2, 3, 1), 0.5f);
  EXPECT_THROW(img.at(4, 0, 0), std::invalid_argument);
  EXPECT_THROW(img.at(0, 6, 0), std::invalid_argument);
  EXPECT_THROW(img.at(0, 0, 3), std::invalid_argument);
}

TEST(Image, FillAndSetPixel) {
  Image img(2, 2);
  img.fill(0.1f, 0.2f, 0.3f);
  EXPECT_FLOAT_EQ(img.at(1, 1, 2), 0.3f);
  img.set_pixel(0, 0, 1.0f, 0.0f, 0.5f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 2), 0.5f);
}

TEST(Image, Clamp01) {
  Image img(1, 2);
  img.set_pixel(0, 0, -0.5f, 0.5f, 1.5f);
  img.clamp01();
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 1), 0.5f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 2), 1.0f);
}

TEST(Image, ChannelStats) {
  Image img(1, 2);
  img.set_pixel(0, 0, 0.2f, 0.4f, 0.6f);
  img.set_pixel(0, 1, 0.4f, 0.8f, 0.2f);
  const auto means = img.channel_means();
  EXPECT_NEAR(means[0], 0.3, 1e-6);
  EXPECT_NEAR(means[1], 0.6, 1e-6);
  EXPECT_NEAR(means[2], 0.4, 1e-6);
  const auto mx = img.channel_max();
  EXPECT_NEAR(mx[1], 0.8, 1e-6);
}

TEST(Image, TensorRoundTrip) {
  Rng rng(1);
  Image img(5, 7);
  for (float& v : img.flat()) v = rng.uniform_f(0.0f, 1.0f);
  Tensor t = img.to_tensor();
  EXPECT_EQ(t.shape(), (std::vector<std::size_t>{3, 5, 7}));
  Image back = Image::from_tensor(t);
  EXPECT_NEAR(image_mad(img, back), 0.0, 1e-7);
}

TEST(Image, ToTensorClamps) {
  Image img(1, 1);
  img.set_pixel(0, 0, -1.0f, 0.5f, 2.0f);
  Tensor t = img.to_tensor();
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(t.at(2, 0, 0), 1.0f);
}

TEST(Resize, IdentityWhenSameSize) {
  Rng rng(2);
  Image img(8, 8);
  for (float& v : img.flat()) v = rng.uniform_f(0.0f, 1.0f);
  Image out = resize_bilinear(img, 8, 8);
  EXPECT_NEAR(image_mad(img, out), 0.0, 1e-6);
}

TEST(Resize, ConstantImageStaysConstant) {
  Image img(16, 16);
  img.fill(0.25f, 0.5f, 0.75f);
  Image out = resize_bilinear(img, 7, 5);
  for (std::size_t y = 0; y < 7; ++y) {
    for (std::size_t x = 0; x < 5; ++x) {
      EXPECT_NEAR(out.at(y, x, 0), 0.25f, 1e-6f);
      EXPECT_NEAR(out.at(y, x, 2), 0.75f, 1e-6f);
    }
  }
}

TEST(Resize, PreservesMeanApproximately) {
  Rng rng(3);
  Image img(32, 32);
  for (float& v : img.flat()) v = rng.uniform_f(0.0f, 1.0f);
  Image down = resize_bilinear(img, 16, 16);
  const auto m1 = img.channel_means();
  const auto m2 = down.channel_means();
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(m1[c], m2[c], 0.02);
}

TEST(Resize, RejectsDegenerate) {
  Image img(4, 4);
  EXPECT_THROW(resize_bilinear(img, 0, 4), std::invalid_argument);
  EXPECT_THROW(resize_bilinear(Image(), 4, 4), std::invalid_argument);
}

TEST(GaussianBlur, SigmaZeroIsIdentity) {
  Rng rng(4);
  Image img(6, 6);
  for (float& v : img.flat()) v = rng.uniform_f(0.0f, 1.0f);
  Image out = gaussian_blur(img, 0.0f);
  EXPECT_NEAR(image_mad(img, out), 0.0, 1e-7);
}

TEST(GaussianBlur, SmoothsEdges) {
  Image img(8, 8);
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 0; x < 8; ++x) {
      const float v = x < 4 ? 0.0f : 1.0f;
      img.set_pixel(y, x, v, v, v);
    }
  }
  Image out = gaussian_blur(img, 1.0f);
  // The edge pixel must now be intermediate.
  EXPECT_GT(out.at(4, 3, 0), 0.05f);
  EXPECT_LT(out.at(4, 3, 0), 0.5f);
  // Energy approximately preserved (kernel normalized).
  EXPECT_NEAR(img.channel_means()[0], out.channel_means()[0], 0.01);
}

TEST(GaussianBlur, ConstantImageInvariant) {
  Image img(8, 8);
  img.fill(0.6f, 0.6f, 0.6f);
  Image out = gaussian_blur(img, 2.0f);
  EXPECT_NEAR(image_mad(img, out), 0.0, 1e-5);
}

/// The seed's gaussian_blur, verbatim: per-pixel clamped tap loops with the
/// tap loop innermost. The row-major rewrite must reproduce it bit for bit.
Image seed_gaussian_blur(const Image& src, float sigma) {
  if (sigma <= 0.0f || src.empty()) return src;
  const int radius = std::max(1, static_cast<int>(std::ceil(2.5f * sigma)));
  std::vector<float> kernel(2 * radius + 1);
  float ksum = 0.0f;
  for (int i = -radius; i <= radius; ++i) {
    kernel[i + radius] = std::exp(-0.5f * (i * i) / (sigma * sigma));
    ksum += kernel[i + radius];
  }
  for (float& k : kernel) k /= ksum;

  const int h = static_cast<int>(src.height());
  const int w = static_cast<int>(src.width());
  Image tmp(src.height(), src.width());
  Image dst(src.height(), src.width());
  // Horizontal pass with clamped borders.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (std::size_t c = 0; c < 3; ++c) {
        float acc = 0.0f;
        for (int i = -radius; i <= radius; ++i) {
          const int xx = std::clamp(x + i, 0, w - 1);
          acc += kernel[i + radius] *
                 src.at(static_cast<std::size_t>(y),
                        static_cast<std::size_t>(xx), c);
        }
        tmp.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x), c) =
            acc;
      }
    }
  }
  // Vertical pass.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (std::size_t c = 0; c < 3; ++c) {
        float acc = 0.0f;
        for (int i = -radius; i <= radius; ++i) {
          const int yy = std::clamp(y + i, 0, h - 1);
          acc += kernel[i + radius] *
                 tmp.at(static_cast<std::size_t>(yy),
                        static_cast<std::size_t>(x), c);
        }
        dst.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x), c) =
            acc;
      }
    }
  }
  return dst;
}

TEST(GaussianBlur, MatchesSeedLoopBitForBit) {
  // Radii 1..7 against images down to 1x1, so several are narrower (or
  // shorter) than the kernel and have no interior span at all.
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1}, {3, 5}, {4, 4}, {17, 9}, {64, 64}};
  Rng rng(31);
  for (float sigma : {0.3f, 0.45f, 0.6f, 1.0f, 2.5f}) {
    for (const auto& [h, w] : sizes) {
      Image img(h, w);
      for (float& v : img.flat()) v = rng.uniform_f(-0.25f, 1.25f);
      const Image got = gaussian_blur(img, sigma);
      const Image want = seed_gaussian_blur(img, sigma);
      ASSERT_EQ(got.flat().size(), want.flat().size());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               want.flat().size() * sizeof(float)))
          << "sigma " << sigma << ", " << h << "x" << w;
    }
  }
}

TEST(ImageMad, RequiresSameSize) {
  EXPECT_THROW(image_mad(Image(2, 2), Image(2, 3)), std::invalid_argument);
}

// ------------------------------------------------------------- RawImage --

TEST(RawImage, DimensionsMustBeEven) {
  EXPECT_THROW(RawImage(3, 4), std::invalid_argument);
  EXPECT_THROW(RawImage(4, 5), std::invalid_argument);
  EXPECT_NO_THROW(RawImage(4, 4));
}

TEST(RawImage, RggbPattern) {
  RawImage raw(4, 4, BayerPattern::kRGGB);
  EXPECT_EQ(raw.channel_at(0, 0), 0);  // R
  EXPECT_EQ(raw.channel_at(0, 1), 1);  // G
  EXPECT_EQ(raw.channel_at(1, 0), 1);  // G
  EXPECT_EQ(raw.channel_at(1, 1), 2);  // B
  EXPECT_EQ(raw.channel_at(2, 2), 0);  // repeats
}

class BayerPatternSweep : public ::testing::TestWithParam<BayerPattern> {};

TEST_P(BayerPatternSweep, TileHasOneROneBTwoG) {
  int counts[3] = {0, 0, 0};
  for (std::size_t y = 0; y < 2; ++y) {
    for (std::size_t x = 0; x < 2; ++x) {
      ++counts[bayer_channel(GetParam(), y, x)];
    }
  }
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
}

INSTANTIATE_TEST_SUITE_P(Patterns, BayerPatternSweep,
                         ::testing::Values(BayerPattern::kRGGB,
                                           BayerPattern::kBGGR,
                                           BayerPattern::kGRBG,
                                           BayerPattern::kGBRG));

TEST(RawImage, PackedTensorRoutesChannels) {
  RawImage raw(2, 2, BayerPattern::kRGGB);
  raw.at(0, 0) = 0.1f;  // R
  raw.at(0, 1) = 0.2f;  // G1
  raw.at(1, 0) = 0.3f;  // G2
  raw.at(1, 1) = 0.4f;  // B
  Tensor t = raw.to_packed_tensor();
  EXPECT_EQ(t.shape(), (std::vector<std::size_t>{4, 1, 1}));
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.1f);
  EXPECT_FLOAT_EQ(t.at(1, 0, 0), 0.2f);
  EXPECT_FLOAT_EQ(t.at(2, 0, 0), 0.3f);
  EXPECT_FLOAT_EQ(t.at(3, 0, 0), 0.4f);
}

TEST(RawImage, PackedTensorCanonicalAcrossPatterns) {
  // The same physical colours must land in the same planes regardless of
  // the CFA layout.
  for (BayerPattern p : {BayerPattern::kRGGB, BayerPattern::kBGGR,
                         BayerPattern::kGRBG, BayerPattern::kGBRG}) {
    RawImage raw(2, 2, p);
    for (std::size_t y = 0; y < 2; ++y) {
      for (std::size_t x = 0; x < 2; ++x) {
        const int c = raw.channel_at(y, x);
        raw.at(y, x) = c == 0 ? 0.9f : (c == 2 ? 0.1f : 0.5f);
      }
    }
    Tensor t = raw.to_packed_tensor();
    EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.9f) << "pattern " << static_cast<int>(p);
    EXPECT_FLOAT_EQ(t.at(1, 0, 0), 0.5f);
    EXPECT_FLOAT_EQ(t.at(2, 0, 0), 0.5f);
    EXPECT_FLOAT_EQ(t.at(3, 0, 0), 0.1f);
  }
}

// ---------------------------------------------------------------- colour --

TEST(Color, SrgbRoundTrip) {
  for (float v : {0.0f, 0.001f, 0.01f, 0.2f, 0.5f, 0.9f, 1.0f}) {
    EXPECT_NEAR(srgb_decode(srgb_encode(v)), v, 1e-5f);
  }
}

TEST(Color, SrgbEncodeBrightensMidtones) {
  EXPECT_GT(srgb_encode(0.2f), 0.2f);
  EXPECT_FLOAT_EQ(srgb_encode(0.0f), 0.0f);
  EXPECT_NEAR(srgb_encode(1.0f), 1.0f, 1e-5f);
}

TEST(Color, MatrixIdentityAndInverse) {
  const ColorMatrix eye = identity3();
  const ColorMatrix m = {0.9f, 0.05f, 0.05f, 0.1f, 0.8f, 0.1f,
                         0.02f, 0.08f, 0.9f};
  const ColorMatrix prod = matmul3(m, inverse3(m));
  for (int i = 0; i < 9; ++i) EXPECT_NEAR(prod[i], eye[i], 1e-4f);
}

TEST(Color, SingularMatrixThrows) {
  const ColorMatrix singular = {1, 2, 3, 2, 4, 6, 0, 0, 1};
  EXPECT_THROW(inverse3(singular), std::invalid_argument);
}

TEST(Color, ApplyMatrixPerPixel) {
  Image img(1, 1);
  img.set_pixel(0, 0, 1.0f, 0.5f, 0.25f);
  const ColorMatrix swap_rb = {0, 0, 1, 0, 1, 0, 1, 0, 0};
  Image out = apply_color_matrix(img, swap_rb);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.25f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 2), 1.0f);
}

TEST(Color, XyzMatricesAreInverses) {
  const ColorMatrix prod = matmul3(kXyzToSrgb, kSrgbToXyz);
  const ColorMatrix eye = identity3();
  for (int i = 0; i < 9; ++i) EXPECT_NEAR(prod[i], eye[i], 5e-3f);
}

TEST(Color, ProphotoShiftsColors) {
  Image img(1, 1);
  img.set_pixel(0, 0, 0.8f, 0.2f, 0.2f);  // saturated red
  Image pp = apply_color_matrix(img, kSrgbToProphoto);
  // Conversion must move the pixel measurably.
  EXPECT_GT(std::abs(pp.at(0, 0, 0) - 0.8f) + std::abs(pp.at(0, 0, 1) - 0.2f),
            0.05f);
  // And the round trip must restore it.
  Image back = apply_color_matrix(pp, kProphotoToSrgb);
  EXPECT_NEAR(back.at(0, 0, 0), 0.8f, 1e-3f);
  EXPECT_NEAR(back.at(0, 0, 1), 0.2f, 1e-3f);
}

TEST(Color, LuminanceWeights) {
  EXPECT_NEAR(luminance(1, 1, 1), 1.0f, 1e-5f);
  EXPECT_GT(luminance(0, 1, 0), luminance(1, 0, 0));
  EXPECT_GT(luminance(1, 0, 0), luminance(0, 0, 1));
}

TEST(Color, HsvPrimaries) {
  float r, g, b;
  hsv_to_rgb(0, 1, 1, r, g, b);
  EXPECT_FLOAT_EQ(r, 1.0f);
  EXPECT_FLOAT_EQ(g, 0.0f);
  hsv_to_rgb(120, 1, 1, r, g, b);
  EXPECT_FLOAT_EQ(g, 1.0f);
  hsv_to_rgb(240, 1, 1, r, g, b);
  EXPECT_FLOAT_EQ(b, 1.0f);
  hsv_to_rgb(0, 0, 0.5f, r, g, b);  // gray
  EXPECT_FLOAT_EQ(r, 0.5f);
  EXPECT_FLOAT_EQ(g, 0.5f);
  EXPECT_FLOAT_EQ(b, 0.5f);
}

TEST(Color, HsvWrapsHue) {
  float r1, g1, b1, r2, g2, b2;
  hsv_to_rgb(30, 0.7f, 0.8f, r1, g1, b1);
  hsv_to_rgb(390, 0.7f, 0.8f, r2, g2, b2);
  EXPECT_NEAR(r1, r2, 1e-5f);
  EXPECT_NEAR(g1, g2, 1e-5f);
}

}  // namespace
}  // namespace hetero

namespace hetero {
namespace {

TEST(Color, DisplayP3RoundTrip) {
  Image img(1, 1);
  img.set_pixel(0, 0, 0.7f, 0.3f, 0.2f);
  Image p3 = apply_color_matrix(img, kSrgbToDisplayP3);
  Image back = apply_color_matrix(p3, kDisplayP3ToSrgb);
  EXPECT_NEAR(back.at(0, 0, 0), 0.7f, 1e-3f);
  EXPECT_NEAR(back.at(0, 0, 1), 0.3f, 1e-3f);
  EXPECT_NEAR(back.at(0, 0, 2), 0.2f, 1e-3f);
}

TEST(Color, DisplayP3MilderThanProphoto) {
  // Display-P3 is a near-sRGB gamut; ProPhoto is extreme. An untagged P3
  // image must sit closer to the original than an untagged ProPhoto one.
  Image img(2, 2);
  img.fill(0.7f, 0.3f, 0.2f);
  const double d_p3 = image_mad(apply_color_matrix(img, kSrgbToDisplayP3),
                                img);
  const double d_pp = image_mad(apply_color_matrix(img, kSrgbToProphoto),
                                img);
  EXPECT_GT(d_p3, 0.0);
  EXPECT_LT(d_p3, d_pp);
}

TEST(Color, DisplayP3WhitePreserving) {
  // Both wide-gamut conversions keep neutral axis neutral-ish (D65 white).
  Image white(1, 1);
  white.set_pixel(0, 0, 1.0f, 1.0f, 1.0f);
  Image p3 = apply_color_matrix(white, kSrgbToDisplayP3);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(p3.at(0, 0, c), 1.0f, 2e-2f);
  }
}

}  // namespace
}  // namespace hetero
