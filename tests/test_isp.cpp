// ISP substrate tests: sensor capture, each pipeline stage, and the
// composed pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "device/device_profile.h"
#include "isp/pipeline.h"
#include "isp/sensor.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hetero {
namespace {

/// A flat mid-gray scene.
Image gray_scene(std::size_t size, float level = 0.4f) {
  Image img(size, size);
  img.fill(level, level, level);
  return img;
}

SensorConfig quiet_sensor() {
  SensorConfig s;
  s.shot_noise = 0.0f;
  s.read_noise = 0.0f;
  s.vignetting = 0.0f;
  s.optics_blur_sigma = 0.0f;
  s.bit_depth = 16;
  s.illuminant_variation = 0.0f;
  return s;
}

TEST(Sensor, DeterministicGivenRngState) {
  SensorModel sensor{SensorConfig{}};
  const Image scene = gray_scene(64);
  Rng r1(5), r2(5);
  RawImage a = sensor.capture(scene, r1);
  RawImage b = sensor.capture(scene, r2);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_EQ(a.flat()[i], b.flat()[i]);
  }
}

TEST(Sensor, NoiselessGrayCaptureIsFlat) {
  SensorModel sensor(quiet_sensor());
  Rng rng(1);
  RawImage raw = sensor.capture(gray_scene(64, 0.5f), rng);
  for (std::size_t y = 10; y < 20; ++y) {
    for (std::size_t x = 10; x < 20; ++x) {
      EXPECT_NEAR(raw.at(y, x), 0.5f, 1e-3f);
    }
  }
}

TEST(Sensor, NoiseScalesWithConfig) {
  SensorConfig quiet = quiet_sensor();
  quiet.read_noise = 0.002f;
  SensorConfig loud = quiet;
  loud.read_noise = 0.02f;
  const Image scene = gray_scene(64, 0.5f);
  auto measure = [&](const SensorConfig& cfg) {
    Rng rng(2);
    RawImage raw = SensorModel(cfg).capture(scene, rng);
    double sum = 0, sq = 0;
    for (float v : raw.flat()) {
      sum += v;
      sq += static_cast<double>(v) * v;
    }
    const double n = static_cast<double>(raw.flat().size());
    return std::sqrt(std::max(0.0, sq / n - (sum / n) * (sum / n)));
  };
  EXPECT_GT(measure(loud), 3.0 * measure(quiet));
}

TEST(Sensor, VignettingDarkensCorners) {
  SensorConfig cfg = quiet_sensor();
  cfg.vignetting = 0.3f;
  Rng rng(3);
  RawImage raw = SensorModel(cfg).capture(gray_scene(64, 0.5f), rng);
  const float corner = raw.at(0, 0);
  const float centre = raw.at(32, 32);
  EXPECT_LT(corner, centre * 0.85f);
}

TEST(Sensor, ExposureGainScalesSignal) {
  SensorConfig cfg = quiet_sensor();
  cfg.exposure_gain = 1.5f;
  Rng rng(4);
  RawImage raw = SensorModel(cfg).capture(gray_scene(64, 0.4f), rng);
  EXPECT_NEAR(raw.at(32, 32), 0.6f, 1e-2f);
}

TEST(Sensor, SaturationClips) {
  SensorConfig cfg = quiet_sensor();
  cfg.exposure_gain = 4.0f;
  Rng rng(5);
  RawImage raw = SensorModel(cfg).capture(gray_scene(64, 0.5f), rng);
  EXPECT_FLOAT_EQ(raw.at(32, 32), 1.0f);
}

TEST(Sensor, QuantizationStepMatchesBitDepth) {
  SensorConfig cfg = quiet_sensor();
  cfg.bit_depth = 4;  // 15 levels
  Rng rng(6);
  RawImage raw = SensorModel(cfg).capture(gray_scene(64, 0.37f), rng);
  const float step = 1.0f / 15.0f;
  const float v = raw.at(32, 32);
  EXPECT_NEAR(std::round(v / step) * step, v, 1e-6f);
}

TEST(Sensor, SpectralResponseShiftsChannels) {
  SensorConfig cfg = quiet_sensor();
  cfg.spectral_response = make_spectral_response(/*warmth=*/0.2f,
                                                 /*crosstalk=*/0.0f);
  Rng rng(7);
  RawImage raw = SensorModel(cfg).capture(gray_scene(64, 0.5f), rng);
  // Find an R and a B site away from borders.
  float r_val = -1, b_val = -1;
  for (std::size_t y = 20; y < 22; ++y) {
    for (std::size_t x = 20; x < 22; ++x) {
      if (raw.channel_at(y, x) == 0) r_val = raw.at(y, x);
      if (raw.channel_at(y, x) == 2) b_val = raw.at(y, x);
    }
  }
  EXPECT_GT(r_val, 0.55f);  // warm sensor: boosted red
  EXPECT_LT(b_val, 0.45f);  // cut blue
}

TEST(Sensor, IlluminantVariationTintsCaptures) {
  // With illuminant variation on, repeated captures of the same neutral
  // scene carry different R/B casts — the signal white balance removes.
  SensorConfig cfg = quiet_sensor();
  cfg.illuminant_variation = 0.15f;
  SensorModel sensor(cfg);
  const Image scene = gray_scene(64, 0.5f);
  Rng rng(77);
  RunningStats ratios;
  for (int shot = 0; shot < 8; ++shot) {
    RawImage raw = sensor.capture(scene, rng);
    // Average R and B sites.
    double r = 0, b = 0;
    int rn = 0, bn = 0;
    for (std::size_t y = 8; y < 56; ++y) {
      for (std::size_t x = 8; x < 56; ++x) {
        if (raw.channel_at(y, x) == 0) { r += raw.at(y, x); ++rn; }
        if (raw.channel_at(y, x) == 2) { b += raw.at(y, x); ++bn; }
      }
    }
    ratios.add((r / rn) / (b / bn));
  }
  EXPECT_GT(ratios.stddev(), 0.02);  // casts vary shot to shot
}

TEST(Sensor, GrayWorldRemovesIlluminantCast) {
  SensorConfig cfg = quiet_sensor();
  cfg.illuminant_variation = 0.2f;
  SensorModel sensor(cfg);
  Rng rng(78);
  RawImage raw = sensor.capture(gray_scene(64, 0.5f), rng);
  Image img = demosaic(raw, DemosaicAlgo::kBilinear);
  Image balanced = white_balance(img, WhiteBalanceAlgo::kGrayWorld);
  const auto before = img.channel_means();
  const auto after = balanced.channel_means();
  const double cast_before = std::abs(before[0] - before[2]);
  const double cast_after = std::abs(after[0] - after[2]);
  EXPECT_LT(cast_after, cast_before * 0.2 + 1e-6);
}

TEST(Sensor, CcmIsWhitePreservingAndUnmixes) {
  SensorConfig cfg;
  cfg.spectral_response = make_spectral_response(0.1f, 0.1f, 0.6f, 0.65f);
  SensorModel sensor(cfg);
  const ColorMatrix ccm = sensor.ccm();
  // White-preserving: every row sums to 1, so neutral stays neutral and the
  // sensor's raw cast passes through untouched (that is WB's job).
  for (int r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += ccm[static_cast<std::size_t>(r * 3 + c)];
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
  // Unmixing: CCM * spectral is diagonal (no residual hue crosstalk).
  const ColorMatrix prod = matmul3(ccm, cfg.spectral_response);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (r != c) {
        EXPECT_NEAR(prod[static_cast<std::size_t>(r * 3 + c)], 0.0f, 1e-4f);
      }
    }
  }
}

TEST(Sensor, ConfigValidation) {
  SensorConfig odd;
  odd.raw_height = 63;
  EXPECT_THROW(SensorModel{odd}, std::invalid_argument);
  SensorConfig bad_depth;
  bad_depth.bit_depth = 2;
  EXPECT_THROW(SensorModel{bad_depth}, std::invalid_argument);
}

/// The seed's SensorModel::capture, verbatim: per-pixel gain, vignetting,
/// two Rng::normal draws, black level, clip and std::round quantization.
/// With both noise terms at zero its draws add exactly +0.0, so it is the
/// oracle for every non-noise step of the vectorized capture.
RawImage seed_capture(const SensorConfig& c, const Image& scene, Rng& rng) {
  Image focal = gaussian_blur(scene, c.optics_blur_sigma);
  focal = resize_bilinear(focal, c.raw_height, c.raw_width);
  focal = apply_color_matrix(focal, c.spectral_response);
  if (c.illuminant_variation > 0.0f) {
    const float temp =
        std::exp(static_cast<float>(rng.normal(0.0, c.illuminant_variation)));
    const float green = std::exp(static_cast<float>(
        rng.normal(0.0, c.illuminant_variation / 3.0)));
    for (std::size_t i = 0; i < focal.num_pixels(); ++i) {
      focal.data()[3 * i] *= temp;
      focal.data()[3 * i + 1] *= green;
      focal.data()[3 * i + 2] /= temp;
    }
  }

  RawImage raw(c.raw_height, c.raw_width, c.pattern);
  const float cy = (static_cast<float>(c.raw_height) - 1.0f) / 2.0f;
  const float cx = (static_cast<float>(c.raw_width) - 1.0f) / 2.0f;
  const float max_r2 = cy * cy + cx * cx;
  const float levels = static_cast<float>((1 << c.bit_depth) - 1);

  for (std::size_t y = 0; y < c.raw_height; ++y) {
    for (std::size_t x = 0; x < c.raw_width; ++x) {
      const int ch = raw.channel_at(y, x);
      float signal =
          focal.at(y, x, static_cast<std::size_t>(ch)) * c.exposure_gain;
      signal = std::max(signal, 0.0f);
      const float dy = static_cast<float>(y) - cy;
      const float dx = static_cast<float>(x) - cx;
      const float falloff = 1.0f - c.vignetting * (dy * dy + dx * dx) / max_r2;
      signal *= falloff;
      const float shot_sigma = c.shot_noise * std::sqrt(signal);
      signal += static_cast<float>(rng.normal(0.0, shot_sigma));
      signal += static_cast<float>(rng.normal(0.0, c.read_noise));
      signal = std::clamp(signal * (1.0f - c.black_level) + c.black_level,
                          0.0f, 1.0f);
      signal = std::round(signal * levels) / levels;
      raw.at(y, x) = signal;
    }
  }
  return raw;
}

/// A scene with values below 0 and above 1, so the clip and both clamp
/// ends of the exposure loop are exercised.
Image random_scene(std::size_t size, std::uint64_t seed) {
  Image img(size, size);
  Rng rng(seed);
  for (float& v : img.flat()) v = rng.uniform_f(-0.1f, 1.2f);
  return img;
}

TEST(Sensor, NoiselessCaptureMatchesSeedLoop) {
  const BayerPattern patterns[] = {BayerPattern::kRGGB, BayerPattern::kBGGR,
                                   BayerPattern::kGRBG, BayerPattern::kGBRG};
  const auto& devices = paper_devices();
  std::size_t case_index = 0;
  for (std::size_t size : {32u, 48u, 64u}) {
    for (BayerPattern pattern : patterns) {
      // Every device's optics, response, gain, vignetting, black level and
      // bit depth in turn, with its noise switched off.
      SensorConfig c = devices[case_index++ % devices.size()].sensor;
      c.raw_height = size;
      c.raw_width = size;
      c.pattern = pattern;
      c.shot_noise = 0.0f;
      c.read_noise = 0.0f;
      const Image scene = random_scene(64, 100 + case_index);
      // The device's ADC, then a 16-bit one fine enough that a one-ulp
      // change in any pre-quantization step shows in the codes.
      for (int depth : {c.bit_depth, 16}) {
        c.bit_depth = depth;
        Rng r_new(case_index), r_seed(case_index);
        const RawImage got = SensorModel(c).capture(scene, r_new);
        const RawImage want = seed_capture(c, scene, r_seed);
        ASSERT_EQ(got.flat().size(), want.flat().size());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.flat().size() * sizeof(float)))
            << size << "x" << size << " pattern "
            << static_cast<int>(pattern) << " depth " << depth;
      }
    }
  }
}

/// Flat-field noise samples: a gray scene of the mosaic's own size (so the
/// resize is exact), no optics, vignetting or illuminant, 16-bit ADC.
/// Returns raw - level over `shots` 128x128 captures.
std::vector<double> flat_field_noise(float level, float shot, float read,
                                     int shots) {
  SensorConfig c = quiet_sensor();
  c.raw_height = 128;
  c.raw_width = 128;
  c.shot_noise = shot;
  c.read_noise = read;
  const SensorModel sensor(c);
  const Image scene = gray_scene(128, level);
  Rng rng(2024);
  std::vector<double> dev;
  for (int s = 0; s < shots; ++s) {
    const RawImage raw = sensor.capture(scene, rng);
    for (float v : raw.flat()) dev.push_back(static_cast<double>(v) - level);
  }
  return dev;
}

TEST(Sensor, NoiseMomentsMatchConfig) {
  // Read noise alone: zero mean, configured std, Gaussian 3-sigma tails.
  const double read = 0.01;
  const std::vector<double> dev =
      flat_field_noise(0.5f, 0.0f, static_cast<float>(read), 16);
  const double n = static_cast<double>(dev.size());
  double sum = 0.0, sq = 0.0;
  std::size_t beyond = 0;
  for (double d : dev) {
    sum += d;
    sq += d * d;
    if (std::abs(d) > 3.0 * read) ++beyond;
  }
  const double mean = sum / n;
  const double sd = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(sd, read, 0.03 * read);
  EXPECT_LT(std::abs(mean), 3.0 * read / std::sqrt(n));
  const double tail = static_cast<double>(beyond) / n;  // 0.27% for N(0,1)
  EXPECT_GT(tail, 0.0020);
  EXPECT_LT(tail, 0.0035);

  // Shot noise alone: variance = shot^2 * signal, so a least-squares line
  // of variance against signal has slope shot^2.
  const double shot = 0.02;
  std::vector<double> xs, ys;
  for (float level : {0.1f, 0.3f, 0.5f, 0.7f}) {
    const std::vector<double> d =
        flat_field_noise(level, static_cast<float>(shot), 0.0f, 4);
    double s1 = 0.0, s2 = 0.0;
    for (double v : d) {
      s1 += v;
      s2 += v * v;
    }
    const double m = static_cast<double>(d.size());
    xs.push_back(level);
    ys.push_back(s2 / m - (s1 / m) * (s1 / m));
  }
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i] / static_cast<double>(xs.size());
    my += ys[i] / static_cast<double>(ys.size());
  }
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  EXPECT_NEAR(sxy / sxx, shot * shot, 0.05 * shot * shot);
}

TEST(Sensor, RngAdvanceDependsOnlyOnGeometry) {
  // One u64 per mosaic pixel, whatever the scene or the noise levels: the
  // stream after a capture is the stream advanced by height * width draws
  // (plus the two illuminant normals when that variation is on).
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {32, 32}, {48, 64}, {64, 30}};
  for (const auto& [h, w] : sizes) {
    std::vector<RngState> after;
    for (int variant = 0; variant < 4; ++variant) {
      SensorConfig c;
      c.raw_height = h;
      c.raw_width = w;
      c.illuminant_variation = 0.0f;
      c.shot_noise = variant == 1 ? 0.0f : 0.01f * static_cast<float>(variant);
      c.read_noise = variant == 1 ? 0.0f : 0.005f * static_cast<float>(variant);
      c.exposure_gain = variant == 3 ? 8.0f : 1.0f;  // saturates everything
      const Image scene = variant == 0 ? gray_scene(64, 0.0f)
                                       : random_scene(64, 7 + variant);
      Rng rng(99);
      (void)SensorModel(c).capture(scene, rng);
      after.push_back(rng.save_state());
    }
    Rng expect(99);
    for (std::size_t i = 0; i < h * w; ++i) (void)expect.next_u64();
    const RngState want = expect.save_state();
    for (const RngState& got : after) {
      EXPECT_TRUE(std::equal(std::begin(got.s), std::end(got.s), want.s))
          << h << "x" << w;
      EXPECT_FALSE(got.has_cached_normal);
    }

    // With the illuminant on, the two tint normals come first; the end
    // state still does not depend on the scene or the noise levels.
    SensorConfig lit;
    lit.raw_height = h;
    lit.raw_width = w;
    SensorConfig lit_quiet = lit;
    lit_quiet.shot_noise = 0.0f;
    lit_quiet.read_noise = 0.0f;
    Rng a(5), b(5);
    (void)SensorModel(lit).capture(random_scene(64, 1), a);
    (void)SensorModel(lit_quiet).capture(gray_scene(64, 0.9f), b);
    const RngState sa = a.save_state(), sb = b.save_state();
    EXPECT_TRUE(std::equal(std::begin(sa.s), std::end(sa.s), sb.s));
  }
}

// --------------------------------------------------------------- demosaic

/// Mosaic of a constant colour under RGGB.
RawImage constant_mosaic(float r, float g, float b, std::size_t size = 16) {
  RawImage raw(size, size);
  for (std::size_t y = 0; y < size; ++y) {
    for (std::size_t x = 0; x < size; ++x) {
      const int c = raw.channel_at(y, x);
      raw.at(y, x) = c == 0 ? r : (c == 1 ? g : b);
    }
  }
  return raw;
}

class DemosaicSweep : public ::testing::TestWithParam<DemosaicAlgo> {};

TEST_P(DemosaicSweep, RecoversConstantColor) {
  RawImage raw = constant_mosaic(0.7f, 0.5f, 0.3f);
  Image img = demosaic(raw, GetParam());
  EXPECT_EQ(img.height(), raw.height());
  for (std::size_t y = 4; y < 12; ++y) {
    for (std::size_t x = 4; x < 12; ++x) {
      EXPECT_NEAR(img.at(y, x, 0), 0.7f, 2e-2f);
      EXPECT_NEAR(img.at(y, x, 1), 0.5f, 2e-2f);
      EXPECT_NEAR(img.at(y, x, 2), 0.3f, 2e-2f);
    }
  }
}

TEST_P(DemosaicSweep, OutputInRange) {
  Rng rng(8);
  RawImage raw(16, 16);
  for (std::size_t y = 0; y < 16; ++y) {
    for (std::size_t x = 0; x < 16; ++x) raw.at(y, x) = rng.uniform_f(0, 1);
  }
  Image img = demosaic(raw, GetParam());
  for (float v : img.flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, DemosaicSweep,
                         ::testing::Values(DemosaicAlgo::kBilinear,
                                           DemosaicAlgo::kPPG,
                                           DemosaicAlgo::kAHD,
                                           DemosaicAlgo::kPixelBinning));

TEST(Demosaic, BinningLosesDetailVsPPG) {
  // A vertical step edge: binning should blur it more than PPG.
  RawImage raw(16, 16);
  for (std::size_t y = 0; y < 16; ++y) {
    for (std::size_t x = 0; x < 16; ++x) raw.at(y, x) = x < 8 ? 0.2f : 0.8f;
  }
  Image ppg = demosaic(raw, DemosaicAlgo::kPPG);
  Image bin = demosaic(raw, DemosaicAlgo::kPixelBinning);
  auto edge_width = [](const Image& img) {
    // Count of mid-range pixels along the centre row.
    int mid = 0;
    for (std::size_t x = 0; x < img.width(); ++x) {
      const float v = img.at(8, x, 1);
      if (v > 0.3f && v < 0.7f) ++mid;
    }
    return mid;
  };
  EXPECT_GE(edge_width(bin), edge_width(ppg));
}

TEST(Demosaic, NamesAreUnique) {
  EXPECT_STRNE(demosaic_name(DemosaicAlgo::kPPG),
               demosaic_name(DemosaicAlgo::kAHD));
}

// ---------------------------------------------------------------- denoise

TEST(Denoise, NoneIsIdentity) {
  Rng rng(9);
  RawImage raw(8, 8);
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 0; x < 8; ++x) raw.at(y, x) = rng.uniform_f(0, 1);
  }
  RawImage out = denoise(raw, DenoiseAlgo::kNone);
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 0; x < 8; ++x) {
      EXPECT_EQ(out.at(y, x), raw.at(y, x));
    }
  }
}

class DenoiseSweep : public ::testing::TestWithParam<DenoiseAlgo> {};

TEST_P(DenoiseSweep, ReducesNoiseOnFlatField) {
  Rng rng(10);
  RawImage raw(32, 32);
  for (std::size_t y = 0; y < 32; ++y) {
    for (std::size_t x = 0; x < 32; ++x) {
      raw.at(y, x) = std::clamp(
          0.5f + static_cast<float>(rng.normal(0.0, 0.05)), 0.0f, 1.0f);
    }
  }
  RawImage out = denoise(raw, GetParam());
  auto dev = [](const RawImage& r) {
    double s = 0;
    for (float v : r.flat()) s += std::abs(v - 0.5);
    return s / static_cast<double>(r.flat().size());
  };
  EXPECT_LT(dev(out), dev(raw));
}

INSTANTIATE_TEST_SUITE_P(Algos, DenoiseSweep,
                         ::testing::Values(DenoiseAlgo::kFBDD,
                                           DenoiseAlgo::kWavelet));

TEST(Denoise, FbddSuppressesImpulse) {
  RawImage raw(16, 16);
  for (std::size_t y = 0; y < 16; ++y) {
    for (std::size_t x = 0; x < 16; ++x) raw.at(y, x) = 0.5f;
  }
  raw.at(8, 8) = 1.0f;  // hot pixel
  RawImage out = denoise(raw, DenoiseAlgo::kFBDD);
  EXPECT_LT(out.at(8, 8), 0.8f);
  // Neighbours (same-colour sites at distance 2) barely affected.
  EXPECT_NEAR(out.at(4, 4), 0.5f, 0.05f);
}

// ----------------------------------------------------------- white balance

TEST(WhiteBalance, NoneIsIdentity) {
  Image img(2, 2);
  img.fill(0.3f, 0.5f, 0.7f);
  Image out = white_balance(img, WhiteBalanceAlgo::kNone);
  EXPECT_NEAR(image_mad(img, out), 0.0, 1e-7);
}

TEST(WhiteBalance, GrayWorldEqualizesMeansToGreen) {
  Rng rng(11);
  Image img(16, 16);
  for (std::size_t i = 0; i < img.num_pixels(); ++i) {
    img.data()[3 * i] = rng.uniform_f(0.0f, 0.4f);       // dim red
    img.data()[3 * i + 1] = rng.uniform_f(0.3f, 0.7f);   // green
    img.data()[3 * i + 2] = rng.uniform_f(0.5f, 0.9f);   // strong blue
  }
  Image out = white_balance(img, WhiteBalanceAlgo::kGrayWorld);
  const auto m = out.channel_means();
  EXPECT_NEAR(m[0], m[1], 1e-4);
  EXPECT_NEAR(m[2], m[1], 1e-4);
}

TEST(WhiteBalance, GrayWorldGainsAnchorGreen) {
  Image img(4, 4);
  img.fill(0.2f, 0.4f, 0.8f);
  const auto gains = white_balance_gains(img, WhiteBalanceAlgo::kGrayWorld);
  EXPECT_NEAR(gains[0], 2.0f, 1e-4f);
  EXPECT_FLOAT_EQ(gains[1], 1.0f);
  EXPECT_NEAR(gains[2], 0.5f, 1e-4f);
}

TEST(WhiteBalance, WhitePatchAlignsHighlights) {
  Image img(8, 8);
  img.fill(0.2f, 0.3f, 0.1f);
  // A 2x2 "white patch": >1% of pixels, so the 99th-percentile estimator
  // lands inside it.
  for (std::size_t y = 0; y < 2; ++y) {
    for (std::size_t x = 0; x < 2; ++x) {
      img.set_pixel(y, x, 0.8f, 0.4f, 0.2f);
    }
  }
  const auto gains = white_balance_gains(img, WhiteBalanceAlgo::kWhitePatch);
  EXPECT_NEAR(gains[0], 0.4f / 0.8f, 0.05f);
  EXPECT_NEAR(gains[2], 0.4f / 0.2f, 0.25f);
}

TEST(WhiteBalance, CorrectsColorCast) {
  // Warm-cast gray image: WB should bring channels together.
  Image img(8, 8);
  img.fill(0.6f, 0.5f, 0.4f);
  Image out = white_balance(img, WhiteBalanceAlgo::kGrayWorld);
  const auto m = out.channel_means();
  EXPECT_NEAR(m[0], m[2], 1e-4);
}

// ----------------------------------------------------------------- gamut

TEST(Gamut, NoneKeepsSensorSpace) {
  Image img(2, 2);
  img.fill(0.4f, 0.5f, 0.6f);
  Image out = gamut_map(img, GamutAlgo::kNone, identity3());
  EXPECT_NEAR(image_mad(img, out), 0.0, 1e-7);
}

TEST(Gamut, WbPlusCcmRestoresNeutral) {
  // The factorization: WB removes the white cast, the (white-preserving)
  // CCM unmixes hue. Together they restore a neutral gray captured through
  // a green-dominant, crosstalked sensor.
  SensorConfig cfg = quiet_sensor();
  cfg.spectral_response = make_spectral_response(0.1f, 0.1f, 0.6f, 0.65f);
  SensorModel sensor(cfg);
  Rng rng(99);
  RawImage raw = sensor.capture(gray_scene(64, 0.5f), rng);
  Image img = demosaic(raw, DemosaicAlgo::kBilinear);
  img = white_balance(img, WhiteBalanceAlgo::kGrayWorld);
  Image out = gamut_map(img, GamutAlgo::kSrgb, sensor.ccm());
  const auto m = out.channel_means();
  EXPECT_NEAR(m[0], m[1], 5e-3);
  EXPECT_NEAR(m[2], m[1], 5e-3);
}

TEST(Gamut, CcmAloneKeepsRawCast) {
  // Without WB the raw white cast must survive the CCM — the mechanism
  // behind Fig 3's dominant white-balance effect.
  SensorConfig cfg = quiet_sensor();
  cfg.spectral_response = make_spectral_response(0.0f, 0.05f, 0.55f, 0.65f);
  SensorModel sensor(cfg);
  Rng rng(100);
  RawImage raw = sensor.capture(gray_scene(64, 0.5f), rng);
  Image img = demosaic(raw, DemosaicAlgo::kBilinear);
  Image out = gamut_map(img, GamutAlgo::kSrgb, sensor.ccm());
  const auto m = out.channel_means();
  EXPECT_LT(m[0], m[1] * 0.8);  // red stays suppressed
  EXPECT_LT(m[2], m[1] * 0.9);  // blue stays suppressed
}

TEST(Gamut, ProphotoDiffersFromSrgb) {
  Image img(2, 2);
  img.fill(0.7f, 0.3f, 0.2f);
  Image srgb = gamut_map(img, GamutAlgo::kSrgb, identity3());
  Image pp = gamut_map(img, GamutAlgo::kProphoto, identity3());
  EXPECT_GT(image_mad(srgb, pp), 0.02);
}

// ------------------------------------------------------------------ tone

TEST(Tone, NoneIsIdentity) {
  Image img(2, 2);
  img.fill(0.2f, 0.4f, 0.6f);
  EXPECT_NEAR(image_mad(tone_transform(img, ToneAlgo::kNone), img), 0.0, 1e-7);
}

TEST(Tone, GammaBrightensLinearMidtones) {
  Image img(2, 2);
  img.fill(0.2f, 0.2f, 0.2f);
  Image out = tone_transform(img, ToneAlgo::kSrgbGamma);
  EXPECT_GT(out.at(0, 0, 0), 0.4f);
}

TEST(Tone, GammaIsMonotone) {
  Image img(1, 3);
  img.set_pixel(0, 0, 0.1f, 0.1f, 0.1f);
  img.set_pixel(0, 1, 0.5f, 0.5f, 0.5f);
  img.set_pixel(0, 2, 0.9f, 0.9f, 0.9f);
  Image out = tone_transform(img, ToneAlgo::kSrgbGamma);
  EXPECT_LT(out.at(0, 0, 0), out.at(0, 1, 0));
  EXPECT_LT(out.at(0, 1, 0), out.at(0, 2, 0));
}

TEST(Tone, EqualizationChangesContrast) {
  // Low-contrast image: equalization must spread the histogram.
  Rng rng(12);
  Image img(16, 16);
  for (float& v : img.flat()) v = rng.uniform_f(0.4f, 0.5f);
  Image gamma_only = tone_transform(img, ToneAlgo::kSrgbGamma);
  Image equalized = tone_transform(img, ToneAlgo::kSrgbGammaEq);
  EXPECT_GT(image_mad(gamma_only, equalized), 0.01);
}

// ------------------------------------------------------------- compression

TEST(Jpeg, QualityOutOfRangeDisables) {
  Rng rng(13);
  Image img(16, 16);
  for (float& v : img.flat()) v = rng.uniform_f(0, 1);
  EXPECT_NEAR(image_mad(jpeg_roundtrip(img, 0), img), 0.0, 1e-7);
  EXPECT_NEAR(image_mad(jpeg_roundtrip(img, 100), img), 0.0, 1e-7);
}

TEST(Jpeg, ConstantBlockSurvives) {
  Image img(8, 8);
  img.fill(0.5f, 0.5f, 0.5f);
  Image out = jpeg_roundtrip(img, 85);
  EXPECT_LT(image_mad(img, out), 0.01);
}

TEST(Jpeg, LowerQualityMoreError) {
  Rng rng(14);
  Image img(32, 32);
  for (float& v : img.flat()) v = rng.uniform_f(0, 1);
  const double e85 = image_mad(jpeg_roundtrip(img, 85), img);
  const double e50 = image_mad(jpeg_roundtrip(img, 50), img);
  const double e10 = image_mad(jpeg_roundtrip(img, 10), img);
  EXPECT_LT(e85, e50);
  EXPECT_LT(e50, e10);
  EXPECT_GT(e85, 0.0);
}

TEST(Jpeg, QuantTableScaling) {
  // libjpeg rule: quality 50 keeps the base table.
  EXPECT_EQ(jpeg_scale_quant(16, 50), 16);
  EXPECT_LT(jpeg_scale_quant(16, 90), 16);
  EXPECT_GT(jpeg_scale_quant(16, 10), 16);
  EXPECT_GE(jpeg_scale_quant(1, 99), 1);   // clamped at 1
  EXPECT_LE(jpeg_scale_quant(255, 1), 255);
}

TEST(Jpeg, NonMultipleOf8Dimensions) {
  Rng rng(15);
  Image img(10, 13);
  for (float& v : img.flat()) v = rng.uniform_f(0, 1);
  Image out = jpeg_roundtrip(img, 85);
  EXPECT_EQ(out.height(), 10u);
  EXPECT_EQ(out.width(), 13u);
  for (float v : out.flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

// ---------------------------------------------------------------- pipeline

TEST(Pipeline, BaselineMatchesTable3) {
  const IspConfig c = IspConfig::baseline();
  EXPECT_EQ(c.denoise, DenoiseAlgo::kFBDD);
  EXPECT_EQ(c.demosaic, DemosaicAlgo::kPPG);
  EXPECT_EQ(c.wb, WhiteBalanceAlgo::kGrayWorld);
  EXPECT_EQ(c.gamut, GamutAlgo::kSrgb);
  EXPECT_EQ(c.tone, ToneAlgo::kSrgbGamma);
  EXPECT_EQ(c.jpeg_quality, 85);
}

TEST(Pipeline, StageOptionsMatchTable3) {
  const IspConfig base = IspConfig::baseline();
  EXPECT_EQ(base.with_stage_option(IspStage::kDenoise, 1).denoise,
            DenoiseAlgo::kNone);
  EXPECT_EQ(base.with_stage_option(IspStage::kDenoise, 2).denoise,
            DenoiseAlgo::kWavelet);
  EXPECT_EQ(base.with_stage_option(IspStage::kDemosaic, 1).demosaic,
            DemosaicAlgo::kPixelBinning);
  EXPECT_EQ(base.with_stage_option(IspStage::kDemosaic, 2).demosaic,
            DemosaicAlgo::kAHD);
  EXPECT_EQ(base.with_stage_option(IspStage::kWhiteBalance, 1).wb,
            WhiteBalanceAlgo::kNone);
  EXPECT_EQ(base.with_stage_option(IspStage::kWhiteBalance, 2).wb,
            WhiteBalanceAlgo::kWhitePatch);
  EXPECT_EQ(base.with_stage_option(IspStage::kGamut, 2).gamut,
            GamutAlgo::kProphoto);
  EXPECT_EQ(base.with_stage_option(IspStage::kTone, 1).tone, ToneAlgo::kNone);
  EXPECT_EQ(base.with_stage_option(IspStage::kCompress, 1).jpeg_quality, 0);
  EXPECT_EQ(base.with_stage_option(IspStage::kCompress, 2).jpeg_quality, 50);
  EXPECT_THROW(base.with_stage_option(IspStage::kTone, 3),
               std::invalid_argument);
}

TEST(Pipeline, RunProducesValidImage) {
  Rng rng(16);
  SensorModel sensor{SensorConfig{}};
  RawImage raw = sensor.capture(gray_scene(64, 0.4f), rng);
  Image out = run_isp(raw, IspConfig::baseline(sensor.ccm()));
  EXPECT_EQ(out.height(), 64u);
  for (float v : out.flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Pipeline, ResizedOutputSize) {
  Rng rng(17);
  SensorModel sensor{SensorConfig{}};
  RawImage raw = sensor.capture(gray_scene(64, 0.4f), rng);
  Image out = run_isp_resized(raw, IspConfig::baseline(), 32);
  EXPECT_EQ(out.height(), 32u);
  EXPECT_EQ(out.width(), 32u);
}

TEST(Pipeline, StageSwapsChangeOutput) {
  // Every Table 3 option must produce a measurably different image from the
  // baseline — otherwise the Fig 3 ablation would be vacuous.
  Rng rng(18);
  Image scene(64, 64);
  Rng srng(19);
  for (float& v : scene.flat()) v = srng.uniform_f(0.1f, 0.9f);
  SensorConfig scfg;
  scfg.spectral_response = make_spectral_response(0.1f, 0.08f);
  SensorModel sensor(scfg);
  RawImage raw = sensor.capture(scene, rng);
  const IspConfig base = IspConfig::baseline(sensor.ccm());
  const Image ref = run_isp(raw, base);
  for (IspStage stage : {IspStage::kDenoise, IspStage::kDemosaic,
                         IspStage::kWhiteBalance, IspStage::kGamut,
                         IspStage::kTone, IspStage::kCompress}) {
    for (int option : {1, 2}) {
      const Image alt = run_isp(raw, base.with_stage_option(stage, option));
      EXPECT_GT(image_mad(ref, alt), 1e-4)
          << isp_stage_name(stage) << " option " << option;
    }
  }
}

TEST(Pipeline, DescribeMentionsAlgorithms) {
  const std::string d = IspConfig::baseline().describe();
  EXPECT_NE(d.find("ppg"), std::string::npos);
  EXPECT_NE(d.find("gray-world"), std::string::npos);
  EXPECT_NE(d.find("85"), std::string::npos);
}

}  // namespace
}  // namespace hetero

namespace hetero {
namespace {

TEST(Gamut, DisplayP3BetweenSrgbAndProphoto) {
  Image img(2, 2);
  img.fill(0.7f, 0.35f, 0.2f);
  const Image srgb = gamut_map(img, GamutAlgo::kSrgb, identity3());
  const Image p3 = gamut_map(img, GamutAlgo::kDisplayP3, identity3());
  const Image pp = gamut_map(img, GamutAlgo::kProphoto, identity3());
  const double d_p3 = image_mad(srgb, p3);
  const double d_pp = image_mad(srgb, pp);
  EXPECT_GT(d_p3, 1e-4);
  EXPECT_LT(d_p3, d_pp);
}

TEST(Gamut, AllAlgosNamed) {
  EXPECT_STREQ(gamut_name(GamutAlgo::kNone), "none");
  EXPECT_STREQ(gamut_name(GamutAlgo::kSrgb), "srgb");
  EXPECT_STREQ(gamut_name(GamutAlgo::kProphoto), "prophoto");
  EXPECT_STREQ(gamut_name(GamutAlgo::kDisplayP3), "display-p3");
}

}  // namespace
}  // namespace hetero
