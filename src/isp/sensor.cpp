#include "isp/sensor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "kernels/isa.h"
#include "util/rng.h"

namespace hetero {
namespace {

/// Natural log of a normal float in (0, 1]: Cephes' logf (mantissa folded
/// into [sqrt(1/2), sqrt(2)), degree-9 polynomial, ln 2 split in two),
/// about 1 ulp. Plain float arithmetic and bit moves, so a loop calling it
/// vectorizes.
HS_ALWAYS_INLINE float log_unit(float u) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(u);
  float e = static_cast<float>(static_cast<std::int32_t>(bits >> 23) - 126);
  float m = std::bit_cast<float>((bits & 0x007fffffu) | 0x3f000000u);
  // m in [0.5, 1); fold it into [sqrt(1/2), sqrt(2)).
  const bool low = m < 0.707106781186547524f;
  e = low ? e - 1.0f : e;
  const float x = low ? m + m - 1.0f : m - 1.0f;
  const float z = x * x;
  float y = 7.0376836292e-2f;
  y = y * x - 1.1514610310e-1f;
  y = y * x + 1.1676998740e-1f;
  y = y * x - 1.2420140846e-1f;
  y = y * x + 1.4249322787e-1f;
  y = y * x - 1.6668057665e-1f;
  y = y * x + 2.0000714765e-1f;
  y = y * x - 2.4999993993e-1f;
  y = y * x + 3.3333331174e-1f;
  y = y * x * z;
  y += -2.12194440e-4f * e;
  y += -0.5f * z;
  return x + y + 0.693359375f * e;
}

/// Layout of one pixel's noise draw `d` (the "stream layout"): the high 24
/// bits give u1 = (hi + 1/2) * 2^-24, rounded to float, so u1 is in (0, 1]
/// and the log is finite; the low 24 bits give the angle 2*pi * lo * 2^-24.
/// A float Box-Muller turns them into a standard-normal pair
/// (r cos theta, r sin theta) with r = sqrt(-2 ln u1) <= 5.9. The angle is
/// reduced exactly in integers to the nearest quarter turn q plus a
/// remainder in [-pi/4, pi/4], where Cephes' sinf/cosf polynomials hold.
HS_ALWAYS_INLINE void box_muller(std::uint64_t d, float& z_cos,
                                 float& z_sin) {
  const auto hi = static_cast<std::int32_t>(d >> 40);
  const auto lo = static_cast<std::int32_t>(d & 0xffffffu);
  const float u1 = (static_cast<float>(hi) + 0.5f) * 0x1p-24f;
  const float r = std::sqrt(-2.0f * log_unit(u1));
  const std::int32_t q = (lo + (1 << 21)) >> 22;  // 0..4 quarter turns
  const float a = static_cast<float>(lo - (q << 22)) *
                  (1.57079632679489662f * 0x1p-22f);
  const float z = a * a;
  float s = -1.9515295891e-4f;
  s = s * z + 8.3321608736e-3f;
  s = s * z - 1.6666654611e-1f;
  s = s * z * a + a;
  float c = 2.443315711809948e-5f;
  c = c * z - 1.388731625493765e-3f;
  c = c * z + 4.166664568298827e-2f;
  c = c * z * z - 0.5f * z + 1.0f;
  // Rotate (c, s) by q quarter turns.
  const bool swap = (q & 1) != 0;
  const float cq = swap ? s : c;
  const float sq = swap ? c : s;
  z_cos = r * (((q + 1) & 2) != 0 ? -cq : cq);
  z_sin = r * ((q & 2) != 0 ? -sq : sq);
}

struct ExposeParams {
  float gain, vignetting, cx, max_r2;
  float shot_noise, read_noise, black_level, levels;
};

/// One mosaic row: gain, vignetting, shot + read noise from the row's
/// draws, black level, clip and ADC quantization. Every step but the noise
/// is the seed's per-pixel arithmetic in the seed's order; the pixels are
/// independent, so the loop runs in SIMD lanes.
HS_TILED_CLONES
void expose_row(const float* HS_RESTRICT site,
                const std::uint64_t* HS_RESTRICT draws, std::size_t w,
                float dy2, const ExposeParams& p, float* HS_RESTRICT out) {
  const ExposeParams q = p;
  const int n = static_cast<int>(w);  // int: SSE2 converts int32 lanes only
  for (int x = 0; x < n; ++x) {
    float signal = site[x] * q.gain;
    signal = std::max(signal, 0.0f);

    // (3) Vignetting: radial cos^4-style falloff.
    const float dx = static_cast<float>(x) - q.cx;
    const float falloff = 1.0f - q.vignetting * (dy2 + dx * dx) / q.max_r2;
    signal *= falloff;

    // (4b) Noise: shot (signal-dependent) from r cos, read (additive)
    // from r sin.
    float z_cos, z_sin;
    box_muller(draws[x], z_cos, z_sin);
    signal += q.shot_noise * std::sqrt(signal) * z_cos;
    signal += q.read_noise * z_sin;

    // (5) Black level (ADC pedestal; gain maps full-scale signal to
    // full-well, so codes span [black_level, 1]), saturation clip, ADC
    // quantization. The clip leaves x in [0, levels], where truncation
    // plus a half-step test is std::round exactly.
    signal = std::clamp(signal * (1.0f - q.black_level) + q.black_level,
                        0.0f, 1.0f);
    const float x_l = signal * q.levels;
    float t = static_cast<float>(static_cast<std::int32_t>(x_l));
    t += x_l - t >= 0.5f ? 1.0f : 0.0f;
    out[x] = t / q.levels;
  }
}

}  // namespace

SensorModel::SensorModel(SensorConfig config) : config_(std::move(config)) {
  HS_CHECK(config_.raw_height % 2 == 0 && config_.raw_width % 2 == 0 &&
               config_.raw_height > 0 && config_.raw_width > 0,
           "SensorModel: mosaic dimensions must be positive and even");
  HS_CHECK(config_.bit_depth >= 4 && config_.bit_depth <= 16,
           "SensorModel: bit depth out of range");
}

RawImage SensorModel::capture(const Image& scene, Rng& rng) const {
  HS_CHECK(!scene.empty(), "SensorModel::capture: empty scene");
  const SensorConfig& c = config_;

  // (1) Optics: lens point-spread blur in the scene domain, then sample the
  // focal plane at sensor resolution.
  Image focal = gaussian_blur(scene, c.optics_blur_sigma);
  focal = resize_bilinear(focal, c.raw_height, c.raw_width);

  // (2) Spectral response: scene radiance to sensor-native channel signal.
  focal = apply_color_matrix(focal, c.spectral_response);

  // (2b) Per-shot illuminant / auto-white-point tint: a colour-temperature
  // factor tilting R against B, plus a smaller magenta-green shift. The
  // white-balance ISP stage is what removes this downstream.
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

  // (4a) Noise draws, in one bulk pass: exactly one u64 per Bayer pixel in
  // raster order, whatever the scene or noise settings (box_muller gives
  // the layout), so the stream advance depends only on the geometry.
  const std::size_t h = c.raw_height, w = c.raw_width;
  thread_local std::vector<std::uint64_t> draws;
  if (draws.size() < h * w) draws.resize(h * w);
  rng.fill_u64(draws.data(), h * w);

  RawImage raw(h, w, c.pattern);
  ExposeParams p;
  p.gain = c.exposure_gain;
  p.vignetting = c.vignetting;
  p.cx = (static_cast<float>(w) - 1.0f) / 2.0f;
  const float cy = (static_cast<float>(h) - 1.0f) / 2.0f;
  p.max_r2 = cy * cy + p.cx * p.cx;
  p.shot_noise = c.shot_noise;
  p.read_noise = c.read_noise;
  p.black_level = c.black_level;
  p.levels = static_cast<float>((1 << c.bit_depth) - 1);
  thread_local std::vector<float> site;
  if (site.size() < w) site.resize(w);
  for (std::size_t y = 0; y < h; ++y) {
    // The row's CFA samples: channel ch(x) of each focal-plane pixel.
    const float* frow = focal.data() + y * w * 3;
    const std::size_t ch[2] = {static_cast<std::size_t>(raw.channel_at(y, 0)),
                               static_cast<std::size_t>(raw.channel_at(y, 1))};
    for (std::size_t x = 0; x < w; ++x) site[x] = frow[3 * x + ch[x & 1]];
    const float dy = static_cast<float>(y) - cy;
    expose_row(site.data(), draws.data() + y * w, w, dy * dy, p,
               raw.data() + y * w);
  }
  return raw;
}

ColorMatrix SensorModel::ccm() const {
  // White-preserving colour-correction matrix: the inverse of the spectral
  // response with each row normalized to sum 1, so CCM * (1,1,1)^T =
  // (1,1,1)^T. Real ISPs factor colour correction this way — the CCM fixes
  // hue/saturation (channel mixing) while the *white point* (the sensor's
  // raw cast plus the illuminant) is the white-balance stage's job. Without
  // this factorization, skipping WB would be a no-op because the CCM would
  // silently fix the cast too.
  ColorMatrix inv = inverse3(config_.spectral_response);
  for (int r = 0; r < 3; ++r) {
    float row_sum = 0.0f;
    for (int c = 0; c < 3; ++c) row_sum += inv[static_cast<std::size_t>(r * 3 + c)];
    HS_CHECK(std::abs(row_sum) > 1e-6f, "SensorModel::ccm: degenerate row");
    for (int c = 0; c < 3; ++c) inv[static_cast<std::size_t>(r * 3 + c)] /= row_sum;
  }
  return inv;
}

}  // namespace hetero
