#include "isp/denoise.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "image/fastpath.h"
#include "kernels/isa.h"

namespace hetero {
namespace {

RawImage denoise_fbdd(const RawImage& raw) {
  // Median over same-colour neighbours in a 5x5 window, blended 50/50 with
  // the original sample: removes impulse noise while keeping detail (a
  // laptop-scale stand-in for FBDD's full banding/impulse pipeline).
  const int h = static_cast<int>(raw.height());
  const int w = static_cast<int>(raw.width());
  RawImage out(raw.height(), raw.width(), raw.pattern());
  std::vector<float> samples;
  samples.reserve(9);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int own = raw.channel_at(static_cast<std::size_t>(y),
                                     static_cast<std::size_t>(x));
      samples.clear();
      for (int dy = -2; dy <= 2; ++dy) {
        for (int dx = -2; dx <= 2; ++dx) {
          const int yy = std::clamp(y + dy, 0, h - 1);
          const int xx = std::clamp(x + dx, 0, w - 1);
          if (raw.channel_at(static_cast<std::size_t>(yy),
                             static_cast<std::size_t>(xx)) == own) {
            samples.push_back(raw.at(static_cast<std::size_t>(yy),
                                     static_cast<std::size_t>(xx)));
          }
        }
      }
      std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                       samples.end());
      const float med = samples[samples.size() / 2];
      const float orig =
          raw.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x));
      out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x)) =
          0.5f * orig + 0.5f * med;
    }
  }
  return out;
}

/// One-level 2-D Haar soft-threshold denoise of a single plane (in place).
void haar_denoise_plane(std::vector<float>& plane, std::size_t h,
                        std::size_t w) {
  if (h < 2 || w < 2) return;
  const std::size_t hh = h / 2, hw = w / 2;
  std::vector<float> ll(hh * hw), lh(hh * hw), hl(hh * hw), hhb(hh * hw);
  for (std::size_t y = 0; y < hh; ++y) {
    for (std::size_t x = 0; x < hw; ++x) {
      const float a = plane[(2 * y) * w + 2 * x];
      const float b = plane[(2 * y) * w + 2 * x + 1];
      const float c = plane[(2 * y + 1) * w + 2 * x];
      const float d = plane[(2 * y + 1) * w + 2 * x + 1];
      ll[y * hw + x] = (a + b + c + d) / 4.0f;
      lh[y * hw + x] = (a - b + c - d) / 4.0f;
      hl[y * hw + x] = (a + b - c - d) / 4.0f;
      hhb[y * hw + x] = (a - b - c + d) / 4.0f;
    }
  }
  // BayesShrink-style noise estimate from the diagonal detail band.
  std::vector<float> abs_hh(hhb.size());
  for (std::size_t i = 0; i < hhb.size(); ++i) abs_hh[i] = std::abs(hhb[i]);
  std::nth_element(abs_hh.begin(), abs_hh.begin() + abs_hh.size() / 2,
                   abs_hh.end());
  const float sigma = abs_hh[abs_hh.size() / 2] / 0.6745f;
  const float t = 1.5f * sigma;
  auto soft = [t](float v) {
    if (v > t) return v - t;
    if (v < -t) return v + t;
    return 0.0f;
  };
  for (auto* band : {&lh, &hl, &hhb}) {
    for (float& v : *band) v = soft(v);
  }
  // Inverse Haar.
  for (std::size_t y = 0; y < hh; ++y) {
    for (std::size_t x = 0; x < hw; ++x) {
      const float s = ll[y * hw + x];
      const float e1 = lh[y * hw + x];
      const float e2 = hl[y * hw + x];
      const float e3 = hhb[y * hw + x];
      plane[(2 * y) * w + 2 * x] = s + e1 + e2 + e3;
      plane[(2 * y) * w + 2 * x + 1] = s - e1 + e2 - e3;
      plane[(2 * y + 1) * w + 2 * x] = s + e1 - e2 - e3;
      plane[(2 * y + 1) * w + 2 * x + 1] = s - e1 - e2 + e3;
    }
  }
}

RawImage denoise_wavelet(const RawImage& raw) {
  // Treat the mosaic as four half-resolution colour planes (one per CFA
  // site), denoise each, and reassemble — wavelets never mix colours.
  const std::size_t h = raw.height(), w = raw.width();
  const std::size_t ph = h / 2, pw = w / 2;
  RawImage out(h, w, raw.pattern());
  for (std::size_t sy = 0; sy < 2; ++sy) {
    for (std::size_t sx = 0; sx < 2; ++sx) {
      std::vector<float> plane(ph * pw);
      for (std::size_t y = 0; y < ph; ++y) {
        for (std::size_t x = 0; x < pw; ++x) {
          plane[y * pw + x] = raw.at(2 * y + sy, 2 * x + sx);
        }
      }
      haar_denoise_plane(plane, ph, pw);
      for (std::size_t y = 0; y < ph; ++y) {
        for (std::size_t x = 0; x < pw; ++x) {
          out.at(2 * y + sy, 2 * x + sx) =
              std::clamp(plane[y * pw + x], 0.0f, 1.0f);
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- fast path
//
// HS_ISP=fast rewrites of the loops above; byte-identical results (the
// blend/threshold arithmetic is untouched and a median is a k-th order
// statistic, so any exact selection yields the seed value). See
// tests/test_isp_parity.cpp.

/// A median-selection exchange network: exchange i puts min(s[a], s[b])
/// in slot a and the max in slot b, the seed's sort2. Sorting `rows`
/// slots (the samples, padded with +inf sentinels) leaves the median of
/// the samples in slot `mid` - the value nth_element(s, s + n / 2, s + n)
/// selects, since any exact selection of a k-th order statistic agrees.
struct ExchangeNet {
  int n = 0;  ///< exchanges
  int rows = 0;
  int mid = 0;
  std::uint8_t a[72], b[72];
  void add(int lo, int hi) {
    a[n] = static_cast<std::uint8_t>(lo);
    b[n] = static_cast<std::uint8_t>(hi);
    ++n;
  }
};

/// Median of 9 (the R/B same-channel count in a 5x5 window): the classic
/// minimal network (Paeth / Devillard), median in slot 4.
const ExchangeNet& median9_net() {
  static const ExchangeNet net = [] {
    ExchangeNet m;
    m.rows = 9;
    m.mid = 4;
    const int pairs[19][2] = {{1, 2}, {4, 5}, {7, 8}, {0, 1}, {3, 4},
                              {6, 7}, {1, 2}, {4, 5}, {7, 8}, {0, 3},
                              {5, 8}, {4, 7}, {3, 6}, {1, 4}, {2, 5},
                              {4, 7}, {4, 2}, {6, 4}, {4, 2}};
    for (const auto& p : pairs) m.add(p[0], p[1]);
    return m;
  }();
  return net;
}

/// Median of 13 (the Bayer G-phase count): Batcher's odd-even mergesort
/// for 16 slots (63 exchanges), generated rather than memorized, over the
/// 13 samples plus three +inf sentinels; the median lands in slot 6.
const ExchangeNet& median13_net() {
  static const ExchangeNet net = [] {
    ExchangeNet m;
    constexpr int kN = 16;
    m.rows = kN;
    m.mid = 6;
    for (int p = 1; p < kN; p <<= 1) {
      for (int k = p; k >= 1; k >>= 1) {
        for (int j = k % p; j + k < kN; j += 2 * k) {
          for (int i = 0; i < k && i + j + k < kN; ++i) {
            if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
              m.add(i + j, i + j + k);
            }
          }
        }
      }
    }
    return m;
  }();
  return net;
}

/// Same-phase pixels of one row that share every comparator exchange.
constexpr int kFbddLanes = 16;

/// One CFA phase's same-channel taps inside the 5x5 window, in the
/// scalar dy/dx scan order, as offsets into the column-deinterleaved
/// store (see denoise_fbdd_fast) relative to the pixel's own slot.
struct FbddPhase {
  int n = 0;
  std::ptrdiff_t off[25];
  const ExchangeNet* net = nullptr;
};

/// The seed's sort2 on every lane: lo_row gets the minimum, hi_row the
/// maximum. The two rows are distinct slots of one block.
HS_ALWAYS_INLINE void exchange(float* HS_RESTRICT lo_row,
                               float* HS_RESTRICT hi_row) {
  for (int l = 0; l < kFbddLanes; ++l) {
    const float a = lo_row[l], b = hi_row[l];
    const float lo = std::min(a, b), hi = std::max(a, b);
    lo_row[l] = lo;
    hi_row[l] = hi;
  }
}

/// FBDD interior, rows [2, h - 2): each row's pixels of one column phase
/// run kFbddLanes at a time through the phase's exchange network, one
/// exchange applied to all lanes at once. Per pixel this is the seed's
/// median (same samples, same exchanges in the same order) and blend.
/// `store` holds, per raw row y and column parity p, the row's parity-p
/// samples at store + (2 * y + p) * pitch, padded to pitch with zeros so a
/// full block may read past the row's last same-phase pixel.
HS_TILED_CLONES
void fbdd_interior(const float* HS_RESTRICT store, std::ptrdiff_t pitch,
                   const FbddPhase (&tab)[2][2], int h, int w,
                   float* HS_RESTRICT op) {
  alignas(32) float s[16][kFbddLanes];
  alignas(32) float res[kFbddLanes];
  for (int y = 2; y < h - 2; ++y) {
    for (int px = 0; px < 2; ++px) {
      const FbddPhase& t = tab[y & 1][px];
      const ExchangeNet& net = *t.net;
      const float* own = store + (2 * y + px) * pitch;
      // Pixel x = 2m + px is interior for m in [1, mhi).
      const int mhi = (w - 1 - px) / 2;
      for (int m0 = 1; m0 < mhi; m0 += kFbddLanes) {
        for (int k = 0; k < t.n; ++k) {
          const float* src = own + m0 + t.off[k];
          for (int l = 0; l < kFbddLanes; ++l) s[k][l] = src[l];
        }
        for (int k = t.n; k < net.rows; ++k) {
          for (int l = 0; l < kFbddLanes; ++l) {
            s[k][l] = std::numeric_limits<float>::infinity();
          }
        }
        for (int i = 0; i < net.n; ++i) exchange(s[net.a[i]], s[net.b[i]]);
        for (int l = 0; l < kFbddLanes; ++l) {
          res[l] = 0.5f * own[m0 + l] + 0.5f * s[net.mid][l];
        }
        float* orow = op + static_cast<std::ptrdiff_t>(y) * w + 2 * m0 + px;
        const int lanes = std::min(kFbddLanes, mhi - m0);
        for (int l = 0; l < lanes; ++l) orow[2 * l] = res[l];
      }
    }
  }
}

RawImage denoise_fbdd_fast(const RawImage& raw) {
  const int h = static_cast<int>(raw.height());
  const int w = static_cast<int>(raw.width());
  RawImage out(raw.height(), raw.width(), raw.pattern());

  int pc[2][2];
  for (int py = 0; py < 2; ++py) {
    for (int px = 0; px < 2; ++px) {
      pc[py][px] = raw.channel_at(static_cast<std::size_t>(std::min(py, h - 1)),
                                  static_cast<std::size_t>(std::min(px, w - 1)));
    }
  }

  const float* HS_RESTRICT rp = raw.data();
  float* HS_RESTRICT op = out.data();
  if (h > 4 && w > 4) {
    // Column-deinterleaved copy (mosaics have even sides): same-phase
    // pixels become contiguous.
    const int pw = w / 2;
    const std::ptrdiff_t pitch = pw + kFbddLanes;
    float* store = img::scratch(img::kSlotDenoise,
                                static_cast<std::size_t>(2 * h * pitch));
    for (int y = 0; y < h; ++y) {
      const float* row = rp + static_cast<std::ptrdiff_t>(y) * w;
      for (int p = 0; p < 2; ++p) {
        float* dst = store + (2 * y + p) * pitch;
        for (int m = 0; m < pw; ++m) dst[m] = row[2 * m + p];
        std::fill(dst + pw, dst + pitch, 0.0f);
      }
    }
    FbddPhase tab[2][2];
    for (int py = 0; py < 2; ++py) {
      for (int px = 0; px < 2; ++px) {
        FbddPhase& t = tab[py][px];
        for (int dy = -2; dy <= 2; ++dy) {
          for (int dx = -2; dx <= 2; ++dx) {
            if (pc[(py + dy) & 1][(px + dx) & 1] == pc[py][px]) {
              // Column x + dx = 2 (m + floor((px + dx) / 2)) + parity.
              const int parity = (px + dx) & 1;
              const int shift = (px + dx - parity) / 2;
              t.off[t.n++] = (2 * dy + parity - px) * pitch + shift;
            }
          }
        }
        HS_CHECK(t.n == 9 || t.n == 13,
                 "denoise: FBDD needs a Bayer colour filter array");
        t.net = t.n == 9 ? &median9_net() : &median13_net();
      }
    }
    fbdd_interior(store, pitch, tab, h, w, op);
  }

  // Clamped border ring (two pixels): the seed's per-pixel scan, with the
  // median found by insertion sort - for at most 25 samples cheaper than
  // nth_element's introselect, and the same order statistic.
  auto border_pixel = [&](int y, int x) {
    const int own = pc[y & 1][x & 1];
    float s[25];
    int n = 0;
    for (int dy = -2; dy <= 2; ++dy) {
      for (int dx = -2; dx <= 2; ++dx) {
        const int yy = std::clamp(y + dy, 0, h - 1);
        const int xx = std::clamp(x + dx, 0, w - 1);
        if (pc[yy & 1][xx & 1] == own) {
          s[n++] = rp[static_cast<std::ptrdiff_t>(yy) * w + xx];
        }
      }
    }
    for (int i = 1; i < n; ++i) {
      const float v = s[i];
      int j = i;
      for (; j > 0 && v < s[j - 1]; --j) s[j] = s[j - 1];
      s[j] = v;
    }
    const float orig = rp[static_cast<std::ptrdiff_t>(y) * w + x];
    op[static_cast<std::ptrdiff_t>(y) * w + x] = 0.5f * orig + 0.5f * s[n / 2];
  };
  const int ylo = std::min(2, h), yhi = std::max(h - 2, ylo);
  for (int y = 0; y < ylo; ++y) {
    for (int x = 0; x < w; ++x) border_pixel(y, x);
  }
  for (int y = yhi; y < h; ++y) {
    for (int x = 0; x < w; ++x) border_pixel(y, x);
  }
  for (int y = ylo; y < yhi; ++y) {
    for (int x = 0; x < std::min(2, w); ++x) border_pixel(y, x);
    for (int x = std::max(w - 2, std::min(2, w)); x < w; ++x) border_pixel(y, x);
  }
  return out;
}

HS_TILED_CLONES
void haar_forward(const float* HS_RESTRICT plane, float* HS_RESTRICT ll,
                  float* HS_RESTRICT lh, float* HS_RESTRICT hl,
                  float* HS_RESTRICT hhb, std::size_t hh, std::size_t hw,
                  std::size_t w) {
  for (std::size_t y = 0; y < hh; ++y) {
    const float* r0 = plane + (2 * y) * w;
    const float* r1 = r0 + w;
    for (std::size_t x = 0; x < hw; ++x) {
      const float a = r0[2 * x];
      const float b = r0[2 * x + 1];
      const float c = r1[2 * x];
      const float d = r1[2 * x + 1];
      ll[y * hw + x] = (a + b + c + d) / 4.0f;
      lh[y * hw + x] = (a - b + c - d) / 4.0f;
      hl[y * hw + x] = (a + b - c - d) / 4.0f;
      hhb[y * hw + x] = (a - b - c + d) / 4.0f;
    }
  }
}

HS_TILED_CLONES
void haar_inverse(float* HS_RESTRICT plane, const float* HS_RESTRICT ll,
                  const float* HS_RESTRICT lh, const float* HS_RESTRICT hl,
                  const float* HS_RESTRICT hhb, std::size_t hh, std::size_t hw,
                  std::size_t w) {
  for (std::size_t y = 0; y < hh; ++y) {
    float* r0 = plane + (2 * y) * w;
    float* r1 = r0 + w;
    for (std::size_t x = 0; x < hw; ++x) {
      const float s = ll[y * hw + x];
      const float e1 = lh[y * hw + x];
      const float e2 = hl[y * hw + x];
      const float e3 = hhb[y * hw + x];
      r0[2 * x] = s + e1 + e2 + e3;
      r0[2 * x + 1] = s - e1 + e2 - e3;
      r1[2 * x] = s + e1 - e2 - e3;
      r1[2 * x + 1] = s - e1 - e2 + e3;
    }
  }
}

HS_TILED_CLONES
void soft_threshold(float* HS_RESTRICT band, std::size_t n, float t) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = band[i];
    band[i] = v > t ? v - t : (v < -t ? v + t : 0.0f);
  }
}

/// haar_denoise_plane over caller-supplied band scratch (no allocation).
void haar_denoise_plane_fast(float* plane, std::size_t h, std::size_t w,
                             float* bands) {
  if (h < 2 || w < 2) return;
  const std::size_t hh = h / 2, hw = w / 2, n = hh * hw;
  float* ll = bands;
  float* lh = ll + n;
  float* hl = lh + n;
  float* hhb = hl + n;
  float* abs_hh = hhb + n;
  haar_forward(plane, ll, lh, hl, hhb, hh, hw, w);
  for (std::size_t i = 0; i < n; ++i) abs_hh[i] = std::abs(hhb[i]);
  std::nth_element(abs_hh, abs_hh + n / 2, abs_hh + n);
  const float sigma = abs_hh[n / 2] / 0.6745f;
  const float t = 1.5f * sigma;
  soft_threshold(lh, n, t);
  soft_threshold(hl, n, t);
  soft_threshold(hhb, n, t);
  haar_inverse(plane, ll, lh, hl, hhb, hh, hw, w);
}

RawImage denoise_wavelet_fast(const RawImage& raw) {
  const std::size_t h = raw.height(), w = raw.width();
  const std::size_t ph = h / 2, pw = w / 2;
  RawImage out(h, w, raw.pattern());
  const std::size_t plane_n = ph * pw;
  const std::size_t band_n = (ph / 2) * (pw / 2);
  float* plane = img::scratch(img::kSlotDenoise, plane_n + 5 * band_n);
  float* bands = plane + plane_n;
  const float* rp = raw.data();
  float* op = out.data();
  for (std::size_t sy = 0; sy < 2; ++sy) {
    for (std::size_t sx = 0; sx < 2; ++sx) {
      for (std::size_t y = 0; y < ph; ++y) {
        const float* src = rp + (2 * y + sy) * w + sx;
        float* dst = plane + y * pw;
        for (std::size_t x = 0; x < pw; ++x) dst[x] = src[2 * x];
      }
      haar_denoise_plane_fast(plane, ph, pw, bands);
      for (std::size_t y = 0; y < ph; ++y) {
        const float* src = plane + y * pw;
        float* dst = op + (2 * y + sy) * w + sx;
        for (std::size_t x = 0; x < pw; ++x) {
          dst[2 * x] = std::clamp(src[x], 0.0f, 1.0f);
        }
      }
    }
  }
  return out;
}

}  // namespace

const char* denoise_name(DenoiseAlgo algo) {
  switch (algo) {
    case DenoiseAlgo::kNone: return "none";
    case DenoiseAlgo::kFBDD: return "fbdd";
    case DenoiseAlgo::kWavelet: return "wavelet-bayesshrink";
  }
  return "?";
}

RawImage denoise(const RawImage& raw, DenoiseAlgo algo) {
  HS_CHECK(!raw.empty(), "denoise: empty RAW input");
  if (img::fast_path()) {
    switch (algo) {
      case DenoiseAlgo::kNone: return raw;
      case DenoiseAlgo::kFBDD: return denoise_fbdd_fast(raw);
      case DenoiseAlgo::kWavelet: return denoise_wavelet_fast(raw);
    }
    return raw;
  }
  switch (algo) {
    case DenoiseAlgo::kNone: return raw;
    case DenoiseAlgo::kFBDD: return denoise_fbdd(raw);
    case DenoiseAlgo::kWavelet: return denoise_wavelet(raw);
  }
  return raw;
}

}  // namespace hetero
