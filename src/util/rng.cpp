#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <numbers>

#include "util/codec.h"

namespace hetero {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Rng::fill_u64(std::uint64_t* out, std::size_t n) {
  Rng local = *this;
  for (std::size_t i = 0; i < n; ++i) out[i] = local.next_u64();
  std::copy(std::begin(local.s_), std::end(local.s_), s_);
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

float Rng::uniform_f(float lo, float hi) {
  return static_cast<float>(uniform(lo, hi));
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return uniform_int(weights.size());
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) return i;
    r -= w;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  shuffle(idx);
  return idx;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  assert(k <= n);
  // Sparse path for huge populations: rejection sampling with a linear
  // dedup scan over the k picks drawn so far, O(k^2) time but O(k) memory —
  // the dense path below allocates an O(n) index vector, which at N = 1M
  // clients per round would dwarf the actual working set. The branch
  // condition depends only on (n, k), never on drawn values, so a given
  // (state, n, k) always takes the same path and replay stays bit-exact.
  if (n >= 10000 && k <= n / 8) {
    std::vector<std::size_t> out;
    out.reserve(k);
    while (out.size() < k) {
      const std::size_t c = static_cast<std::size_t>(uniform_int(n));
      bool seen = false;
      for (std::size_t prev : out) {
        if (prev == c) {
          seen = true;
          break;
        }
      }
      if (!seen) out.push_back(c);
    }
    return out;
  }
  // Partial Fisher-Yates: only the first k slots are needed.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_int(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

RngState Rng::save_state() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::restore_state(const RngState& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

void put_rng(ByteWriter& w, const RngState& s) {
  for (std::uint64_t word : s.s) w.u64(word);
  w.u8(s.has_cached_normal ? 1 : 0);
  w.f64(s.cached_normal);
}

bool get_rng(ByteReader& r, RngState& out) {
  for (std::uint64_t& word : out.s) word = r.u64();
  const std::uint8_t cached = r.u8();
  if (cached > 1) return false;
  out.has_cached_normal = cached != 0;
  out.cached_normal = r.f64();
  return r.ok();
}

Rng Rng::fork(std::uint64_t tag) const {
  // Mix the current state with the tag through splitmix to decorrelate.
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 13) ^ (tag * 0xD1342543DE82EF95ull);
  return Rng(splitmix64(mix));
}

Rng Rng::fork(std::uint64_t tag_a, std::uint64_t tag_b) const {
  // Both keys feed one mix with distinct multipliers/rotations so (a, b)
  // and (b, a) land in unrelated streams.
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 13) ^
                      (tag_a * 0xD1342543DE82EF95ull) ^
                      rotl(tag_b * 0xA0761D6478BD642Full, 29);
  std::uint64_t pre = splitmix64(mix);
  return Rng(splitmix64(pre));
}

}  // namespace hetero
