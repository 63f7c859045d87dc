// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in the library (data generation, client
// sampling, weight init, transforms) draws from an explicitly-passed Rng so
// that a single seed pins down an entire federated-learning run. The engine
// is xoshiro256**, seeded via splitmix64, which is fast, high quality, and
// lets us cheaply derive independent substreams with fork().
#pragma once

#include <cstdint>
#include <vector>

namespace hetero {

/// A serializable snapshot of one Rng's full state (engine words plus the
/// Box-Muller cache), used by the round-level checkpoint layer to resume a
/// run with a bit-identical continuation of every stream.
struct RngState {
  std::uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

class ByteReader;
class ByteWriter;

/// RngState's binary encoding (util/codec.h) for checkpoints and the wire:
/// four engine words, a u8 cache flag, the cached normal. get_rng returns
/// false on truncation or a cache flag other than 0/1.
void put_rng(ByteWriter& w, const RngState& s);
bool get_rng(ByteReader& r, RngState& out);

/// Deterministic random number generator (xoshiro256**).
///
/// Not thread-safe; create one per logical stream. Use fork(tag) to derive
/// statistically-independent child streams (e.g. one per FL client).
class Rng {
 public:
  /// Seeds the state from a single 64-bit seed via splitmix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Writes the next n raw values to out: the same stream as n next_u64()
  /// calls, with the engine state held in registers across the loop.
  void fill_u64(std::uint64_t* out, std::size_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform float in [lo, hi).
  float uniform_f(float lo, float hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box-Muller (cached pair).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Negative weights are treated as zero; all-zero weights -> uniform.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Shuffles a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = uniform_int(i + 1);
      std::swap(v[i], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) uniformly (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Derives an independent child stream; `tag` distinguishes siblings.
  Rng fork(std::uint64_t tag) const;

  /// Two-key fork: derives an independent child stream keyed on an ordered
  /// pair (e.g. (round, client)). Unlike chaining fork(a).fork(b), both keys
  /// enter one mix, so fork(a, b) streams are decorrelated from every
  /// fork(tag) stream and from fork(b, a). This is the canonical way to pin
  /// a stream to a (round, client) coordinate in new scheduling code: the
  /// stream depends only on the keys and the parent state, never on how many
  /// draws other clients consumed first.
  Rng fork(std::uint64_t tag_a, std::uint64_t tag_b) const;

  /// Snapshot / restore of the full generator state. restore_state makes
  /// this Rng continue bit-for-bit from where the snapshotted one stopped.
  RngState save_state() const;
  void restore_state(const RngState& state);

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace hetero
