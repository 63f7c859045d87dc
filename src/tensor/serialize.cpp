#include "tensor/serialize.h"

#include <bit>
#include <stdexcept>

namespace hetero {
namespace {

constexpr char kTensorMagic[] = "HSTN";
constexpr char kArchiveMagic[] = "HSAR";

/// Hard cap on decoded tensor volume (elements). A dense payload is bounded
/// by the bytes actually present; this stops a tiny *sparse* payload from
/// claiming astronomic dims and forcing a huge allocation at decode time.
constexpr std::uint64_t kMaxTensorElems = 1ull << 26;
constexpr std::uint32_t kMaxTensorRank = 8;

enum class TensorMode : std::uint8_t { kDense = 0, kSparse = 1 };

std::vector<std::uint8_t> encode_tensor(const Tensor& t) {
  ByteWriter w;
  put_tensor(w, t);
  return w.take();
}

Tensor decode_tensor(const std::vector<std::uint8_t>& body) {
  ByteReader r(body);
  Tensor t;
  if (get_tensor(r, t) && r.done()) return t;
  throw std::runtime_error("HSTN: malformed tensor");
}

}  // namespace

void put_tensor(ByteWriter& w, const Tensor& t) {
  w.u32(static_cast<std::uint32_t>(t.rank()));
  for (std::size_t d : t.shape()) w.u64(d);
  // Sparse only when lossless: every omitted coordinate must be bit-zero
  // (a -0.0f survives only the dense path), and only when actually smaller.
  const float* data = t.data();
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(data[i]) != 0) ++nnz;
  }
  const std::size_t sparse_bytes = 8 + nnz * 8;
  if (sparse_bytes < t.size() * 4) {
    w.u8(static_cast<std::uint8_t>(TensorMode::kSparse));
    w.u64(nnz);
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (std::bit_cast<std::uint32_t>(data[i]) == 0) continue;
      w.u32(static_cast<std::uint32_t>(i));
      w.f32(data[i]);
    }
  } else {
    w.u8(static_cast<std::uint8_t>(TensorMode::kDense));
    w.f32s(data, t.size());
  }
}

bool get_tensor(ByteReader& r, Tensor& out) {
  const std::uint32_t rank = r.u32();
  if (!r.ok() || rank > kMaxTensorRank) return false;
  std::vector<std::size_t> shape(rank);
  std::uint64_t volume = 1;
  for (std::uint32_t d = 0; d < rank; ++d) {
    const std::uint64_t dim = r.u64();
    if (dim != 0 && volume > kMaxTensorElems / dim) return false;
    volume *= dim;
    shape[d] = static_cast<std::size_t>(dim);
  }
  if (!r.ok() || volume > kMaxTensorElems) return false;
  const std::uint8_t mode = r.u8();
  if (rank == 0) {
    // A rank-0 Tensor is the canonical EMPTY tensor (zero elements), not a
    // one-element scalar — the empty dim product above must not stand, and
    // Tensor({}) would allocate one element. It always encodes dense with
    // zero payload bytes.
    if (!r.ok() || mode != static_cast<std::uint8_t>(TensorMode::kDense)) {
      return false;
    }
    out = Tensor();
    return true;
  }
  if (mode == static_cast<std::uint8_t>(TensorMode::kDense)) {
    if (r.remaining() < volume * sizeof(float)) return false;
    Tensor t = Tensor::uninit(shape);
    r.f32s(t.data(), volume);
    if (!r.ok()) return false;
    out = std::move(t);
    return true;
  }
  if (mode != static_cast<std::uint8_t>(TensorMode::kSparse)) return false;
  const std::uint64_t nnz = r.count(8);
  if (!r.ok() || nnz > volume) return false;
  Tensor t(shape);  // zero-initialized; only the nonzeros are scattered
  std::uint64_t prev = 0;
  for (std::uint64_t k = 0; k < nnz; ++k) {
    const std::uint32_t idx = r.u32();
    const float val = r.f32();
    // Strictly increasing indices: canonical encoding, no duplicates, and
    // every index is bounds-checked before the store.
    if (idx >= volume || (k > 0 && idx <= prev)) return false;
    t.data()[idx] = val;
    prev = idx;
  }
  if (!r.ok()) return false;
  out = std::move(t);
  return true;
}

void write_tensor(std::ostream& os, const Tensor& t) {
  write_record(os, kTensorMagic, encode_tensor(t));
}

Tensor read_tensor(std::istream& is) {
  return decode_tensor(read_record(is, kTensorMagic));
}

void save_tensor(const std::string& path, const Tensor& t) {
  save_record(path, kTensorMagic, encode_tensor(t));
}

Tensor load_tensor(const std::string& path) {
  return decode_tensor(load_record(path, kTensorMagic));
}

void TensorArchive::put(const std::string& key, Tensor t) {
  entries_[key] = std::move(t);
}

bool TensorArchive::contains(const std::string& key) const {
  return entries_.count(key) > 0;
}

const Tensor& TensorArchive::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw std::runtime_error("TensorArchive: missing key " + key);
  }
  return it->second;
}

std::vector<std::uint8_t> TensorArchive::encode() const {
  ByteWriter w;
  w.u64(entries_.size());
  for (const auto& [key, tensor] : entries_) {
    w.str(key);
    put_tensor(w, tensor);
  }
  return w.take();
}

TensorArchive TensorArchive::decode(const std::vector<std::uint8_t>& body) {
  ByteReader r(body);
  TensorArchive archive;
  // The smallest entry is an empty key and a rank-0 tensor.
  const std::uint64_t count = r.count(4 + kMinTensorBytes);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string key = r.str();
    if (!get_tensor(r, archive.entries_[std::move(key)])) r.invalidate();
  }
  if (!r.done() || archive.entries_.size() != count) {
    throw std::runtime_error("HSAR: malformed archive");
  }
  return archive;
}

void TensorArchive::write(std::ostream& os) const {
  write_record(os, kArchiveMagic, encode());
}

TensorArchive TensorArchive::read(std::istream& is) {
  return decode(read_record(is, kArchiveMagic));
}

void TensorArchive::save(const std::string& path) const {
  save_record(path, kArchiveMagic, encode());
}

TensorArchive TensorArchive::load(const std::string& path) {
  return decode(load_record(path, kArchiveMagic));
}

}  // namespace hetero
