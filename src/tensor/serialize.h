// The one tensor encoding, shared by the wire, tensor files and checkpoints
// (DESIGN.md §16):
//   u32 rank | u64 dims[rank] | u8 mode (0 dense, 1 sparse) | payload
// A dense payload is f32 data[volume]; a sparse one, written only when
// smaller AND lossless, is u64 nnz then (u32 index, f32 value) pairs with
// strictly increasing indices. A rank-0 tensor is the canonical empty one.
// Files are sealed records (util/codec.h): "HSTN" holds one tensor; "HSAR",
// a named archive, holds u64 count then (u32-length key, tensor) entries.
#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "tensor/tensor.h"
#include "util/codec.h"

namespace hetero {

/// Smallest tensor encoding: a rank-0 tensor's u32 rank and u8 mode.
constexpr std::size_t kMinTensorBytes = 4 + 1;

/// Appends the tensor encoding above.
void put_tensor(ByteWriter& w, const Tensor& t);

/// Decodes one tensor. Returns false — never throwing, never allocating
/// for a volume that overflows or exceeds 2^26 elements — on truncation
/// or any invalid field.
bool get_tensor(ByteReader& r, Tensor& out);

/// Writes one HSTN record; throws std::runtime_error on stream failure.
void write_tensor(std::ostream& os, const Tensor& t);

/// Reads one HSTN record; throws std::runtime_error on malformed input.
Tensor read_tensor(std::istream& is);

/// Saves/loads a tensor to a file path. load_tensor also refuses bytes
/// after the record.
void save_tensor(const std::string& path, const Tensor& t);
Tensor load_tensor(const std::string& path);

/// A simple named tensor archive (model checkpoints).
class TensorArchive {
 public:
  void put(const std::string& key, Tensor t);
  bool contains(const std::string& key) const;
  const Tensor& get(const std::string& key) const;
  std::size_t size() const { return entries_.size(); }

  void write(std::ostream& os) const;
  static TensorArchive read(std::istream& is);

  void save(const std::string& path) const;
  static TensorArchive load(const std::string& path);

 private:
  std::vector<std::uint8_t> encode() const;
  static TensorArchive decode(const std::vector<std::uint8_t>& body);

  std::map<std::string, Tensor> entries_;
};

}  // namespace hetero
