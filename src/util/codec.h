// The one binary codec (DESIGN.md §16): a bounds-checked little-endian
// ByteReader/ByteWriter pair, CRC-32, and the sealed record that every file
// format (HSTN tensor, HSAR archive, HSCK checkpoint) is stored as:
//
//   magic[4] | u32 version | u64 body length n | body[n] | u32 CRC-32
//
// where the CRC covers every byte before it. The HSNF wire frames
// (net/wire.h) keep their own header but encode it with the same classes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hetero {

/// CRC-32 (IEEE 802.3 polynomial). `seed` chains partial computations:
/// crc32(b, crc32(a)) == crc32(a+b). Calls of 64 bytes or more fold their
/// 16-byte-multiple bulk with carry-less multiplies when the CPU has
/// PCLMULQDQ; tails and other CPUs take the byte-table loop. Both give the
/// same bits.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed = 0);

namespace detail {
/// The byte-table loop alone: crc32's reference, exposed for its tests.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed = 0);
}  // namespace detail

// Scalars are assembled byte by byte, so only the bulk f32s copies depend
// on the host's byte order: raw f32 bits are the little-endian encoding
// only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "ByteReader/ByteWriter::f32s copy floats as little-endian");

/// Bounds-checked little-endian reader. Reads past the end set a sticky
/// failure flag and return zeros instead of touching memory; decoders
/// check ok() or done() once at the end.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t len)
      : p_(data), len_(len) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Copies n f32 values; zero-fills dst on overrun.
  void f32s(float* dst, std::size_t n) { take(dst, n * sizeof(float)); }
  /// A u32 length then that many bytes, checked before allocating.
  std::string str();
  /// A u64 element count. Unless that many elements of `min_elem_bytes`
  /// each fit in the remaining bytes the read fails and returns 0, so a
  /// caller may size a container from the result.
  std::uint64_t count(std::size_t min_elem_bytes);

  bool ok() const { return ok_; }
  /// Parsed cleanly AND completely: trailing bytes mean a schema mismatch.
  bool done() const { return ok_ && off_ == len_; }
  std::size_t remaining() const { return len_ - off_; }
  /// Marks the read as failed (decoder-level validation).
  void invalidate() { ok_ = false; }

 private:
  std::uint64_t le(std::size_t n);
  void take(void* dst, std::size_t n);

  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// Little-endian builder; the writing twin of ByteReader.
class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const void* src, std::size_t n);
  void f32s(const float* src, std::size_t n) { bytes(src, n * sizeof(float)); }
  void str(std::string_view s);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void le(std::uint64_t v, std::size_t n);

  std::vector<std::uint8_t> buf_;
};

/// Writes `body` as one sealed record. Throws std::runtime_error on stream
/// failure; save_record writes a fresh file at `path`.
void write_record(std::ostream& os, std::string_view magic,
                  const std::vector<std::uint8_t>& body);
void save_record(const std::string& path, std::string_view magic,
                 const std::vector<std::uint8_t>& body);

/// Reads one sealed record and returns its body. Allocates no more than the
/// bytes actually read plus one 1 MiB chunk, and checks the CRC before
/// returning. Throws std::runtime_error (naming `magic`) on a wrong magic or
/// version, truncation or a CRC mismatch; load_record reads the file at
/// `path` and also throws if bytes follow the record.
std::vector<std::uint8_t> read_record(std::istream& is, std::string_view magic);
std::vector<std::uint8_t> load_record(const std::string& path,
                                      std::string_view magic);

}  // namespace hetero
