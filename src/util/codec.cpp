#include "util/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define HS_CRC_CLMUL 1
#endif

namespace hetero {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Byte-at-a-time table loop over the raw (un-inverted) CRC register.
std::uint32_t crc_bytes(std::uint32_t c, const std::uint8_t* data,
                        std::size_t len) {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  for (std::size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef HS_CRC_CLMUL
// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of the IEEE polynomial. Four 128-bit accumulators
// fold 64 bytes per step, collapse to one, fold the remaining 16-byte
// blocks, then reduce 128 -> 64 bits and Barrett-reduce to 32. Consumes
// the raw register `c` and `len` bytes; len >= 64 and a multiple of 16.
#define HS_CRC_TARGET __attribute__((target("pclmul,sse4.1")))

HS_CRC_TARGET inline __m128i load(const std::uint8_t* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

/// Carries accumulator x across the fold distance that k encodes and adds
/// the block found there: lo(x)*k_lo ^ hi(x)*k_hi ^ next.
HS_CRC_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

HS_CRC_TARGET std::uint32_t crc_clmul(std::uint32_t c, const std::uint8_t* p,
                                      std::size_t len) {
  // Constants are 33-bit bit-reflections of the named polynomials.
  // x^(4*128+32) mod P, x^(4*128-32) mod P: the 64-byte fold distance.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // x^(128+32) mod P, x^(128-32) mod P: the 16-byte fold distance.
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64 mod P: the 64 -> 32 bit fold.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // P' (reflected polynomial with x^32) and mu = floor(x^64 / P).
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits (plus the 32 bits still to reduce).
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool cpu_has_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed) {
  return crc_bytes(seed ^ 0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef HS_CRC_CLMUL
  static const bool kClmul = cpu_has_clmul();
  if (kClmul && len >= 64) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = crc_clmul(c, data, bulk);
    data += bulk;
    len -= bulk;
  }
#endif
  return crc_bytes(c, data, len) ^ 0xFFFFFFFFu;
}

void ByteReader::take(void* dst, std::size_t n) {
  if (!ok_ || n > len_ - off_) {
    ok_ = false;
    std::memset(dst, 0, n);
    return;
  }
  std::memcpy(dst, p_ + off_, n);
  off_ += n;
}

std::uint64_t ByteReader::le(std::size_t n) {
  std::uint8_t b[8] = {};
  take(b, n);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{b[i]} << (8 * i);
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (n > remaining()) ok_ = false;
  std::string s(ok_ ? n : 0, '\0');
  take(s.data(), s.size());
  return s;
}

std::uint64_t ByteReader::count(std::size_t min_elem_bytes) {
  const std::uint64_t n = u64();
  // Divide instead of multiplying so a hostile count can't overflow.
  if (n > remaining() / min_elem_bytes) ok_ = false;
  return ok_ ? n : 0;
}

void ByteWriter::le(std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::bytes(const void* src, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  buf_.insert(buf_.end(), p, p + n);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

namespace {

/// Version of the record layout and of every body stored in one. Version-1
/// files (unsealed, unbounded readers) are refused by name.
constexpr std::uint32_t kRecordVersion = 2;
/// Record bodies are read this many bytes at a time.
constexpr std::size_t kChunk = std::size_t{1} << 20;

std::runtime_error record_error(std::string_view magic,
                                const std::string& what) {
  return std::runtime_error(std::string(magic) + ": " + what);
}

void read_exact(std::istream& is, void* dst, std::size_t n,
                std::string_view magic) {
  is.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is.gcount()) != n) {
    throw record_error(magic, "truncated record");
  }
}

}  // namespace

void write_record(std::ostream& os, std::string_view magic,
                  const std::vector<std::uint8_t>& body) {
  ByteWriter head;
  head.bytes(magic.data(), 4);
  head.u32(kRecordVersion);
  head.u64(body.size());
  ByteWriter tail;
  tail.u32(crc32(body.data(), body.size(),
                 crc32(head.data().data(), head.data().size())));
  for (const auto* part : {&head.data(), &body, &tail.data()}) {
    os.write(reinterpret_cast<const char*>(part->data()),
             static_cast<std::streamsize>(part->size()));
  }
  if (!os) throw record_error(magic, "write failed");
}

void save_record(const std::string& path, std::string_view magic,
                 const std::vector<std::uint8_t>& body) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw record_error(magic, "cannot open " + path);
  write_record(os, magic, body);
  os.close();
  if (!os) throw record_error(magic, "write failed");
}

std::vector<std::uint8_t> read_record(std::istream& is,
                                      std::string_view magic) {
  std::uint8_t head[16];  // every version-1 file is longer than this
  read_exact(is, head, sizeof head, magic);
  if (std::string_view(reinterpret_cast<char*>(head), 4) != magic) {
    throw record_error(magic, "bad magic");
  }
  ByteReader fields(head + 4, 12);
  const std::uint32_t version = fields.u32();
  if (version != kRecordVersion) {
    throw record_error(magic, "unsupported version " + std::to_string(version) +
                                  " (this build reads version " +
                                  std::to_string(kRecordVersion) + " only)");
  }
  const std::uint64_t len = fields.u64();
  std::uint32_t crc = crc32(head, sizeof head);
  // Chunks are allocated only as bytes arrive, so a forged length costs at
  // most one chunk beyond what the stream actually holds.
  std::vector<std::vector<std::uint8_t>> chunks;
  for (std::uint64_t left = len; left > 0; left -= chunks.back().size()) {
    auto& chunk = chunks.emplace_back(std::min<std::uint64_t>(left, kChunk));
    read_exact(is, chunk.data(), chunk.size(), magic);
    crc = crc32(chunk.data(), chunk.size(), crc);
  }
  std::uint8_t tail[4];
  read_exact(is, tail, 4, magic);
  if (ByteReader(tail, 4).u32() != crc) throw record_error(magic, "bad CRC");
  if (chunks.size() == 1) return std::move(chunks.front());
  std::vector<std::uint8_t> body;
  body.reserve(static_cast<std::size_t>(len));
  for (auto& chunk : chunks) {
    body.insert(body.end(), chunk.begin(), chunk.end());
    std::vector<std::uint8_t>().swap(chunk);  // release as we go
  }
  return body;
}

std::vector<std::uint8_t> load_record(const std::string& path,
                                      std::string_view magic) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw record_error(magic, "cannot open " + path);
  std::vector<std::uint8_t> body = read_record(is, magic);
  if (is.peek() != EOF) throw record_error(magic, "bytes after the record");
  return body;
}

}  // namespace hetero
