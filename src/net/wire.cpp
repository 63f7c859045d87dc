#include "net/wire.h"

#include <array>
#include <bit>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define HS_CRC_CLMUL 1
#endif

namespace hetero::net {
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

void put_le(std::vector<std::uint8_t>& buf, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello_ack";
    case FrameType::kRoundConfig: return "round_config";
    case FrameType::kModelPull: return "model_pull";
    case FrameType::kModelState: return "model_state";
    case FrameType::kUpdatePush: return "update_push";
    case FrameType::kDigest: return "digest";
    case FrameType::kBye: return "bye";
  }
  return "unknown";
}

const char* parse_error_name(ParseError error) {
  switch (error) {
    case ParseError::kNone: return "none";
    case ParseError::kBadMagic: return "bad_magic";
    case ParseError::kBadVersion: return "bad_version";
    case ParseError::kBadReserved: return "bad_reserved";
    case ParseError::kOversized: return "oversized";
    case ParseError::kBadCrc: return "bad_crc";
    case ParseError::kBadSeq: return "bad_seq";
  }
  return "unknown";
}

namespace {

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

std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t run, std::uint64_t seq,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  put_le(frame, kFrameMagic, 4);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<std::uint8_t>(type));
  put_le(frame, 0, 2);  // reserved
  put_le(frame, run, 8);
  put_le(frame, seq, 8);
  put_le(frame, static_cast<std::uint64_t>(payload.size()), 4);
  // CRC over header-after-magic [4, 28) then the payload, so any single
  // corrupted bit — header or body — fails the check.
  std::uint32_t crc = crc32(frame.data() + 4, 24);
  crc = crc32(payload.data(), payload.size(), crc);
  put_le(frame, crc, 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

void FrameParser::fail(ParseError error) {
  error_ = error;
  buf_.clear();
  off_ = 0;
}

void FrameParser::feed(const std::uint8_t* data, std::size_t len) {
  if (quarantined()) return;
  // Compact the consumed prefix before growing — the buffer never holds
  // more than one partial frame plus whatever feed() just delivered.
  if (off_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

bool FrameParser::next(Frame& out) {
  if (quarantined()) return false;
  if (buffered() < kFrameHeaderSize) return false;
  const std::uint8_t* h = buf_.data() + off_;
  FrameHeader header;
  header.magic = static_cast<std::uint32_t>(get_le(h, 4));
  header.version = h[4];
  header.type = h[5];
  header.reserved = static_cast<std::uint16_t>(get_le(h + 6, 2));
  header.run = get_le(h + 8, 8);
  header.seq = get_le(h + 16, 8);
  header.payload_len = static_cast<std::uint32_t>(get_le(h + 24, 4));
  header.crc = static_cast<std::uint32_t>(get_le(h + 28, 4));

  // Validate every header field before trusting payload_len for indexing.
  if (header.magic != kFrameMagic) {
    fail(ParseError::kBadMagic);
    return false;
  }
  if (header.version != kWireVersion) {
    fail(ParseError::kBadVersion);
    return false;
  }
  if (header.reserved != 0) {
    fail(ParseError::kBadReserved);
    return false;
  }
  if (header.payload_len > max_payload_) {
    fail(ParseError::kOversized);
    return false;
  }
  if (buffered() < kFrameHeaderSize + header.payload_len) {
    return false;  // wait for the rest of the payload
  }
  const std::uint8_t* body = h + kFrameHeaderSize;
  std::uint32_t crc = crc32(h + 4, 24);
  crc = crc32(body, header.payload_len, crc);
  if (crc != header.crc) {
    fail(ParseError::kBadCrc);
    return false;
  }
  if (header.seq != expected_seq_) {
    fail(ParseError::kBadSeq);
    return false;
  }
  ++expected_seq_;
  out.header = header;
  out.payload.assign(body, body + header.payload_len);
  off_ += kFrameHeaderSize + header.payload_len;
  return true;
}

bool WireReader::take(void* dst, std::size_t n) {
  if (!ok_ || n > len_ - off_) {
    ok_ = false;
    std::memset(dst, 0, n);
    return false;
  }
  std::memcpy(dst, p_ + off_, n);
  off_ += n;
  return true;
}

std::uint8_t WireReader::u8() {
  std::uint8_t b = 0;
  take(&b, 1);
  return b;
}

std::uint16_t WireReader::u16() {
  std::uint8_t b[2] = {};
  take(b, 2);
  return static_cast<std::uint16_t>(get_le(b, 2));
}

std::uint32_t WireReader::u32() {
  std::uint8_t b[4] = {};
  take(b, 4);
  return static_cast<std::uint32_t>(get_le(b, 4));
}

std::uint64_t WireReader::u64() {
  std::uint8_t b[8] = {};
  take(b, 8);
  return get_le(b, 8);
}

float WireReader::f32() { return std::bit_cast<float>(u32()); }

double WireReader::f64() { return std::bit_cast<double>(u64()); }

void WireReader::bytes(void* dst, std::size_t n) { take(dst, n); }

void WireWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::u16(std::uint16_t v) { put_le(buf_, v, 2); }

void WireWriter::u32(std::uint32_t v) { put_le(buf_, v, 4); }

void WireWriter::u64(std::uint64_t v) { put_le(buf_, v, 8); }

void WireWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::bytes(const void* src, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  buf_.insert(buf_.end(), p, p + n);
}

}  // namespace hetero::net
