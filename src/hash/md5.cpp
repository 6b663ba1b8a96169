#include "hash/md5.hpp"

#include <bit>
#include <cstring>
#include <utility>

#include "common/check.hpp"

namespace cca::hash {

namespace {

constexpr std::array<std::uint32_t, 4> kInitialState = {
    0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};

// Per-round left-rotate amounts (RFC 1321, Sec. 3.4).
constexpr int kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * |sin(i + 1)|), precomputed per the RFC.
constexpr std::uint32_t kSine[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// Operation I of RFC 1321 Sec. 3.4. The four working registers rotate
// roles every step; instead of moving values, step I updates register
// (4 - I % 4) % 4 in place and reads the other three in rotated order, so
// the unrolled compress keeps all four in machine registers.
template <int I>
inline void step(std::uint32_t* v, const std::uint32_t* m) {
  constexpr int t = (4 - I % 4) % 4;
  std::uint32_t& a = v[t];
  const std::uint32_t b = v[(t + 1) % 4];
  const std::uint32_t c = v[(t + 2) % 4];
  const std::uint32_t d = v[(t + 3) % 4];
  const std::uint32_t f = [&] {
    if constexpr (I < 16) return (b & c) | (~b & d);
    else if constexpr (I < 32) return (d & b) | (~d & c);
    else if constexpr (I < 48) return b ^ c ^ d;
    else return c ^ (b | ~d);
  }();
  constexpr int g = I < 16   ? I
                    : I < 32 ? (5 * I + 1) % 16
                    : I < 48 ? (3 * I + 5) % 16
                             : (7 * I) % 16;
  a = b + std::rotl(a + f + kSine[I] + m[g], kShift[I]);
}

template <std::size_t... I>
inline void all_steps(std::uint32_t* v, const std::uint32_t* m,
                      std::index_sequence<I...>) {
  (step<static_cast<int>(I)>(v, m), ...);
}

// One 64-byte block into `state`, all 64 steps unrolled at compile time.
void compress(std::array<std::uint32_t, 4>& state, const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);
  std::uint32_t v[4] = {state[0], state[1], state[2], state[3]};
  all_steps(v, m, std::make_index_sequence<64>{});
  for (int i = 0; i < 4; ++i) state[i] += v[i];
}

// Writes the message's bit length, little-endian, into 8 bytes.
void store_bit_length(std::uint8_t* p, std::uint64_t byte_len) {
  const std::uint64_t bit_len = byte_len * 8;
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
}

}  // namespace

Md5::Md5() : state_(kInitialState) {}

void Md5::update(const void* data, std::size_t len) {
  CCA_CHECK_MSG(!finished_, "Md5::update after finish");
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, std::size_t{64} - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      compress(state_, buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    compress(state_, p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Md5::Digest Md5::finish() {
  if (finished_) return final_digest_;

  // Padding: a single 0x80 byte then zeros until 8 bytes short of a block
  // boundary, then the original bit length little-endian — one update.
  std::uint8_t pad[72] = {0x80};
  const std::size_t zeros_end = buffer_len_ < 56 ? 56 - buffer_len_
                                                 : 120 - buffer_len_;
  store_bit_length(pad + zeros_end, total_len_);
  update(pad, zeros_end + 8);
  CCA_CHECK(buffer_len_ == 0);

  for (int i = 0; i < 4; ++i)
    store_le32(final_digest_.data() + 4 * i, state_[i]);
  finished_ = true;
  return final_digest_;
}

Md5::Digest Md5::digest(std::string_view s) {
  Md5 md5;
  md5.update(s);
  return md5.finish();
}

std::string Md5::to_hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint8_t byte : d) {
    out += kHex[byte >> 4];
    out += kHex[byte & 0xF];
  }
  return out;
}

std::uint64_t Md5::digest64(std::string_view s) {
  std::uint8_t bytes[8];
  if (s.size() <= 55) {
    // The whole padded message fits one block: compress it straight from
    // the stack, with no context object and no buffering.
    std::uint8_t block[64] = {};
    std::memcpy(block, s.data(), s.size());
    block[s.size()] = 0x80;
    store_bit_length(block + 56, s.size());
    std::array<std::uint32_t, 4> state = kInitialState;
    compress(state, block);
    store_le32(bytes, state[0]);
    store_le32(bytes + 4, state[1]);
  } else {
    const Digest d = digest(s);
    std::memcpy(bytes, d.data(), 8);
  }
  std::uint64_t v = 0;
  for (const std::uint8_t byte : bytes) v = (v << 8) | byte;
  return v;
}

}  // namespace cca::hash
