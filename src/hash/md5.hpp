// MD5 message digest, implemented from RFC 1321.
//
// Role in the reproduction: the paper's evaluation (Sec. 4.1) uses
//   * 8-byte page IDs — "the MD5 digest of the corresponding page URL"
//     (we use the first 8 digest bytes), and
//   * random hash-based index placement — "divide the hash code by the
//     number of nodes and use the remainder as the ID of the placed node".
// MD5 is used here strictly as a stable, well-distributed hash, never for
// security.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cca::hash {

/// Incremental MD5 context. Typical use:
///   Md5 md5; md5.update(data); Md5::Digest d = md5.finish();
/// One-shot helpers below cover the common cases.
class Md5 {
 public:
  using Digest = std::array<std::uint8_t, 16>;

  Md5();

  /// Appends bytes to the message. May be called repeatedly; must not be
  /// called after finish().
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  /// Completes padding and returns the 16-byte digest. Idempotent: further
  /// calls return the same digest.
  Digest finish();

  /// One-shot digest of a string.
  static Digest digest(std::string_view s);

  /// Lower-case hex rendering of a digest (32 chars).
  static std::string to_hex(const Digest& d);

  /// First 8 digest bytes as a big-endian uint64 — the paper's 8-byte
  /// page-ID convention, also used for hash-mod-n placement. Messages of
  /// at most 55 bytes (keyword names, for one) take a one-block fast path.
  static std::uint64_t digest64(std::string_view s);

 private:
  std::array<std::uint32_t, 4> state_;  // A, B, C, D
  std::uint64_t total_len_ = 0;         // message length in bytes
  std::uint8_t buffer_[64];             // partial block
  std::size_t buffer_len_ = 0;
  bool finished_ = false;
  Digest final_digest_{};
};

}  // namespace cca::hash
