// SHA-1 implementation (FIPS 180-4).
//
// Iustitia uses SHA-1 to derive 160-bit flow identifiers from packet headers,
// exactly as the paper does (Section 4.5).  The digest is used purely as a
// wide hash for the Classification Database; it carries no security claim
// here.  The implementation is self-contained and tested against the FIPS
// 180-2 example vectors.
//
// The compression function is selected once at startup: on x86-64 hosts
// whose cpuid reports the SHA extensions it runs via SHA-NI intrinsics,
// otherwise via the portable 80-round loop — both produce bit-identical
// digests.  The one-shot sha1() additionally special-cases messages of
// <= 55 bytes (everything flow_id hashes) into a single stack-built
// padded block, skipping the incremental buffer entirely.
#ifndef IUSTITIA_UTIL_SHA1_H_
#define IUSTITIA_UTIL_SHA1_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace iustitia::util {

// A 160-bit SHA-1 digest.
struct Sha1Digest {
  std::array<std::uint8_t, 20> bytes{};

  // First 8 bytes interpreted big-endian; convenient for hash-table keys.
  // Inline: the flow table takes every probe's bucket from it.
  std::uint64_t prefix64() const noexcept {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | bytes[i];
    return v;
  }

  // Lowercase hex string, 40 characters.
  std::string hex() const;

  friend bool operator==(const Sha1Digest&, const Sha1Digest&) = default;
};

// Incremental SHA-1 hasher.
//
// Usage:
//   Sha1 h;
//   h.update(buf1);
//   h.update(buf2);
//   Sha1Digest d = h.digest();   // finalizes a copy; h can keep absorbing
class Sha1 {
 public:
  Sha1() noexcept;

  // Absorbs `data` into the hash state.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  // Returns the digest of everything absorbed so far without disturbing the
  // ongoing state (finalization happens on an internal copy).
  Sha1Digest digest() const noexcept;

  // Resets to the initial state.
  void reset() noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::uint32_t h_[5];
  std::uint8_t buffer_[64];
  std::size_t buffer_len_;
  std::uint64_t total_len_;
};

// One-shot convenience wrappers.
Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept;
Sha1Digest sha1(std::string_view data) noexcept;

}  // namespace iustitia::util

// Allow Sha1Digest as an unordered_map key.
template <>
struct std::hash<iustitia::util::Sha1Digest> {
  std::size_t operator()(const iustitia::util::Sha1Digest& d) const noexcept {
    return static_cast<std::size_t>(d.prefix64());
  }
};

#endif  // IUSTITIA_UTIL_SHA1_H_
