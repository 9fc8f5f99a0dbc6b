#include "util/sha1.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define IUSTITIA_SHA1_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace iustitia::util {

namespace {

inline std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

// Portable FIPS 180-4 compression function over one 64-byte block.
void compress_portable(std::uint32_t h[5], const std::uint8_t* block) noexcept {
  std::uint32_t w[80];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[4 * t]) << 24) |
           (static_cast<std::uint32_t>(block[4 * t + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * t + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * t + 3]);
  }
  for (int t = 16; t < 80; ++t) {
    w[t] = rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
  }

  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int t = 0; t < 80; ++t) {
    std::uint32_t f, k;
    if (t < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5A827999u;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t temp = rotl32(a, 5) + f + e + k + w[t];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = temp;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

#if defined(IUSTITIA_SHA1_X86_DISPATCH)
// SHA-NI compression function: the same 80 rounds via the x86 SHA
// extensions (SHA1RNDS4 does four rounds per instruction).  Produces
// bit-identical digests to compress_portable — the FIPS vectors and the
// one-shot/incremental cross-check in test_sha1 run against whichever
// variant dispatch picks on the host.  Selected at startup only when
// cpuid reports the extensions (see g_have_sha_ni).
__attribute__((target("sha,ssse3,sse4.1"))) void compress_shani(
    std::uint32_t h[5], const std::uint8_t* block) noexcept {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);

  __m128i abcd =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h));
  abcd = _mm_shuffle_epi32(abcd, 0x1B);  // lanes: a in the high lane
  __m128i e0 = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  const __m128i abcd_save = abcd;
  const __m128i e_save = e0;
  __m128i e1;

  // Rounds 0-3.
  __m128i msg0 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 0));
  msg0 = _mm_shuffle_epi8(msg0, kByteSwap);
  e0 = _mm_add_epi32(e0, msg0);
  e1 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

  // Rounds 4-7.
  __m128i msg1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16));
  msg1 = _mm_shuffle_epi8(msg1, kByteSwap);
  e1 = _mm_sha1nexte_epu32(e1, msg1);
  e0 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
  msg0 = _mm_sha1msg1_epu32(msg0, msg1);

  // Rounds 8-11.
  __m128i msg2 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 32));
  msg2 = _mm_shuffle_epi8(msg2, kByteSwap);
  e0 = _mm_sha1nexte_epu32(e0, msg2);
  e1 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
  msg1 = _mm_sha1msg1_epu32(msg1, msg2);
  msg0 = _mm_xor_si128(msg0, msg2);

  // Rounds 12-15.
  __m128i msg3 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 48));
  msg3 = _mm_shuffle_epi8(msg3, kByteSwap);
  e1 = _mm_sha1nexte_epu32(e1, msg3);
  e0 = abcd;
  msg0 = _mm_sha1msg2_epu32(msg0, msg3);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
  msg2 = _mm_sha1msg1_epu32(msg2, msg3);
  msg1 = _mm_xor_si128(msg1, msg3);

  // Rounds 16-19.
  e0 = _mm_sha1nexte_epu32(e0, msg0);
  e1 = abcd;
  msg1 = _mm_sha1msg2_epu32(msg1, msg0);
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
  msg3 = _mm_sha1msg1_epu32(msg3, msg0);
  msg2 = _mm_xor_si128(msg2, msg0);

  // Rounds 20-23.
  e1 = _mm_sha1nexte_epu32(e1, msg1);
  e0 = abcd;
  msg2 = _mm_sha1msg2_epu32(msg2, msg1);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
  msg0 = _mm_sha1msg1_epu32(msg0, msg1);
  msg3 = _mm_xor_si128(msg3, msg1);

  // Rounds 24-27.
  e0 = _mm_sha1nexte_epu32(e0, msg2);
  e1 = abcd;
  msg3 = _mm_sha1msg2_epu32(msg3, msg2);
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
  msg1 = _mm_sha1msg1_epu32(msg1, msg2);
  msg0 = _mm_xor_si128(msg0, msg2);

  // Rounds 28-31.
  e1 = _mm_sha1nexte_epu32(e1, msg3);
  e0 = abcd;
  msg0 = _mm_sha1msg2_epu32(msg0, msg3);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
  msg2 = _mm_sha1msg1_epu32(msg2, msg3);
  msg1 = _mm_xor_si128(msg1, msg3);

  // Rounds 32-35.
  e0 = _mm_sha1nexte_epu32(e0, msg0);
  e1 = abcd;
  msg1 = _mm_sha1msg2_epu32(msg1, msg0);
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
  msg3 = _mm_sha1msg1_epu32(msg3, msg0);
  msg2 = _mm_xor_si128(msg2, msg0);

  // Rounds 36-39.
  e1 = _mm_sha1nexte_epu32(e1, msg1);
  e0 = abcd;
  msg2 = _mm_sha1msg2_epu32(msg2, msg1);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
  msg0 = _mm_sha1msg1_epu32(msg0, msg1);
  msg3 = _mm_xor_si128(msg3, msg1);

  // Rounds 40-43.
  e0 = _mm_sha1nexte_epu32(e0, msg2);
  e1 = abcd;
  msg3 = _mm_sha1msg2_epu32(msg3, msg2);
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
  msg1 = _mm_sha1msg1_epu32(msg1, msg2);
  msg0 = _mm_xor_si128(msg0, msg2);

  // Rounds 44-47.
  e1 = _mm_sha1nexte_epu32(e1, msg3);
  e0 = abcd;
  msg0 = _mm_sha1msg2_epu32(msg0, msg3);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
  msg2 = _mm_sha1msg1_epu32(msg2, msg3);
  msg1 = _mm_xor_si128(msg1, msg3);

  // Rounds 48-51.
  e0 = _mm_sha1nexte_epu32(e0, msg0);
  e1 = abcd;
  msg1 = _mm_sha1msg2_epu32(msg1, msg0);
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
  msg3 = _mm_sha1msg1_epu32(msg3, msg0);
  msg2 = _mm_xor_si128(msg2, msg0);

  // Rounds 52-55.
  e1 = _mm_sha1nexte_epu32(e1, msg1);
  e0 = abcd;
  msg2 = _mm_sha1msg2_epu32(msg2, msg1);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
  msg0 = _mm_sha1msg1_epu32(msg0, msg1);
  msg3 = _mm_xor_si128(msg3, msg1);

  // Rounds 56-59.
  e0 = _mm_sha1nexte_epu32(e0, msg2);
  e1 = abcd;
  msg3 = _mm_sha1msg2_epu32(msg3, msg2);
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
  msg1 = _mm_sha1msg1_epu32(msg1, msg2);
  msg0 = _mm_xor_si128(msg0, msg2);

  // Rounds 60-63.
  e1 = _mm_sha1nexte_epu32(e1, msg3);
  e0 = abcd;
  msg0 = _mm_sha1msg2_epu32(msg0, msg3);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
  msg2 = _mm_sha1msg1_epu32(msg2, msg3);
  msg1 = _mm_xor_si128(msg1, msg3);

  // Rounds 64-67.
  e0 = _mm_sha1nexte_epu32(e0, msg0);
  e1 = abcd;
  msg1 = _mm_sha1msg2_epu32(msg1, msg0);
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
  msg3 = _mm_sha1msg1_epu32(msg3, msg0);
  msg2 = _mm_xor_si128(msg2, msg0);

  // Rounds 68-71.
  e1 = _mm_sha1nexte_epu32(e1, msg1);
  e0 = abcd;
  msg2 = _mm_sha1msg2_epu32(msg2, msg1);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
  msg3 = _mm_xor_si128(msg3, msg1);

  // Rounds 72-75.
  e0 = _mm_sha1nexte_epu32(e0, msg2);
  e1 = abcd;
  msg3 = _mm_sha1msg2_epu32(msg3, msg2);
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

  // Rounds 76-79.
  e1 = _mm_sha1nexte_epu32(e1, msg3);
  e0 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

  // Fold into the chaining state.
  e0 = _mm_sha1nexte_epu32(e0, e_save);
  abcd = _mm_add_epi32(abcd, abcd_save);

  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), abcd);
  h[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

bool detect_sha_ni() noexcept {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
         __builtin_cpu_supports("sse4.1");
}

// Resolved once at startup; both callees are direct calls so the
// compression stays statically analyzable.
const bool g_have_sha_ni = detect_sha_ni();
#endif  // IUSTITIA_SHA1_X86_DISPATCH

inline void compress(std::uint32_t h[5], const std::uint8_t* block) noexcept {
#if defined(IUSTITIA_SHA1_X86_DISPATCH)
  if (g_have_sha_ni) {
    // The target("sha,...") attribute hides the definition from the
    // analyzer's parser; the callee is leaf SHA intrinsics on stack
    // state — no heap, no locks, no syscalls.
    compress_shani(h, block);  // analyze: hotpath-allow(unresolved-call)
    return;
  }
#endif
  compress_portable(h, block);
}

constexpr std::uint32_t kInitState[5] = {0x67452301u, 0xEFCDAB89u,
                                         0x98BADCFEu, 0x10325476u,
                                         0xC3D2E1F0u};

Sha1Digest digest_from_state(const std::uint32_t h[5]) noexcept {
  Sha1Digest out;
  for (int i = 0; i < 5; ++i) {
    out.bytes[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(h[i] >> 24);
    out.bytes[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(h[i] >> 16);
    out.bytes[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(h[i] >> 8);
    out.bytes[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(h[i]);
  }
  return out;
}

}  // namespace

std::string Sha1Digest::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Sha1::Sha1() noexcept { reset(); }

void Sha1::reset() noexcept {
  for (int i = 0; i < 5; ++i) h_[i] = kInitState[i];
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) noexcept {
  compress(h_, block);
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha1::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha1Digest Sha1::digest() const noexcept {
  Sha1 copy = *this;  // finalize a copy so callers may continue absorbing
  const std::uint64_t bit_len = copy.total_len_ * 8;

  std::uint8_t pad = 0x80;
  copy.update(std::span<const std::uint8_t>(&pad, 1));
  const std::uint8_t zero = 0x00;
  while (copy.buffer_len_ != 56) {
    copy.update(std::span<const std::uint8_t>(&zero, 1));
  }
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  copy.update(std::span<const std::uint8_t>(len_bytes, 8));

  return digest_from_state(copy.h_);
}

Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept {
  // Single-block fast path: messages of at most 55 bytes pad into ONE
  // 64-byte block (data + 0x80 + zeros + 8-byte bit length), so the
  // whole digest is a stack-built block and one compression — no Sha1
  // object, no finalization copy, no byte-at-a-time padding.  This is
  // the shape of every flow-id hash (net::flow_id serializes ~13 header
  // bytes), which is why the one-shot wrapper special-cases it.
  // analyze: hotpath
  if (data.size() <= 55) {
    std::uint8_t block[64] = {};
    if (!data.empty()) std::memcpy(block, data.data(), data.size());
    block[data.size()] = 0x80;
    const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
    for (int i = 0; i < 8; ++i) {
      block[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
    }
    std::uint32_t h[5];
    for (int i = 0; i < 5; ++i) h[i] = kInitState[i];
    compress(h, block);
    return digest_from_state(h);
  }
  Sha1 h;
  h.update(data);
  return h.digest();
}

Sha1Digest sha1(std::string_view data) noexcept {
  Sha1 h;
  h.update(data);
  return h.digest();
}

}  // namespace iustitia::util
