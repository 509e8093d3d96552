#include "common/sha1.hpp"

#include <cstring>

namespace webcache {

namespace {
constexpr std::uint32_t rotl(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> (32 - n));
}
}  // namespace

void Sha1::reset() {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffer_len_ = 0;
  total_bits_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) {
  // The message schedule rolls through 16 words: word t replaces word t-16.
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[t * 4]) << 24) |
           (static_cast<std::uint32_t>(block[t * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[t * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[t * 4 + 3]);
  }
  const auto word = [&w](int t) {
    if (t < 16) return w[t];
    const std::uint32_t next =
        rotl(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15], 1);
    w[t & 15] = next;
    return next;
  };

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3], e = state_[4];
  const auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wt) {
    const std::uint32_t temp = rotl(a, 5) + f + e + wt + k;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  };
  for (int t = 0; t < 20; ++t) round((b & c) | (~b & d), 0x5A827999u, word(t));
  for (int t = 20; t < 40; ++t) round(b ^ c ^ d, 0x6ED9EBA1u, word(t));
  for (int t = 40; t < 60; ++t) round((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, word(t));
  for (int t = 60; t < 80; ++t) round(b ^ c ^ d, 0xCA62C1D6u, word(t));

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(const void* data, std::size_t len) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bits_ += static_cast<std::uint64_t>(len) * 8;

  if (buffer_len_ != 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }

  while (len >= 64) {
    process_block(bytes);
    bytes += 64;
    len -= 64;
  }

  if (len != 0) {
    std::memcpy(buffer_.data(), bytes, len);
    buffer_len_ = len;
  }
}

Sha1::Digest Sha1::digest() {
  const std::uint64_t bits = total_bits_;

  // Pad: 0x80, zeros, then the 64-bit big-endian bit count in the last 8
  // bytes of a block. The buffer always has room for the 0x80 byte.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {  // no room left for the count: zero out this block
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  process_block(buffer_.data());
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Uint128 Sha1::hash128(std::string_view s) {
  const Digest d = hash(s);
  std::array<std::uint8_t, 16> first16{};
  std::memcpy(first16.data(), d.data(), 16);
  return Uint128::from_bytes(first16);
}

std::string Sha1::to_hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s(kDigestBytes * 2, '0');
  for (std::size_t i = 0; i < kDigestBytes; ++i) {
    s[i * 2] = kHex[d[i] >> 4];
    s[i * 2 + 1] = kHex[d[i] & 0xF];
  }
  return s;
}

}  // namespace webcache
