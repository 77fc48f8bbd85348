#ifndef P2PDT_COMMON_FNV_H_
#define P2PDT_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace p2pdt {

/// 64-bit FNV-1a, the one digest behind every fingerprint the harnesses and
/// the prediction cache compute. Words are mixed least significant byte
/// first and doubles by their bit pattern, so two runs with equal digests
/// saw the same values bit for bit.
struct Fnv64 {
  uint64_t state = 0xcbf29ce484222325ull;

  void MixBytes(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) MixByte(p[i]);
  }
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) MixByte((v >> (8 * i)) & 0xFF);
  }
  void MixDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  /// A double goes through MixDouble; an implicit conversion to an integer
  /// would silently digest the wrong bits.
  void Mix(double) = delete;

 private:
  void MixByte(uint64_t byte) {
    state ^= byte;
    state *= 0x100000001b3ull;
  }
};

}  // namespace p2pdt

#endif  // P2PDT_COMMON_FNV_H_
