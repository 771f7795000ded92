// 16-bit rate encoding for allocator -> endpoint rate updates.
//
// The paper's rate-update message is 6 bytes: a 32-bit flow id plus a
// 16-bit rate. We encode rates as a custom floating-point format with a
// 5-bit exponent and 11-bit mantissa over a fixed base granularity of
// 1 Kbit/s, covering ~1 Kbit/s .. ~4.4 Pbit/s with <= ~0.05% relative
// error -- far below the smallest (0.01) notification threshold, so
// quantization never triggers spurious updates.
//
// code = [5-bit exponent e][11-bit mantissa m]; rate = (2048 + m) *
// 2^(e-1) * 1 Kbit/s, with the special case e == 0 a denormal-style
// direct encoding for tiny rates. Both directions are inline: they sit
// on the allocator's per-update emission path.
#pragma once

#include <bit>
#include <cstdint>

namespace ft {

namespace ratecode_detail {
inline constexpr double kGranularityBps = 1e3;  // 1 Kbit/s
inline constexpr int kMantissaBits = 11;
inline constexpr std::uint32_t kMantissaMask = (1u << kMantissaBits) - 1;
inline constexpr int kMaxExponent = 31;

// 2^k for -1022 <= k <= 1023, exactly, straight from the bits.
inline double pow2(int k) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + k) << 52);
}
}  // namespace ratecode_detail

// Encodes a non-negative rate in bits/sec. Rates below the granularity
// (and zero, negative or NaN inputs) encode as 0; rates above the max
// (decode_rate(0xFFFF), about 4.397e15) encode as the max.
[[nodiscard]] inline std::uint16_t encode_rate(double rate_bps) {
  using namespace ratecode_detail;
  if (!(rate_bps > 0.0)) return 0;  // zero, negative or NaN
  const double units = rate_bps / kGranularityBps;
  if (units < static_cast<double>(1u << kMantissaBits)) {
    // Denormal range: exponent 0, direct value (0 below 1 Kbit/s).
    return static_cast<std::uint16_t>(units);
  }
  // units = 1.f * 2^(k + 11) with k >= 0, read straight from the bits;
  // normal codes carry k + 1 in 5 bits, so k >= kMaxExponent (and +inf)
  // clamps to the max representable rate.
  const auto bits = std::bit_cast<std::uint64_t>(units);
  const int k = static_cast<int>(bits >> 52) - 1023 - kMantissaBits;
  if (k >= kMaxExponent) {
    return static_cast<std::uint16_t>((kMaxExponent << kMantissaBits) |
                                      kMantissaMask);
  }
  // Exact scaling into [2048, 4096) by the power of two 2^-k.
  const double scaled = units * pow2(-k);
  const std::uint32_t m =
      static_cast<std::uint32_t>(scaled + 0.5) - (1u << kMantissaBits);
  const std::uint32_t mm = m > kMantissaMask ? kMantissaMask : m;
  return static_cast<std::uint16_t>(
      (static_cast<std::uint32_t>(k + 1) << kMantissaBits) | mm);
}

// Decodes to bits/sec.
[[nodiscard]] inline double decode_rate(std::uint16_t code) {
  using namespace ratecode_detail;
  const int e = code >> kMantissaBits;
  const std::uint32_t m = code & kMantissaMask;
  if (e == 0) return static_cast<double>(m) * kGranularityBps;
  const double units =
      static_cast<double>((1u << kMantissaBits) + m) * pow2(e - 1);
  return units * kGranularityBps;
}

// Upper bound on relative quantization error for rates within range.
inline constexpr double kRateCodeMaxRelError = 1.0 / 2048.0;

}  // namespace ft
