#include "common/ratecode.h"

#include <array>
#include <bit>

namespace ft {
namespace {

// code = [5-bit exponent e][11-bit mantissa m]; rate = (2048 + m) * 2^e
// * kGranularity, with the special case e == 0, m < 2048 denormal-style
// direct encoding for tiny rates.
constexpr double kGranularityBps = 1e3;  // 1 Kbit/s
constexpr int kMantissaBits = 11;
constexpr std::uint16_t kMantissaMask = (1u << kMantissaBits) - 1;
constexpr int kMaxExponent = 31;

}  // namespace

std::uint16_t encode_rate(double rate_bps) {
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
  const double scaled =
      units * std::bit_cast<double>(static_cast<std::uint64_t>(1023 - k)
                                    << 52);
  const std::uint32_t m =
      static_cast<std::uint32_t>(scaled + 0.5) - (1u << kMantissaBits);
  const std::uint32_t mm = m > kMantissaMask ? kMantissaMask : m;
  return static_cast<std::uint16_t>(
      (static_cast<std::uint32_t>(k + 1) << kMantissaBits) | mm);
}

double decode_rate(std::uint16_t code) {
  const int e = code >> kMantissaBits;
  const std::uint16_t m = code & kMantissaMask;
  if (e == 0) return static_cast<double>(m) * kGranularityBps;
  // 2^(e-1) from a table: decode sits on the allocator's per-update
  // emission path, where a libm ldexp call dominated the loop.
  static constexpr auto kPow2 = [] {
    std::array<double, 32> t{};
    double v = 1.0;
    for (std::size_t i = 0; i < t.size(); ++i, v *= 2.0) t[i] = v;
    return t;
  }();
  const double units =
      static_cast<double>((1u << kMantissaBits) + m) *
      kPow2[static_cast<std::size_t>(e - 1)];
  return units * kGranularityBps;
}

}  // namespace ft
