// 16-bit rate encoding for allocator -> endpoint rate updates.
//
// The paper's rate-update message is 6 bytes: a 32-bit flow id plus a
// 16-bit rate. We encode rates as a custom floating-point format with a
// 5-bit exponent and 11-bit mantissa over a fixed base granularity of
// 1 Kbit/s, covering ~1 Kbit/s .. ~4.4 Pbit/s with <= ~0.05% relative
// error -- far below the smallest (0.01) notification threshold, so
// quantization never triggers spurious updates.
#pragma once

#include <cstdint>

namespace ft {

// Encodes a non-negative rate in bits/sec. Rates below the granularity
// (and zero, negative or NaN inputs) encode as 0; rates above the max
// (decode_rate(0xFFFF), about 4.397e15) encode as the max.
[[nodiscard]] std::uint16_t encode_rate(double rate_bps);

// Decodes to bits/sec.
[[nodiscard]] double decode_rate(std::uint16_t code);

// Upper bound on relative quantization error for rates within range.
inline constexpr double kRateCodeMaxRelError = 1.0 / 2048.0;

}  // namespace ft
