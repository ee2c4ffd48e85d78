// Exact, order-free sum of non-negative float payloads (DESIGN.md §11).
//
// A computing actor folds each message as it arrives, while dispatchers
// are still running (paper §IV.A), so with more than one dispatcher the
// arrival order at a computer depends on the schedule. A float32 `+` is
// not associative: folding PageRank's messages in that order made the
// result differ by an ULP or two from run to run. Programs whose compute()
// is such a sum opt into this fold instead (Program::exact_sum):
//
//   - each message converts on its own to 64-bit fixed point with an LSB
//     of 2^-60. The conversion depends only on the message, so it is the
//     same whatever the order. Every float in [2^-37, 8) converts
//     exactly; smaller values truncate toward zero (an absolute error
//     below 2^-60 per message, far under the 1e-4 relative check against
//     the sequential reference);
//   - integer adds are exact and associative;
//   - the slot receives the float of the final sum, rounded once.
//
// Values must stay below 8, which PageRank's total mass of at most 1
// guarantees. A message or a sum of 8 or more (or NaN/inf) is refused, so
// an out-of-range program fails its run instead of wrapping silently.
#pragma once

#include <cstdint>

#include "storage/slot.hpp"

namespace gpsa {

/// One vertex's entry in a computer's sum plane: 0 until the vertex's
/// first message of the superstep, then kExactSumTouched | sum, where the
/// sum (below 2^63, i.e. 8.0) is fixed point with kExactSumFracBits
/// fraction bits. The marker keeps a vertex whose messages sum to 0
/// distinct from one that received none.
using ExactSum = std::uint64_t;

inline constexpr int kExactSumFracBits = 60;

inline constexpr ExactSum kExactSumTouched = ExactSum{1} << 63;

/// The float payload of 8.0: a non-negative float payload is below this
/// exactly when the float is finite and below 8.
inline constexpr Payload kExactSumPayloadLimit = 0x4100'0000U;

/// Fixed-point value of a float payload below kExactSumPayloadLimit.
/// Scaling a float by a power of two is exact in double, and the
/// conversion to an integer truncates toward zero.
inline ExactSum exact_sum_from_payload(Payload payload) {
  return static_cast<ExactSum>(static_cast<std::int64_t>(
      static_cast<double>(payload_to_float(payload)) * 0x1p60));
}

/// Adds one float payload to `entry`, marking it touched. Returns false
/// when the payload or the new sum is out of range (>= 8, NaN or inf);
/// `entry` is then meaningless. Both the sum and the addend are below
/// 2^63, so a sum that reaches 2^63 carries out of the marker bit and
/// clears it: that is the overflow test.
inline bool exact_sum_add(ExactSum& entry, Payload payload) {
  if (payload >= kExactSumPayloadLimit) {
    return false;
  }
  entry = (entry | kExactSumTouched) + exact_sum_from_payload(payload);
  return entry >= kExactSumTouched;
}

/// The float payload nearest to a touched entry's sum: one rounding
/// (int64 -> float), then an exact power-of-two scale.
inline Payload exact_sum_to_payload(ExactSum entry) {
  const auto sum = static_cast<std::int64_t>(entry & ~kExactSumTouched);
  return float_to_payload(static_cast<float>(sum) * 0x1p-60F);
}

}  // namespace gpsa
