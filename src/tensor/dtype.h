// Numeric tier selection for the inference engine.
//
// The surrogate keeps one set of master weights in f64 (training, autodiff,
// and the bit-for-bit reference paths all run on them). Inference may run on
// a reduced-precision tier instead: kF32 converts weights once into cached
// f32 buffers and replays compiled plans through the f32 kernel table;
// kBf16 is an *emulated storage* mode — weights are rounded to bfloat16
// precision (round-to-nearest-even) at pack time but stored and computed in
// f32, so it probes bf16 accuracy without bf16 arithmetic. The f64 tier is
// the default and is bit-identical to the pre-tier engine.
//
// Correctness bar per tier: f64 is gated on bit-parity (kernels_test,
// plan_test); the reduced tiers are gated on *ranking fidelity* — the
// search loops that consume the surrogate only need neighboring placements
// ordered correctly — measured by gnn::pairwise_rank_agreement in
// bench_infer (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace chainnet::tensor {

enum class DType : std::uint8_t {
  kF64 = 0,  ///< master weights, reference arithmetic (default)
  kF32 = 1,  ///< f32 weights + f32 kernels (the fast tier)
  kBf16 = 2,  ///< bf16-rounded weights stored/computed in f32 (emulated)
};

inline const char* dtype_name(DType d) {
  switch (d) {
    case DType::kF64:
      return "f64";
    case DType::kF32:
      return "f32";
    case DType::kBf16:
      return "bf16";
  }
  return "?";
}

/// Bytes per stored weight/activation element on the tier. bf16 is emulated
/// in f32 storage, so it reports 4 (it saves accuracy bits, not bytes).
inline std::size_t dtype_element_bytes(DType d) {
  return d == DType::kF64 ? sizeof(double) : sizeof(float);
}

/// Parses "f64" | "f32" | "bf16". Returns false on anything else.
inline bool parse_dtype(const std::string& s, DType& out) {
  if (s == "f64") {
    out = DType::kF64;
  } else if (s == "f32") {
    out = DType::kF32;
  } else if (s == "bf16") {
    out = DType::kBf16;
  } else {
    return false;
  }
  return true;
}

/// Parses a dtype string or throws std::invalid_argument naming the
/// accepted values — the CLI/serve/bench entry points share this so an
/// unknown tier never silently selects a default.
inline DType parse_dtype_or_throw(const std::string& s) {
  DType d;
  if (!parse_dtype(s, d)) {
    throw std::invalid_argument("unknown dtype \"" + s +
                                "\" (accepted: f64, f32, bf16)");
  }
  return d;
}

/// Reads CHAINNET_DTYPE; unset returns `fallback`, an unknown value throws
/// (listing the accepted spellings) rather than falling through silently.
DType dtype_from_env(DType fallback);

/// Rounds an f32 value to bfloat16 precision (round-to-nearest-even on the
/// 16 dropped mantissa bits) and widens it back to f32. NaNs pass through
/// quietened-as-is; overflow to infinity follows IEEE rounding.
inline float bf16_round(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  if ((bits & 0x7f800000u) == 0x7f800000u) {
    // Inf/NaN: truncate only (keeps NaNs NaN; rounding could carry a NaN
    // payload into the exponent and manufacture an infinity).
    bits &= 0xffff0000u;
    if ((v != v) && (bits & 0x007f0000u) == 0) bits |= 0x00400000u;
  } else {
    const std::uint32_t lsb = (bits >> 16) & 1u;
    bits += 0x7fffu + lsb;
    bits &= 0xffff0000u;
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// Converts f64 master weights to the f32 tier into `dst` (resized to
/// match): bf16-rounded when `storage` is kBf16, otherwise the plain
/// round-to-nearest double->float narrowing.
void convert_to_f32(std::span<const double> src, std::vector<float>& dst,
                    DType storage);

}  // namespace chainnet::tensor
