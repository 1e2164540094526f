#include "tensor/dtype.h"

#include <cstdlib>

namespace chainnet::tensor {

DType dtype_from_env(DType fallback) {
  const char* env = std::getenv("CHAINNET_DTYPE");
  if (!env || *env == '\0') return fallback;
  DType d;
  if (!parse_dtype(env, d)) {
    throw std::invalid_argument("CHAINNET_DTYPE=\"" + std::string(env) +
                                "\" is not a known dtype (accepted: f64, "
                                "f32, bf16)");
  }
  return d;
}

void convert_to_f32(std::span<const double> src, std::vector<float>& dst,
                    DType storage) {
  dst.resize(src.size());
  if (storage == DType::kBf16) {
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] = bf16_round(static_cast<float>(src[i]));
    }
  } else {
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] = static_cast<float>(src[i]);
    }
  }
}

}  // namespace chainnet::tensor
