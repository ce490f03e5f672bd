#include "nn/init.h"

#include <cmath>

namespace vdrift::nn {

void HeInit(tensor::Tensor* weights, int fan_in, stats::Rng* rng) {
  double std = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (int64_t i = 0; i < weights->size(); ++i) {
    (*weights)[i] = static_cast<float>(rng->NextGaussian(0.0, std));
  }
}

}  // namespace vdrift::nn
