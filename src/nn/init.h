#ifndef VDRIFT_NN_INIT_H_
#define VDRIFT_NN_INIT_H_

#include "stats/rng.h"
#include "tensor/tensor.h"

namespace vdrift::nn {

/// He (Kaiming) normal initialization: N(0, sqrt(2 / fan_in)). Suited to
/// ReLU networks; every Linear and Conv2d layer starts from it.
void HeInit(tensor::Tensor* weights, int fan_in, stats::Rng* rng);

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_INIT_H_
