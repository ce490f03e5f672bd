#include "nn/dropout.h"

#include "common/logging.h"
#include "tensor/ops.h"

namespace vdrift::nn {

Dropout::Dropout(double rate) : rate_(rate) {
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(rate >= 0.0 && rate < 1.0) << "dropout rate must be in [0,1)";
}

tensor::Tensor Dropout::Forward(const tensor::Tensor& input,
                                Tape* tape) const {
  if (tape == nullptr || rate_ == 0.0) return input;
  // vdrift-lint: allow(no-data-dependent-check): null-wiring bug, not data
  VDRIFT_CHECK(tape->rng != nullptr) << "dropout needs a tape with an RNG";
  tensor::Tensor out = input;
  tensor::Tensor mask(input.shape());
  float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  for (int64_t i = 0; i < out.size(); ++i) {
    if (tape->rng->NextDouble() < rate_) {
      mask[i] = 0.0f;
      out[i] = 0.0f;
    } else {
      mask[i] = keep_scale;
      out[i] *= keep_scale;
    }
  }
  tape->tensors = {std::move(mask)};
  return out;
}

tensor::Tensor Dropout::Backward(const tensor::Tensor& grad_output,
                                 const Tape& tape) {
  if (tape.tensors.empty()) return grad_output;
  return tensor::Mul(grad_output, tape.tensors[0]);
}

}  // namespace vdrift::nn
