#ifndef VDRIFT_NN_OPTIMIZER_H_
#define VDRIFT_NN_OPTIMIZER_H_

#include <vector>

#include "nn/layer.h"
#include "tensor/tensor.h"

namespace vdrift::nn {

/// \brief Adam (Kingma & Ba) over a parameter list. The paper trains both
/// the VAE and the classifier models with Adam (§6).
class Adam {
 public:
  explicit Adam(std::vector<Parameter*> params, float lr = 1e-3f,
                float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update from the accumulated gradients.
  void Step();

  /// Zeroes every parameter's gradient accumulator.
  void ZeroGrad() {
    for (Parameter* p : params_) p->ZeroGrad();
  }

 private:
  std::vector<Parameter*> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int64_t t_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_OPTIMIZER_H_
