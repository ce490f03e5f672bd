#ifndef VDRIFT_NN_DROPOUT_H_
#define VDRIFT_NN_DROPOUT_H_

#include <string>

#include "nn/layer.h"
#include "tensor/tensor.h"

namespace vdrift::nn {

/// \brief Inverted dropout.
///
/// When a tape is passed (training, or a Monte-Carlo-dropout pass) each
/// activation is zeroed with probability `rate` and survivors are scaled
/// by 1/(1-rate); the mask draws from the tape's RNG and is kept on the
/// tape for Backward. Without a tape (inference) the layer is the
/// identity. Provided both as a regulariser and as the substrate for
/// Monte-Carlo-dropout uncertainty — the Bayesian-approximation
/// alternative the paper's related work cites ([18] Gal & Ghahramani)
/// before arguing for deep ensembles.
class Dropout : public Layer {
 public:
  explicit Dropout(double rate);

  tensor::Tensor Forward(const tensor::Tensor& input,
                         Tape* tape = nullptr) const override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output,
                          const Tape& tape) override;
  std::string name() const override { return "Dropout"; }

  double rate() const { return rate_; }

 private:
  double rate_;
};

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_DROPOUT_H_
