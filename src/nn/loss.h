#ifndef VDRIFT_NN_LOSS_H_
#define VDRIFT_NN_LOSS_H_

#include <vector>

#include "tensor/tensor.h"

namespace vdrift::nn {

/// \brief Value and input-gradient of a loss evaluation.
struct LossResult {
  double loss = 0.0;
  tensor::Tensor grad;  ///< dLoss/dInput, same shape as the loss input.
};

/// Softmax cross-entropy over logits [N, K] against integer labels.
/// Equivalent to the negative log-likelihood the paper trains classifiers
/// with (§5.2.1: "the popular softmax cross entropy loss is equivalent to
/// the log-likelihood and is a proper scoring rule").
LossResult SoftmaxCrossEntropy(const tensor::Tensor& logits,
                               const std::vector<int>& labels);

/// Row-wise softmax of logits [N, K].
tensor::Tensor Softmax(const tensor::Tensor& logits);

/// Binary cross-entropy of probabilities (in (0,1)) against targets of the
/// same shape, averaged per sample and summed over elements within a sample
/// — the VAE's pixel-wise reconstruction loss (§4.2.2). Inputs are clamped
/// away from {0,1} for stability.
LossResult BinaryCrossEntropy(const tensor::Tensor& probs,
                              const tensor::Tensor& targets);

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_LOSS_H_
