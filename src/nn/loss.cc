#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vdrift::nn {

using tensor::Shape;
using tensor::Tensor;

Tensor Softmax(const Tensor& logits) {
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(logits.shape().ndim() == 2);
  int64_t n = logits.shape().dim(0);
  int64_t k = logits.shape().dim(1);
  Tensor out(logits.shape());
  for (int64_t i = 0; i < n; ++i) {
    float max_logit = -1e30f;
    for (int64_t j = 0; j < k; ++j) {
      max_logit = std::max(max_logit, logits.At2(i, j));
    }
    double denom = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      double e = std::exp(static_cast<double>(logits.At2(i, j) - max_logit));
      out.At2(i, j) = static_cast<float>(e);
      denom += e;
    }
    for (int64_t j = 0; j < k; ++j) {
      out.At2(i, j) = static_cast<float>(out.At2(i, j) / denom);
    }
  }
  return out;
}

LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int>& labels) {
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(logits.shape().ndim() == 2);
  int64_t n = logits.shape().dim(0);
  int64_t k = logits.shape().dim(1);
  // vdrift-lint: allow(no-data-dependent-check): caller-size contract
  VDRIFT_CHECK(static_cast<int64_t>(labels.size()) == n);
  Tensor probs = Softmax(logits);
  LossResult result;
  result.grad = probs;
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    int label = labels[static_cast<size_t>(i)];
    VDRIFT_DCHECK(label >= 0 && label < k);
    double p = std::max(1e-12, static_cast<double>(probs.At2(i, label)));
    loss -= std::log(p);
    result.grad.At2(i, label) -= 1.0f;
  }
  float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < result.grad.size(); ++i) result.grad[i] *= inv_n;
  result.loss = loss / static_cast<double>(n);
  return result;
}

LossResult BinaryCrossEntropy(const Tensor& probs, const Tensor& targets) {
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(probs.shape() == targets.shape());
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(probs.shape().ndim() >= 1);
  int64_t n = probs.shape().ndim() >= 2 ? probs.shape().dim(0) : 1;
  LossResult result;
  result.grad = Tensor(probs.shape());
  double loss = 0.0;
  constexpr float kEps = 1e-6f;
  float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < probs.size(); ++i) {
    float p = std::clamp(probs[i], kEps, 1.0f - kEps);
    float t = targets[i];
    loss -= static_cast<double>(t) * std::log(p) +
            static_cast<double>(1.0f - t) * std::log(1.0f - p);
    result.grad[i] = (p - t) / (p * (1.0f - p)) * inv_n;
  }
  result.loss = loss / static_cast<double>(n);
  return result;
}

}  // namespace vdrift::nn
