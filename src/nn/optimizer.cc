#include "nn/optimizer.h"

#include <cmath>

namespace vdrift::nn {

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::Step() {
  ++t_;
  double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    const tensor::Tensor& grad = p->MutableGrad();
    tensor::Tensor& m = m_[i];
    tensor::Tensor& v = v_[i];
    for (int64_t j = 0; j < p->value.size(); ++j) {
      float g = grad[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g * g;
      double mhat = static_cast<double>(m[j]) / bc1;
      double vhat = static_cast<double>(v[j]) / bc2;
      p->value[j] -= static_cast<float>(lr_ * mhat /
                                        (std::sqrt(vhat) + eps_));
    }
  }
}

}  // namespace vdrift::nn
