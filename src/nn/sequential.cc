#include "nn/sequential.h"

#include "common/logging.h"

namespace vdrift::nn {

tensor::Tensor Sequential::Forward(const tensor::Tensor& input,
                                  Tape* tape) const {
  if (tape != nullptr) tape->children.resize(layers_.size());
  tensor::Tensor x = input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    Tape* child = nullptr;
    if (tape != nullptr) {
      child = &tape->children[i];
      child->rng = tape->rng;
    }
    x = layers_[i]->Forward(x, child);
  }
  return x;
}

tensor::Tensor Sequential::Backward(const tensor::Tensor& grad_output,
                                    const Tape& tape) {
  // vdrift-lint: allow(no-data-dependent-check): fwd/bwd pairing contract
  VDRIFT_CHECK(tape.children.size() == layers_.size())
      << "Backward needs the tape of a recorded Forward";
  tensor::Tensor g = grad_output;
  for (size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->Backward(g, tape.children[i]);
  }
  return g;
}

std::vector<Parameter*> Sequential::Params() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::vector<const Parameter*> Sequential::Params() const {
  std::vector<const Parameter*> params;
  for (const auto& layer : layers_) {
    const Layer& read_only = *layer;
    for (const Parameter* p : read_only.Params()) params.push_back(p);
  }
  return params;
}

int64_t Sequential::NumParameters() {
  int64_t total = 0;
  for (Parameter* p : Params()) total += p->value.size();
  return total;
}

}  // namespace vdrift::nn
