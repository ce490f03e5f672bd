#ifndef VDRIFT_NN_LAYER_H_
#define VDRIFT_NN_LAYER_H_

#include <string>
#include <vector>

#include "stats/rng.h"
#include "tensor/tensor.h"

namespace vdrift::nn {

/// \brief A trainable parameter: value plus accumulated gradient.
struct Parameter {
  tensor::Tensor value;
  /// Empty until training first needs it (ZeroGrad or a backward pass),
  /// so a model that only runs inference carries no gradient buffers.
  tensor::Tensor grad;

  explicit Parameter(tensor::Shape shape) : value(std::move(shape)) {}

  /// Resets the accumulated gradient to zero.
  void ZeroGrad() { MutableGrad().Zero(); }

  /// The gradient, allocated as zeros (value's shape) on first use.
  tensor::Tensor& MutableGrad() {
    if (grad.shape() != value.shape()) grad = tensor::Tensor(value.shape());
    return grad;
  }
};

/// \brief The per-call record one Forward leaves for its Backward.
///
/// Owned by the caller (a training step or an MC-dropout pass), never by
/// the layer, so a model's forward pass mutates nothing and one model
/// object can serve any number of threads at once. Each layer decides
/// what it keeps: its input, an activation mask, im2col matrices, an
/// input shape. A Sequential keeps one child tape per layer.
struct Tape {
  std::vector<tensor::Tensor> tensors;
  tensor::Shape shape;
  std::vector<Tape> children;
  /// Dropout masks draw from this generator (copied into child tapes).
  /// Null means no dropout layer may be reached with this tape.
  stats::Rng* rng = nullptr;
};

/// \brief Base class for differentiable layers.
///
/// The stack uses explicit, caller-driven backpropagation. Forward is
/// const: it reads the parameters and writes only to the optional tape.
/// Backward maps the gradient w.r.t. the output to the gradient w.r.t.
/// the input using the tape of the matching Forward, and *accumulates*
/// parameter gradients. A training step is therefore:
/// ZeroGrad -> Forward(x, &tape) -> loss -> Backward(g, tape) -> step.
/// Inference passes no tape and records nothing; Dropout is the identity
/// then.
///
/// Convention: 2-D activations are [batch, features]; 4-D activations are
/// [batch, channels, height, width].
class Layer {
 public:
  virtual ~Layer() = default;

  /// Runs the layer on a batch; records what Backward needs into `tape`
  /// when one is given.
  virtual tensor::Tensor Forward(const tensor::Tensor& input,
                                 Tape* tape = nullptr) const = 0;

  /// Given dLoss/dOutput and the tape of the matching Forward, accumulates
  /// parameter gradients and returns dLoss/dInput.
  virtual tensor::Tensor Backward(const tensor::Tensor& grad_output,
                                  const Tape& tape) = 0;

  /// The layer's trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Params() { return {}; }
  /// The same parameters, read-only, in the same order.
  virtual std::vector<const Parameter*> Params() const { return {}; }

  /// Human-readable layer name for diagnostics.
  virtual std::string name() const = 0;
};

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_LAYER_H_
