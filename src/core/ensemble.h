#ifndef VDRIFT_CORE_ENSEMBLE_H_
#define VDRIFT_CORE_ENSEMBLE_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "nn/classifier.h"
#include "tensor/tensor.h"

namespace vdrift::select {

/// \brief A frame with its oracle label, as consumed by MSBO and the
/// calibration routine.
struct LabeledFrame {
  tensor::Tensor pixels;
  int label = 0;
};

/// \brief A labeled sample held by reference count.
///
/// A calibration sample never changes once drawn, so the fleet's shared
/// registry, its shards and their pipelines hold one copy between them
/// instead of one each. It reads as the frames it holds, so a caller that
/// wants a private copy still writes `std::vector<LabeledFrame> s = shared;`.
class SharedSample {
 public:
  explicit SharedSample(std::vector<LabeledFrame> frames)
      : frames_(std::make_shared<const std::vector<LabeledFrame>>(
            std::move(frames))) {}

  const std::vector<LabeledFrame>& frames() const { return *frames_; }
  operator const std::vector<LabeledFrame>&() const { return *frames_; }

 private:
  std::shared_ptr<const std::vector<LabeledFrame>> frames_;
};

/// \brief Uniformly-weighted deep ensemble (paper §5.2.2).
///
/// L members (typical L between 3 and 10) trained end-to-end on randomized
/// shuffles of the full training set with random independent
/// initialisations — the Lakshminarayanan-style recipe the paper adopts.
/// Predictions are combined as p(y|x) = (1/L) sum_l p_l(y|x); predictive
/// uncertainty is quantified with the Brier score of the mixture.
class DeepEnsemble {
 public:
  /// Wraps the trained members (shared so a member can double as the
  /// registry's deployed query model); they must agree on K.
  static Result<DeepEnsemble> Make(
      std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members);

  DeepEnsemble(DeepEnsemble&&) = default;
  DeepEnsemble& operator=(DeepEnsemble&&) = default;

  /// Mixture class probabilities for one frame.
  std::vector<float> PredictProba(const tensor::Tensor& frame) const;

  /// Argmax of the mixture.
  int Predict(const tensor::Tensor& frame) const;

  /// Brier score of the mixture prediction against a one-hot label:
  /// (1/K) sum_k (delta_{k=y} - p_k)^2. Zero means complete certainty in
  /// the correct class; higher means more uncertain (§5.2.1).
  double BrierScore(const tensor::Tensor& frame, int label) const;

  /// Average Brier score over a labeled window (Alg. 3 lines 4-12).
  double AverageBrier(const std::vector<LabeledFrame>& window) const;

  /// Number of members L.
  int size() const { return static_cast<int>(members_.size()); }
  /// Access to a member (shared with the caller).
  const std::shared_ptr<nn::ProbabilisticClassifier>& member(int i) const {
    return members_[static_cast<size_t>(i)];
  }
  /// Number of classes K.
  int num_classes() const { return num_classes_; }

 private:
  explicit DeepEnsemble(
      std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members)
      : members_(std::move(members)),
        num_classes_(members_.front()->num_classes()) {}

  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members_;
  int num_classes_;
};

}  // namespace vdrift::select

#endif  // VDRIFT_CORE_ENSEMBLE_H_
