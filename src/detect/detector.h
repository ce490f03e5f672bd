#ifndef VDRIFT_DETECT_DETECTOR_H_
#define VDRIFT_DETECT_DETECTOR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "detect/image_classifier.h"
#include "stats/rng.h"
#include "video/frame.h"

namespace vdrift::detect {

/// \brief The drift-oblivious detector — the YOLOv7 substitute.
///
/// In the end-to-end comparison (Table 9 / Fig. 7-8) YOLOv7 processes
/// every frame with one fixed model: no drift detection, no model
/// switching. We reproduce that role with a *wider* CNN (so its real
/// per-frame compute sits well above the light per-sequence classifiers,
/// as YOLOv7's does above the VGG-based filters) trained once on the
/// stream's initial distribution; its accuracy collapses after drift for
/// the genuine reason — covariate shift — rather than by fiat.
class SimulatedDetector {
 public:
  struct Config {
    int image_size = 32;
    int channels = 1;
    int count_classes = 10;
    int base_filters = 16;  ///< Wider than the per-sequence classifiers.
  };

  SimulatedDetector(const Config& config, stats::Rng* rng);

  /// Trains both heads on the given frames (labels derived from truth).
  Status Train(const std::vector<video::Frame>& frames,
               const ClassifierTrainConfig& train_config, stats::Rng* rng);

  /// Predicted car-count class for a frame.
  int PredictCount(const tensor::Tensor& pixels) const;

  /// Predicted truth value of the "bus left of car" predicate.
  bool PredictPredicate(const tensor::Tensor& pixels) const;

  int count_classes() const { return config_.count_classes; }

 private:
  Config config_;
  ImageClassifier count_head_;
  ImageClassifier predicate_head_;
};

}  // namespace vdrift::detect

#endif  // VDRIFT_DETECT_DETECTOR_H_
