#include "detect/detector.h"

#include "detect/annotator.h"
#include "obs/metrics.h"
#include "video/stream.h"

namespace vdrift::detect {

namespace {

ClassifierConfig HeadConfig(const SimulatedDetector::Config& config,
                            int num_classes) {
  ClassifierConfig head;
  head.image_size = config.image_size;
  head.channels = config.channels;
  head.num_classes = num_classes;
  head.base_filters = config.base_filters;
  return head;
}

}  // namespace

SimulatedDetector::SimulatedDetector(const Config& config, stats::Rng* rng)
    : config_(config),
      count_head_(HeadConfig(config, config.count_classes), rng),
      predicate_head_(HeadConfig(config, 2), rng) {}

Status SimulatedDetector::Train(const std::vector<video::Frame>& frames,
                                const ClassifierTrainConfig& train_config,
                                stats::Rng* rng) {
  if (frames.empty()) {
    return Status::InvalidArgument("detector training needs frames");
  }
  std::vector<tensor::Tensor> pixels = video::PixelsOf(frames);
  std::vector<int> count_labels;
  std::vector<int> predicate_labels;
  count_labels.reserve(frames.size());
  predicate_labels.reserve(frames.size());
  for (const video::Frame& f : frames) {
    count_labels.push_back(CountLabel(f.truth, config_.count_classes));
    predicate_labels.push_back(PredicateLabel(f.truth));
  }
  VDRIFT_RETURN_NOT_OK(
      count_head_.Train(pixels, count_labels, train_config, rng).status());
  VDRIFT_RETURN_NOT_OK(
      predicate_head_.Train(pixels, predicate_labels, train_config, rng)
          .status());
  return Status::OK();
}

int SimulatedDetector::PredictCount(const tensor::Tensor& pixels) const {
  obs::Global().GetCounter("vdrift.detect.invocations").Increment();
  return count_head_.Predict(pixels);
}

bool SimulatedDetector::PredictPredicate(const tensor::Tensor& pixels) const {
  obs::Global().GetCounter("vdrift.detect.invocations").Increment();
  return predicate_head_.Predict(pixels) == 1;
}

}  // namespace vdrift::detect
