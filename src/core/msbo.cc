#include "core/msbo.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "runtime/parallel.h"
#include "stats/moments.h"

namespace vdrift::select {

namespace {

// The calibration over one sample view per registry entry.
Result<MsboCalibration> Calibrate(
    const ModelRegistry& registry,
    const std::vector<const std::vector<LabeledFrame>*>& samples) {
  if (registry.empty()) {
    return Status::FailedPrecondition("registry is empty");
  }
  if (static_cast<int>(samples.size()) != registry.size()) {
    return Status::InvalidArgument("need one sample set per model");
  }
  for (int j = 0; j < registry.size(); ++j) {
    if (registry.at(j).ensemble == nullptr) {
      return Status::FailedPrecondition("model '" + registry.at(j).name +
                                        "' has no ensemble");
    }
  }
  for (const std::vector<LabeledFrame>* sample : samples) {
    if (sample->empty()) {
      return Status::InvalidArgument("empty calibration sample");
    }
  }
  const size_t m = static_cast<size_t>(registry.size());
  // Both statistics below are folds over the same per-frame Brier scores
  // of each foreign pair (ensemble j, sample i != j): score each pair once.
  std::vector<std::vector<std::vector<double>>> scores(
      m, std::vector<std::vector<double>>(m));
  for (size_t j = 0; j < m; ++j) {
    const DeepEnsemble& ensemble = *registry.at(static_cast<int>(j)).ensemble;
    for (size_t i = 0; i < m; ++i) {
      if (i == j) continue;
      for (const LabeledFrame& lf : *samples[i]) {
        scores[j][i].push_back(ensemble.BrierScore(lf.pixels, lf.label));
      }
    }
  }
  MsboCalibration calibration;
  calibration.pc_avg.resize(m);
  calibration.sigma.resize(m);
  // Global h (§5.2.2): average foreign-ensemble uncertainty per sample.
  // Each mean is summed in frame order, as DeepEnsemble::AverageBrier does.
  stats::RunningMoments sample_moments;
  for (size_t i = 0; i < m; ++i) {
    stats::RunningMoments foreign;
    for (size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      double total = 0.0;
      for (double score : scores[j][i]) total += score;
      foreign.Add(total / static_cast<double>(scores[j][i].size()));
    }
    if (foreign.count() > 0) sample_moments.Add(foreign.mean());
  }
  if (sample_moments.count() > 0) {
    calibration.global_h = sample_moments.mean() - sample_moments.stddev();
  } else {
    // Single-model registry: no foreign data to calibrate against, so the
    // baseline comes from the lone model's own-distribution uncertainty —
    // new data is accepted only while the model stays roughly as
    // confident as it is at home (1.5x its own average Brier).
    stats::RunningMoments own;
    for (int i = 0; i < registry.size(); ++i) {
      own.Add(registry.at(i).ensemble->AverageBrier(
          *samples[static_cast<size_t>(i)]));
    }
    calibration.global_h = 1.5 * own.mean();
  }
  for (size_t j = 0; j < m; ++j) {
    stats::RunningMoments moments;
    for (size_t i = 0; i < m; ++i) {
      for (double score : scores[j][i]) moments.Add(score);
    }
    if (moments.count() == 0) {
      // Single-model registry: no foreign data; fall back to a permissive
      // baseline so the lone model is accepted on matching data.
      calibration.pc_avg[j] = 1.0;
      calibration.sigma[j] = 0.0;
    } else {
      calibration.pc_avg[j] = moments.mean();
      calibration.sigma[j] = moments.stddev();
    }
  }
  return calibration;
}

}  // namespace

Result<MsboCalibration> CalibrateMsbo(
    const ModelRegistry& registry,
    const std::vector<std::vector<LabeledFrame>>& samples) {
  std::vector<const std::vector<LabeledFrame>*> views;
  views.reserve(samples.size());
  for (const std::vector<LabeledFrame>& sample : samples) {
    views.push_back(&sample);
  }
  return Calibrate(registry, views);
}

Result<MsboCalibration> CalibrateMsbo(
    const ModelRegistry& registry, const std::vector<SharedSample>& samples) {
  std::vector<const std::vector<LabeledFrame>*> views;
  views.reserve(samples.size());
  for (const SharedSample& sample : samples) views.push_back(&sample.frames());
  return Calibrate(registry, views);
}

Msbo::Msbo(const ModelRegistry* registry, MsboCalibration calibration,
           const MsboConfig& config)
    : registry_(registry),
      calibration_(std::move(calibration)),
      config_(config) {
  // vdrift-lint: allow(no-data-dependent-check): null-wiring bug, not data
  VDRIFT_CHECK(registry_ != nullptr);
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(config_.window_t >= 1);
  // Calibration/registry agreement is data-dependent (the calibration may
  // come from a checkpoint or a stale Recalibrate) — validated per Select
  // with a Status, not a crash, so the pipeline can fall back.
}

Result<Selection> Msbo::Select(const std::vector<LabeledFrame>& window) const {
  if (window.empty()) {
    return Status::InvalidArgument("MSBO needs a non-empty window");
  }
  obs::TraceSpan span(&obs::Global(), "vdrift.select.msbo.select_seconds");
  obs::Global().GetCounter("vdrift.select.msbo.selections").Increment();
  if (registry_->empty()) {
    Selection selection;
    selection.train_new_model = true;
    return selection;
  }
  if (static_cast<int>(calibration_.pc_avg.size()) != registry_->size() ||
      calibration_.sigma.size() != calibration_.pc_avg.size()) {
    return Status::FailedPrecondition(
        "MSBO calibration covers " +
        std::to_string(calibration_.pc_avg.size()) + " models but registry has " +
        std::to_string(registry_->size()) + "; recalibrate first");
  }
  for (int i = 0; i < registry_->size(); ++i) {
    if (registry_->at(i).ensemble == nullptr) {
      return Status::FailedPrecondition("MSBO requires an ensemble for model " +
                                        registry_->at(i).name);
    }
  }
  int limit = std::min<int>(config_.window_t,
                            static_cast<int>(window.size()));
  std::vector<LabeledFrame> eval(window.begin(), window.begin() + limit);

  Selection selection;
  selection.frames_examined = limit;
  // Candidate models score independently; the argmin folds in registry
  // order afterwards, so the winner and tie-breaks match the serial sweep.
  std::vector<double> briers(static_cast<size_t>(registry_->size()), 0.0);
  runtime::ParallelFor(
      0, registry_->size(), 1, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const ModelEntry& entry = registry_->at(static_cast<int>(i));
          briers[static_cast<size_t>(i)] = entry.ensemble->AverageBrier(eval);
        }
      });
  int best = -1;
  double best_brier = 0.0;
  for (int i = 0; i < registry_->size(); ++i) {
    // Each frame is evaluated by every ensemble member (Alg. 3 lines 5-11).
    selection.invocations += limit * registry_->at(i).ensemble->size();
    double brier = briers[static_cast<size_t>(i)];
    if (best < 0 || brier < best_brier) {
      best = i;
      best_brier = brier;
    }
  }
  selection.score = best_brier;
  double threshold =
      config_.rule == MsboThresholdRule::kGlobalH
          ? calibration_.global_h
          : calibration_.pc_avg[static_cast<size_t>(best)] -
                calibration_.sigma[static_cast<size_t>(best)];
  if (best_brier <= threshold) {
    selection.model_index = best;
  } else {
    // Even the most confident model is no more certain than it typically
    // is on foreign data: unseen distribution (Alg. 3 line 17).
    selection.train_new_model = true;
    obs::Global().GetCounter("vdrift.select.msbo.train_new").Increment();
  }
  obs::Global()
      .GetCounter("vdrift.select.msbo.invocations")
      .Increment(selection.invocations);
  obs::Global().GetGauge("vdrift.select.msbo.best_brier").Set(best_brier);
  return selection;
}

}  // namespace vdrift::select
