#ifndef VDRIFT_PIPELINE_CHECKPOINT_H_
#define VDRIFT_PIPELINE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/drift_inspector.h"
#include "core/msbo.h"
#include "fault/fault.h"
#include "pipeline/pipeline.h"
#include "stats/rng.h"
#include "video/frame.h"

namespace vdrift::pipeline {

/// \brief Everything DriftAwarePipeline needs to continue after a crash.
///
/// Model weights are deliberately NOT here: the registry is re-provisioned
/// deterministically from config on cold start, and the checkpoint records
/// only a fingerprint (the ordered model names) to detect when the live
/// registry no longer matches the snapshot. The known limitation is
/// models learned mid-run (trainNewModel): a fresh process does not have
/// them, its fingerprint differs, and Resume reports kDataLoss — the
/// correct answer, since serving against a missing model would be wrong.
struct PipelineCheckpoint {
  std::vector<std::string> registry_fingerprint;  ///< Ordered model names.
  int32_t deployed = 0;
  bool drift_oblivious = false;
  int32_t consecutive_selection_failures = 0;
  stats::Rng::State pipeline_rng;
  conformal::DriftInspector::State inspector;
  select::MsboCalibration calibration;
  bool calibrated = false;
  int64_t stream_cursor = 0;  ///< Frames the consumer had seen.

  // Cumulative PipelineMetrics counters (timing/obs instruments are not
  // state — they restart from zero after a resume).
  int64_t frames = 0;
  int32_t drifts_detected = 0;
  int32_t new_models_trained = 0;
  std::vector<int64_t> drift_frames;
  std::vector<std::string> selections;
  int64_t selection_invocations = 0;
  std::map<int, SequenceAccuracy> per_sequence;
  DegradationStats degradation;

  // --- v2 fields ---
  // Detection-lag clock, so a resumed run's detect_lag_frames histogram is
  // bit-identical to an uninterrupted one (the clock must keep counting
  // across the resume, not restart at -1/0).
  int32_t last_sequence_id = -1;
  int64_t frames_since_sequence_change = 0;
  double last_p_value = 1.0;
  // Per-detection lags, replayed into the fresh per-run histogram.
  std::vector<int64_t> detect_lags;
  // Drift handling parked at a slice boundary: phase (0=idle, 1=recovery
  // window, 2=training window), the retry state, and the buffered frames
  // themselves — a resume continues collecting exactly where the
  // interrupted run stopped.
  uint8_t recovery_phase = 0;
  int32_t recovery_target = 0;
  int32_t recovery_backoff = 0;
  int32_t recovery_attempt = 0;
  bool recovery_initial_collect = true;
  std::vector<video::Frame> recovery_window;
  std::vector<video::Frame> recovery_training;
};

/// Serializes a checkpoint in the common/binio.h envelope under the 8-byte
/// magic "VDCKPT01".
std::string EncodeCheckpoint(const PipelineCheckpoint& checkpoint);

/// Parses bytes produced by EncodeCheckpoint. Bad magic, unknown version,
/// length mismatch, CRC failure, or truncation anywhere inside the payload
/// all return kDataLoss — corruption is diagnosed, never executed.
[[nodiscard]] Result<PipelineCheckpoint> DecodeCheckpoint(const std::string& bytes);

/// Encodes + writes atomically (tmp + rename). `injector` (nullable) is
/// rolled at the I/O boundary: kIoFail aborts the write with kIoError,
/// kCheckpointCorrupt flips a bit or tears the buffer before it lands —
/// producing exactly the on-disk damage Resume must survive.
[[nodiscard]] Status WriteCheckpointFile(const PipelineCheckpoint& checkpoint,
                           const std::string& path,
                           fault::FaultInjector* injector);

/// Reads + decodes. `injector` (nullable): kIoFail fails the read.
[[nodiscard]] Result<PipelineCheckpoint> ReadCheckpointFile(const std::string& path,
                                              fault::FaultInjector* injector);

}  // namespace vdrift::pipeline

#endif  // VDRIFT_PIPELINE_CHECKPOINT_H_
