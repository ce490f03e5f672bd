#ifndef VDRIFT_PERFBENCH_WORKLOADS_H_
#define VDRIFT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/workbench.h"
#include "common/result.h"
#include "core/registry_cow.h"
#include "pipeline/pipeline.h"
#include "replay.h"
#include "video/stream.h"

namespace vdrift::perfbench {

enum class Workload { kFleetSteady, kStreamLive, kFleetAdapt };

/// Parses "fleet_steady", "stream_live" or "fleet_adapt".
Result<Workload> ParseWorkload(const std::string& name);
std::string WorkloadName(Workload workload);
/// VDRIFT_THREADS the workload runs at: 1 for stream_live, 4 for fleets.
int WorkloadThreads(Workload workload);

/// Open-loop frame rate of stream_live: roughly half the single-stream
/// closed-loop capacity of a 4-core AVX-512 box (see README.md).
inline constexpr double kLiveRateFps = 300.0;
/// Frames each fleet shard serves per scheduling round.
inline constexpr int64_t kSliceFrames = 64;
/// Frames the pipeline collects after a detection before selecting.
inline constexpr int kRecoveryWindow = 10;
/// Frames fleet_adapt collects to train a model for an unseen distribution.
inline constexpr int kNewModelWindow = 64;

/// \brief One camera of a workload: its ground truth and its frames.
struct StreamInput {
  std::string label;
  std::vector<video::Segment> segments;
  std::vector<video::Frame> frames;    ///< Rendered before any timing.
  std::vector<int64_t> change_points;  ///< First frame of each later segment.
};

/// \brief Everything a workload feeds the system, made from its seed.
struct WorkloadInputs {
  Workload workload = Workload::kFleetSteady;
  uint64_t seed = 0;             ///< Seed of this variant.
  std::string dataset;           ///< Workbench the models come from.
  std::vector<int> base_models;  ///< Workbench entries the run starts with.
  int unseen_distributions = 0;  ///< Distributions no base model covers.
  std::vector<StreamInput> streams;
  int threads = 1;        ///< VDRIFT_THREADS of the workload.
  double rate_fps = 0.0;  ///< Open-loop rate; 0 selects the closed loop.

  bool fleet() const { return workload != Workload::kStreamLive; }
  int64_t frames() const;
};

/// Input variants an untraced run renders from its seed: 3 for
/// fleet_steady, 4 for stream_live (its tail rests on few stalls per
/// variant), 2 for fleet_adapt (long reps). Reps cycle through them, so
/// the quality metrics pool every variant's drifts.
int VariantCount(Workload workload);

/// Renders variant `variant` of the inputs of `workload` from `seed`.
/// `tiny` shrinks them to the self-test scale.
WorkloadInputs MakeInputs(Workload workload, uint64_t seed, int variant,
                          bool tiny);

/// The repo's bench workbench options over the benchmark's model cache.
benchutil::WorkbenchOptions BenchWorkbenchOptions(const std::string& cache_dir);

/// The trainNewModel recipe of fleet_adapt (and of the provisioning probe).
pipeline::ProvisionOptions TrainingRecipe(
    const benchutil::WorkbenchOptions& bench);

/// The pipeline configuration every stream of the workload runs with.
pipeline::PipelineConfig PipelineFor(const WorkloadInputs& inputs,
                                     const benchutil::WorkbenchOptions& bench);

/// \brief How one stream ended.
struct StreamOutcome {
  std::string label;
  pipeline::PipelineMetrics metrics;
  int64_t quarantined_frames = 0;
  bool retired = false;  ///< Ended cleanly with its stream exhausted.
  /// Prefix of the names of models this stream trained.
  std::string trained_prefix;
};

/// \brief The `serve::FleetReport` counts (zero without a fleet).
struct FleetCounts {
  int64_t rounds = 0;
  int64_t backpressure_waits = 0;
  int64_t models_published = 0;
  int64_t models_adopted = 0;
  int64_t shard_restarts = 0;
  int64_t publish_rejected = 0;
};

struct RepOptions {
  std::string cache_dir;
  std::string work_dir;      ///< Checkpoints and the fleet manifest.
  bool tag_rounds = false;   ///< Tag each pull with the fleet round.
  int threads = 0;           ///< > 0 runs on a private pool of this size.
  int64_t skip_frame = -1;   ///< Self-test: stream 0 drops this frame.
};

/// \brief One set-up plus one run of a workload.
struct RepResult {
  double setup_s = 0.0;
  double run_start = 0.0;  ///< MonotonicSeconds() at the call of Run.
  double run_end = 0.0;
  double cpu_s = 0.0;      ///< Process CPU seconds inside Run.
  int threads = 1;
  int64_t tensor_flops = 0;  ///< vdrift.ops.tensor.* FLOPs inside Run.
  int64_t tensor_bytes = 0;
  std::vector<StreamOutcome> streams;
  FleetCounts fleet;
  std::vector<std::unique_ptr<ReplaySource>> sources;
  std::unique_ptr<benchutil::Workbench> bench;
  /// Fleets: the shared registry as the run left it.
  select::CowModelRegistry::Snapshot published;

  double run_seconds() const { return run_end - run_start; }
  int64_t frames_served() const;  ///< Frames the count query answered.
  double fps() const;
  double cpu_ms_per_frame() const;
  int64_t models_trained() const;
};

/// Sets the workload up from the warm model cache and runs it once.
Result<RepResult> RunRep(const WorkloadInputs& inputs,
                         const RepOptions& options);

/// The output checks; returns one line per failed check.
std::vector<std::string> CheckOutputs(const WorkloadInputs& inputs,
                                      const RepResult& rep);

/// Hex digest of every stream's selections, drift frame indices and
/// per-sequence correct counts.
std::string Digest(const RepResult& rep);

}  // namespace vdrift::perfbench

#endif  // VDRIFT_PERFBENCH_WORKLOADS_H_
