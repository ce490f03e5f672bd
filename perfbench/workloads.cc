#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "benchutil/ledger.h"
#include "common.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "runtime/parallel.h"
#include "serve/fleet.h"
#include "stats/rng.h"

namespace vdrift::perfbench {

namespace {

// splitmix64: derives independent, well-mixed seeds from (seed, salt).
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The dataset's scene specs and segment lengths, at the workbench scale.
video::SyntheticDataset Dataset(const std::string& name) {
  return benchutil::MakeDataset(
      name, benchutil::DefaultWorkbenchOptions().dataset_scale);
}

// A seeded permutation of 0..n-1.
std::vector<int> SeededOrder(int n, uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  stats::Rng rng(seed);
  rng.Shuffle(&order);
  return order;
}

StreamInput RenderStream(std::string label,
                         std::vector<video::Segment> segments,
                         int image_size, uint64_t render_seed) {
  StreamInput stream;
  stream.label = std::move(label);
  stream.segments = std::move(segments);
  video::StreamGenerator generator(stream.segments, image_size, render_seed);
  stream.change_points = generator.drift_points();
  stream.frames.reserve(static_cast<size_t>(generator.total_frames()));
  video::Frame frame;
  while (generator.Next(&frame)) stream.frames.push_back(frame);
  return stream;
}

// fleet_steady: Tokyo replicas that start on Angle 1 (the deployed model)
// and visit the other two angles, at the dataset's normal segment length.
void MakeFleetSteady(uint64_t seed, bool tiny, WorkloadInputs* in) {
  in->dataset = "Tokyo";
  const video::SyntheticDataset ds = Dataset(in->dataset);
  in->base_models = {0, 1, 2};
  const int streams = tiny ? 2 : 8;
  // Half the streams (a seeded half) visit Angle 3 before Angle 2.
  const std::vector<int> order = SeededOrder(streams, Mix(seed, 100));
  for (int s = 0; s < streams; ++s) {
    std::vector<video::Segment> segments = ds.segments;
    if (order[static_cast<size_t>(s)] < streams / 2) {
      std::swap(segments[1], segments[2]);
    }
    if (tiny) {
      for (video::Segment& segment : segments) segment.length = 96;
    }
    in->streams.push_back(RenderStream("s" + std::to_string(s),
                                       std::move(segments), ds.image_size,
                                       Mix(seed, 200 + static_cast<uint64_t>(s))));
  }
}

// stream_live: one dashcam cycling Day -> Night -> Rain -> Snow -> Day ...
// in short segments of seeded length, so drift is frequent.
void MakeStreamLive(uint64_t seed, bool tiny, WorkloadInputs* in) {
  in->dataset = "BDD";
  in->rate_fps = kLiveRateFps;
  const video::SyntheticDataset ds = Dataset(in->dataset);
  in->base_models = {0, 1, 2, 3};
  stats::Rng rng(Mix(seed, 300));
  const int count = tiny ? 4 : 16;
  std::vector<video::Segment> segments;
  for (int k = 0; k < count; ++k) {
    video::Segment segment = ds.segments[static_cast<size_t>(k) %
                                         ds.segments.size()];
    segment.length = tiny ? 64 : rng.NextInt(120, 180);
    segments.push_back(segment);
  }
  in->streams.push_back(RenderStream("live", std::move(segments),
                                     ds.image_size, Mix(seed, 301)));
}

// fleet_adapt: Detrac with Angle 1 left out of the base models. Each
// stream starts on Angle 2 (the deployed model), meets Angle 1, then visits
// Angles 3 and 4 (half the streams in each order). The streams meet Angle 1
// in a seeded order, kStagger frames apart: the first one trains a model,
// which is published long before the next one arrives.
void MakeFleetAdapt(uint64_t seed, bool tiny, WorkloadInputs* in) {
  in->dataset = "Detrac";
  const video::SyntheticDataset ds = Dataset(in->dataset);
  constexpr size_t kUnseen = 0;  // Angle 1
  in->base_models = {1, 2, 3};
  in->unseen_distributions = 1;
  constexpr int64_t kLead = 64;      // frames on the deployed angle first
  constexpr int64_t kStagger = 256;  // four slices between arrivals
  const int64_t length = tiny ? 128 : 192;
  const int streams = tiny ? 2 : 4;
  const std::vector<int> order = SeededOrder(streams, Mix(seed, 400));
  auto segment = [&](int model, int64_t frames) {
    video::Segment out = ds.segments[static_cast<size_t>(model)];
    out.length = frames;
    return out;
  };
  for (int s = 0; s < streams; ++s) {
    const int rank = order[static_cast<size_t>(s)];
    const int turn = rank % 2;
    std::vector<video::Segment> segments = {
        segment(in->base_models[0], kLead + kStagger * rank),
        segment(kUnseen, length),
        segment(in->base_models[static_cast<size_t>(1 + turn)], length),
        segment(in->base_models[static_cast<size_t>(2 - turn)], length)};
    in->streams.push_back(RenderStream(
        "s" + std::to_string(s), std::move(segments), ds.image_size,
        Mix(seed, 500 + static_cast<uint64_t>(s))));
  }
}

// Totals of the vdrift.ops.tensor.* FLOP and byte counters so far.
void TensorOpTotals(int64_t* flops, int64_t* bytes) {
  *flops = 0;
  *bytes = 0;
  for (const auto& [name, kernel] :
       benchutil::CollectKernelStats(obs::Global())) {
    if (name.rfind("tensor.", 0) != 0) continue;
    *flops += kernel.flops;
    *bytes += kernel.bytes;
  }
}

// Runs `body` on the workload's pool: the process pool (VDRIFT_THREADS),
// or a private one when the rep overrides the thread count.
template <typename Body>
auto OnPool(int threads, Body body) {
  if (threads <= 0) return body();
  runtime::ScopedThreads scoped(threads);
  return body();
}

}  // namespace

Result<Workload> ParseWorkload(const std::string& name) {
  if (name == "fleet_steady") return Workload::kFleetSteady;
  if (name == "stream_live") return Workload::kStreamLive;
  if (name == "fleet_adapt") return Workload::kFleetAdapt;
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (fleet_steady, stream_live, fleet_adapt)");
}

std::string WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kFleetSteady:
      return "fleet_steady";
    case Workload::kStreamLive:
      return "stream_live";
    case Workload::kFleetAdapt:
      return "fleet_adapt";
  }
  return "unknown";
}

int WorkloadThreads(Workload workload) {
  return workload == Workload::kStreamLive ? 1 : 4;
}

int VariantCount(Workload workload) {
  switch (workload) {
    case Workload::kFleetSteady:
      return 3;
    case Workload::kStreamLive:
      return 4;
    case Workload::kFleetAdapt:
      return 2;
  }
  return 1;
}

int64_t WorkloadInputs::frames() const {
  int64_t total = 0;
  for (const StreamInput& stream : streams) {
    total += static_cast<int64_t>(stream.frames.size());
  }
  return total;
}

WorkloadInputs MakeInputs(Workload workload, uint64_t seed, int variant,
                          bool tiny) {
  WorkloadInputs in;
  in.workload = workload;
  in.seed = Mix(seed, 1000 + static_cast<uint64_t>(variant));
  in.threads = WorkloadThreads(workload);
  switch (workload) {
    case Workload::kFleetSteady:
      MakeFleetSteady(in.seed, tiny, &in);
      break;
    case Workload::kStreamLive:
      MakeStreamLive(in.seed, tiny, &in);
      break;
    case Workload::kFleetAdapt:
      MakeFleetAdapt(in.seed, tiny, &in);
      break;
  }
  return in;
}

benchutil::WorkbenchOptions BenchWorkbenchOptions(
    const std::string& cache_dir) {
  benchutil::WorkbenchOptions options = benchutil::DefaultWorkbenchOptions();
  options.cache_dir = cache_dir;
  return options;
}

pipeline::ProvisionOptions TrainingRecipe(
    const benchutil::WorkbenchOptions& bench) {
  // Lighter than the offline base models, so one training on a 64-frame
  // window costs a few seconds.
  pipeline::ProvisionOptions recipe = bench.provision;
  recipe.ensemble_size = 3;
  recipe.profile.trainer.epochs = 8;
  recipe.classifier_train.epochs = 8;
  recipe.train_predicate_model = false;
  return recipe;
}

pipeline::PipelineConfig PipelineFor(const WorkloadInputs& inputs,
                                     const benchutil::WorkbenchOptions& bench) {
  pipeline::PipelineConfig config;
  config.selector = pipeline::PipelineConfig::Selector::kMsbo;
  config.provision = bench.provision;
  config.recovery_window = kRecoveryWindow;
  config.allow_training_new = false;
  config.seed = Mix(inputs.seed, 600);
  if (inputs.workload == Workload::kFleetAdapt) {
    config.allow_training_new = true;
    config.new_model_window = kNewModelWindow;
    config.provision = TrainingRecipe(bench);
  }
  return config;
}

double RepResult::fps() const {
  return static_cast<double>(frames_served()) / run_seconds();
}

double RepResult::cpu_ms_per_frame() const {
  return cpu_s * 1e3 / static_cast<double>(frames_served());
}

int64_t RepResult::frames_served() const {
  int64_t served = 0;
  for (const StreamOutcome& stream : streams) {
    served += stream.metrics.Totals().count_total;
  }
  return served;
}

int64_t RepResult::models_trained() const {
  int64_t trained = 0;
  for (const StreamOutcome& stream : streams) {
    trained += stream.metrics.new_models_trained;
  }
  return trained;
}

Result<RepResult> RunRep(const WorkloadInputs& inputs,
                         const RepOptions& options) {
  namespace fs = std::filesystem;
  RepResult rep;
  rep.threads = options.threads > 0 ? options.threads : inputs.threads;
  const std::string state_dir = options.work_dir + "/fleet_state";
  std::error_code ec;
  fs::remove_all(state_dir, ec);

  // --- Set-up: warm-cache model load, construction, publication, cloning.
  const double setup_start = obs::MonotonicSeconds();
  const benchutil::WorkbenchOptions bench_options =
      BenchWorkbenchOptions(options.cache_dir);
  VDRIFT_ASSIGN_OR_RETURN(rep.bench,
                          benchutil::BuildWorkbench(inputs.dataset,
                                                    bench_options));
  if (!rep.bench->loaded_from_cache) {
    return Status::FailedPrecondition(
        "the " + inputs.dataset + " model cache was cold; run prepare first");
  }
  const pipeline::PipelineConfig config = PipelineFor(inputs, bench_options);
  auto make_source = [&](size_t index, const obs::Counter* rounds) {
    ReplaySource::Options source_options;
    source_options.rate_fps = inputs.rate_fps;
    source_options.round_counter = rounds;
    if (index == 0) source_options.skip_frame = options.skip_frame;
    rep.sources.push_back(std::make_unique<ReplaySource>(
        &inputs.streams[index].frames, source_options));
    return rep.sources.back().get();
  };

  std::unique_ptr<serve::DriftFleet> fleet;
  std::unique_ptr<pipeline::DriftAwarePipeline> single;
  if (inputs.fleet()) {
    serve::FleetOptions fleet_options;
    fleet_options.pipeline = config;
    fleet_options.slice_frames = kSliceFrames;
    fleet_options.max_concurrent = 4;
    if (inputs.workload == Workload::kFleetAdapt) {
      fs::create_directories(state_dir, ec);
      if (ec) return Status::IoError("cannot create " + state_dir);
      fleet_options.checkpoint_dir = state_dir;
      fleet_options.manifest_path = state_dir + "/fleet.manifest";
    }
    fleet = std::make_unique<serve::DriftFleet>(fleet_options);
    for (int index : inputs.base_models) {
      VDRIFT_RETURN_NOT_OK(fleet->AddBaseModel(
          rep.bench->registry.at(index),
          rep.bench->calibration_samples[static_cast<size_t>(index)]));
    }
    const obs::Counter* rounds =
        options.tag_rounds
            ? &fleet->registry()->GetCounter("vdrift.fleet.rounds")
            : nullptr;
    for (size_t i = 0; i < inputs.streams.size(); ++i) {
      serve::StreamSpec spec;
      spec.label = inputs.streams[i].label;
      spec.stream = make_source(i, rounds);
      VDRIFT_RETURN_NOT_OK(fleet->AddStream(spec));
    }
  } else {
    single = std::make_unique<pipeline::DriftAwarePipeline>(
        &rep.bench->registry, rep.bench->calibration_samples, config);
    make_source(0, nullptr);
  }
  rep.setup_s = obs::MonotonicSeconds() - setup_start;

  // --- The timed region: one call of Run.
  int64_t flops_before = 0;
  int64_t bytes_before = 0;
  TensorOpTotals(&flops_before, &bytes_before);
  const double cpu_before = ProcessCpuSeconds();
  rep.run_start = obs::MonotonicSeconds();
  if (fleet != nullptr) {
    Result<serve::FleetReport> report =
        OnPool(options.threads, [&] { return fleet->Run(); });
    rep.run_end = obs::MonotonicSeconds();
    rep.cpu_s = ProcessCpuSeconds() - cpu_before;
    VDRIFT_RETURN_NOT_OK(report.status());
    const serve::FleetReport& r = report.value();
    rep.fleet = {r.rounds,         r.backpressure_waits, r.models_published,
                 r.models_adopted, r.shard_restarts,     r.publish_rejected};
    for (const serve::StreamReport& stream : r.streams) {
      StreamOutcome outcome;
      outcome.label = stream.label;
      outcome.metrics = stream.metrics;
      outcome.quarantined_frames = stream.quarantined_frames;
      outcome.retired = stream.health == serve::HealthState::kRetired;
      outcome.trained_prefix = stream.label + "." + config.trained_model_prefix;
      rep.streams.push_back(std::move(outcome));
    }
    rep.published = fleet->published().TakeSnapshot();
  } else {
    ReplaySource* source = rep.sources.front().get();
    Result<pipeline::PipelineMetrics> metrics =
        OnPool(options.threads, [&] { return single->Run(source); });
    rep.run_end = obs::MonotonicSeconds();
    rep.cpu_s = ProcessCpuSeconds() - cpu_before;
    VDRIFT_RETURN_NOT_OK(metrics.status());
    StreamOutcome outcome;
    outcome.label = inputs.streams.front().label;
    outcome.metrics = std::move(metrics).value();
    outcome.retired = source->position() >= source->total_frames() &&
                      !single->recovery_pending();
    outcome.trained_prefix = config.trained_model_prefix;
    rep.streams.push_back(std::move(outcome));
  }
  int64_t flops_after = 0;
  int64_t bytes_after = 0;
  TensorOpTotals(&flops_after, &bytes_after);
  rep.tensor_flops = flops_after - flops_before;
  rep.tensor_bytes = bytes_after - bytes_before;
  fleet.reset();
  fs::remove_all(state_dir, ec);
  return rep;
}

std::vector<std::string> CheckOutputs(const WorkloadInputs& inputs,
                                      const RepResult& rep) {
  std::vector<std::string> failures;
  if (rep.streams.size() != inputs.streams.size()) {
    failures.push_back("the run reported " +
                       std::to_string(rep.streams.size()) + " streams, not " +
                       std::to_string(inputs.streams.size()));
    return failures;
  }
  int64_t detections = 0;
  for (size_t i = 0; i < rep.streams.size(); ++i) {
    const StreamOutcome& stream = rep.streams[i];
    const int64_t length =
        static_cast<int64_t>(inputs.streams[i].frames.size());
    const int64_t books = stream.metrics.Totals().count_total +
                          stream.metrics.degradation.frames_dropped +
                          stream.quarantined_frames;
    if (books != length) {
      failures.push_back("stream " + stream.label + ": count_total + dropped" +
                         " + quarantined = " + std::to_string(books) +
                         ", stream length = " + std::to_string(length));
    }
    if (!stream.retired) {
      failures.push_back("stream " + stream.label + " did not retire");
    }
    detections += stream.metrics.drifts_detected;
  }
  if (detections == 0) failures.push_back("no drift was detected");
  if (inputs.unseen_distributions > 0 && rep.models_trained() == 0) {
    failures.push_back("MSBO never signalled trainNewModel");
  }
  return failures;
}

std::string Digest(const RepResult& rep) {
  uint64_t hash = Fnv1a(nullptr, 0);
  for (const StreamOutcome& stream : rep.streams) {
    hash = Fnv1a(stream.label, hash);
    for (const std::string& selection : stream.metrics.selections) {
      hash = Fnv1a(selection, hash);
    }
    for (int64_t frame : stream.metrics.drift_frames) {
      hash = Fnv1a(&frame, sizeof(frame), hash);
    }
    for (const auto& [sequence, accuracy] : stream.metrics.per_sequence) {
      const int64_t fields[3] = {sequence, accuracy.count_correct,
                                 accuracy.count_total};
      hash = Fnv1a(fields, sizeof(fields), hash);
    }
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

}  // namespace vdrift::perfbench
