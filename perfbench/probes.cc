#include "probes.h"

#include <algorithm>
#include <filesystem>

#include "benchutil/bench_harness.h"
#include "common.h"
#include "core/msbo.h"
#include "core/registry_cow.h"
#include "detect/annotator.h"
#include "detect/image_classifier.h"
#include "nn/layers.h"
#include "obs/timer.h"
#include "pipeline/provision.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"

namespace vdrift::perfbench {

namespace {

using tensor::Tensor;

// Seconds of each of `calls` calls, timed one by one.
template <typename Fn>
std::vector<double> TimeEach(int calls, Fn fn) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const double start = obs::MonotonicSeconds();
    fn(i);
    seconds.push_back(obs::MonotonicSeconds() - start);
  }
  return seconds;
}

// Median over `batches` of the mean per-call seconds of `per_batch`
// calls: for calls too short to time one by one.
template <typename Fn>
double MedianPerCall(int batches, int per_batch, Fn fn) {
  std::vector<double> means;
  int call = 0;
  for (int b = 0; b < batches; ++b) {
    const double start = obs::MonotonicSeconds();
    for (int i = 0; i < per_batch; ++i) fn(call++);
    means.push_back((obs::MonotonicSeconds() - start) / per_batch);
  }
  return Median(means);
}

// Up to `count` of the workload's frames, taken round-robin over its
// streams.
std::vector<const video::Frame*> SampleFrames(const WorkloadInputs& inputs,
                                              size_t count) {
  const size_t wanted =
      std::min(count, static_cast<size_t>(inputs.frames()));
  std::vector<const video::Frame*> frames;
  for (size_t i = 0; frames.size() < wanted; ++i) {
    for (const StreamInput& stream : inputs.streams) {
      if (i < stream.frames.size()) frames.push_back(&stream.frames[i]);
    }
  }
  frames.resize(wanted);
  return frames;
}

// tensor.* and nn.* probes on the three convolutions of the deployed
// count classifier (3x3 kernels, strides 2, 2, 1, padding 1), fed with
// that classifier's own weights and activations for a workload frame.
Status ProbeConvolutions(detect::ImageClassifier* classifier,
                         const Tensor& pixels, MetricValues* m) {
  std::vector<nn::Parameter*> params = classifier->net()->Params();
  if (params.size() < 6) {
    return Status::FailedPrecondition("unexpected classifier layout");
  }
  const int strides[3] = {2, 2, 1};
  Tensor x = pixels;  // [C, H, W]
  stats::Rng rng(7);
  for (int layer = 0; layer < 3; ++layer) {
    const std::string tag = ".c" + std::to_string(layer + 1);
    const Tensor& weight = params[static_cast<size_t>(2 * layer)]->value;
    const Tensor& bias = params[static_cast<size_t>(2 * layer + 1)]->value;
    const int in_c = static_cast<int>(x.shape().dim(0));
    const int in_size = static_cast<int>(x.shape().dim(1));
    const int out_c = static_cast<int>(weight.shape().dim(0));
    const int stride = strides[layer];
    const int out_size = tensor::ConvOutDim(in_size, 3, stride, 1);
    Tensor cols = tensor::Im2Col(x, 3, 3, stride, 1, out_size, out_size);
    const double gemm_flops = 2.0 * static_cast<double>(weight.shape().dim(0)) *
                              static_cast<double>(weight.shape().dim(1)) *
                              static_cast<double>(cols.shape().dim(1));
    const double gemm_s = MedianPerCall(30, 50, [&](int) {
      Tensor out = tensor::Matmul(weight, cols);
      benchutil::DoNotOptimize(out);
    });
    (*m)["tensor.gemm_gflops" + tag] = gemm_flops / gemm_s / 1e9;
    (*m)["tensor.im2col_us" + tag] = 1e6 * MedianPerCall(30, 50, [&](int) {
      Tensor c = tensor::Im2Col(x, 3, 3, stride, 1, out_size, out_size);
      benchutil::DoNotOptimize(c);
    });
    nn::Conv2d conv(in_c, out_c, 3, stride, 1, &rng);
    conv.Params()[0]->value = weight;
    conv.Params()[1]->value = bias;
    const Tensor batch = x.Reshaped(tensor::Shape{1, in_c, in_size, in_size});
    (*m)["nn.conv2d_forward_us" + tag] = 1e6 * MedianPerCall(30, 50, [&](int) {
      Tensor out = conv.Forward(batch);
      benchutil::DoNotOptimize(out);
    });
    // The next layer's input: ReLU(W * cols + b) as [out_c, H', W'].
    Tensor out = tensor::Matmul(weight, cols);
    const int64_t plane = out.shape().dim(1);
    for (int64_t c = 0; c < out_c; ++c) {
      for (int64_t p = 0; p < plane; ++p) {
        float& v = out[c * plane + p];
        v = std::max(0.0f, v + bias[c]);
      }
    }
    x = out.Reshaped(tensor::Shape{out_c, out_size, out_size});
  }
  return Status::OK();
}

}  // namespace

Result<MetricValues> RunProbes(const WorkloadInputs& inputs,
                               const RepResult& rep,
                               const std::string& work_dir) {
  // Inside a fleet every shard's work runs on one pool thread (nested
  // parallel loops run inline), so the probes run single-threaded too.
  runtime::ScopedThreads single_thread(1);
  MetricValues m;
  const benchutil::WorkbenchOptions bench_options =
      BenchWorkbenchOptions(std::string());
  const pipeline::PipelineConfig config = PipelineFor(inputs, bench_options);
  const int classes = config.provision.count_classes;
  const benchutil::Workbench& bench = *rep.bench;

  // The registry the workload starts with.
  select::ModelRegistry base;
  std::vector<std::vector<select::LabeledFrame>> base_samples;
  for (int index : inputs.base_models) {
    base.Add(bench.registry.at(index));
    base_samples.push_back(
        bench.calibration_samples[static_cast<size_t>(index)]);
  }
  const select::ModelEntry& deployed = base.at(config.initial_model);
  auto* classifier =
      dynamic_cast<detect::ImageClassifier*>(deployed.count_model.get());
  if (classifier == nullptr) {
    return Status::FailedPrecondition("the count model is not a classifier");
  }
  const std::vector<const video::Frame*> frames = SampleFrames(inputs, 1000);

  auto frame = [&](int i) -> const tensor::Tensor& {
    return frames[static_cast<size_t>(i) % frames.size()]->pixels;
  };

  // tensor + nn.
  VDRIFT_RETURN_NOT_OK(ProbeConvolutions(classifier, frame(0), &m));
  for (int i = 0; i < 20; ++i) classifier->Predict(frame(i));
  constexpr int kAllocCalls = 200;
  CountAllocations(true);
  const int64_t allocs_before = AllocationCount();
  for (int i = 0; i < kAllocCalls; ++i) classifier->Predict(frame(i));
  const int64_t allocs = AllocationCount() - allocs_before;
  CountAllocations(false);
  m["nn.allocs_per_predict"] = static_cast<double>(allocs) / kAllocCalls;

  // detect.
  std::vector<double> predict_s =
      TimeEach(static_cast<int>(frames.size()), [&](int i) {
        benchutil::DoNotOptimize(classifier->Predict(frame(i)));
      });
  m["detect.predict_us_p50"] = 1e6 * Percentile(predict_s, 50.0);
  m["detect.predict_us_p99"] = 1e6 * Percentile(predict_s, 99.0);
  detect::OracleAnnotator oracle(0);  // the pipeline's annotator
  m["detect.annotate_us"] = 1e6 * MedianPerCall(20, 200, [&](int i) {
    video::FrameTruth truth =
        oracle.Annotate(*frames[static_cast<size_t>(i) % frames.size()]);
    benchutil::DoNotOptimize(truth);
  });

  // vae.
  stats::Rng encode_rng(11);
  m["vae.encode_us"] = 1e6 * MedianPerCall(20, 40, [&](int i) {
    std::vector<float> latent =
        deployed.profile->EncodeSampled(frame(i), &encode_rng);
    benchutil::DoNotOptimize(latent);
  });

  // core: DI on each stream's opening (in-distribution) segment.
  std::vector<double> observe_s;
  for (const StreamInput& stream : inputs.streams) {
    conformal::DriftInspector inspector(deployed.profile.get(), config.di,
                                        config.seed);
    const int64_t end = stream.change_points.empty()
                            ? static_cast<int64_t>(stream.frames.size())
                            : stream.change_points.front();
    std::vector<double> s = TimeEach(static_cast<int>(end), [&](int i) {
      auto observation =
          inspector.TryObserve(stream.frames[static_cast<size_t>(i)].pixels);
      benchutil::DoNotOptimize(observation);
    });
    observe_s.insert(observe_s.end(), s.begin(), s.end());
  }
  m["core.di_observe_us_p50"] = 1e6 * Percentile(observe_s, 50.0);
  m["core.di_observe_us_p99"] = 1e6 * Percentile(observe_s, 99.0);

  double start = obs::MonotonicSeconds();
  VDRIFT_ASSIGN_OR_RETURN(select::MsboCalibration calibration,
                          select::CalibrateMsbo(base, base_samples));
  m["core.calibrate_msbo_ms"] = 1e3 * (obs::MonotonicSeconds() - start);

  // MSBO on recovery windows cut at the true change points.
  std::vector<std::vector<select::LabeledFrame>> windows;
  for (const StreamInput& stream : inputs.streams) {
    for (int64_t change : stream.change_points) {
      if (windows.size() >= 16) break;
      if (change + kRecoveryWindow > static_cast<int64_t>(stream.frames.size())) {
        continue;
      }
      std::vector<select::LabeledFrame> window;
      for (int64_t i = change; i < change + kRecoveryWindow; ++i) {
        const video::Frame& frame = stream.frames[static_cast<size_t>(i)];
        window.push_back({frame.pixels,
                          detect::CountLabel(oracle.Annotate(frame), classes)});
      }
      windows.push_back(std::move(window));
    }
  }
  select::Msbo msbo(&base, calibration, config.msbo);
  std::vector<double> select_s =
      TimeEach(static_cast<int>(windows.size()), [&](int i) {
        auto selection = msbo.Select(windows[static_cast<size_t>(i)]);
        benchutil::DoNotOptimize(selection);
      });
  m["core.msbo_select_ms"] = select_s.empty() ? 0.0 : 1e3 * Median(select_s);
  m["core.ensemble_brier_ms"] = 1e3 * Median(TimeEach(5, [&](int) {
    benchutil::DoNotOptimize(
        deployed.ensemble->AverageBrier(base_samples.front()));
  }));
  m["core.clone_entry_ms"] = 1e3 * Median(TimeEach(5, [&](int) {
    auto clone = select::CloneModelEntry(deployed);
    benchutil::DoNotOptimize(clone);
  }));

  // The registry the run ended with (fleets grow it by publication).
  select::ModelRegistry grown;
  std::vector<std::vector<select::LabeledFrame>> grown_samples;
  if (rep.published != nullptr) {
    for (const select::PublishedModel& published : *rep.published) {
      VDRIFT_ASSIGN_OR_RETURN(select::ModelEntry clone,
                              select::CloneModelEntry(published.entry));
      grown.Add(std::move(clone));
      grown_samples.push_back(published.calibration_sample);
    }
  } else {
    grown = base;
    grown_samples = base_samples;
  }
  start = obs::MonotonicSeconds();
  VDRIFT_RETURN_NOT_OK(select::CalibrateMsbo(grown, grown_samples).status());
  m["core.calibrate_msbo_grown_ms"] = 1e3 * (obs::MonotonicSeconds() - start);

  // pipeline: trainNewModel's provisioning (fleet_adapt's recipe) on the
  // first window after the earliest true change of any stream.
  const StreamInput* first = &inputs.streams.front();
  for (const StreamInput& stream : inputs.streams) {
    if (stream.change_points.front() < first->change_points.front()) {
      first = &stream;
    }
  }
  const auto begin = first->frames.begin() + first->change_points.front();
  const std::vector<video::Frame> window(
      begin, begin + std::min<int64_t>(kNewModelWindow,
                                       first->frames.end() - begin));
  stats::Rng rng(config.seed);
  start = obs::MonotonicSeconds();
  VDRIFT_RETURN_NOT_OK(pipeline::ProvisionModel(
                           "probe", window, TrainingRecipe(bench_options), &rng)
                           .status());
  m["pipeline.provision_model_s"] = obs::MonotonicSeconds() - start;

  // pipeline: a mid-stream checkpoint of one pipeline.
  pipeline::PipelineConfig probe_config = config;
  probe_config.allow_training_new = false;
  pipeline::DriftAwarePipeline pipe(&base, base_samples, probe_config);
  ReplaySource source(&inputs.streams.front().frames, ReplaySource::Options{});
  pipeline::RunOptions slice;
  slice.max_frames = std::min<int64_t>(2 * kSliceFrames, source.total_frames());
  VDRIFT_RETURN_NOT_OK(pipe.Run(&source, slice).status());
  std::filesystem::create_directories(work_dir);
  const std::string path = work_dir + "/probe.ckpt";
  std::vector<double> checkpoint_s;
  for (int i = 0; i < 5; ++i) {
    start = obs::MonotonicSeconds();
    VDRIFT_RETURN_NOT_OK(pipe.Checkpoint(path, source));
    checkpoint_s.push_back(obs::MonotonicSeconds() - start);
  }
  m["pipeline.checkpoint_ms"] = 1e3 * Median(checkpoint_s);
  m["pipeline.checkpoint_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
  return m;
}

}  // namespace vdrift::perfbench
