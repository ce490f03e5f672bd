#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common.h"
#include "obs/json.h"

namespace vdrift::perfbench {

namespace {

bool Finite(double value) { return std::isfinite(value); }

// Frames i and i + 1 were pulled in the same Run call: always for the
// single pipeline, within one slice for a fleet shard.
bool SameCall(const WorkloadInputs& inputs, int64_t i) {
  return !inputs.fleet() || (i + 1) % kSliceFrames != 0;
}

// Name of the distribution of frame `index` of `stream`.
const std::string& TrueDistribution(const StreamInput& stream,
                                    int64_t index) {
  const int sequence =
      stream.frames[static_cast<size_t>(index)].truth.sequence_id;
  return stream.segments[static_cast<size_t>(sequence)].spec.name;
}

// Matches true changes to detections: a change is caught by the first
// detection before the next change, and its lag is that detection's lag.
// Later detections in the same segment follow a wrong selection, not the
// change. Returns the number of true changes.
int64_t MatchChanges(const StreamInput& input,
                     const pipeline::PipelineMetrics& metrics,
                     std::vector<double>* lags) {
  const int64_t length = static_cast<int64_t>(input.frames.size());
  for (size_t c = 0; c < input.change_points.size(); ++c) {
    const int64_t begin = input.change_points[c];
    const int64_t end = c + 1 < input.change_points.size()
                            ? input.change_points[c + 1]
                            : length;
    auto first = std::find_if(
        metrics.drift_frames.begin(), metrics.drift_frames.end(),
        [&](int64_t d) { return d >= begin && d < end; });
    if (first == metrics.drift_frames.end()) continue;
    const size_t k =
        static_cast<size_t>(first - metrics.drift_frames.begin());
    lags->push_back(static_cast<double>(metrics.detect_lags[k]));
  }
  return static_cast<int64_t>(input.change_points.size());
}

}  // namespace

const std::vector<MetricDef>& MetricTable() {
  static const std::vector<MetricDef> table = [] {
    std::vector<MetricDef> t = {
        {"fps", "frames/s"},
        {"cpu_ms_per_frame", "ms"},
        {"frame_latency_p95_ms", "ms"},
        {"count_aq", "fraction"},
        {"drifts_caught_share", "fraction"},
        {"invocations_per_frame", "count"},
        {"frames_served_share", "fraction"},
        {"setup_s", "s"},
        {"mem_peak_mb", "MB"},
    };
    const std::vector<std::pair<std::string, std::string>> layer = {
        {"tensor.gemm_gflops.c1", "GFLOP/s"},
        {"tensor.gemm_gflops.c2", "GFLOP/s"},
        {"tensor.gemm_gflops.c3", "GFLOP/s"},
        {"tensor.im2col_us.c1", "us"},
        {"tensor.im2col_us.c2", "us"},
        {"tensor.im2col_us.c3", "us"},
        {"tensor.flops_per_frame", "FLOP"},
        {"tensor.bytes_per_frame", "bytes"},
        {"nn.conv2d_forward_us.c1", "us"},
        {"nn.conv2d_forward_us.c2", "us"},
        {"nn.conv2d_forward_us.c3", "us"},
        {"nn.allocs_per_predict", "count"},
        {"detect.predict_us_p50", "us"},
        {"detect.predict_us_p99", "us"},
        {"detect.annotate_us", "us"},
        {"vae.encode_us", "us"},
        {"core.di_observe_us_p50", "us"},
        {"core.di_observe_us_p99", "us"},
        {"core.msbo_select_ms", "ms"},
        {"core.ensemble_brier_ms", "ms"},
        {"core.calibrate_msbo_ms", "ms"},
        {"core.calibrate_msbo_grown_ms", "ms"},
        {"core.calibrations_per_run", "count"},
        {"core.detect_lag_frames", "frames"},
        {"core.clone_entry_ms", "ms"},
        {"pipeline.frame_service_us_p50", "us"},
        {"pipeline.frame_service_us_p99", "us"},
        {"pipeline.select_stall_ms_p50", "ms"},
        {"pipeline.select_stall_ms_max", "ms"},
        {"pipeline.train_stall_s", "s"},
        {"pipeline.provision_model_s", "s"},
        {"pipeline.checkpoint_ms", "ms"},
        {"pipeline.checkpoint_bytes", "bytes"},
        {"pipeline.selection_hit_share", "fraction"},
        {"serve.round_ms_p50", "ms"},
        {"serve.round_ms_p99", "ms"},
        {"serve.thread_busy_share", "fraction"},
        {"serve.shard_skew", "ratio"},
        {"serve.rounds", "count"},
        {"serve.backpressure_waits", "count"},
        {"serve.models_trained", "count"},
        {"serve.models_published", "count"},
        {"serve.models_adopted", "count"},
        {"serve.publish_rejected", "count"},
        {"serve.trainings_per_novel_distribution", "ratio"},
        {"runtime.speedup_4v1", "ratio"},
        {"load.gen_late_ms_p99", "ms"},
        {"load.frame_latency_p50_ms", "ms"},
        {"load.frame_latency_p99_ms", "ms"},
        {"load.latency_samples", "count"},
        {"trace.overhead_cpu_ms_per_frame", "ms"},
    };
    for (const auto& [name, unit] : layer) t.push_back({name, unit, true});
    return t;
  }();
  return table;
}

std::vector<std::string> ValidateMetrics(const MetricValues& values,
                                         bool per_layer) {
  std::vector<std::string> problems;
  std::set<std::string> expected;
  for (const MetricDef& def : MetricTable()) {
    if (def.per_layer != per_layer) continue;
    expected.insert(def.name);
    auto it = values.find(def.name);
    if (it == values.end()) {
      problems.push_back("metric " + def.name + " was not measured");
    } else if (!Finite(it->second)) {
      problems.push_back("metric " + def.name + " is not finite");
    }
  }
  for (const auto& [name, value] : values) {
    if (expected.count(name) == 0) {
      problems.push_back("metric " + name + " is not in the table");
    }
  }
  return problems;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricValues& values, bool per_layer) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : MetricTable()) {
    if (def.per_layer != per_layer) continue;
    auto it = values.find(def.name);
    double value = it != values.end() && Finite(it->second) ? it->second : 0.0;
    char number[40];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + obs::json::Escape(def.name) + "\": {\"value\": " + number +
           ", \"unit\": \"" + obs::json::Escape(def.unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<double> FrameLatenciesMs(const WorkloadInputs& inputs,
                                     const RepResult& rep) {
  std::vector<double> latencies;
  for (const auto& source : rep.sources) {
    const int64_t n = source->total_frames();
    for (int64_t i = 0; i < n; ++i) {
      const double due = source->due(i);
      if (std::isnan(due)) continue;  // never pulled (self-test skip)
      double next = source->called()[static_cast<size_t>(i + 1)];
      if (i + 1 == n && std::isnan(next) && !inputs.fleet()) {
        next = rep.run_end;
      }
      // A fleet shard's last frame of a slice completes inside the
      // fleet's Run call, where no pull observes it.
      if (!SameCall(inputs, i) || std::isnan(next)) continue;
      latencies.push_back((next - due) * 1e3);
    }
  }
  return latencies;
}

MetricValues EndToEndMetrics(const std::vector<WorkloadInputs>& variants,
                             const std::vector<RepResult>& reps,
                             double mem_peak_mb) {
  MetricValues m;
  std::vector<double> fps;
  std::vector<double> cpu_ms;
  std::vector<double> setup;
  std::vector<double> latencies;
  int64_t offered = 0;
  int64_t served = 0;
  for (size_t r = 0; r < reps.size(); ++r) {
    const RepResult& rep = reps[r];
    fps.push_back(rep.fps());
    cpu_ms.push_back(rep.cpu_ms_per_frame());
    setup.push_back(rep.setup_s);
    std::vector<double> rep_latencies =
        FrameLatenciesMs(variants[r % variants.size()], rep);
    latencies.insert(latencies.end(), rep_latencies.begin(),
                     rep_latencies.end());
    offered += variants[r % variants.size()].frames();
    served += rep.frames_served();
  }
  m["fps"] = Median(fps);
  m["cpu_ms_per_frame"] = Median(cpu_ms);
  m["frame_latency_p95_ms"] = Percentile(latencies, 95.0);
  m["setup_s"] = Median(setup);
  m["mem_peak_mb"] = mem_peak_mb;
  m["frames_served_share"] =
      static_cast<double>(served) / static_cast<double>(offered);

  // Quality pools the first rep of every variant; later reps replay the
  // same inputs (the digest check proves they agree).
  pipeline::SequenceAccuracy pooled;
  std::vector<double> lags;
  int64_t changes = 0;
  for (size_t v = 0; v < variants.size() && v < reps.size(); ++v) {
    const RepResult& rep = reps[v];
    for (size_t s = 0; s < rep.streams.size(); ++s) {
      const pipeline::PipelineMetrics& metrics = rep.streams[s].metrics;
      const pipeline::SequenceAccuracy totals = metrics.Totals();
      pooled.count_correct += totals.count_correct;
      pooled.count_total += totals.count_total;
      pooled.predicate_total += totals.predicate_total;
      pooled.invocations += totals.invocations;
      changes += MatchChanges(variants[v].streams[s], metrics, &lags);
    }
  }
  m["count_aq"] = pooled.CountAq();
  m["invocations_per_frame"] = pooled.InvocationsPerFrame();
  m["drifts_caught_share"] = static_cast<double>(lags.size()) /
                             static_cast<double>(std::max<int64_t>(1, changes));
  return m;
}

MetricValues TimelineMetrics(const WorkloadInputs& inputs,
                             const RepResult& rep) {
  MetricValues m;
  const double served = static_cast<double>(rep.frames_served());
  m["tensor.flops_per_frame"] = static_cast<double>(rep.tensor_flops) / served;
  m["tensor.bytes_per_frame"] = static_cast<double>(rep.tensor_bytes) / served;

  std::vector<double> service_us;
  double busy_s = 0.0;
  std::vector<double> select_stalls_ms;
  std::vector<double> train_stalls_s;
  std::vector<double> late_ms;
  int64_t selections = 0;
  int64_t hits = 0;
  // Trained model name -> the distribution it was trained on (any stream
  // may select a model another stream trained).
  std::map<std::string, std::string> trained_for;
  for (size_t s = 0; s < rep.streams.size(); ++s) {
    const pipeline::PipelineMetrics& metrics = rep.streams[s].metrics;
    const int64_t last =
        static_cast<int64_t>(inputs.streams[s].frames.size()) - 1;
    for (size_t k = 0; k < metrics.selections.size(); ++k) {
      const std::string& selected = metrics.selections[k];
      if (selected.rfind(rep.streams[s].trained_prefix, 0) != 0) continue;
      // The first selection of a model its own stream named is its training.
      trained_for.emplace(
          selected, TrueDistribution(inputs.streams[s],
                                     std::min(metrics.drift_frames[k] +
                                                  kRecoveryWindow,
                                              last)));
    }
  }
  for (size_t s = 0; s < rep.streams.size(); ++s) {
    const ReplaySource& source = *rep.sources[s];
    const std::vector<double>& called = source.called();
    const std::vector<double>& released = source.released();
    const int64_t n = source.total_frames();
    auto gap = [&](int64_t i) {  // pull of i + 1 after the hand-over of i
      return called[static_cast<size_t>(i + 1)] -
             released[static_cast<size_t>(i)];
    };
    for (int64_t i = 0; i + 1 < n; ++i) {
      if (!SameCall(inputs, i)) continue;
      const double g = gap(i);
      if (std::isnan(g)) continue;
      service_us.push_back(g * 1e6);
      busy_s += g;
    }
    if (source.open_loop()) {
      for (int64_t i = 0; i < n; ++i) {
        const double due = source.due(i);
        if (called[static_cast<size_t>(i)] < due) {
          late_ms.push_back((released[static_cast<size_t>(i)] - due) * 1e3);
        }
      }
    }
    const StreamOutcome& outcome = rep.streams[s];
    const StreamInput& input = inputs.streams[s];
    const pipeline::PipelineMetrics& metrics = outcome.metrics;
    std::set<std::string> own_models;
    for (size_t k = 0; k < metrics.selections.size(); ++k) {
      const int64_t window_end =
          metrics.drift_frames[k] + kRecoveryWindow;  // last window frame
      if (window_end + 1 < n && SameCall(inputs, window_end)) {
        select_stalls_ms.push_back(gap(window_end) * 1e3);
      }
      const std::string& selected = metrics.selections[k];
      const int64_t judged = std::min(window_end, n - 1);
      const std::string& truth = TrueDistribution(input, judged);
      // The stream's first selection of a model it named is the training.
      if (selected.rfind(outcome.trained_prefix, 0) == 0 &&
          own_models.insert(selected).second) {
        const int64_t training_end = metrics.drift_frames[k] + kNewModelWindow;
        if (training_end + 1 < n) train_stalls_s.push_back(gap(training_end));
      }
      ++selections;
      auto learned = trained_for.find(selected);
      const std::string& meant =
          learned != trained_for.end() ? learned->second : selected;
      if (meant == truth) ++hits;
    }
  }
  std::vector<double> lags;
  for (size_t s = 0; s < rep.streams.size(); ++s) {
    MatchChanges(inputs.streams[s], rep.streams[s].metrics, &lags);
  }
  m["core.detect_lag_frames"] = lags.empty() ? 0.0 : Mean(lags);
  m["pipeline.frame_service_us_p50"] = Percentile(service_us, 50.0);
  m["pipeline.frame_service_us_p99"] = Percentile(service_us, 99.0);
  m["serve.thread_busy_share"] =
      busy_s / (static_cast<double>(rep.threads) * rep.run_seconds());
  m["pipeline.select_stall_ms_p50"] =
      select_stalls_ms.empty() ? 0.0 : Median(select_stalls_ms);
  m["pipeline.select_stall_ms_max"] =
      select_stalls_ms.empty()
          ? 0.0
          : *std::max_element(select_stalls_ms.begin(), select_stalls_ms.end());
  m["pipeline.train_stall_s"] =
      train_stalls_s.empty() ? 0.0 : Median(train_stalls_s);
  m["pipeline.selection_hit_share"] =
      selections == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(selections);
  m["load.gen_late_ms_p99"] = late_ms.empty() ? 0.0 : Percentile(late_ms, 99.0);
  const std::vector<double> latencies = FrameLatenciesMs(inputs, rep);
  m["load.frame_latency_p50_ms"] = Percentile(latencies, 50.0);
  m["load.frame_latency_p99_ms"] = Percentile(latencies, 99.0);
  m["load.latency_samples"] = static_cast<double>(latencies.size());

  // Rounds: each pull carries the fleet round it ran in.
  std::map<int64_t, double> round_start;
  std::map<int64_t, std::vector<double>> slice_spans;
  for (const auto& source : rep.sources) {
    std::map<int64_t, std::pair<double, double>> span;  // round -> first, last
    for (int64_t i = 0; i < source->total_frames(); ++i) {
      const int64_t round = source->rounds()[static_cast<size_t>(i)];
      const double t = source->called()[static_cast<size_t>(i)];
      if (round < 0 || std::isnan(t)) continue;
      auto it = round_start.find(round);
      if (it == round_start.end() || t < it->second) round_start[round] = t;
      auto [pos, inserted] = span.try_emplace(round, t, t);
      if (!inserted) pos->second.second = t;
    }
    for (const auto& [round, first_last] : span) {
      slice_spans[round].push_back(first_last.second - first_last.first);
    }
  }
  std::vector<double> round_ms;
  for (auto it = round_start.begin(); it != round_start.end(); ++it) {
    auto next = std::next(it);
    if (next != round_start.end()) {
      round_ms.push_back((next->second - it->second) * 1e3);
    }
  }
  std::vector<double> skews;
  for (const auto& [round, spans] : slice_spans) {
    const double mean = Mean(spans);
    if (spans.size() < 2 || mean <= 0.0) continue;
    skews.push_back(*std::max_element(spans.begin(), spans.end()) / mean);
  }
  m["serve.round_ms_p50"] = round_ms.empty() ? 0.0 : Percentile(round_ms, 50);
  m["serve.round_ms_p99"] = round_ms.empty() ? 0.0 : Percentile(round_ms, 99);
  m["serve.shard_skew"] = skews.empty() ? 0.0 : Median(skews);

  const FleetCounts& fleet = rep.fleet;
  const int64_t trained = rep.models_trained();
  m["serve.rounds"] = static_cast<double>(fleet.rounds);
  m["serve.backpressure_waits"] = static_cast<double>(fleet.backpressure_waits);
  m["serve.models_trained"] = static_cast<double>(trained);
  m["serve.models_published"] = static_cast<double>(fleet.models_published);
  m["serve.models_adopted"] = static_cast<double>(fleet.models_adopted);
  m["serve.publish_rejected"] = static_cast<double>(fleet.publish_rejected);
  m["serve.trainings_per_novel_distribution"] =
      inputs.unseen_distributions == 0
          ? 0.0
          : static_cast<double>(trained) / inputs.unseen_distributions;
  // One calibration per pipeline at its first Run, one per training, one
  // per adoption and one per shard rebuild.
  m["core.calibrations_per_run"] = static_cast<double>(
      static_cast<int64_t>(rep.streams.size()) + trained +
      fleet.models_adopted + fleet.shard_restarts);
  return m;
}

}  // namespace vdrift::perfbench
