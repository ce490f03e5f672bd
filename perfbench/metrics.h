#ifndef VDRIFT_PERFBENCH_METRICS_H_
#define VDRIFT_PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace vdrift::perfbench {

/// \brief One reported metric. End-to-end metrics come from untraced runs
/// (`--trace 0`); per-layer metrics from the traced run (`--trace 1`).
struct MetricDef {
  std::string name;
  std::string unit;
  bool per_layer = false;
};

/// Every metric the benchmark reports, in output order. BENCHMARK.json
/// lists the same names and units; run.py checks that they agree.
const std::vector<MetricDef>& MetricTable();

using MetricValues = std::map<std::string, double>;

/// Checks that `values` holds exactly the metrics of one level, each
/// finite; returns one line per problem.
std::vector<std::string> ValidateMetrics(const MetricValues& values,
                                         bool per_layer);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricValues& values, bool per_layer);

/// End-to-end metrics of untraced reps; rep r ran on
/// `variants[r % variants.size()]`. `mem_peak_mb` is measured by the
/// caller around all of them.
MetricValues EndToEndMetrics(const std::vector<WorkloadInputs>& variants,
                             const std::vector<RepResult>& reps,
                             double mem_peak_mb);

/// Frame latencies of one rep, in ms: from each frame's due time to the
/// pipeline's next pull within the same Run call (for the single
/// pipeline's last frame, to the return of Run). A fleet shard's last
/// frame of each slice has no such pull and is left out.
std::vector<double> FrameLatenciesMs(const WorkloadInputs& inputs,
                                     const RepResult& rep);

/// Per-layer metrics read from the traced rep's pull timestamps and
/// reports (pipeline.*, serve.*, load.*, core.calibrations_per_run,
/// tensor.*_per_frame).
MetricValues TimelineMetrics(const WorkloadInputs& inputs,
                             const RepResult& rep);

}  // namespace vdrift::perfbench

#endif  // VDRIFT_PERFBENCH_METRICS_H_
