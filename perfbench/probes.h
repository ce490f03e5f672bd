#ifndef VDRIFT_PERFBENCH_PROBES_H_
#define VDRIFT_PERFBENCH_PROBES_H_

#include <string>

#include "metrics.h"
#include "workloads.h"

namespace vdrift::perfbench {

/// Times each layer's public entry points, call by call, on the
/// workload's own frames, models and recovery windows (`rep` is the
/// traced rep: its workbench and, for fleets, the registry it grew).
/// Produces the tensor.*, nn.*, detect.*, vae.* and core.* probe metrics
/// plus pipeline.provision_model_s and pipeline.checkpoint_*. Temporary
/// files go under `work_dir`.
Result<MetricValues> RunProbes(const WorkloadInputs& inputs,
                               const RepResult& rep,
                               const std::string& work_dir);

}  // namespace vdrift::perfbench

#endif  // VDRIFT_PERFBENCH_PROBES_H_
