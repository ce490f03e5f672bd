#ifndef VDRIFT_OBS_REPORT_H_
#define VDRIFT_OBS_REPORT_H_

#include <string>

#include "common/status.h"
#include "obs/episode_trace.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace vdrift::obs {

/// The full metrics report: the registry's counters/gauges/histograms plus
/// the drift-episode trace under an "episodes" key ([] when `episodes` is
/// null) and the SLO watchdog's alert log under an "alerts" key ([] when
/// `watchdog` is null). This is the document the benches emit and
/// tools/check_metrics.sh validates; it asserts the alerts array is empty
/// on clean runs and non-empty under injected faults.
std::string MetricsJson(const MetricsRegistry& registry,
                        const EpisodeRecorder* episodes,
                        const HealthWatchdog* watchdog = nullptr);

/// Writes MetricsJson to `path` (trailing newline included).
Status WriteMetricsJson(const MetricsRegistry& registry,
                        const EpisodeRecorder* episodes,
                        const std::string& path);

/// Watchdog-aware overload of WriteMetricsJson.
Status WriteMetricsJson(const MetricsRegistry& registry,
                        const EpisodeRecorder* episodes,
                        const HealthWatchdog* watchdog,
                        const std::string& path);

}  // namespace vdrift::obs

#endif  // VDRIFT_OBS_REPORT_H_
