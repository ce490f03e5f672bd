// vbench: the VDrift benchmark program (see README.md).
//
//   vbench prepare  --cache DIR
//   vbench run      --workload NAME --seed N --seconds S --trace 0|1
//                   [--cache DIR] [--work DIR] [--rev REV]
//   vbench selftest [--cache DIR] [--work DIR]
//
// `run` prints human-readable lines, then one JSON result line last.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "benchutil/ledger.h"
#include "common.h"
#include "metrics.h"
#include "obs/json.h"
#include "obs/timer.h"
#include "probes.h"
#include "workloads.h"

extern char** environ;

namespace vdrift::perfbench {
namespace {

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string cache_dir = ".bench_build/cache";
  std::string work_dir = ".bench_build/work";
  std::string rev = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--cache") {
      args->cache_dir = value;
    } else if (flag == "--work") {
      args->work_dir = value;
    } else if (flag == "--rev") {
      args->rev = value;
    } else {
      return false;
    }
  }
  return true;
}

// \brief What one `run` measured and checked.
struct RunOutcome {
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricValues metrics;
  bool per_layer = false;
  bool correct() const { return failures.empty(); }
};

void Account(const WorkloadInputs& inputs, const RepResult& rep,
             const std::string& tag, RunOutcome* outcome) {
  for (const std::string& failure : CheckOutputs(inputs, rep)) {
    outcome->failures.push_back(tag + ": " + failure);
  }
  outcome->attempted += inputs.frames();
  outcome->failed += inputs.frames() - rep.frames_served();
}

// Untraced: set up and run the workload again and again, cycling over
// its input variants, until `seconds` are spent and every variant ran at
// least once; report medians.
Result<RunOutcome> RunUntraced(const std::vector<WorkloadInputs>& variants,
                               const RepOptions& options, double seconds) {
  RunOutcome outcome;
  const double rss_base = CurrentRssMb();
  const double start = obs::MonotonicSeconds();
  std::vector<RepResult> reps;
  while (true) {
    const double rep_start = obs::MonotonicSeconds();
    const size_t r = reps.size();
    const WorkloadInputs& inputs = variants[r % variants.size()];
    VDRIFT_ASSIGN_OR_RETURN(RepResult rep, RunRep(inputs, options));
    const std::string tag = "rep " + std::to_string(r);
    Account(inputs, rep, tag, &outcome);
    const std::string digest = Digest(rep);
    std::printf("%s: variant %zu, setup %.3f s, run %.3f s, %lld frames, "
                "digest %s\n",
                tag.c_str(), r % variants.size(), rep.setup_s,
                rep.run_seconds(), static_cast<long long>(rep.frames_served()),
                digest.c_str());
    if (r >= variants.size() && digest != Digest(reps[r - variants.size()])) {
      outcome.failures.push_back(tag + ": digest differs from rep " +
                                 std::to_string(r - variants.size()) +
                                 " on the same inputs");
    }
    // Keep what the metrics read; drop the models and the registry so
    // the peak RSS does not grow with the number of reps.
    rep.bench.reset();
    rep.published.reset();
    reps.push_back(std::move(rep));
    const double now = obs::MonotonicSeconds();
    if (reps.size() >= variants.size() &&
        (now - start) + (now - rep_start) > seconds) {
      break;
    }
    if (reps.size() >= 50) break;
  }
  outcome.metrics = EndToEndMetrics(variants, reps, PeakRssMb() - rss_base);
  size_t samples = 0;
  for (size_t r = 0; r < reps.size(); ++r) {
    samples += FrameLatenciesMs(variants[r % variants.size()], reps[r]).size();
  }
  std::printf("frame latency percentiles pool %zu frames over %zu reps; "
              "%zu lie beyond p95\n",
              samples, reps.size(), samples / 20);
  return outcome;
}

// Traced: one untraced rep as the overhead reference, one traced rep
// (pull timestamps tagged by round), the 1-thread baseline for
// fleet_steady, then the layer probes on the traced rep's models.
Result<RunOutcome> RunTraced(const WorkloadInputs& inputs,
                             const RepOptions& options) {
  RunOutcome outcome;
  outcome.per_layer = true;
  VDRIFT_ASSIGN_OR_RETURN(RepResult untraced, RunRep(inputs, options));
  Account(inputs, untraced, "untraced rep", &outcome);
  RepOptions traced_options = options;
  traced_options.tag_rounds = true;
  VDRIFT_ASSIGN_OR_RETURN(RepResult traced, RunRep(inputs, traced_options));
  Account(inputs, traced, "traced rep", &outcome);
  const std::string digest = Digest(traced);
  std::printf("digest %s (threads %d)\n", digest.c_str(), traced.threads);
  if (digest != Digest(untraced)) {
    outcome.failures.push_back("the traced rep's digest differs");
  }
  MetricValues& m = outcome.metrics;
  m = TimelineMetrics(inputs, traced);
  m["runtime.speedup_4v1"] = 0.0;
  if (inputs.workload == Workload::kFleetSteady) {
    RepOptions one_thread = traced_options;
    one_thread.threads = 1;
    VDRIFT_ASSIGN_OR_RETURN(RepResult baseline, RunRep(inputs, one_thread));
    Account(inputs, baseline, "1-thread rep", &outcome);
    const std::string baseline_digest = Digest(baseline);
    std::printf("digest %s (threads 1)\n", baseline_digest.c_str());
    if (baseline_digest != digest) {
      outcome.failures.push_back("digest differs between 1 and " +
                                 std::to_string(traced.threads) + " threads");
    }
    m["runtime.speedup_4v1"] = traced.fps() / baseline.fps();
  }
  m["trace.overhead_cpu_ms_per_frame"] =
      traced.cpu_ms_per_frame() - untraced.cpu_ms_per_frame();
  VDRIFT_ASSIGN_OR_RETURN(MetricValues probes,
                          RunProbes(inputs, traced, options.work_dir));
  m.insert(probes.begin(), probes.end());
  return outcome;
}

// Renders the inputs (one variant for the traced run), then measures.
Result<RunOutcome> Execute(Workload workload, const Args& args,
                           const RepOptions& options, bool tiny) {
  std::vector<WorkloadInputs> variants;
  const int count = args.trace != 0 || tiny ? 1 : VariantCount(workload);
  for (int v = 0; v < count; ++v) {
    variants.push_back(MakeInputs(workload, args.seed, v, tiny));
  }
  const WorkloadInputs& inputs = variants.front();
  std::printf("workload %s: %zu streams, %lld frames per variant, %d "
              "variants, %s\n",
              args.workload.c_str(), inputs.streams.size(),
              static_cast<long long>(inputs.frames()), count,
              inputs.rate_fps > 0.0 ? "open loop" : "closed loop");
  Result<RunOutcome> outcome =
      args.trace != 0 ? RunTraced(inputs, options)
                      : RunUntraced(variants, options, args.seconds);
  if (!outcome.ok()) return outcome;
  RunOutcome& o = outcome.value();
  for (const std::string& problem : ValidateMetrics(o.metrics, o.per_layer)) {
    o.failures.push_back(problem);
  }
  return outcome;
}

void PrintMetrics(const RunOutcome& outcome) {
  for (const MetricDef& def : MetricTable()) {
    if (def.per_layer != outcome.per_layer) continue;
    auto it = outcome.metrics.find(def.name);
    if (it == outcome.metrics.end()) continue;
    std::printf("  %-40s %16.6g %s\n", def.name.c_str(), it->second,
                def.unit.c_str());
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
}

std::string Provenance(const Args& args) {
  std::string env = "{";
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "VDRIFT_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    env += env.size() > 1 ? "," : "";
    env += "\"" + obs::json::Escape(std::string(*e, static_cast<size_t>(eq - *e))) + "\":\"" +
           obs::json::Escape(eq + 1) + "\"";
  }
  env += "}";
  return "{\"machine\":" + benchutil::MachineFingerprint::Detect().ToJson() +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"git_rev\":\"" + obs::json::Escape(args.rev) + "\"" +
         ",\"workload\":\"" + obs::json::Escape(args.workload) + "\"" +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"seconds\":" + std::to_string(args.seconds) +
         ",\"trace\":" + std::to_string(args.trace) + ",\"env\":" + env + "}";
}

int Prepare(const Args& args) {
  std::string report = "{";
  for (const char* name : {"Tokyo", "BDD", "Detrac"}) {
    const double start = obs::MonotonicSeconds();
    auto bench =
        benchutil::BuildWorkbench(name, BenchWorkbenchOptions(args.cache_dir));
    if (!bench.ok()) {
      std::fprintf(stderr, "prepare %s: %s\n", name,
                   bench.status().ToString().c_str());
      return 1;
    }
    const double seconds = obs::MonotonicSeconds() - start;
    const bool warm = bench.value()->loaded_from_cache;
    std::printf("prepare %s: %s in %.2f s\n", name,
                warm ? "warm cache loaded" : "cold provisioning", seconds);
    report += std::string(report.size() > 1 ? "," : "") + "\"" + name +
              "\":{\"seconds\":" + std::to_string(seconds) +
              ",\"cold\":" + (warm ? "false" : "true") + "}";
  }
  report += "}";
  std::ofstream out(args.cache_dir + "/prepared.json");
  out << report << "\n";
  return out.good() ? 0 : 1;
}

int RunCommand(const Args& args) {
  Result<Workload> workload = ParseWorkload(args.workload);
  if (!workload.ok() || (args.trace != 0 && args.trace != 1) ||
      !(args.seconds > 0.0)) {
    std::fprintf(stderr, "bad arguments: %s\n",
                 workload.ok() ? "--trace must be 0 or 1, --seconds > 0"
                               : workload.status().ToString().c_str());
    return 2;
  }
  // The workload's thread count is part of its definition.
  setenv("VDRIFT_THREADS",
         std::to_string(WorkloadThreads(workload.value())).c_str(), 1);
  std::printf("provenance %s\n", Provenance(args).c_str());
  RepOptions options;
  options.cache_dir = args.cache_dir;
  options.work_dir = args.work_dir;
  Result<RunOutcome> outcome =
      Execute(workload.value(), args, options, /*tiny=*/false);
  if (!outcome.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  const RunOutcome& o = outcome.value();
  PrintMetrics(o);
  std::printf("%s\n", ResultJson(o.correct(), o.attempted, o.failed,
                                 o.metrics, o.per_layer)
                          .c_str());
  return o.correct() ? 0 : 1;
}

// Tiny runs of every workload at both trace levels, then broken inputs
// that the output checks must catch.
int SelfTest(const Args& base_args) {
  int problems = 0;
  auto fail = [&](const std::string& what) {
    std::printf("SELFTEST FAILED: %s\n", what.c_str());
    ++problems;
  };
  RepOptions options;
  options.cache_dir = base_args.cache_dir;
  options.work_dir = base_args.work_dir;
  for (Workload workload : {Workload::kFleetSteady, Workload::kStreamLive,
                            Workload::kFleetAdapt}) {
    options.threads = WorkloadThreads(workload);
    for (int trace : {0, 1}) {
      Args args = base_args;
      args.workload = WorkloadName(workload);
      args.trace = trace;
      args.seconds = 1e-3;  // a single rep
      const std::string tag = args.workload + " trace " + std::to_string(trace);
      Result<RunOutcome> outcome = Execute(workload, args, options, true);
      if (!outcome.ok()) {
        fail(tag + ": " + outcome.status().ToString());
        continue;
      }
      const RunOutcome& o = outcome.value();
      for (const std::string& failure : o.failures) fail(tag + ": " + failure);
      std::printf("selftest-result %s %d %s\n", args.workload.c_str(), trace,
                  ResultJson(o.correct(), o.attempted, o.failed, o.metrics,
                             o.per_layer)
                      .c_str());
    }
  }
  // A source that silently skips a frame must fail the books check.
  for (Workload workload : {Workload::kFleetSteady, Workload::kStreamLive}) {
    const WorkloadInputs inputs = MakeInputs(workload, 1, 0, true);
    RepOptions broken = options;
    broken.threads = inputs.threads;
    broken.skip_frame = 5;
    Result<RepResult> rep = RunRep(inputs, broken);
    const std::string tag = WorkloadName(workload) + " with a skipped frame";
    if (!rep.ok()) {
      fail(tag + ": " + rep.status().ToString());
      continue;
    }
    bool caught = false;
    for (const std::string& failure : CheckOutputs(inputs, rep.value())) {
      std::printf("%s: check fired as expected: %s\n", tag.c_str(),
                  failure.c_str());
      caught = caught || failure.find("count_total") != std::string::npos;
    }
    if (!caught) fail(tag + ": the books check did not fire");
  }
  std::printf("selftest %s\n", problems == 0 ? "passed" : "FAILED");
  return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace vdrift::perfbench

int main(int argc, char** argv) {
  using namespace vdrift::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vbench prepare|run|selftest [--workload NAME] "
                 "[--seed N] [--seconds S] [--trace 0|1] [--cache DIR] "
                 "[--work DIR] [--rev REV]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (args.command == "prepare") return Prepare(args);
  if (args.command == "run") return RunCommand(args);
  if (args.command == "selftest") return SelfTest(args);
  std::fprintf(stderr, "unknown command %s\n", args.command.c_str());
  return 2;
}
