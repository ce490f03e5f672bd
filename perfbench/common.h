#ifndef VDRIFT_PERFBENCH_COMMON_H_
#define VDRIFT_PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vdrift::perfbench {

/// Linearly interpolated percentile (`q` in [0, 100]); NaN when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Arithmetic mean; NaN when empty.
double Mean(const std::vector<double>& values);

/// User + system CPU seconds consumed by the whole process so far.
double ProcessCpuSeconds();
/// Resident set size now, in MB.
double CurrentRssMb();
/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

/// Switches counting of the binary's global operator new on or off. Off
/// (the default) costs one relaxed load per allocation.
void CountAllocations(bool on);
/// Allocations counted since the process started.
int64_t AllocationCount();

/// 64-bit FNV-1a over `size` bytes, chained through `hash`.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t hash = 14695981039346656037ull);
uint64_t Fnv1a(const std::string& text, uint64_t hash);

/// Sleeps until MonotonicSeconds() reaches `deadline`.
void SleepUntil(double deadline);

}  // namespace vdrift::perfbench

#endif  // VDRIFT_PERFBENCH_COMMON_H_
