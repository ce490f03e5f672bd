#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <thread>

#include "obs/timer.h"

namespace vdrift::perfbench {

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocations{0};

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(values.size() - 1, lo + 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double CurrentRssMb() {
  FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  long pages_total = 0;
  long pages_resident = 0;
  int read = std::fscanf(statm, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(statm);
  if (read != 2) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void CountAllocations(bool on) {
  g_count_allocations.store(on, std::memory_order_relaxed);
}

int64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  // Length first, so ("ab", "c") and ("a", "bc") hash differently.
  uint64_t length = text.size();
  hash = Fnv1a(&length, sizeof(length), hash);
  return Fnv1a(text.data(), text.size(), hash);
}

void SleepUntil(double deadline) {
  double now = obs::MonotonicSeconds();
  if (deadline <= now) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(deadline - now));
}

}  // namespace vdrift::perfbench

// The benchmark binary's own allocator hooks: plain malloc/free, plus a
// counter that the nn.allocs_per_predict probe switches on.
void* operator new(std::size_t size) {
  if (vdrift::perfbench::g_count_allocations.load(std::memory_order_relaxed)) {
    vdrift::perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
