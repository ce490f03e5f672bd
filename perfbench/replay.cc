#include "replay.h"

#include <algorithm>
#include <limits>

#include "common.h"
#include "obs/timer.h"

namespace vdrift::perfbench {

ReplaySource::ReplaySource(const std::vector<video::Frame>* frames,
                           Options options)
    : frames_(frames),
      options_(options),
      called_(frames->size() + 1, std::numeric_limits<double>::quiet_NaN()),
      released_(frames->size() + 1, std::numeric_limits<double>::quiet_NaN()),
      rounds_(frames->size() + 1, -1) {}

double ReplaySource::due(int64_t index) const {
  if (!open_loop()) return called_[static_cast<size_t>(index)];
  return t0_ + static_cast<double>(index) / options_.rate_fps;
}

bool ReplaySource::Next(video::Frame* frame) {
  if (position_ == options_.skip_frame) ++position_;
  const size_t index = static_cast<size_t>(
      std::min<int64_t>(position_, total_frames()));
  const double now = obs::MonotonicSeconds();
  if (position_ == 0) t0_ = now;
  called_[index] = now;
  if (options_.round_counter != nullptr) {
    rounds_[index] = options_.round_counter->value();
  }
  if (position_ >= total_frames()) return false;
  double released = now;
  if (open_loop()) {
    const double due_at = due(position_);
    if (now < due_at) {
      SleepUntil(due_at);
      released = obs::MonotonicSeconds();
    }
  }
  released_[index] = released;
  *frame = (*frames_)[index];
  ++position_;
  return true;
}

}  // namespace vdrift::perfbench
