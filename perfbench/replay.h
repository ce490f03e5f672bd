#ifndef VDRIFT_PERFBENCH_REPLAY_H_
#define VDRIFT_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "video/frame.h"
#include "video/stream.h"

namespace vdrift::perfbench {

/// \brief The benchmark's frame source: replays frames rendered before
/// timing starts, and records when the pipeline pulled each one.
///
/// Closed loop (`rate_fps` 0): every frame is available as soon as it is
/// asked for, so frame i is due at the moment of its pull. Open loop:
/// frame i is due at t0 + i / rate_fps, where t0 is the first pull (the
/// camera starts when its consumer connects), and a pull that comes early
/// blocks until the frame is due.
class ReplaySource : public video::FrameSource {
 public:
  struct Options {
    /// Open-loop frame rate; 0 selects the closed loop.
    double rate_fps = 0.0;
    /// When set, each pull is tagged with this counter's value (the
    /// fleet's round counter in traced runs).
    const obs::Counter* round_counter = nullptr;
    /// Self-test fault: silently drops the frame with this index.
    int64_t skip_frame = -1;
  };

  /// `frames` is not owned and must outlive the source.
  ReplaySource(const std::vector<video::Frame>* frames, Options options);

  bool Next(video::Frame* frame) override;
  int64_t position() const override { return position_; }
  int64_t total_frames() const override {
    return static_cast<int64_t>(frames_->size());
  }
  void Reset() override { position_ = 0; }

  /// Per frame index (NaN where never pulled): when the pipeline asked for
  /// the frame, and when the source handed it over. Index total_frames()
  /// holds the pull that found the stream exhausted, if there was one.
  const std::vector<double>& called() const { return called_; }
  const std::vector<double>& released() const { return released_; }
  /// When frame `index` was due (NaN before its pull in the closed loop).
  double due(int64_t index) const;
  /// Round tag of each pull (-1 when untagged).
  const std::vector<int64_t>& rounds() const { return rounds_; }
  bool open_loop() const { return options_.rate_fps > 0.0; }

 private:
  const std::vector<video::Frame>* frames_;
  Options options_;
  int64_t position_ = 0;
  double t0_ = 0.0;
  std::vector<double> called_;
  std::vector<double> released_;
  std::vector<int64_t> rounds_;
};

}  // namespace vdrift::perfbench

#endif  // VDRIFT_PERFBENCH_REPLAY_H_
