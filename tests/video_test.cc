// Tests for the synthetic video substrate: frame truth predicates, the
// renderer's response to scene parameters, stream generation and drift
// points, the slow-drift stream, and the dataset factories (including the
// Table 5 object-count statistics).

#include <cmath>
#include <ostream>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "stats/ks_test.h"
#include "stats/moments.h"
#include "stats/rng.h"
#include "tensor/ops.h"
#include "video/datasets.h"
#include "video/frame.h"
#include "video/frame_stats.h"
#include "video/renderer.h"
#include "video/scene.h"
#include "video/stream.h"

namespace vdrift::video {
namespace {

using stats::Rng;

ObjectTruth MakeObject(ObjectClass cls, float cx) {
  ObjectTruth o;
  o.cls = cls;
  o.cx = cx;
  o.cy = 0.5f;
  o.w = 0.1f;
  o.h = 0.05f;
  return o;
}

TEST(FrameTruthTest, Counts) {
  FrameTruth truth;
  truth.objects = {MakeObject(ObjectClass::kCar, 0.2f),
                   MakeObject(ObjectClass::kBus, 0.5f),
                   MakeObject(ObjectClass::kCar, 0.8f)};
  EXPECT_EQ(truth.CarCount(), 2);
  EXPECT_EQ(truth.BusCount(), 1);
}

TEST(FrameTruthTest, BusLeftOfCarPredicate) {
  FrameTruth truth;
  truth.objects = {MakeObject(ObjectClass::kBus, 0.3f),
                   MakeObject(ObjectClass::kCar, 0.7f)};
  EXPECT_TRUE(truth.BusLeftOfCar());
  truth.objects = {MakeObject(ObjectClass::kBus, 0.9f),
                   MakeObject(ObjectClass::kCar, 0.1f)};
  EXPECT_FALSE(truth.BusLeftOfCar());
  truth.objects = {MakeObject(ObjectClass::kCar, 0.1f)};
  EXPECT_FALSE(truth.BusLeftOfCar());
  truth.objects.clear();
  EXPECT_TRUE(truth.objects.empty());
  EXPECT_FALSE(truth.BusLeftOfCar());
}

TEST(RendererTest, PixelRangeAndShape) {
  Renderer renderer(32);
  Rng rng(1);
  SceneSpec spec;
  Frame f = renderer.Render(spec, &rng);
  EXPECT_EQ(f.pixels.shape(), (tensor::Shape{1, 32, 32}));
  for (int64_t i = 0; i < f.pixels.size(); ++i) {
    EXPECT_GE(f.pixels[i], 0.0f);
    EXPECT_LE(f.pixels[i], 1.0f);
  }
}

TEST(RendererTest, LuminanceControlsBrightness) {
  Renderer renderer(32);
  Rng rng1(2);
  Rng rng2(2);
  SceneSpec day;
  day.base_luminance = 0.7;
  SceneSpec night;
  night.base_luminance = 0.12;
  double day_mean = 0.0;
  double night_mean = 0.0;
  for (int i = 0; i < 20; ++i) {
    day_mean += tensor::Mean(renderer.Render(day, &rng1).pixels);
    night_mean += tensor::Mean(renderer.Render(night, &rng2).pixels);
  }
  EXPECT_GT(day_mean, night_mean + 2.0);
}

TEST(RendererTest, ObjectsAreVisible) {
  // A frame with many objects should differ from an empty-road frame.
  Renderer renderer(32);
  Rng rng(3);
  SceneSpec busy;
  busy.object_rate_mean = 20.0;
  busy.object_rate_std = 0.1;
  SceneSpec empty;
  empty.object_rate_mean = 0.0;
  empty.object_rate_std = 0.0;
  Frame f_busy = renderer.Render(busy, &rng);
  Frame f_empty = renderer.Render(empty, &rng);
  EXPECT_GT(f_busy.truth.objects.size(), 10u);
  EXPECT_TRUE(f_empty.truth.objects.empty());
  double diff = 0.0;
  for (int64_t i = 0; i < f_busy.pixels.size(); ++i) {
    diff += std::abs(f_busy.pixels[i] - f_empty.pixels[i]);
  }
  EXPECT_GT(diff / static_cast<double>(f_busy.pixels.size()), 0.01);
}

TEST(RendererTest, TruthGeometryInBounds) {
  Renderer renderer(32);
  Rng rng(4);
  SceneSpec spec;
  spec.object_rate_mean = 15.0;
  for (int i = 0; i < 20; ++i) {
    Frame f = renderer.Render(spec, &rng);
    for (const ObjectTruth& o : f.truth.objects) {
      EXPECT_GE(o.cx, 0.0f);
      EXPECT_LE(o.cx, 1.0f);
      EXPECT_GE(o.cy, 0.0f);
      EXPECT_LE(o.cy, 1.0f);
      EXPECT_GT(o.w, 0.0f);
      EXPECT_GT(o.h, 0.0f);
    }
  }
}

TEST(RendererTest, ViewpointShiftMovesObjects) {
  // The same generation seed with a shifted viewpoint should displace mean
  // object position by roughly the shift.
  Renderer renderer(32);
  SceneSpec base;
  base.object_rate_mean = 12.0;
  SceneSpec shifted = base;
  shifted.angle_shift_x = 0.2;
  stats::RunningMoments mx_base;
  stats::RunningMoments mx_shift;
  Rng rng1(5);
  Rng rng2(5);
  for (int i = 0; i < 50; ++i) {
    for (const ObjectTruth& o : renderer.Render(base, &rng1).truth.objects) {
      mx_base.Add(o.cx);
    }
    for (const ObjectTruth& o :
         renderer.Render(shifted, &rng2).truth.objects) {
      mx_shift.Add(o.cx);
    }
  }
  EXPECT_GT(mx_shift.mean(), mx_base.mean() + 0.08);
}

TEST(RendererTest, WeatherOverlaysChangePixels) {
  Renderer renderer(32);
  SceneSpec clear;
  clear.noise_sigma = 0.0;
  clear.object_rate_mean = 0.0;
  clear.object_rate_std = 0.0;
  SceneSpec foggy = clear;
  foggy.weather = Weather::kFog;
  foggy.weather_intensity = 0.8;
  Rng rng1(6);
  Rng rng2(6);
  Frame a = renderer.Render(clear, &rng1);
  Frame b = renderer.Render(foggy, &rng2);
  // Fog washes pixels toward 0.75.
  double mean_clear = tensor::Mean(a.pixels);
  double mean_fog = tensor::Mean(b.pixels);
  EXPECT_GT(mean_fog, mean_clear);
}

TEST(LerpSpecTest, EndpointsAndMidpoint) {
  SceneSpec a;
  a.base_luminance = 0.6;
  SceneSpec b;
  b.base_luminance = 0.2;
  EXPECT_DOUBLE_EQ(LerpSpec(a, b, 0.0).base_luminance, 0.6);
  EXPECT_DOUBLE_EQ(LerpSpec(a, b, 1.0).base_luminance, 0.2);
  EXPECT_NEAR(LerpSpec(a, b, 0.5).base_luminance, 0.4, 1e-12);
  // Out-of-range t is clamped.
  EXPECT_DOUBLE_EQ(LerpSpec(a, b, -3.0).base_luminance, 0.6);
  EXPECT_DOUBLE_EQ(LerpSpec(a, b, 7.0).base_luminance, 0.2);
}

TEST(StreamGeneratorTest, LengthsAndDriftPoints) {
  SceneSpec a;
  a.name = "A";
  SceneSpec b;
  b.name = "B";
  StreamGenerator stream({{a, 10}, {b, 5}}, 16, 7);
  EXPECT_EQ(stream.total_frames(), 15);
  ASSERT_EQ(stream.drift_points().size(), 1u);
  EXPECT_EQ(stream.drift_points()[0], 10);
  Frame f;
  int count = 0;
  std::vector<int> seq_ids;
  while (stream.Next(&f)) {
    EXPECT_EQ(f.truth.frame_index, count);
    seq_ids.push_back(f.truth.sequence_id);
    ++count;
  }
  EXPECT_EQ(count, 15);
  EXPECT_EQ(seq_ids[9], 0);
  EXPECT_EQ(seq_ids[10], 1);
}

TEST(StreamGeneratorTest, ResetReplaysIdentically) {
  SceneSpec a;
  StreamGenerator stream({{a, 6}}, 16, 8);
  Frame f1;
  std::vector<float> first;
  while (stream.Next(&f1)) first.push_back(f1.pixels[0]);
  stream.Reset();
  Frame f2;
  size_t i = 0;
  while (stream.Next(&f2)) {
    EXPECT_FLOAT_EQ(f2.pixels[0], first[i]);
    ++i;
  }
  EXPECT_EQ(i, first.size());
}

TEST(SlowDriftStreamTest, MixRampsAcrossTransition) {
  SlowDriftStream stream(TokyoDaySpec(), TokyoNightSpec(), 100, 0.5, 16, 9);
  EXPECT_DOUBLE_EQ(stream.MixAt(0), 0.0);
  EXPECT_DOUBLE_EQ(stream.MixAt(99), 1.0);
  EXPECT_NEAR(stream.MixAt(49), 0.5, 0.02);
  EXPECT_EQ(stream.nominal_drift_point(), 50);
}

TEST(SlowDriftStreamTest, BrightnessDecreasesOverStream) {
  SlowDriftStream stream(TokyoDaySpec(), TokyoNightSpec(), 60, 0.8, 32, 10);
  Frame f;
  double first10 = 0.0;
  double last10 = 0.0;
  int idx = 0;
  while (stream.Next(&f)) {
    double m = tensor::Mean(f.pixels);
    if (idx < 10) first10 += m;
    if (idx >= 50) last10 += m;
    ++idx;
  }
  EXPECT_GT(first10, last10 + 0.5);
}

TEST(SlowDriftStreamTest, SequenceIdFlipsAtMidpoint) {
  SlowDriftStream stream(TokyoDaySpec(), TokyoNightSpec(), 40, 0.5, 16, 11);
  Frame f;
  while (stream.Next(&f)) {
    if (f.truth.frame_index < 19) EXPECT_EQ(f.truth.sequence_id, 0);
    if (f.truth.frame_index > 21) EXPECT_EQ(f.truth.sequence_id, 1);
  }
}

TEST(DatasetTest, BddStructure) {
  SyntheticDataset ds = MakeBddSynthetic(0.05);
  EXPECT_EQ(ds.name, "BDD");
  ASSERT_EQ(ds.segments.size(), 4u);
  std::vector<std::string> names = ds.SequenceNames();
  EXPECT_EQ(names[0], "Day");
  EXPECT_EQ(names[1], "Night");
  EXPECT_EQ(names[2], "Rain");
  EXPECT_EQ(names[3], "Snow");
  EXPECT_EQ(ds.total_frames(), 4 * 1000);
}

TEST(DatasetTest, DetracAndTokyoStructure) {
  EXPECT_EQ(MakeDetracSynthetic(0.1).segments.size(), 5u);
  EXPECT_EQ(MakeTokyoSynthetic(0.1).segments.size(), 3u);
  EXPECT_EQ(MakeDetracSynthetic(0.1).total_frames(), 5 * 600);
  EXPECT_EQ(MakeTokyoSynthetic(0.1).total_frames(), 3 * 1500);
}

TEST(DatasetTest, SpecOfFindsSequences) {
  SyntheticDataset ds = MakeBddSynthetic(0.05);
  EXPECT_EQ(ds.SpecOf("Night").name, "Night");
  EXPECT_LT(ds.SpecOf("Night").base_luminance,
            ds.SpecOf("Day").base_luminance);
}

TEST(DatasetTest, ScaleNeverDropsBelowMinimum) {
  SyntheticDataset tiny = MakeBddSynthetic(1e-9);
  for (const Segment& s : tiny.segments) EXPECT_GE(s.length, 64);
}

// Table 5 fidelity: the generated object-per-frame statistics should land
// near the paper's reported mean/std for each dataset.
struct DatasetStatCase {
  const char* name;
  double mean;
  double std;
};

// Name each case by its dataset. The default printer dumps the raw bytes,
// which include the address of `name` and so change from run to run.
void PrintTo(const DatasetStatCase& c, std::ostream* os) { *os << c.name; }

class DatasetStats : public ::testing::TestWithParam<DatasetStatCase> {};

TEST_P(DatasetStats, ObjectCountsMatchTable5) {
  DatasetStatCase c = GetParam();
  SyntheticDataset ds;
  if (std::string(c.name) == "BDD") {
    ds = MakeBddSynthetic(0.01);
  } else if (std::string(c.name) == "Detrac") {
    ds = MakeDetracSynthetic(0.05);
  } else {
    ds = MakeTokyoSynthetic(0.02);
  }
  StreamGenerator stream = ds.MakeStream();
  Frame f;
  stats::RunningMoments m;
  while (stream.Next(&f)) {
    m.Add(static_cast<double>(f.truth.objects.size()));
  }
  // Rendering clips off-screen objects, so realized counts sit slightly
  // below the nominal rate; allow a generous band.
  EXPECT_NEAR(m.mean(), c.mean, 0.30 * c.mean) << ds.name;
  EXPECT_NEAR(m.stddev(), c.std, 0.45 * c.std) << ds.name;
}

INSTANTIATE_TEST_SUITE_P(Table5, DatasetStats,
                         ::testing::Values(DatasetStatCase{"BDD", 9.2, 6.4},
                                           DatasetStatCase{"Detrac", 17.2,
                                                           7.1},
                                           DatasetStatCase{"Tokyo", 19.2,
                                                           4.7}));

// Distribution-shift property: per-frame mean brightness distributions of
// different BDD sequences must be statistically distinguishable (KS), and
// frames within one sequence must not be.
TEST(DatasetDriftTest, SequencesAreDistinguishableWithinBdd) {
  SyntheticDataset ds = MakeBddSynthetic(0.01);
  auto brightness = [&](const std::string& seq, uint64_t seed) {
    std::vector<Frame> frames =
        GenerateFrames(ds.SpecOf(seq), 80, ds.image_size, seed);
    std::vector<double> values;
    for (const Frame& f : frames) values.push_back(tensor::Mean(f.pixels));
    return values;
  };
  std::vector<double> day1 = brightness("Day", 1);
  std::vector<double> day2 = brightness("Day", 2);
  std::vector<double> night = brightness("Night", 3);
  EXPECT_GT(stats::TwoSampleKs(day1, day2).p_value, 0.01)
      << "same-sequence frames flagged as different";
  EXPECT_LT(stats::TwoSampleKs(day1, night).p_value, 1e-6)
      << "Day and Night frames not distinguishable";
}

TEST(DatasetDriftTest, TokyoAngle1And3AreClose) {
  // The Tokyo dataset is configured so angles 1 and 3 overlap: their
  // visual statistics (the full photometric stats vector, not just mean
  // brightness) must be much closer to each other than to angle 2.
  SyntheticDataset ds = MakeTokyoSynthetic(0.01);
  auto stats_of = [&](const std::string& seq, uint64_t seed) {
    std::vector<Frame> frames =
        GenerateFrames(ds.SpecOf(seq), 60, ds.image_size, seed);
    std::vector<double> mean(static_cast<size_t>(kNumFrameStats), 0.0);
    for (const Frame& f : frames) {
      std::vector<float> s = GlobalFrameStats(f.pixels);
      for (size_t i = 0; i < mean.size(); ++i) {
        mean[i] += s[i] / static_cast<double>(frames.size());
      }
    }
    return mean;
  };
  std::vector<double> a1 = stats_of("Angle 1", 1);
  std::vector<double> a2 = stats_of("Angle 2", 2);
  std::vector<double> a3 = stats_of("Angle 3", 3);
  auto dist = [](const std::vector<double>& x, const std::vector<double>& y) {
    double d = 0.0;
    for (size_t i = 0; i < x.size(); ++i) d += (x[i] - y[i]) * (x[i] - y[i]);
    return std::sqrt(d);
  };
  EXPECT_LT(dist(a1, a3), dist(a1, a2));
}

TEST(GenerateFramesTest, CountAndDeterminism) {
  SceneSpec spec;
  std::vector<Frame> a = GenerateFrames(spec, 5, 16, 42);
  std::vector<Frame> b = GenerateFrames(spec, 5, 16, 42);
  ASSERT_EQ(a.size(), 5u);
  for (size_t i = 0; i < a.size(); ++i) {
    for (int64_t j = 0; j < a[i].pixels.size(); ++j) {
      ASSERT_FLOAT_EQ(a[i].pixels[j], b[i].pixels[j]);
    }
  }
}

TEST(PixelsOfTest, ExtractsTensors) {
  SceneSpec spec;
  std::vector<Frame> frames = GenerateFrames(spec, 3, 16, 1);
  std::vector<tensor::Tensor> pixels = PixelsOf(frames);
  ASSERT_EQ(pixels.size(), 3u);
  EXPECT_EQ(pixels[0].shape(), (tensor::Shape{1, 16, 16}));
}

}  // namespace
}  // namespace vdrift::video
