// Tests for the parallel runtime: pool lifecycle, work-sharing loops,
// nested-region safety, exception propagation out of workers, and the
// determinism contract — parallel kernel/VAE results are bit-identical
// to VDRIFT_THREADS=1, and one model object serves concurrent callers.

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/point_set.h"
#include "core/profile.h"
#include "detect/image_classifier.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "vae/trainer.h"
#include "vae/vae.h"

namespace vdrift::runtime {
namespace {

using stats::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor RandomTensor(Shape shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->NextGaussian());
  }
  return t;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

TEST(ThreadPoolTest, StartsLazilyAndShutsDown) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  EXPECT_FALSE(pool.started());
  std::atomic<int> chunks{0};
  pool.Run(8, [&](int64_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 8);
  EXPECT_TRUE(pool.started());
  pool.Shutdown();
  EXPECT_FALSE(pool.started());
  // A shut-down pool restarts on the next Run.
  chunks.store(0);
  pool.Run(3, [&](int64_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 3);
  EXPECT_TRUE(pool.started());
  pool.Shutdown();
  EXPECT_FALSE(pool.started());
}

TEST(ThreadPoolTest, SerialPoolNeverSpawns) {
  ThreadPool pool(1);
  std::atomic<int> chunks{0};
  pool.Run(5, [&](int64_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 5);
  EXPECT_FALSE(pool.started());
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.threads(), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedThreads threads(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, 7, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  ScopedThreads threads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Single chunk runs inline on the caller.
  ParallelFor(0, 3, 8, [&](int64_t begin, int64_t end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 3);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NestedRegionsRunInlineWithoutDeadlock) {
  ScopedThreads threads(4);
  constexpr int64_t kRows = 16;
  constexpr int64_t kCols = 64;
  std::vector<int> cells(kRows * kCols, 0);
  ParallelFor(0, kRows, 1, [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      EXPECT_TRUE(ThreadPool::InTask());
      // Nested loop must execute inline on this thread, not re-enter
      // the pool (which would deadlock a fully-busy pool).
      ParallelFor(0, kCols, 4, [&](int64_t col_begin, int64_t col_end) {
        for (int64_t c = col_begin; c < col_end; ++c) {
          ++cells[static_cast<size_t>(r * kCols + c)];
        }
      });
    }
  });
  for (int v : cells) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, PropagatesExceptionsFromWorkers) {
  ScopedThreads threads(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](int64_t begin, int64_t) {
                    if (begin == 42) {
                      throw std::runtime_error("chunk 42 failed");
                    }
                  }),
      std::runtime_error);
  // The pool survives a failed task and keeps executing.
  std::atomic<int> ok{0};
  ParallelFor(0, 10, 1, [&](int64_t, int64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ParallelReduceTest, MatchesSerialFoldBitForBit) {
  Rng rng(21);
  std::vector<double> values(100000);
  for (double& v : values) v = rng.NextGaussian();
  auto sum_with = [&](int threads) {
    ScopedThreads scope(threads);
    return ParallelReduce<double>(
        0, static_cast<int64_t>(values.size()), 1 << 10, 0.0,
        [&](int64_t begin, int64_t end) {
          double s = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            s += values[static_cast<size_t>(i)];
          }
          return s;
        },
        [](double acc, double partial) { return acc + partial; });
  };
  double serial = sum_with(1);
  for (int threads : {2, 4, 8}) {
    double parallel = sum_with(threads);
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "threads=" << threads;
  }
}

// One forward and backward pass of a layer at a given thread count.
struct LayerRun {
  Tensor forward;
  Tensor grad_input;
  Tensor weight_grad;
  Tensor bias_grad;
};

LayerRun RunLayer(nn::Layer* layer, const Tensor& input, int threads) {
  ScopedThreads scope(threads);
  for (nn::Parameter* p : layer->Params()) p->ZeroGrad();
  LayerRun run;
  nn::Tape tape;
  run.forward = layer->Forward(input, &tape);
  Tensor grad_out(run.forward.shape(), 0.5f);
  run.grad_input = layer->Backward(grad_out, tape);
  run.weight_grad = layer->Params()[0]->grad;
  run.bias_grad = layer->Params()[1]->grad;
  return run;
}

void ExpectSameRun(const LayerRun& parallel, const LayerRun& serial,
                   int threads) {
  EXPECT_TRUE(BitIdentical(parallel.forward, serial.forward))
      << "threads=" << threads;
  EXPECT_TRUE(BitIdentical(parallel.grad_input, serial.grad_input))
      << "threads=" << threads;
  EXPECT_TRUE(BitIdentical(parallel.weight_grad, serial.weight_grad))
      << "threads=" << threads;
  EXPECT_TRUE(BitIdentical(parallel.bias_grad, serial.bias_grad))
      << "threads=" << threads;
}

// Every product runs through tensor::Matmul, with Transpose2D for a
// transposed operand: the Linear forward and backward (shapes large
// enough that each of their GEMMs splits into row chunks) and the Conv2d
// backward.
TEST(DeterminismTest, MatmulBitIdenticalAcrossThreadCounts) {
  Rng rng(22);
  Tensor a = RandomTensor(Shape{37, 29}, &rng);
  Tensor b = RandomTensor(Shape{29, 41}, &rng);
  nn::Linear linear(300, 70, &rng);
  Tensor linear_in = RandomTensor(Shape{37, 300}, &rng);
  nn::Conv2d conv(3, 8, 3, 2, 1, &rng);
  Tensor conv_in = RandomTensor(Shape{4, 3, 16, 16}, &rng);
  Tensor sum_src = RandomTensor(Shape{100000}, &rng);
  LayerRun serial_linear = RunLayer(&linear, linear_in, 1);
  LayerRun serial_conv = RunLayer(&conv, conv_in, 1);
  ScopedThreads serial_scope(1);
  Tensor serial = tensor::Matmul(a, b);
  Tensor serial_t = tensor::Transpose2D(a);
  double serial_sum = tensor::Sum(sum_src);
  for (int threads : {2, 4, 8}) {
    ScopedThreads scope(threads);
    EXPECT_TRUE(BitIdentical(tensor::Matmul(a, b), serial))
        << "threads=" << threads;
    EXPECT_TRUE(BitIdentical(tensor::Transpose2D(a), serial_t))
        << "threads=" << threads;
    ExpectSameRun(RunLayer(&linear, linear_in, threads), serial_linear,
                  threads);
    ExpectSameRun(RunLayer(&conv, conv_in, threads), serial_conv, threads);
    double parallel_sum = tensor::Sum(sum_src);
    EXPECT_EQ(std::memcmp(&serial_sum, &parallel_sum, sizeof(double)), 0)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, Conv2dForwardBackwardBitIdentical) {
  Rng rng(23);
  nn::Conv2d conv(3, 8, 3, 2, 1, &rng);
  Tensor input = RandomTensor(Shape{4, 3, 16, 16}, &rng);
  LayerRun serial = RunLayer(&conv, input, 1);
  for (int threads : {2, 4}) {
    ExpectSameRun(RunLayer(&conv, input, threads), serial, threads);
  }
}

struct VaeRun {
  std::vector<double> losses;
  std::vector<Tensor> params;
};

VaeRun RunVaeEpochs(int threads) {
  ScopedThreads scope(threads);
  Rng init_rng(24);
  vae::VaeConfig config;
  config.image_size = 16;
  config.latent_dim = 4;
  config.base_filters = 2;
  vae::Vae vae(config, &init_rng);
  Rng frame_rng(25);
  std::vector<Tensor> frames;
  for (int i = 0; i < 12; ++i) {
    Tensor f(Shape{1, 16, 16});
    for (int64_t j = 0; j < f.size(); ++j) {
      f[j] = 0.5f + 0.4f * static_cast<float>(frame_rng.NextGaussian());
    }
    frames.push_back(std::move(f));
  }
  vae::TrainerConfig trainer_config;
  trainer_config.epochs = 2;
  trainer_config.batch_size = 4;
  Rng train_rng(26);
  VaeRun run;
  run.losses = vae::VaeTrainer(trainer_config)
                   .Train(&vae, frames, &train_rng)
                   .ValueOrDie();
  for (nn::Parameter* p : vae.Params()) run.params.push_back(p->value);
  return run;
}

TEST(DeterminismTest, VaeEpochBitIdenticalAcrossThreadCounts) {
  VaeRun serial = RunVaeEpochs(1);
  VaeRun parallel = RunVaeEpochs(4);
  ASSERT_EQ(serial.losses.size(), parallel.losses.size());
  for (size_t i = 0; i < serial.losses.size(); ++i) {
    EXPECT_EQ(std::memcmp(&serial.losses[i], &parallel.losses[i],
                          sizeof(double)),
              0)
        << "epoch " << i;
  }
  ASSERT_EQ(serial.params.size(), parallel.params.size());
  for (size_t i = 0; i < serial.params.size(); ++i) {
    EXPECT_TRUE(BitIdentical(serial.params[i], parallel.params[i]))
        << "param " << i;
  }
}

constexpr int kSharedFrames = 64;

// What each frame yields from the shared models.
struct SharedModelOutputs {
  using Rows = std::vector<std::vector<float>>;
  Rows proba = Rows(kSharedFrames);
  std::vector<int> labels = std::vector<int>(kSharedFrames);
  Rows latents = Rows(kSharedFrames);
};

TEST(DeterminismTest, SharedModelsServeConcurrentCallersBitIdentically) {
  // Inference is const: one classifier and one profile (VAE) are run by
  // every worker at once, with no copies, and each frame's outputs match
  // a serial loop bit for bit.
  Rng rng(31);
  const detect::ImageClassifier classifier(detect::ClassifierConfig{}, &rng);
  auto vae = std::make_shared<vae::Vae>(vae::VaeConfig{}, &rng);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 12; ++i) {
    points.push_back(vae->EncodeSample(RandomTensor(Shape{1, 32, 32}, &rng),
                                       &rng));
  }
  const conformal::DistributionProfile profile(
      "shared", vae, conformal::PointSet::Build(points, 5).ValueOrDie());
  std::vector<Tensor> frames;
  for (int i = 0; i < kSharedFrames; ++i) {
    frames.push_back(RandomTensor(Shape{1, 32, 32}, &rng));
  }
  auto serve_frame = [&](int64_t i, SharedModelOutputs* out) {
    const size_t slot = static_cast<size_t>(i);
    Rng frame_rng(1000 + static_cast<uint64_t>(i));
    out->proba[slot] = classifier.PredictProba(frames[slot]);
    out->labels[slot] = classifier.Predict(frames[slot]);
    out->latents[slot] = profile.EncodeSampled(frames[slot], &frame_rng);
  };
  SharedModelOutputs serial;
  {
    ScopedThreads scope(1);
    for (int64_t i = 0; i < kSharedFrames; ++i) serve_frame(i, &serial);
  }
  SharedModelOutputs parallel;
  {
    ScopedThreads scope(4);
    ParallelFor(0, kSharedFrames, 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) serve_frame(i, &parallel);
    });
  }
  EXPECT_EQ(parallel.labels, serial.labels);
  for (size_t i = 0; i < kSharedFrames; ++i) {
    ASSERT_EQ(parallel.proba[i].size(), serial.proba[i].size());
    EXPECT_EQ(std::memcmp(parallel.proba[i].data(), serial.proba[i].data(),
                          serial.proba[i].size() * sizeof(float)),
              0)
        << "frame " << i;
    ASSERT_EQ(parallel.latents[i].size(), serial.latents[i].size());
    EXPECT_EQ(std::memcmp(parallel.latents[i].data(),
                          serial.latents[i].data(),
                          serial.latents[i].size() * sizeof(float)),
              0)
        << "frame " << i;
  }
}

}  // namespace
}  // namespace vdrift::runtime
