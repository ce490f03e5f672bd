// Tests for the tensor library: shape handling, elementwise ops, matrix
// products (checked against a naive reference), and im2col/col2im.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "stats/rng.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace vdrift::tensor {
namespace {

using stats::Rng;

Tensor RandomTensor(Shape shape, Rng* rng) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->NextGaussian());
  }
  return t;
}

Tensor NaiveMatmul(const Tensor& a, const Tensor& b) {
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  int64_t n = b.shape().dim(1);
  Tensor out(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a.At2(i, kk) * b.At2(kk, j);
      }
      out.At2(i, j) = acc;
    }
  }
  return out;
}

// The GEMM kernel's contract has no tolerance: same shape, and every
// element has the same bits (this also tells +0 from -0).
void ExpectBitwiseEqual(const Tensor& actual, const Tensor& expect) {
  ASSERT_EQ(actual.shape(), expect.shape());
  for (int64_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(actual[i]),
              std::bit_cast<uint32_t>(expect[i]))
        << "at flat index " << i << ": " << actual[i] << " vs " << expect[i];
  }
}

void ExpectTensorsNear(const Tensor& a, const Tensor& b, float tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

TEST(ShapeTest, NumElementsAndToString) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.ndim(), 3);
  EXPECT_EQ(s.NumElements(), 24);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
  EXPECT_EQ(Shape{}.NumElements(), 1);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t(Shape{2, 2});
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FillAndIndexing) {
  Tensor t(Shape{2, 3});
  t.Fill(1.5f);
  EXPECT_EQ(t.At2(1, 2), 1.5f);
  t.At2(0, 1) = 7.0f;
  EXPECT_EQ(t[1], 7.0f);
}

TEST(TensorTest, At3RowMajorLayout) {
  Tensor t(Shape{2, 3, 4});
  t.At3(1, 2, 3) = 9.0f;
  EXPECT_EQ(t[(1 * 3 + 2) * 4 + 3], 9.0f);
}

TEST(TensorTest, At4RowMajorLayout) {
  Tensor t(Shape{2, 3, 4, 5});
  t.At4(1, 2, 3, 4) = 8.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 8.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t(Shape{2, 6});
  for (int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.Reshaped(Shape{3, 4});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  for (int64_t i = 0; i < 12; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
}

TEST(TensorDeathTest, ReshapeSizeMismatchAborts) {
  Tensor t(Shape{2, 2});
  EXPECT_DEATH(t.Reshaped(Shape{3, 2}), "reshape");
}

TEST(TensorDeathTest, DataSizeMismatchAborts) {
  EXPECT_DEATH(Tensor(Shape{2, 2}, std::vector<float>{1.0f}), "data size");
}

TEST(OpsTest, AddSubMul) {
  Tensor a(Shape{3}, std::vector<float>{1.0f, 2.0f, 3.0f});
  Tensor b(Shape{3}, std::vector<float>{4.0f, 5.0f, 6.0f});
  Tensor prod = Mul(a, b);
  EXPECT_EQ(prod[0], 4.0f);
  EXPECT_EQ(prod[2], 18.0f);
}

TEST(OpsTest, SumAndMean) {
  Tensor a(Shape{4}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(Sum(a), 10.0);
  EXPECT_DOUBLE_EQ(Mean(a), 2.5);
  EXPECT_DOUBLE_EQ(Mean(Tensor()), 0.0);
}

TEST(OpsTest, MatmulKnownValues) {
  Tensor a(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = Matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.At2(0, 0), 58.0f);
  EXPECT_EQ(c.At2(0, 1), 64.0f);
  EXPECT_EQ(c.At2(1, 0), 139.0f);
  EXPECT_EQ(c.At2(1, 1), 154.0f);
}

TEST(OpsTest, Transpose2D) {
  Tensor a(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor t = Transpose2D(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.At2(0, 1), 4.0f);
  EXPECT_EQ(t.At2(2, 0), 3.0f);
  // Row counts that fill four-row strips, leave remainders, or have none.
  Rng rng(81);
  for (int64_t m : {1, 4, 9}) {
    Tensor b = RandomTensor(Shape{m, 7}, &rng);
    Tensor bt = Transpose2D(b);
    ASSERT_EQ(bt.shape(), (Shape{7, m}));
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < 7; ++j) EXPECT_EQ(bt.At2(j, i), b.At2(i, j));
    }
  }
}

// Property sweep: Matmul agrees with the naive reference over random
// shapes.
class MatmulProperty : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulProperty, MatchesNaiveReference) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 10007 + k * 101 + n);
  Tensor a = RandomTensor(Shape{m, k}, &rng);
  Tensor b = RandomTensor(Shape{k, n}, &rng);
  Tensor expect = NaiveMatmul(a, b);
  ExpectTensorsNear(Matmul(a, b), expect, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulProperty,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{5, 1, 7}, std::tuple{8, 8, 8},
                      std::tuple{3, 17, 5}, std::tuple{16, 9, 16}));

// Matmul's register-blocked kernel against the scalar reference, bit for
// bit. Shapes: tile remainders in m and n, k = 1, n < 8, m < 4, the
// deployed count classifier's three conv GEMMs ([12x9]x[9x256],
// [24x108]x[108x64], [24x216]x[216x64]) and bench_table9's 220x220 oracle
// stand-in. A is ReLU-like (a quarter of it +0 or -0), so signed zeros
// flow through the products too.
class MatmulOpsTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  void SetUp() override {
    auto [m, k, n] = GetParam();
    Rng rng(m * 10007 + k * 101 + n);
    a_ = RandomTensor(Shape{m, k}, &rng);
    for (int64_t i = 0; i < a_.size(); i += 4) {
      a_[i] = i % 8 == 0 ? 0.0f : -0.0f;
    }
    b_ = RandomTensor(Shape{k, n}, &rng);
    expect_ = NaiveMatmul(a_, b_);
  }

  Tensor a_;
  Tensor b_;
  Tensor expect_;
};

TEST_P(MatmulOpsTest, MatmulIsBitIdenticalToNaiveReference) {
  ExpectBitwiseEqual(Matmul(a_, b_), expect_);
  // Four pool threads split the rows into chunks at arbitrary rows.
  runtime::ScopedThreads threads(4);
  ExpectBitwiseEqual(Matmul(a_, b_), expect_);
}

TEST_P(MatmulOpsTest, EveryKernelBuildIsBitIdenticalToNaiveReference) {
  std::vector<gemm::RowsKernel> kernels = {gemm::RowsBaseline};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) kernels.push_back(gemm::RowsAvx2);
#endif
  const int64_t m = a_.shape().dim(0);
  const int64_t k = a_.shape().dim(1);
  const int64_t n = b_.shape().dim(1);
  for (gemm::RowsKernel kernel : kernels) {
    // Garbage in C: the kernel overwrites, it never accumulates.
    Tensor c(Shape{m, n}, 7.5f);
    kernel(a_.data(), b_.data(), c.data(), k, n, 0, m);
    ExpectBitwiseEqual(c, expect_);
    // Rows split off-tile, as a ParallelFor chunk boundary would land.
    Tensor split(Shape{m, n}, 7.5f);
    const int64_t mid = m / 2 + 1;
    kernel(a_.data(), b_.data(), split.data(), k, n, 0, std::min(mid, m));
    kernel(a_.data(), b_.data(), split.data(), k, n, std::min(mid, m), m);
    ExpectBitwiseEqual(split, expect_);
  }
}

TEST_P(MatmulOpsTest, MatmulIntoOverwritesCallerStorage) {
  std::vector<float> out(static_cast<size_t>(expect_.size()), -3.0f);
  MatmulInto(a_, b_, out.data());
  ExpectBitwiseEqual(Tensor(expect_.shape(), out), expect_);
}

INSTANTIATE_TEST_SUITE_P(
    KernelShapes, MatmulOpsTest,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{5, 7, 37},
                      std::tuple{13, 19, 45}, std::tuple{7, 1, 29},
                      std::tuple{9, 11, 5}, std::tuple{3, 12, 40},
                      std::tuple{12, 9, 256}, std::tuple{24, 108, 64},
                      std::tuple{24, 216, 64}, std::tuple{220, 220, 220}));

// Bounds-checked reference im2col: one check per output cell.
Tensor NaiveIm2Col(const Tensor& img, int kh, int kw, int stride, int pad,
                   int out_h, int out_w) {
  const int64_t channels = img.shape().dim(0);
  const int64_t height = img.shape().dim(1);
  const int64_t width = img.shape().dim(2);
  Tensor cols(Shape{channels * kh * kw, static_cast<int64_t>(out_h) * out_w});
  for (int64_t c = 0; c < channels; ++c) {
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        for (int oy = 0; oy < out_h; ++oy) {
          for (int ox = 0; ox < out_w; ++ox) {
            const int64_t iy = oy * stride + ky - pad;
            const int64_t ix = ox * stride + kx - pad;
            if (iy < 0 || iy >= height || ix < 0 || ix >= width) continue;
            cols.At2((c * kh + ky) * kw + kx, oy * out_w + ox) =
                img.At3(c, iy, ix);
          }
        }
      }
    }
  }
  return cols;
}

TEST(Im2ColTest, MatchesBoundsCheckedReference) {
  Rng rng(44);
  Tensor img = RandomTensor(Shape{3, 7, 10}, &rng);
  // (kernel, stride, pad): the classifier's 3x3 pad-1 convs at strides 1
  // and 2, plus kernels wider than the padded image edge and pad > kernel.
  const int configs[][3] = {{3, 1, 1}, {3, 2, 1}, {1, 1, 0}, {2, 2, 0},
                            {5, 3, 2}, {3, 2, 4}, {7, 1, 0}, {4, 3, 3}};
  for (const auto& config : configs) {
    const int kernel = config[0];
    const int stride = config[1];
    const int pad = config[2];
    const int out_h = ConvOutDim(7, kernel, stride, pad);
    const int out_w = ConvOutDim(10, kernel, stride, pad);
    SCOPED_TRACE(testing::Message() << "kernel " << kernel << " stride "
                                    << stride << " pad " << pad);
    ExpectBitwiseEqual(Im2Col(img, kernel, kernel, stride, pad, out_h, out_w),
                       NaiveIm2Col(img, kernel, kernel, stride, pad, out_h,
                                   out_w));
  }
}

TEST(Im2ColTest, OutDimFormula) {
  EXPECT_EQ(ConvOutDim(32, 3, 2, 1), 16);
  EXPECT_EQ(ConvOutDim(32, 3, 1, 1), 32);
  EXPECT_EQ(ConvOutDim(5, 3, 1, 0), 3);
}

TEST(Im2ColTest, IdentityKernelReproducesInput) {
  // 1x1 kernel, stride 1, no padding: im2col is the flattened image.
  Rng rng(42);
  Tensor img = RandomTensor(Shape{2, 4, 4}, &rng);
  Tensor cols = Im2Col(img, 1, 1, 1, 0, 4, 4);
  EXPECT_EQ(cols.shape(), (Shape{2, 16}));
  for (int64_t i = 0; i < img.size(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2ColTest, PatchContents) {
  // 3x3 image, 2x2 kernel, stride 1, no padding -> 4 patches.
  Tensor img(Shape{1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor cols = Im2Col(img, 2, 2, 1, 0, 2, 2);
  EXPECT_EQ(cols.shape(), (Shape{4, 4}));
  // First patch (top-left) down the first column: 1, 2, 4, 5.
  EXPECT_EQ(cols.At2(0, 0), 1.0f);
  EXPECT_EQ(cols.At2(1, 0), 2.0f);
  EXPECT_EQ(cols.At2(2, 0), 4.0f);
  EXPECT_EQ(cols.At2(3, 0), 5.0f);
  // Last patch (bottom-right): 5, 6, 8, 9.
  EXPECT_EQ(cols.At2(0, 3), 5.0f);
  EXPECT_EQ(cols.At2(3, 3), 9.0f);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  Tensor img(Shape{1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor cols = Im2Col(img, 3, 3, 1, 1, 2, 2);
  // Top-left patch's first row is entirely padding.
  EXPECT_EQ(cols.At2(0, 0), 0.0f);
  EXPECT_EQ(cols.At2(1, 0), 0.0f);
  EXPECT_EQ(cols.At2(2, 0), 0.0f);
  // Center of top-left patch is the (0,0) pixel.
  EXPECT_EQ(cols.At2(4, 0), 1.0f);
}

// Property: col2im(im2col(x)) multiplies each pixel by the number of patches
// covering it. With stride == kernel (non-overlapping), that count is 1.
TEST(Im2ColTest, Col2ImRoundTripNonOverlapping) {
  Rng rng(43);
  Tensor img = RandomTensor(Shape{3, 8, 8}, &rng);
  int out = ConvOutDim(8, 2, 2, 0);
  Tensor cols = Im2Col(img, 2, 2, 2, 0, out, out);
  Tensor back = Col2Im(cols, 3, 8, 8, 2, 2, 2, 0, out, out);
  ExpectTensorsNear(back, img, 1e-6f);
}

// The kernel probes attribute work even with profiling off: counters are
// process-wide, so these assert deltas against hand-computed formulas.
TEST(OpsTest, MatmulAttributesFlopsAndBytes) {
  obs::MetricsRegistry& global = obs::Global();
  int64_t calls = global.GetCounter("vdrift.ops.tensor.matmul.calls").value();
  int64_t flops = global.GetCounter("vdrift.ops.tensor.matmul.flops").value();
  int64_t bytes = global.GetCounter("vdrift.ops.tensor.matmul.bytes").value();
  Rng rng(77);
  Tensor a = RandomTensor(Shape{3, 4}, &rng);
  Tensor b = RandomTensor(Shape{4, 5}, &rng);
  Tensor c = Matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 5}));
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.matmul.calls").value(),
            calls + 1);
  // 2mkn multiply-adds: 2 * 3 * 4 * 5.
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.matmul.flops").value(),
            flops + 120);
  // Three operand matrices once through memory: 4 * (12 + 20 + 15).
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.matmul.bytes").value(),
            bytes + 188);
}

// The GEMM kernel must do (and attribute) the full 2mkn FLOPs whatever
// the data holds: a zero-padded A used to take a data-dependent skip
// while VDRIFT_OP_PROBE still charged the full product, making FLOP
// attribution wrong and benchmark numbers input-dependent.
TEST(OpsTest, ZeroPaddedInputAttributesFullFlops) {
  obs::MetricsRegistry& global = obs::Global();
  Rng rng(79);
  // A is all zeros except one row; B is dense.
  Tensor a(Shape{6, 8});
  for (int64_t j = 0; j < 8; ++j) a.At2(2, j) = 1.0f;
  Tensor b = RandomTensor(Shape{8, 5}, &rng);
  int64_t flops =
      global.GetCounter("vdrift.ops.tensor.matmul.flops").value();
  Tensor c = Matmul(a, b);
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.matmul.flops").value(),
            flops + 2 * 6 * 8 * 5);
  // Zero rows of A produce exactly-zero rows of C (no skip needed for
  // numerical equivalence: 0 + 0 * x == 0 for finite x).
  for (int64_t j = 0; j < 5; ++j) {
    EXPECT_EQ(c.At2(0, j), 0.0f);
    EXPECT_NE(c.At2(2, j), 0.0f);
  }
}

// Transpose2D is pure data movement: no FLOPs, and the m * n floats read
// once and written once.
TEST(OpsTest, Transpose2DAttributesZeroFlops) {
  obs::MetricsRegistry& global = obs::Global();
  int64_t calls =
      global.GetCounter("vdrift.ops.tensor.transpose.calls").value();
  int64_t flops =
      global.GetCounter("vdrift.ops.tensor.transpose.flops").value();
  int64_t bytes =
      global.GetCounter("vdrift.ops.tensor.transpose.bytes").value();
  Rng rng(80);
  Tensor a = RandomTensor(Shape{3, 7}, &rng);
  Tensor t = Transpose2D(a);
  EXPECT_EQ(t.shape(), (Shape{7, 3}));
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.transpose.calls").value(),
            calls + 1);
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.transpose.flops").value(),
            flops);
  // 2 * m * n * sizeof(float) = 2 * 21 * 4.
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.transpose.bytes").value(),
            bytes + 168);
}

TEST(Im2ColTest, Im2ColAttributesZeroFlops) {
  obs::MetricsRegistry& global = obs::Global();
  int64_t calls = global.GetCounter("vdrift.ops.tensor.im2col.calls").value();
  int64_t flops = global.GetCounter("vdrift.ops.tensor.im2col.flops").value();
  Rng rng(78);
  Tensor img = RandomTensor(Shape{2, 4, 4}, &rng);
  int out = ConvOutDim(4, 2, 2, 0);
  Tensor cols = Im2Col(img, 2, 2, 2, 0, out, out);
  EXPECT_GT(cols.size(), 0);
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.im2col.calls").value(),
            calls + 1);
  // Pure data movement carries no arithmetic attribution.
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.im2col.flops").value(),
            flops);
}

TEST(Im2ColTest, Col2ImAccumulatesOverlaps) {
  Tensor img(Shape{1, 3, 3}, 1.0f);
  // 2x2 kernel, stride 1: center pixel is covered by 4 patches.
  int out = ConvOutDim(3, 2, 1, 0);
  Tensor cols = Im2Col(img, 2, 2, 1, 0, out, out);
  Tensor back = Col2Im(cols, 1, 3, 3, 2, 2, 1, 0, out, out);
  EXPECT_EQ(back.At3(0, 1, 1), 4.0f);
  EXPECT_EQ(back.At3(0, 0, 0), 1.0f);
  EXPECT_EQ(back.At3(0, 0, 1), 2.0f);
}

}  // namespace
}  // namespace vdrift::tensor
