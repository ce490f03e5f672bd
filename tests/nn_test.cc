// Tests for the neural-network stack. The load-bearing tests are the
// finite-difference gradient checks on every layer and loss, plus
// end-to-end convergence tests (linear regression, XOR, a small conv net).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "nn/init.h"
#include "nn/layer.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "stats/moments.h"
#include "stats/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace vdrift::nn {
namespace {

using stats::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor RandomTensor(Shape shape, Rng* rng, double scale = 1.0) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->NextGaussian(0.0, scale));
  }
  return t;
}

// Scalar objective used by the gradient checks: sum of elementwise square
// of the layer output, i.e. L = sum(y^2), dL/dy = 2y.
double Objective(const Tensor& y) {
  double s = 0.0;
  for (int64_t i = 0; i < y.size(); ++i) {
    s += static_cast<double>(y[i]) * y[i];
  }
  return s;
}

Tensor ObjectiveGrad(const Tensor& y) {
  Tensor g = y;
  for (int64_t i = 0; i < g.size(); ++i) g[i] *= 2.0f;
  return g;
}

// Same shape and the same bits in every element (so +0 and -0 differ).
void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(a[i]), std::bit_cast<uint32_t>(b[i]))
        << "element " << i << ": " << a[i] << " vs " << b[i];
  }
}

// A Gaussian tensor that is ReLU-like in a quarter of its cells (+0 or -0
// there), so signed zeros flow through the products.
Tensor SparseRandomTensor(Shape shape, Rng* rng) {
  Tensor t = RandomTensor(std::move(shape), rng);
  for (int64_t i = 0; i < t.size(); i += 4) t[i] = (i % 8 == 0) ? 0.0f : -0.0f;
  return t;
}

// The scalar transposed GEMMs that Linear and Conv2d ran before every
// product went through tensor::Matmul, kept as references. Each output
// element starts at 0.0f and adds its k products in ascending order.
// a [m, k] x b [n, k]^T -> [m, n].
Tensor ScalarMatmulTransposedB(const Tensor& a, const Tensor& b) {
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n = b.shape().dim(0);
  Tensor out(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[j * k + kk];
      out[i * n + j] = acc;
    }
  }
  return out;
}

// a [k, m]^T x b [k, n] -> [m, n].
Tensor ScalarMatmulTransposedA(const Tensor& a, const Tensor& b) {
  const int64_t k = a.shape().dim(0);
  const int64_t m = a.shape().dim(1);
  const int64_t n = b.shape().dim(1);
  Tensor out(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      for (int64_t j = 0; j < n; ++j) {
        out[i * n + j] += a[kk * m + i] * b[kk * n + j];
      }
    }
  }
  return out;
}

// dst += src, element by element.
void Accumulate(Tensor* dst, const Tensor& src) {
  for (int64_t i = 0; i < dst->size(); ++i) (*dst)[i] += src[i];
}

// Verifies analytic input- and parameter-gradients of `layer` against
// central finite differences on L = sum(Forward(x)^2). Also checks that
// recording a tape does not change the forward output.
void CheckLayerGradients(Layer* layer, const Tensor& input, float tol) {
  Tensor x = input;
  for (Parameter* p : layer->Params()) p->ZeroGrad();
  Tape tape;
  Tensor y = layer->Forward(x, &tape);
  ExpectBitwiseEqual(y, layer->Forward(x));
  Tensor grad_in = layer->Backward(ObjectiveGrad(y), tape);
  ASSERT_EQ(grad_in.shape(), x.shape());

  const float eps = 1e-3f;
  // Input gradient.
  for (int64_t i = 0; i < x.size(); ++i) {
    Tensor xp = x;
    Tensor xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    double fp = Objective(layer->Forward(xp));
    double fm = Objective(layer->Forward(xm));
    double numeric = (fp - fm) / (2.0 * eps);
    ASSERT_NEAR(grad_in[i], numeric, tol)
        << layer->name() << " input grad at " << i;
  }
  // Parameter gradients.
  std::vector<Parameter*> params = layer->Params();
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    for (int64_t i = 0; i < p->value.size(); ++i) {
      float saved = p->value[i];
      p->value[i] = saved + eps;
      double fp = Objective(layer->Forward(x));
      p->value[i] = saved - eps;
      double fm = Objective(layer->Forward(x));
      p->value[i] = saved;
      double numeric = (fp - fm) / (2.0 * eps);
      ASSERT_NEAR(p->grad[i], numeric, tol)
          << layer->name() << " param " << pi << " grad at " << i;
    }
  }
}

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear lin(2, 3, &rng);
  // Overwrite weights with known values: W = [[1,2],[3,4],[5,6]], b=[1,1,1].
  Parameter* w = lin.Params()[0];
  Parameter* b = lin.Params()[1];
  for (int i = 0; i < 6; ++i) w->value[i] = static_cast<float>(i + 1);
  b->value.Fill(1.0f);
  Tensor x(Shape{1, 2}, std::vector<float>{1.0f, 2.0f});
  Tensor y = lin.Forward(x);
  EXPECT_FLOAT_EQ(y.At2(0, 0), 1 * 1 + 2 * 2 + 1);
  EXPECT_FLOAT_EQ(y.At2(0, 1), 3 * 1 + 4 * 2 + 1);
  EXPECT_FLOAT_EQ(y.At2(0, 2), 5 * 1 + 6 * 2 + 1);
}

TEST(LinearTest, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear lin(4, 3, &rng);
  Tensor x = RandomTensor(Shape{2, 4}, &rng);
  CheckLayerGradients(&lin, x, 2e-2f);
}

// Forward and backward against the scalar references, bit for bit, at
// batch 1 (the per-frame head) and batch 16 (training), with in/out sizes
// that leave remainders in every kernel tile.
TEST(LinearTest, ForwardAndBackwardAreBitIdenticalToScalarReference) {
  Rng rng(7);
  constexpr int kIn = 45;
  constexpr int kOut = 21;
  for (int64_t batch : {1, 16}) {
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    Linear lin(kIn, kOut, &rng);
    const Tensor& w = lin.Params()[0]->value;
    lin.Params()[1]->value = RandomTensor(Shape{kOut}, &rng);
    const Tensor& b = lin.Params()[1]->value;
    Tensor x = SparseRandomTensor(Shape{batch, kIn}, &rng);
    Tensor dy = SparseRandomTensor(Shape{batch, kOut}, &rng);

    // Y = X W^T + b.
    Tensor y = ScalarMatmulTransposedB(x, w);
    for (int64_t i = 0; i < batch; ++i) {
      for (int64_t j = 0; j < kOut; ++j) y[i * kOut + j] += b[j];
    }
    // dW = dY^T X and db = column sums of dY, into zeroed gradients;
    // dX = dY W.
    Tensor dw(w.shape());
    Accumulate(&dw, ScalarMatmulTransposedA(dy, x));
    Tensor db(b.shape());
    for (int64_t j = 0; j < kOut; ++j) {
      for (int64_t i = 0; i < batch; ++i) db[j] += dy[i * kOut + j];
    }
    Tensor dx(x.shape());
    for (int64_t i = 0; i < batch; ++i) {
      for (int64_t j = 0; j < kIn; ++j) {
        float acc = 0.0f;
        for (int64_t o = 0; o < kOut; ++o) {
          acc += dy[i * kOut + o] * w[o * kIn + j];
        }
        dx[i * kIn + j] = acc;
      }
    }

    for (Parameter* p : lin.Params()) p->ZeroGrad();
    Tape tape;
    ExpectBitwiseEqual(lin.Forward(x, &tape), y);
    ExpectBitwiseEqual(lin.Backward(dy, tape), dx);
    ExpectBitwiseEqual(lin.Params()[0]->grad, dw);
    ExpectBitwiseEqual(lin.Params()[1]->grad, db);
  }
}

TEST(Conv2dTest, KnownKernelForward) {
  Rng rng(3);
  Conv2d conv(1, 1, 2, 1, 0, &rng);
  // Kernel = all ones, bias = 0: output is the 2x2 box sum.
  conv.Params()[0]->value.Fill(1.0f);
  conv.Params()[1]->value.Fill(0.0f);
  Tensor x(Shape{1, 1, 3, 3},
           std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.At4(0, 0, 0, 0), 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 0, 1), 2 + 3 + 5 + 6);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 1, 0), 4 + 5 + 7 + 8);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 1, 1), 5 + 6 + 8 + 9);
}

// Direct convolution in the summation order Conv2d's GEMM uses: each output
// starts at 0.0f, adds weight * input over the patch in ascending
// (channel, ky, kx) order (padding taps read 0), then adds the bias.
Tensor DirectConv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                    int kernel, int stride, int pad) {
  const int64_t n = x.shape().dim(0);
  const int64_t in_c = x.shape().dim(1);
  const int64_t in_h = x.shape().dim(2);
  const int64_t in_w = x.shape().dim(3);
  const int64_t out_c = weight.shape().dim(0);
  const int out_h = tensor::ConvOutDim(static_cast<int>(in_h), kernel, stride,
                                       pad);
  const int out_w = tensor::ConvOutDim(static_cast<int>(in_w), kernel, stride,
                                       pad);
  Tensor y(Shape{n, out_c, out_h, out_w});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t oc = 0; oc < out_c; ++oc) {
      for (int oy = 0; oy < out_h; ++oy) {
        for (int ox = 0; ox < out_w; ++ox) {
          float acc = 0.0f;
          for (int64_t c = 0; c < in_c; ++c) {
            for (int ky = 0; ky < kernel; ++ky) {
              for (int kx = 0; kx < kernel; ++kx) {
                const int64_t iy = oy * stride + ky - pad;
                const int64_t ix = ox * stride + kx - pad;
                const bool inside =
                    iy >= 0 && iy < in_h && ix >= 0 && ix < in_w;
                const float v = inside ? x.At4(s, c, iy, ix) : 0.0f;
                acc += weight.At2(oc, (c * kernel + ky) * kernel + kx) * v;
              }
            }
          }
          y.At4(s, oc, oy, ox) = acc + bias[oc];
        }
      }
    }
  }
  return y;
}

// The lean forward (im2col straight from the batch, GEMM into the output
// block, bias added in place) against the direct convolution, bit for bit,
// at the classifier's 3x3 pad-1 strides 1 and 2. Inputs are ReLU-like, so
// zeros flow through the products.
TEST(Conv2dTest, ForwardIsBitIdenticalToDirectConvolution) {
  Rng rng(6);
  for (int stride : {1, 2}) {
    Conv2d conv(3, 13, 3, stride, 1, &rng);
    conv.Params()[1]->value = RandomTensor(Shape{13}, &rng);
    Tensor x = RandomTensor(Shape{3, 3, 9, 14}, &rng);
    for (int64_t i = 0; i < x.size(); ++i) x[i] = std::max(0.0f, x[i]);
    SCOPED_TRACE(testing::Message() << "stride " << stride);
    Tensor expect = DirectConv2d(x, conv.Params()[0]->value,
                                 conv.Params()[1]->value, 3, stride, 1);
    ExpectBitwiseEqual(conv.Forward(x), expect);
    Tape tape;
    ExpectBitwiseEqual(conv.Forward(x, &tape), expect);
  }
}

// Backward against the scalar references, bit for bit, in Conv2d's own
// per-sample sequence: dW_s = dY_s cols_s^T, db_s = row sums of dY_s (in
// double), dX_s = col2im(W^T dY_s); the per-sample dW_s and db_s then fold
// into zeroed gradients in ascending sample order.
TEST(Conv2dTest, BackwardIsBitIdenticalToScalarReference) {
  Rng rng(8);
  constexpr int kInC = 3;
  constexpr int kOutC = 13;
  constexpr int kInH = 9;
  constexpr int kInW = 14;
  for (int stride : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "stride " << stride);
    Conv2d conv(kInC, kOutC, 3, stride, 1, &rng);
    const Tensor& w = conv.Params()[0]->value;
    Tensor x = SparseRandomTensor(Shape{3, kInC, kInH, kInW}, &rng);
    for (Parameter* p : conv.Params()) p->ZeroGrad();
    Tape tape;
    Tensor y = conv.Forward(x, &tape);
    Tensor dy = SparseRandomTensor(y.shape(), &rng);
    const int out_h = static_cast<int>(y.shape().dim(2));
    const int out_w = static_cast<int>(y.shape().dim(3));
    const int64_t plane = static_cast<int64_t>(out_h) * out_w;

    Tensor dw(w.shape());
    Tensor db(Shape{kOutC});
    Tensor dx(x.shape());
    const int64_t in_sample = static_cast<int64_t>(kInC) * kInH * kInW;
    for (int64_t s = 0; s < x.shape().dim(0); ++s) {
      Tensor cols = tensor::Im2Col(x.data() + s * in_sample, kInC, kInH, kInW,
                                   3, 3, stride, 1, out_h, out_w);
      Tensor dy_s(Shape{kOutC, plane});
      std::copy_n(dy.data() + s * kOutC * plane, dy_s.size(), dy_s.data());
      Accumulate(&dw, ScalarMatmulTransposedB(dy_s, cols));
      for (int64_t c = 0; c < kOutC; ++c) {
        double acc = 0.0;
        for (int64_t p = 0; p < plane; ++p) acc += dy_s[c * plane + p];
        db[c] += static_cast<float>(acc);
      }
      Tensor dx_s =
          tensor::Col2Im(ScalarMatmulTransposedA(w, dy_s), kInC, kInH, kInW,
                         3, 3, stride, 1, out_h, out_w);
      std::copy_n(dx_s.data(), dx_s.size(), dx.data() + s * in_sample);
    }

    ExpectBitwiseEqual(conv.Backward(dy, tape), dx);
    ExpectBitwiseEqual(conv.Params()[0]->grad, dw);
    ExpectBitwiseEqual(conv.Params()[1]->grad, db);
  }
}

TEST(Conv2dTest, StrideAndPaddingShapes) {
  Rng rng(4);
  Conv2d conv(2, 5, 3, 2, 1, &rng);
  Tensor x = RandomTensor(Shape{3, 2, 8, 8}, &rng);
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 5, 4, 4}));
}

TEST(Conv2dTest, GradientsMatchFiniteDifferences) {
  Rng rng(5);
  Conv2d conv(2, 3, 3, 2, 1, &rng);
  Tensor x = RandomTensor(Shape{2, 2, 5, 5}, &rng, 0.5);
  CheckLayerGradients(&conv, x, 5e-2f);
}

// Kernel-probe attribution against the closed-form layer FLOP counts
// (deltas: the vdrift.ops.nn.* counters are process-wide).
TEST(LinearTest, ForwardAttributesFlops) {
  obs::MetricsRegistry& global = obs::Global();
  int64_t flops =
      global.GetCounter("vdrift.ops.nn.linear_forward.flops").value();
  int64_t calls =
      global.GetCounter("vdrift.ops.nn.linear_forward.calls").value();
  Rng rng(21);
  Linear lin(4, 5, &rng);
  Tensor x = RandomTensor(Shape{3, 4}, &rng);
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 5}));
  EXPECT_EQ(global.GetCounter("vdrift.ops.nn.linear_forward.calls").value(),
            calls + 1);
  // GEMM (2 * 3 * 4 * 5) + bias add (3 * 5).
  EXPECT_EQ(global.GetCounter("vdrift.ops.nn.linear_forward.flops").value(),
            flops + 135);
}

TEST(Conv2dTest, ForwardAttributesFlops) {
  obs::MetricsRegistry& global = obs::Global();
  int64_t flops =
      global.GetCounter("vdrift.ops.nn.conv2d_forward.flops").value();
  Rng rng(22);
  Conv2d conv(2, 3, 3, 1, 1, &rng);
  Tensor x = RandomTensor(Shape{2, 2, 4, 4}, &rng);
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 4, 4}));
  // Per sample: GEMM 2 * out_c * (in_c * k * k) * (out_h * out_w)
  // = 2 * 3 * 18 * 16 = 1728, plus bias add 3 * 16 = 48; N = 2.
  EXPECT_EQ(global.GetCounter("vdrift.ops.nn.conv2d_forward.flops").value(),
            flops + 2 * (1728 + 48));
}

TEST(ReLUTest, ForwardAndGradient) {
  ReLU relu;
  Tensor x(Shape{1, 4}, std::vector<float>{-1.0f, 0.0f, 2.0f, -3.0f});
  Tape tape;
  Tensor y = relu.Forward(x, &tape);
  ExpectBitwiseEqual(y, relu.Forward(x));
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor g(Shape{1, 4}, std::vector<float>{1.0f, 1.0f, 1.0f, 1.0f});
  Tensor gx = relu.Backward(g, tape);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(SigmoidTest, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  Sigmoid sig;
  Tensor x = RandomTensor(Shape{2, 5}, &rng);
  CheckLayerGradients(&sig, x, 1e-2f);
}

TEST(TanhTest, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  Tanh tanh_layer;
  Tensor x = RandomTensor(Shape{2, 5}, &rng);
  CheckLayerGradients(&tanh_layer, x, 1e-2f);
}

TEST(FlattenTest, RoundTrip) {
  Flatten flatten;
  Rng rng(8);
  Tensor x = RandomTensor(Shape{2, 3, 4, 4}, &rng);
  Tape tape;
  Tensor y = flatten.Forward(x, &tape);
  ExpectBitwiseEqual(y, flatten.Forward(x));
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  Tensor back = flatten.Backward(y, tape);
  EXPECT_EQ(back.shape(), x.shape());
  for (int64_t i = 0; i < x.size(); ++i) EXPECT_EQ(back[i], x[i]);
}

TEST(Upsample2xTest, ForwardValuesAndBackwardSums) {
  Upsample2x up;
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tape tape;
  Tensor y = up.Forward(x, &tape);
  ExpectBitwiseEqual(y, up.Forward(x));
  EXPECT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(y.At4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 3, 3), 4.0f);
  Tensor g(Shape{1, 1, 4, 4}, 1.0f);
  Tensor gx = up.Backward(g, tape);
  EXPECT_FLOAT_EQ(gx.At4(0, 0, 0, 0), 4.0f);
}

TEST(Upsample2xTest, GradientsMatchFiniteDifferences) {
  Rng rng(9);
  Upsample2x up;
  Tensor x = RandomTensor(Shape{1, 2, 3, 3}, &rng);
  CheckLayerGradients(&up, x, 1e-2f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(10);
  Tensor logits = RandomTensor(Shape{4, 6}, &rng, 3.0);
  Tensor p = Softmax(logits);
  for (int64_t i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < 6; ++j) {
      EXPECT_GT(p.At2(i, j), 0.0f);
      sum += p.At2(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, NumericallyStableForLargeLogits) {
  Tensor logits(Shape{1, 3}, std::vector<float>{1000.0f, 1001.0f, 999.0f});
  Tensor p = Softmax(logits);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_GT(p.At2(0, 1), p.At2(0, 0));
}

TEST(CrossEntropyTest, PerfectPredictionHasLowLoss) {
  Tensor logits(Shape{2, 3},
                std::vector<float>{20.0f, 0.0f, 0.0f, 0.0f, 20.0f, 0.0f});
  LossResult r = SoftmaxCrossEntropy(logits, {0, 1});
  EXPECT_LT(r.loss, 1e-6);
}

TEST(CrossEntropyTest, GradientMatchesFiniteDifferences) {
  Rng rng(11);
  Tensor logits = RandomTensor(Shape{3, 4}, &rng);
  std::vector<int> labels{1, 3, 0};
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits;
    Tensor lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    double numeric = (SoftmaxCrossEntropy(lp, labels).loss -
                      SoftmaxCrossEntropy(lm, labels).loss) /
                     (2.0 * eps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-3);
  }
}

TEST(BceTest, MatchedDistributionsHaveMinimalLoss) {
  Tensor p(Shape{1, 4}, std::vector<float>{0.999f, 0.001f, 0.999f, 0.001f});
  Tensor t(Shape{1, 4}, std::vector<float>{1.0f, 0.0f, 1.0f, 0.0f});
  LossResult good = BinaryCrossEntropy(p, t);
  Tensor bad_p(Shape{1, 4}, std::vector<float>{0.5f, 0.5f, 0.5f, 0.5f});
  LossResult bad = BinaryCrossEntropy(bad_p, t);
  EXPECT_LT(good.loss, bad.loss);
}

TEST(BceTest, GradientMatchesFiniteDifferences) {
  Rng rng(12);
  Tensor p(Shape{2, 3});
  Tensor t(Shape{2, 3});
  for (int64_t i = 0; i < p.size(); ++i) {
    p[i] = 0.2f + 0.6f * rng.NextFloat();
    t[i] = rng.NextFloat() < 0.5f ? 0.0f : 1.0f;
  }
  LossResult r = BinaryCrossEntropy(p, t);
  const float eps = 1e-4f;
  for (int64_t i = 0; i < p.size(); ++i) {
    Tensor pp = p;
    Tensor pm = p;
    pp[i] += eps;
    pm[i] -= eps;
    double numeric = (BinaryCrossEntropy(pp, t).loss -
                      BinaryCrossEntropy(pm, t).loss) /
                     (2.0 * eps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-2);
  }
}

TEST(AdamTest, SolvesXor) {
  Rng rng(14);
  Sequential net;
  net.Add<Linear>(2, 8, &rng);
  net.Add<Tanh>();
  net.Add<Linear>(8, 2, &rng);
  Adam opt(net.Params(), 0.02f);
  const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int> labels{0, 1, 1, 0};
  for (int step = 0; step < 400; ++step) {
    Tensor x(Shape{4, 2});
    for (int i = 0; i < 4; ++i) {
      x.At2(i, 0) = xs[i][0];
      x.At2(i, 1) = xs[i][1];
    }
    opt.ZeroGrad();
    Tape tape;
    Tensor logits = net.Forward(x, &tape);
    LossResult r = SoftmaxCrossEntropy(logits, labels);
    net.Backward(r.grad, tape);
    opt.Step();
  }
  Tensor x(Shape{4, 2});
  for (int i = 0; i < 4; ++i) {
    x.At2(i, 0) = xs[i][0];
    x.At2(i, 1) = xs[i][1];
  }
  Tensor logits = net.Forward(x);
  for (int i = 0; i < 4; ++i) {
    int pred = logits.At2(i, 0) > logits.At2(i, 1) ? 0 : 1;
    EXPECT_EQ(pred, labels[static_cast<size_t>(i)]) << "sample " << i;
  }
}

TEST(AdamTest, ConvNetLearnsBrightVsDark) {
  // A 2-class toy image problem: bright-center vs dark-center 8x8 images.
  Rng rng(15);
  Sequential net;
  net.Add<Conv2d>(1, 4, 3, 2, 1, &rng);
  net.Add<ReLU>();
  net.Add<Flatten>();
  net.Add<Linear>(4 * 4 * 4, 2, &rng);
  Adam opt(net.Params(), 0.01f);
  auto make_batch = [&](int n, Tensor* x, std::vector<int>* labels) {
    *x = Tensor(Shape{n, 1, 8, 8});
    labels->clear();
    for (int i = 0; i < n; ++i) {
      int label = rng.NextBernoulli(0.5) ? 1 : 0;
      labels->push_back(label);
      for (int64_t h = 0; h < 8; ++h) {
        for (int64_t w = 0; w < 8; ++w) {
          float base = label == 1 && h >= 2 && h < 6 && w >= 2 && w < 6
                           ? 0.9f
                           : 0.1f;
          x->At4(i, 0, h, w) =
              std::clamp(base + 0.05f * static_cast<float>(rng.NextGaussian()),
                         0.0f, 1.0f);
        }
      }
    }
  };
  for (int step = 0; step < 120; ++step) {
    Tensor x;
    std::vector<int> labels;
    make_batch(16, &x, &labels);
    opt.ZeroGrad();
    Tape tape;
    Tensor logits = net.Forward(x, &tape);
    LossResult r = SoftmaxCrossEntropy(logits, labels);
    net.Backward(r.grad, tape);
    opt.Step();
  }
  Tensor x;
  std::vector<int> labels;
  make_batch(64, &x, &labels);
  Tensor logits = net.Forward(x);
  int correct = 0;
  for (int i = 0; i < 64; ++i) {
    int pred = logits.At2(i, 0) > logits.At2(i, 1) ? 0 : 1;
    if (pred == labels[static_cast<size_t>(i)]) ++correct;
  }
  EXPECT_GE(correct, 58) << "conv net failed to learn a separable problem";
}

TEST(ParameterTest, GradientIsAllocatedOnlyWhenTrainingNeedsIt) {
  Rng rng(7);
  Conv2d conv(2, 3, 3, 1, 1, &rng);
  Tensor x = RandomTensor(Shape{1, 2, 5, 5}, &rng);
  Tape tape;
  Tensor y = conv.Forward(x, &tape);
  // Inference, even with a tape, leaves the gradient buffers unallocated.
  for (Parameter* p : conv.Params()) EXPECT_TRUE(p->grad.empty());
  // A backward pass allocates them as zeros and accumulates into them,
  // exactly as into buffers zeroed up front.
  conv.Backward(ObjectiveGrad(y), tape);
  Conv2d zeroed(2, 3, 3, 1, 1, &rng);
  for (size_t i = 0; i < zeroed.Params().size(); ++i) {
    zeroed.Params()[i]->value = conv.Params()[i]->value;
    zeroed.Params()[i]->ZeroGrad();
  }
  Tape zeroed_tape;
  zeroed.Forward(x, &zeroed_tape);
  zeroed.Backward(ObjectiveGrad(y), zeroed_tape);
  for (size_t i = 0; i < conv.Params().size(); ++i) {
    ExpectBitwiseEqual(conv.Params()[i]->grad, zeroed.Params()[i]->grad);
  }
  // ZeroGrad keeps the buffer and clears it.
  conv.Params()[0]->ZeroGrad();
  EXPECT_EQ(conv.Params()[0]->grad.shape(), conv.Params()[0]->value.shape());
  for (int64_t i = 0; i < conv.Params()[0]->grad.size(); ++i) {
    ASSERT_EQ(conv.Params()[0]->grad[i], 0.0f);
  }
}

TEST(SequentialTest, ParamsAggregatesAllLayers) {
  Rng rng(16);
  Sequential net;
  net.Add<Linear>(3, 4, &rng);
  net.Add<ReLU>();
  net.Add<Linear>(4, 2, &rng);
  EXPECT_EQ(net.Params().size(), 4u);  // 2 weights + 2 biases
  EXPECT_EQ(net.NumParameters(), 3 * 4 + 4 + 4 * 2 + 2);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(17);
  Sequential a;
  a.Add<Linear>(3, 4, &rng);
  a.Add<ReLU>();
  a.Add<Linear>(4, 2, &rng);
  Sequential b;
  b.Add<Linear>(3, 4, &rng);
  b.Add<ReLU>();
  b.Add<Linear>(4, 2, &rng);
  std::stringstream stream;
  ASSERT_TRUE(SaveParameters(&a, &stream).ok());
  ASSERT_TRUE(LoadParameters(&b, &stream).ok());
  Tensor x = RandomTensor(Shape{2, 3}, &rng);
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (int64_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(SerializeTest, ConvNetRoundTrip) {
  Rng rng(170);
  auto build = [&]() {
    Sequential net;
    net.Add<Conv2d>(1, 4, 3, 2, 1, &rng);
    net.Add<ReLU>();
    net.Add<Conv2d>(4, 8, 3, 2, 1, &rng);
    net.Add<Flatten>();
    net.Add<Linear>(8 * 4 * 4, 3, &rng);
    return net;
  };
  Sequential a = build();
  Sequential b = build();
  std::stringstream stream;
  ASSERT_TRUE(SaveParameters(&a, &stream).ok());
  ASSERT_TRUE(LoadParameters(&b, &stream).ok());
  Tensor x = RandomTensor(Shape{2, 1, 16, 16}, &rng);
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (int64_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(SerializeTest, LoadRejectsMismatchedArchitecture) {
  Rng rng(18);
  Sequential a;
  a.Add<Linear>(3, 4, &rng);
  Sequential b;
  b.Add<Linear>(3, 5, &rng);
  std::stringstream stream;
  ASSERT_TRUE(SaveParameters(&a, &stream).ok());
  EXPECT_FALSE(LoadParameters(&b, &stream).ok());
}

TEST(SerializeTest, LoadRejectsGarbage) {
  Sequential a;
  std::stringstream stream;
  stream << "not a model";
  EXPECT_FALSE(LoadParameters(&a, &stream).ok());
}

TEST(InitTest, HeInitVarianceScaled) {
  Rng rng(20);
  Tensor w(Shape{1000, 50});
  HeInit(&w, 50, &rng);
  stats::RunningMoments m;
  for (int64_t i = 0; i < w.size(); ++i) m.Add(w[i]);
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.stddev(), std::sqrt(2.0 / 50.0), 0.01);
}

}  // namespace
}  // namespace vdrift::nn
