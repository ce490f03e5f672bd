#include "tensor/ops.h"

#include <algorithm>
#include <utility>

#include "obs/trace_log.h"
#include "runtime/parallel.h"
#include "tensor/gemm.h"

namespace vdrift::tensor {

namespace {

using runtime::GrainForCost;
using runtime::ParallelFor;
using runtime::ParallelReduce;

void CheckSameShape(const Tensor& a, const Tensor& b) {
  VDRIFT_CHECK(a.shape() == b.shape())
      << "shape mismatch: " << a.shape().ToString() << " vs "
      << b.shape().ToString();
}

// GEMM attribution: 2mkn FLOPs (one multiply + one add per inner-product
// term), bytes = the three operand matrices once through memory. The
// kernel does exactly this much arithmetic on every input — no
// data-dependent shortcuts — so the attribution is exact and benchmark
// numbers do not depend on operand sparsity.
int64_t GemmFlops(int64_t m, int64_t k, int64_t n) { return 2 * m * k * n; }
int64_t GemmBytes(int64_t m, int64_t k, int64_t n) {
  return static_cast<int64_t>(sizeof(float)) * (m * k + k * n + m * n);
}

// The outputs o in [0, out) of one convolution axis whose input index
// o * stride + offset lies inside [0, extent), as a half-open range.
std::pair<int, int> InsideRange(int offset, int extent, int stride,
                                int out) {
  // Smallest o >= 0 with o * stride >= bound.
  auto first_at_least = [stride](int bound) {
    return bound <= 0 ? 0 : (bound + stride - 1) / stride;
  };
  const int end = std::min(out, first_at_least(extent - offset));
  return {std::min(end, first_at_least(-offset)), end};
}

// Elementwise loops parallelize per index; each element's computation is
// order-independent, so any chunking is bit-identical to serial.
constexpr int64_t kElementwiseGrain = 1 << 15;

}  // namespace

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  float* o = out.data();
  const float* pb = b.data();
  ParallelFor(0, out.size(), kElementwiseGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) o[i] *= pb[i];
              });
  return out;
}

void AddInPlace(Tensor* a, const Tensor& b) {
  CheckSameShape(*a, b);
  float* pa = a->data();
  const float* pb = b.data();
  ParallelFor(0, a->size(), kElementwiseGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) pa[i] += pb[i];
              });
}

Tensor Matmul(const Tensor& a, const Tensor& b) {
  VDRIFT_CHECK(a.shape().ndim() == 2 && b.shape().ndim() == 2);
  Tensor out(Shape{a.shape().dim(0), b.shape().dim(1)});
  MatmulInto(a, b, out.data());
  return out;
}

void MatmulInto(const Tensor& a, const Tensor& b, float* out) {
  VDRIFT_CHECK(a.shape().ndim() == 2 && b.shape().ndim() == 2);
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  VDRIFT_CHECK(b.shape().dim(0) == k)
      << "matmul inner dim mismatch " << a.shape().ToString() << " x "
      << b.shape().ToString();
  int64_t n = b.shape().dim(1);
  VDRIFT_OP_PROBE("tensor", "matmul", GemmFlops(m, k, n),
                  GemmBytes(m, k, n));
  const float* pa = a.data();
  const float* pb = b.data();
  const gemm::RowsKernel rows = gemm::Rows();
  // Rows of C are independent, and the kernel gives each C element the
  // same k-ordered sequence wherever its row lands in a chunk, so every
  // chunking is bit-identical to serial (see tensor/gemm.h).
  ParallelFor(0, m, GrainForCost(2 * k * n),
              [&](int64_t row_begin, int64_t row_end) {
                rows(pa, pb, out, k, n, row_begin, row_end);
              });
}

Tensor Transpose2D(const Tensor& a) {
  VDRIFT_CHECK(a.shape().ndim() == 2);
  int64_t m = a.shape().dim(0);
  int64_t n = a.shape().dim(1);
  // Pure data movement: 0 FLOPs, input read once + output written once.
  VDRIFT_OP_PROBE("tensor", "transpose", 0,
                  2 * static_cast<int64_t>(sizeof(float)) * m * n);
  Tensor out(Shape{n, m});
  const float* pa = a.data();
  float* po = out.data();
  // Four input rows at a time: four sequential read streams, and four
  // contiguous writes into each output row (2-3x faster than one row at a
  // time on the [8, 1536] classifier-head weight). Leftover rows one at a
  // time.
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = pa + i * n;
    const float* a1 = a0 + n;
    const float* a2 = a1 + n;
    const float* a3 = a2 + n;
    for (int64_t j = 0; j < n; ++j) {
      float* o = po + j * m + i;
      o[0] = a0[j];
      o[1] = a1[j];
      o[2] = a2[j];
      o[3] = a3[j];
    }
  }
  for (; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  }
  return out;
}

double Sum(const Tensor& a) {
  const float* p = a.data();
  // Fixed chunking + in-order combine keeps the result bit-identical for
  // every thread count (see runtime/parallel.h).
  return ParallelReduce<double>(
      0, a.size(), kElementwiseGrain, 0.0,
      [&](int64_t begin, int64_t end) {
        double s = 0.0;
        for (int64_t i = begin; i < end; ++i) s += p[i];
        return s;
      },
      [](double acc, double partial) { return acc + partial; });
}

double Mean(const Tensor& a) {
  if (a.size() == 0) return 0.0;
  return Sum(a) / static_cast<double>(a.size());
}

Tensor Im2Col(const Tensor& input, int kh, int kw, int stride, int pad,
              int out_h, int out_w) {
  VDRIFT_CHECK(input.shape().ndim() == 3);
  return Im2Col(input.data(), static_cast<int>(input.shape().dim(0)),
                static_cast<int>(input.shape().dim(1)),
                static_cast<int>(input.shape().dim(2)), kh, kw, stride, pad,
                out_h, out_w);
}

Tensor Im2Col(const float* input, int channels, int height, int width, int kh,
              int kw, int stride, int pad, int out_h, int out_w) {
  int64_t rows = static_cast<int64_t>(channels) * kh * kw;
  int64_t cols = static_cast<int64_t>(out_h) * out_w;
  // Pure data movement: 0 FLOPs, input read once + output written once.
  VDRIFT_OP_PROBE("tensor", "im2col", 0,
                  static_cast<int64_t>(sizeof(float)) *
                      (static_cast<int64_t>(channels) * height * width +
                       rows * cols));
  // Zero-initialized, so the padding cells need no writes.
  Tensor out(Shape{rows, cols});
  float* po = out.data();
  // Each output row belongs to one (c, ky, kx) triple — thread-private.
  ParallelFor(0, rows, GrainForCost(cols), [&](int64_t row_begin,
                                               int64_t row_end) {
    for (int64_t row = row_begin; row < row_end; ++row) {
      int64_t c = row / (kh * kw);
      int ky = static_cast<int>((row / kw) % kh);
      int kx = static_cast<int>(row % kw);
      // The outputs whose input cell is inside the image; the loops below
      // copy exactly those, with no per-element bounds check.
      const auto [oy_begin, oy_end] =
          InsideRange(ky - pad, height, stride, out_h);
      const auto [ox_begin, ox_end] =
          InsideRange(kx - pad, width, stride, out_w);
      float* orow = po + row * cols;
      for (int oy = oy_begin; oy < oy_end; ++oy) {
        const int iy = oy * stride + ky - pad;
        const float* in_row = input + (c * height + iy) * width;
        float* o = orow + static_cast<int64_t>(oy) * out_w;
        for (int ox = ox_begin; ox < ox_end; ++ox) {
          o[ox] = in_row[ox * stride + kx - pad];
        }
      }
    }
  });
  return out;
}

Tensor Col2Im(const Tensor& cols, int channels, int height, int width, int kh,
              int kw, int stride, int pad, int out_h, int out_w) {
  VDRIFT_CHECK(cols.shape().ndim() == 2);
  VDRIFT_CHECK(cols.shape().dim(0) ==
               static_cast<int64_t>(channels) * kh * kw);
  VDRIFT_CHECK(cols.shape().dim(1) == static_cast<int64_t>(out_h) * out_w);
  // One accumulate per column cell; operands once through memory.
  VDRIFT_OP_PROBE(
      "tensor", "col2im", cols.size(),
      static_cast<int64_t>(sizeof(float)) *
          (cols.size() +
           static_cast<int64_t>(channels) * height * width));
  Tensor out(Shape{channels, height, width});
  const float* pc = cols.data();
  float* po = out.data();
  int64_t ncols = static_cast<int64_t>(out_h) * out_w;
  // Channels scatter into disjoint output planes, and within a channel
  // the (ky, kx, oy, ox) accumulation order matches the serial kernel.
  ParallelFor(
      0, channels,
      GrainForCost(static_cast<int64_t>(kh) * kw * ncols),
      [&](int64_t c_begin, int64_t c_end) {
        for (int64_t c = c_begin; c < c_end; ++c) {
          for (int ky = 0; ky < kh; ++ky) {
            for (int kx = 0; kx < kw; ++kx) {
              int64_t row = (c * kh + ky) * kw + kx;
              const float* crow = pc + row * ncols;
              for (int oy = 0; oy < out_h; ++oy) {
                int iy = oy * stride + ky - pad;
                if (iy < 0 || iy >= height) continue;
                for (int ox = 0; ox < out_w; ++ox) {
                  int ix = ox * stride + kx - pad;
                  if (ix < 0 || ix >= width) continue;
                  po[(c * height + iy) * width + ix] +=
                      crow[oy * out_w + ox];
                }
              }
            }
          }
        }
      });
  return out;
}

}  // namespace vdrift::tensor
