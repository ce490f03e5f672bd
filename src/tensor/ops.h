#ifndef VDRIFT_TENSOR_OPS_H_
#define VDRIFT_TENSOR_OPS_H_

#include "tensor/tensor.h"

namespace vdrift::tensor {

/// c = a * b (elementwise; shapes must match).
Tensor Mul(const Tensor& a, const Tensor& b);
/// a += b in place (shapes must match).
void AddInPlace(Tensor* a, const Tensor& b);

/// Matrix product of a [m, k] tensor with a [k, n] tensor -> [m, n].
/// Runs the register-blocked kernel of tensor/gemm.h (AVX2 when the CPU
/// has it); bit-identical to the scalar i-k-j loop on every build. It is
/// the one GEMM: a product with a transposed operand transposes it first
/// (Transpose2D), which keeps every element's k-ordered sequence.
Tensor Matmul(const Tensor& a, const Tensor& b);

/// Matmul into caller-owned storage: overwrites the m * n row-major floats
/// at `out` with a [m, k] x b [k, n].
void MatmulInto(const Tensor& a, const Tensor& b, float* out);

/// Transpose of a 2-D tensor.
Tensor Transpose2D(const Tensor& a);

/// Sum of all elements.
double Sum(const Tensor& a);

/// Mean of all elements (0 for empty tensors).
double Mean(const Tensor& a);

/// im2col for 2-D convolution. Input: [C, H, W]. Output: a
/// [C*kh*kw, out_h*out_w] matrix whose columns are the receptive fields.
/// Out-of-bounds (padding) cells are zero.
Tensor Im2Col(const Tensor& input, int kh, int kw, int stride, int pad,
              int out_h, int out_w);

/// Im2Col of the [channels, height, width] row-major image at `input`
/// (e.g. one sample of an NCHW batch, read in place).
Tensor Im2Col(const float* input, int channels, int height, int width, int kh,
              int kw, int stride, int pad, int out_h, int out_w);

/// Inverse of Im2Col: scatters (accumulates) columns back into a [C, H, W]
/// tensor. Used by the convolution backward pass.
Tensor Col2Im(const Tensor& cols, int channels, int height, int width, int kh,
              int kw, int stride, int pad, int out_h, int out_w);

/// Output spatial extent of a convolution along one axis.
inline int ConvOutDim(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace vdrift::tensor

#endif  // VDRIFT_TENSOR_OPS_H_
