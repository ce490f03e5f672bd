#ifndef VDRIFT_TENSOR_GEMM_H_
#define VDRIFT_TENSOR_GEMM_H_

// Internal to vdrift_tensor: the register-blocked GEMM microkernel under
// tensor::Matmul / MatmulInto. Only ops.cc and the kernel tests include it.

#include <cstdint>

namespace vdrift::tensor::gemm {

/// \brief Writes rows [row_begin, row_end) of C = A·B for row-major
/// A [m, k], B [k, n] and C [m, n], overwriting those rows of C.
///
/// Bit-identity contract: every C element starts at 0.0f and adds its k
/// products a[i][kk] * b[kk][j] in ascending kk, each as one multiply and
/// then one add (never fused). That is the exact sequence of the scalar
/// i-k-j loop, so every build below, every tile position and every row
/// split gives the same bits.
using RowsKernel = void (*)(const float* a, const float* b, float* c,
                            int64_t k, int64_t n, int64_t row_begin,
                            int64_t row_end);

/// The kernel built for the baseline ISA of the target (SSE2 on x86-64).
void RowsBaseline(const float* a, const float* b, float* c, int64_t k,
                  int64_t n, int64_t row_begin, int64_t row_end);

#if defined(__x86_64__)
/// The same kernel built with AVX2 enabled (FMA stays off). Call only when
/// the CPU supports AVX2.
void RowsAvx2(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t row_begin, int64_t row_end);
#endif

/// The build this CPU runs: RowsAvx2 when it has AVX2, RowsBaseline
/// otherwise. Chosen once, at the first call.
RowsKernel Rows();

}  // namespace vdrift::tensor::gemm

#endif  // VDRIFT_TENSOR_GEMM_H_
