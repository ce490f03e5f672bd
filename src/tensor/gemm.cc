#include "tensor/gemm.h"

#include <cstring>

namespace vdrift::tensor::gemm {

namespace {

// C columns one full tile spans, in every build.
constexpr int kTileCols = 16;

// A kRows x (kVecs * lanes) block of C held in registers across the whole
// k loop. Generic vectors (GCC/Clang `vector_size`) let one body compile to
// SSE2 or AVX2; each lane is one C element doing exactly what the scalar
// loop does (multiply, then add), so lane width never changes a bit.
// Operand rows carry no alignment guarantee: memcpy is the unaligned
// vector load/store.
template <typename Vec, int kRows, int kVecs>
[[gnu::always_inline]] inline void Tile(const float* a, const float* b,
                                        float* c, int64_t k, int64_t n) {
  constexpr int64_t kLanes = sizeof(Vec) / sizeof(float);
  Vec acc[kRows][kVecs];
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) acc[r][v] = Vec{};
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    Vec bv[kVecs];
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&bv[v], b + kk * n + v * kLanes, sizeof(Vec));
    }
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
      const float ark = a[r * k + kk];  // splat across the lanes
#pragma GCC unroll 16
      for (int v = 0; v < kVecs; ++v) acc[r][v] += ark * bv[v];
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(c + r * n + v * kLanes, &acc[r][v], sizeof(Vec));
    }
  }
}

// kRows rows of C: full tiles, then single vectors, then the last
// (n mod lanes) columns one element at a time in the same sequence.
template <typename Vec, int kRows>
[[gnu::always_inline]] inline void RowBlock(const float* a, const float* b,
                                            float* c, int64_t k, int64_t n) {
  constexpr int64_t kLanes = sizeof(Vec) / sizeof(float);
  int64_t j = 0;
  for (; j + kTileCols <= n; j += kTileCols) {
    Tile<Vec, kRows, kTileCols / kLanes>(a, b + j, c + j, k, n);
  }
  for (; j + kLanes <= n; j += kLanes) {
    Tile<Vec, kRows, 1>(a, b + j, c + j, k, n);
  }
  for (; j < n; ++j) {
    for (int r = 0; r < kRows; ++r) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[r * k + kk] * b[kk * n + j];
      c[r * n + j] = acc;
    }
  }
}

// The kernel body both builds share: kRows-row blocks, then leftover rows
// one at a time.
template <typename Vec, int kRows>
[[gnu::always_inline]] inline void RowsBody(const float* a, const float* b,
                                            float* c, int64_t k, int64_t n,
                                            int64_t row_begin,
                                            int64_t row_end) {
  int64_t i = row_begin;
  for (; i + kRows <= row_end; i += kRows) {
    RowBlock<Vec, kRows>(a + i * k, b, c + i * n, k, n);
  }
  for (; i < row_end; ++i) RowBlock<Vec, 1>(a + i * k, b, c + i * n, k, n);
}

using Float4 = float __attribute__((vector_size(16)));

}  // namespace

// 4x16 tiles of 4-lane vectors: 16 accumulators, the most that pays off
// with SSE2's 16 registers.
void RowsBaseline(const float* a, const float* b, float* c, int64_t k,
                  int64_t n, int64_t row_begin, int64_t row_end) {
  RowsBody<Float4, 4>(a, b, c, k, n, row_begin, row_end);
}

#if defined(__x86_64__)

namespace {
using Float8 = float __attribute__((vector_size(32)));
}  // namespace

// 6x16 tiles of 8-lane vectors: 12 accumulators plus the B row and the A
// broadcast fit AVX2's 16 registers. Only "avx2" is enabled, never "fma":
// with FMA available the compiler's default fp-contract would fuse the
// multiply and add and change the bits.
__attribute__((target("avx2"))) void RowsAvx2(const float* a, const float* b,
                                              float* c, int64_t k, int64_t n,
                                              int64_t row_begin,
                                              int64_t row_end) {
  RowsBody<Float8, 6>(a, b, c, k, n, row_begin, row_end);
}

#endif  // defined(__x86_64__)

RowsKernel Rows() {
  static const RowsKernel kernel = [] {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) return &RowsAvx2;
#endif
    return &RowsBaseline;
  }();
  return kernel;
}

}  // namespace vdrift::tensor::gemm
