#pragma once
// Shared MAC-chain inner loops: the one implementation of the batched
// dot/axpy arithmetic, parameterized on resolved operator descriptors.
// Both the scalar ApproxContext (one configuration) and the lane-parallel
// MultiApproxContext (one representative lane per dedup group) dispatch
// through these, so "batched == scalar" holds by construction for the loop
// bodies and a SIMD change lands in both paths at once.
//
// Chain dispatch: every (multiplier opcode, adder opcode) pair has its own
// monomorphic loop (DotLoop / AxpyLoop), compiled with both functors
// inlined and the family parameters held in registers. DotChain/AxpyChain
// index a constexpr table of those loops by the two opcodes, so a call
// costs one indexed jump — no visitor, no closure copy, and the kVirtual
// out-of-line calls live only in the kVirtual loops. Exact operators are
// the named ops::ExactAddFn / ops::ExactMulFn, so a precise or exact-adder
// signed chain folds its sign-magnitude wrappers to modular arithmetic.
//
// SIMD policy (gated by the AXDSE_NO_SIMD build option):
//  - Exact accumulation is uint64 modular addition — associative and
//    commutative — so a vectorized reduction reorders bit-identically.
//    The unsigned u8 table path and exact*exact path carry `omp simd`
//    pragmas.
//  - Approximate adds are NOT associative (carry truncation etc.): those
//    chains keep the strict element order and never get a reduction pragma.
//    Signed dot chains carry no pragma either: they are short (the DCT's
//    eight MACs), where a vector prologue/epilogue costs more than it
//    saves. (GCC's cost model still auto-vectorizes the fully exact signed
//    chain at -O3, with emulated 64-bit multiplies, and no portable
//    per-loop switch keeps it scalar.)
//  - Element-independent loops (AXPY) may vectorize freely: no iteration
//    reads another's output, so lane order cannot change results.
// Compiled with -fopenmp-simd the pragmas vectorize without any OpenMP
// runtime dependency; with AXDSE_NO_SIMD they are compiled out entirely and
// the loops run scalar (the forced-fallback CI flavor).

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "axc/execution_plan.hpp"

#if defined(AXDSE_NO_SIMD)
#define AXDSE_SIMD_LOOP
#define AXDSE_SIMD_REDUCTION(var)
#else
#define AXDSE_PRAGMA_(text) _Pragma(#text)
#define AXDSE_SIMD_LOOP AXDSE_PRAGMA_(omp simd)
#define AXDSE_SIMD_REDUCTION(var) AXDSE_PRAGMA_(omp simd reduction(+ : var))
#endif

namespace axdse::instrument::detail {

/// The dot chain of one opcode pair; see DotChain for the contract.
template <class A, class B, axc::MulOpCode MC, axc::AddOpCode AC>
std::int64_t DotLoop(const axc::MulOpDescriptor& mul_d,
                     const axc::AddOpDescriptor& add_d, std::int64_t acc,
                     const A* a, std::size_t stride_a, const B* b,
                     std::size_t stride_b, std::size_t n) noexcept {
  const auto mul = axc::MulFnFor<MC>(mul_d);
  const auto add = axc::AddFnFor<AC>(add_d);
  constexpr bool kExactAdd = AC == axc::AddOpCode::kExact;
  if constexpr (std::is_unsigned_v<A> && std::is_unsigned_v<B>) {
    // Both element types unsigned: the whole chain is provably
    // non-negative (catalog data widths keep magnitudes far below 2^63),
    // so the sign-magnitude wrappers reduce to the identity.
    assert(acc >= 0);
    std::uint64_t uacc = static_cast<std::uint64_t>(acc);
    if constexpr (sizeof(A) == 1 && sizeof(B) == 1 &&
                  MC != axc::MulOpCode::kExact) {
      // 8-bit operands: approximate multipliers memoize their full 256x256
      // domain (MulOpDescriptor::table8), turning the family math into one
      // load per MAC. Bit-identical by construction.
      if (const std::uint32_t* table8 = mul_d.table8) {
        const auto product = [&](std::size_t i) -> std::uint64_t {
          return table8[(static_cast<std::uint64_t>(a[i * stride_a]) << 8) |
                        static_cast<std::uint64_t>(b[i * stride_b])];
        };
        if constexpr (kExactAdd) {
          AXDSE_SIMD_REDUCTION(uacc)
          for (std::size_t i = 0; i < n; ++i) uacc += product(i);
        } else {
          for (std::size_t i = 0; i < n; ++i) uacc = add(uacc, product(i));
        }
        return static_cast<std::int64_t>(uacc);
      }
    }
    if (stride_a == 1 && stride_b == 1) {
      // Contiguous operands on a separate loop: with the strides pinned the
      // optimizer can unroll/vectorize (the strided loop below defeats
      // that). A fully exact chain is a plain multiply-accumulate, safe to
      // reorder as a vector reduction.
      if constexpr (kExactAdd && MC == axc::MulOpCode::kExact) {
        AXDSE_SIMD_REDUCTION(uacc)
        for (std::size_t i = 0; i < n; ++i)
          uacc += static_cast<std::uint64_t>(a[i]) *
                  static_cast<std::uint64_t>(b[i]);
      } else {
        for (std::size_t i = 0; i < n; ++i)
          uacc = add(uacc, mul(static_cast<std::uint64_t>(a[i]),
                               static_cast<std::uint64_t>(b[i])));
      }
      return static_cast<std::int64_t>(uacc);
    }
    for (std::size_t i = 0; i < n; ++i)
      uacc = add(uacc, mul(static_cast<std::uint64_t>(a[i * stride_a]),
                           static_cast<std::uint64_t>(b[i * stride_b])));
    return static_cast<std::int64_t>(uacc);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      acc = axc::ops::SignedAdd(
          add, acc,
          axc::ops::SignedMul(mul, static_cast<std::int64_t>(a[i * stride_a]),
                              static_cast<std::int64_t>(b[i * stride_b])));
    return acc;
  }
}

/// The AXPY chain of one opcode pair; see AxpyChain for the contract.
template <class X, axc::MulOpCode MC, axc::AddOpCode AC>
void AxpyLoop(const axc::MulOpDescriptor& mul_d,
              const axc::AddOpDescriptor& add_d, std::int64_t* y, const X* x,
              std::size_t n, std::int64_t alpha) noexcept {
  const auto mul = axc::MulFnFor<MC>(mul_d);
  const auto add = axc::AddFnFor<AC>(add_d);
  AXDSE_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i)
    y[i] = axc::ops::SignedAdd(
        add, y[i],
        axc::ops::SignedMul(mul, alpha, static_cast<std::int64_t>(x[i])));
}

/// Position of an opcode pair in the chain tables.
constexpr std::size_t ChainIndex(const axc::MulOpDescriptor& mul_d,
                                 const axc::AddOpDescriptor& add_d) noexcept {
  return static_cast<std::size_t>(mul_d.code) * axc::kAddOpCodes +
         static_cast<std::size_t>(add_d.code);
}

template <class A, class B>
using DotLoopFn = std::int64_t (*)(const axc::MulOpDescriptor&,
                                   const axc::AddOpDescriptor&, std::int64_t,
                                   const A*, std::size_t, const B*,
                                   std::size_t, std::size_t) noexcept;

template <class X>
using AxpyLoopFn = void (*)(const axc::MulOpDescriptor&,
                            const axc::AddOpDescriptor&, std::int64_t*,
                            const X*, std::size_t, std::int64_t) noexcept;

template <class A, class B, std::size_t... I>
constexpr std::array<DotLoopFn<A, B>, sizeof...(I)> MakeDotLoops(
    std::index_sequence<I...>) noexcept {
  return {&DotLoop<A, B, static_cast<axc::MulOpCode>(I / axc::kAddOpCodes),
                   static_cast<axc::AddOpCode>(I % axc::kAddOpCodes)>...};
}

template <class X, std::size_t... I>
constexpr std::array<AxpyLoopFn<X>, sizeof...(I)> MakeAxpyLoops(
    std::index_sequence<I...>) noexcept {
  return {&AxpyLoop<X, static_cast<axc::MulOpCode>(I / axc::kAddOpCodes),
                    static_cast<axc::AddOpCode>(I % axc::kAddOpCodes)>...};
}

/// One monomorphic loop per opcode pair, indexed by ChainIndex.
template <class A, class B>
inline constexpr auto kDotLoops = MakeDotLoops<A, B>(
    std::make_index_sequence<axc::kMulOpCodes * axc::kAddOpCodes>{});
template <class X>
inline constexpr auto kAxpyLoops = MakeAxpyLoops<X>(
    std::make_index_sequence<axc::kMulOpCodes * axc::kAddOpCodes>{});

/// Chained MAC: returns acc after n steps of
///   acc = add(acc, mul(a[i*stride_a], b[i*stride_b]))
/// with both operators fixed to the given descriptors. Bit-identical to the
/// equivalent loop of scalar DispatchMulSigned/DispatchAddSigned calls
/// (operand order preserved: element product first operand is `a`,
/// accumulation first operand is the running `acc`).
template <class A, class B>
inline std::int64_t DotChain(const axc::MulOpDescriptor& mul_d,
                             const axc::AddOpDescriptor& add_d,
                             std::int64_t acc, const A* a, std::size_t stride_a,
                             const B* b, std::size_t stride_b,
                             std::size_t n) noexcept {
  static_assert(std::is_integral_v<A> && std::is_integral_v<B>,
                "DotChain operates on integral element types");
  if (n == 0) return acc;
  return kDotLoops<A, B>[ChainIndex(mul_d, add_d)](mul_d, add_d, acc, a,
                                                   stride_a, b, stride_b, n);
}

/// AXPY chain: y[i] = add(y[i], mul(alpha, x[i])) for i in [0, n) — `alpha`
/// is the product's FIRST operand (asymmetric families care). Elements are
/// independent, so the loop may vectorize without reordering hazards.
template <class X>
inline void AxpyChain(const axc::MulOpDescriptor& mul_d,
                      const axc::AddOpDescriptor& add_d, std::int64_t* y,
                      const X* x, std::size_t n, std::int64_t alpha) noexcept {
  static_assert(std::is_integral_v<X>,
                "AxpyChain operates on integral element types");
  if (n == 0) return;
  kAxpyLoops<X>[ChainIndex(mul_d, add_d)](mul_d, add_d, y, x, n, alpha);
}

}  // namespace axdse::instrument::detail
