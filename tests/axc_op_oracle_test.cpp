// Independent oracle for the branch-free operator primitives. The plan
// dispatch suite compares each descriptor with its virtual model, but both
// sides call the same ops:: functions, so it cannot see a change to them.
// This suite keeps the historical branchy forms — the sign-magnitude
// wrappers, DRUM, leading-one, Mitchell, and the shift forms of the
// truncating adders — as a reference written out here, and compares the
// shipped primitives, the descriptor dispatchers, the virtual models and
// the batched MAC chains against it bit for bit:
//
//   * on 0, 1, 2^k - 1, 2^k and 2^k + 1 for every k (and their negations,
//     plus INT64_MIN / INT64_MAX, for the signed forms);
//   * for every catalog parameter and every operand pair in each
//     operator's documented domain (multiplier products fit in 64 bits);
//   * on seeded random operands of random widths;
//   * with the operand-order-sensitive test operators, so a swapped
//     operand inside a wrapper or a chain is visible.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "axc/catalog.hpp"
#include "axc/execution_plan.hpp"
#include "common/test_support.hpp"
#include "instrument/mac_chains.hpp"
#include "util/rng.hpp"

namespace axdse::axc {
namespace {

// ---------------------------------------------------------------------------
// The reference: the branchy forms the primitives had before they were
// rewritten with masks.
// ---------------------------------------------------------------------------
namespace reference {

std::uint64_t Magnitude(std::int64_t v) {
  const std::uint64_t u = static_cast<std::uint64_t>(v);
  return v < 0 ? 0 - u : u;
}

std::int64_t WithSign(bool negative, std::uint64_t magnitude) {
  return static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
}

template <class AddFn>
std::int64_t SignedAdd(const AddFn& add, std::int64_t a, std::int64_t b) {
  if ((a >= 0) == (b >= 0))
    return WithSign(a < 0, add(Magnitude(a), Magnitude(b)));
  return a + b;  // mixed signs never overflow
}

template <class MulFn>
std::int64_t SignedMul(const MulFn& mul, std::int64_t a, std::int64_t b) {
  return WithSign((a < 0) != (b < 0), mul(Magnitude(a), Magnitude(b)));
}

int Msb(std::uint64_t v) { return 63 - std::countl_zero(v); }

std::uint64_t LowerOrAdd(std::uint64_t a, std::uint64_t b, int k) {
  const std::uint64_t high = (a >> k) + (b >> k);
  return (high << k) | ((a | b) & ((1ULL << k) - 1));
}

std::uint64_t TruncatedZeroAdd(std::uint64_t a, std::uint64_t b, int k) {
  return ((a >> k) + (b >> k)) << k;
}

std::uint64_t TruncatedPassAAdd(std::uint64_t a, std::uint64_t b, int k) {
  return (((a >> k) + (b >> k)) << k) | (a & ((1ULL << k) - 1));
}

std::uint64_t DrumMul(std::uint64_t a, std::uint64_t b, int k) {
  const auto reduce = [k](std::uint64_t v, int& shift) -> std::uint64_t {
    shift = 0;
    if (v < (1ULL << k)) return v;
    shift = Msb(v) - k + 1;
    return (v >> shift) | 1;
  };
  int sa = 0;
  int sb = 0;
  const std::uint64_t ra = reduce(a, sa);
  const std::uint64_t rb = reduce(b, sb);
  return (ra * rb) << (sa + sb);
}

std::uint64_t LeadingOneMul(std::uint64_t a, std::uint64_t b, int m) {
  const auto round_down = [m](std::uint64_t v) -> std::uint64_t {
    if (v < (1ULL << m)) return v;
    const int drop = Msb(v) - m + 1;
    return (v >> drop) << drop;
  };
  return round_down(a) * round_down(b);
}

std::uint64_t MitchellMul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  constexpr int kFrac = 30;
  const auto mantissa = [](std::uint64_t x, int k) -> std::uint64_t {
    const std::uint64_t frac = x - (1ULL << k);
    return k <= kFrac ? frac << (kFrac - k) : frac >> (k - kFrac);
  };
  const int ka = Msb(a);
  const int kb = Msb(b);
  const std::uint64_t fsum = mantissa(a, ka) + mantissa(b, kb);
  if (fsum < (1ULL << kFrac)) {  // 2^(ka+kb) * (1 + fsum)
    const std::uint64_t mant = fsum + (1ULL << kFrac);
    const int e = ka + kb;
    return e >= kFrac ? mant << (e - kFrac) : mant >> (kFrac - e);
  }
  const int e = ka + kb + 1;  // 2^(ka+kb+1) * fsum
  return e >= kFrac ? fsum << (e - kFrac) : fsum >> (kFrac - e);
}

/// The reference unsigned add of a descriptor: the historical shift forms
/// for the rewritten families, the model itself for the rest.
std::uint64_t Add(const AddOpDescriptor& d, const Adder& model,
                  std::uint64_t a, std::uint64_t b) {
  switch (d.code) {
    case AddOpCode::kExact:
      return a + b;
    case AddOpCode::kLowerOr:
      return LowerOrAdd(a, b, d.param);
    case AddOpCode::kTruncatedZero:
      return TruncatedZeroAdd(a, b, d.param);
    case AddOpCode::kTruncatedPassA:
      return TruncatedPassAAdd(a, b, d.param);
    default:
      return model.Add(a, b);
  }
}

/// Multiplier counterpart of Add.
std::uint64_t Mul(const MulOpDescriptor& d, const Multiplier& model,
                  std::uint64_t a, std::uint64_t b) {
  switch (d.code) {
    case MulOpCode::kExact:
      return a * b;
    case MulOpCode::kMitchell:
      return MitchellMul(a, b);
    case MulOpCode::kDrum:
      return DrumMul(a, b, d.param);
    case MulOpCode::kLeadingOne:
      return LeadingOneMul(a, b, d.param);
    default:
      return model.Multiply(a, b);
  }
}

}  // namespace reference

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// 0, 1, 2^k - 1, 2^k and 2^k + 1 for every k in [0, 63], plus 2^64 - 1.
std::vector<std::uint64_t> EdgeMagnitudes() {
  std::vector<std::uint64_t> v = {0, 1, ~0ULL};
  for (int k = 0; k < 64; ++k) {
    const std::uint64_t p = 1ULL << k;
    v.insert(v.end(), {p - 1, p, p + 1});
  }
  return v;
}

/// The edge magnitudes that fit a signed value, both signs, plus the int64
/// extremes.
std::vector<std::int64_t> EdgeSigned() {
  std::vector<std::int64_t> v = {kInt64Min, kInt64Max};
  for (const std::uint64_t m : EdgeMagnitudes()) {
    if (m > static_cast<std::uint64_t>(kInt64Max)) continue;
    const auto s = static_cast<std::int64_t>(m);
    v.push_back(s);
    v.push_back(-s);
  }
  return v;
}

/// A magnitude of uniformly random width in [0, max_bits].
std::uint64_t RandomMagnitude(util::Rng& rng, int max_bits) {
  const int bits = static_cast<int>(rng.UniformBelow(max_bits + 1));
  return bits == 0 ? 0 : (rng.NextBits() >> (64 - bits));
}

/// True when a * b fits in 64 bits — the multiplier interface's documented
/// precondition.
bool ProductFits(std::uint64_t a, std::uint64_t b) {
  return a == 0 || b <= ~0ULL / a;
}

// ---------------------------------------------------------------------------
// Unsigned families.
// ---------------------------------------------------------------------------

TEST(OpOracle, TruncatingAddersMatchShiftFormsForEveryWidth) {
  const auto edges = EdgeMagnitudes();
  util::Rng rng(5);
  for (int k = 1; k < 64; ++k) {
    std::vector<std::uint64_t> operands = edges;
    for (int i = 0; i < 64; ++i) operands.push_back(RandomMagnitude(rng, 64));
    for (const std::uint64_t a : operands) {
      for (const std::uint64_t b : operands) {
        ASSERT_EQ(ops::LowerOrAdd(a, b, k), reference::LowerOrAdd(a, b, k))
            << "LowerOr k=" << k << " a=" << a << " b=" << b;
        ASSERT_EQ(ops::TruncatedZeroAdd(a, b, k),
                  reference::TruncatedZeroAdd(a, b, k))
            << "TruncatedZero k=" << k << " a=" << a << " b=" << b;
        ASSERT_EQ(ops::TruncatedPassAAdd(a, b, k),
                  reference::TruncatedPassAAdd(a, b, k))
            << "TruncatedPassA k=" << k << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(OpOracle, DrumAndLeadingOneMatchBranchyFormsForEveryWidth) {
  const auto edges = EdgeMagnitudes();
  util::Rng rng(7);
  // Every kept width from 1 to 32 covers the catalog parameters (DRUM 16,
  // 13, 6, 3; leading-one 1) and the thresholds around every 2^k.
  for (int k = 1; k <= 32; ++k) {
    std::vector<std::uint64_t> operands = edges;
    for (int i = 0; i < 64; ++i) operands.push_back(RandomMagnitude(rng, 40));
    for (const std::uint64_t a : operands) {
      for (const std::uint64_t b : operands) {
        if (!ProductFits(a, b)) continue;
        ASSERT_EQ(ops::DrumMul(a, b, k), reference::DrumMul(a, b, k))
            << "DRUM k=" << k << " a=" << a << " b=" << b;
        ASSERT_EQ(ops::LeadingOneMul(a, b, k),
                  reference::LeadingOneMul(a, b, k))
            << "leading-one k=" << k << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(OpOracle, MitchellMatchesTwoCaseAntilog) {
  const auto edges = EdgeMagnitudes();
  util::Rng rng(11);
  std::vector<std::uint64_t> operands = edges;
  for (int i = 0; i < 256; ++i) operands.push_back(RandomMagnitude(rng, 40));
  for (const std::uint64_t a : operands) {
    for (const std::uint64_t b : operands) {
      if (!ProductFits(a, b)) continue;
      ASSERT_EQ(ops::MitchellLogMul(a, b), reference::MitchellMul(a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Sign-magnitude wrappers, through every entry point, for every catalog
// operator and the operand-order-sensitive test operators.
// ---------------------------------------------------------------------------

std::vector<AdderSpec> AllAdders() {
  const auto& catalog = EvoApproxCatalog::Instance();
  std::vector<AdderSpec> specs = catalog.Adders8();
  specs.insert(specs.end(), catalog.Adders16().begin(),
               catalog.Adders16().end());
  specs.push_back(
      testsupport::WithAsymmetricOperators(catalog.MatMulSet()).adders.back());
  return specs;
}

std::vector<MultiplierSpec> AllMultipliers() {
  const auto& catalog = EvoApproxCatalog::Instance();
  std::vector<MultiplierSpec> specs = catalog.Multipliers8();
  specs.insert(specs.end(), catalog.Multipliers32().begin(),
               catalog.Multipliers32().end());
  specs.push_back(testsupport::WithAsymmetricOperators(catalog.MatMulSet())
                      .multipliers.back());
  return specs;
}

TEST(OpOracle, SignedAddMatchesBranchyWrapper) {
  auto operands = EdgeSigned();
  util::Rng rng(13);
  for (int i = 0; i < 128; ++i) {
    const auto m = static_cast<std::int64_t>(RandomMagnitude(rng, 62));
    operands.push_back(rng.UniformBelow(2) == 1 ? -m : m);
  }
  for (const AdderSpec& spec : AllAdders()) {
    const AddOpDescriptor d = spec.model->PlanDescriptor();
    const auto ref_add = [&](std::uint64_t x, std::uint64_t y) {
      return reference::Add(d, *spec.model, x, y);
    };
    for (const std::int64_t a : operands) {
      for (const std::int64_t b : operands) {
        const std::int64_t want = reference::SignedAdd(ref_add, a, b);
        ASSERT_EQ(DispatchAddSigned(d, a, b), want)
            << spec.name << " a=" << a << " b=" << b;
        ASSERT_EQ(spec.model->AddSigned(a, b), want)
            << spec.name << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(OpOracle, SignedMulMatchesBranchyWrapper) {
  auto operands = EdgeSigned();
  util::Rng rng(17);
  for (int i = 0; i < 128; ++i) {
    const auto m = static_cast<std::int64_t>(RandomMagnitude(rng, 40));
    operands.push_back(rng.UniformBelow(2) == 1 ? -m : m);
  }
  for (const MultiplierSpec& spec : AllMultipliers()) {
    const MulOpDescriptor d = spec.model->PlanDescriptor();
    const auto ref_mul = [&](std::uint64_t x, std::uint64_t y) {
      return reference::Mul(d, *spec.model, x, y);
    };
    for (const std::int64_t a : operands) {
      for (const std::int64_t b : operands) {
        if (!ProductFits(reference::Magnitude(a), reference::Magnitude(b)))
          continue;
        const std::int64_t want = reference::SignedMul(ref_mul, a, b);
        ASSERT_EQ(DispatchMulSigned(d, a, b), want)
            << spec.name << " a=" << a << " b=" << b;
        ASSERT_EQ(spec.model->MultiplySigned(a, b), want)
            << spec.name << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(OpOracle, ExactFunctorsFoldToModularArithmetic) {
  // The exact functors skip sign-magnitude work; the result must still be
  // the wrapper's, including the wraparound at the int64 extremes.
  const auto operands = EdgeSigned();
  const auto add = [](std::uint64_t x, std::uint64_t y) { return x + y; };
  const auto mul = [](std::uint64_t x, std::uint64_t y) { return x * y; };
  for (const std::int64_t a : operands) {
    for (const std::int64_t b : operands) {
      ASSERT_EQ(ops::SignedAdd(ops::ExactAddFn{}, a, b),
                reference::SignedAdd(add, a, b))
          << "a=" << a << " b=" << b;
      ASSERT_EQ(ops::SignedMul(ops::ExactMulFn{}, a, b),
                reference::SignedMul(mul, a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

// ---------------------------------------------------------------------------
// The batched chains against a reference loop of reference wrappers, for
// every operator pair of both catalog sets plus the test operators.
// ---------------------------------------------------------------------------

TEST(OpOracle, MacChainsMatchReferenceLoops) {
  util::Rng rng(19);
  const auto& catalog = EvoApproxCatalog::Instance();
  for (const OperatorSet& set :
       {testsupport::WithAsymmetricOperators(catalog.MatMulSet()),
        testsupport::WithAsymmetricOperators(catalog.FirSet())}) {
    // DCT-shaped operands: pixel-scale signed values times Q14
    // coefficients, with zeros and sign changes throughout.
    std::vector<std::int64_t> a(72);
    std::vector<std::int32_t> b(72);
    for (auto& v : a) v = static_cast<std::int64_t>(rng.UniformBelow(1023)) - 511;
    for (auto& v : b)
      v = static_cast<std::int32_t>(rng.UniformBelow(32769)) - 16384;
    for (const AdderSpec& add_spec : set.adders) {
      for (const MultiplierSpec& mul_spec : set.multipliers) {
        const AddOpDescriptor ad = add_spec.model->PlanDescriptor();
        const MulOpDescriptor md = mul_spec.model->PlanDescriptor();
        const auto ref_add = [&](std::uint64_t x, std::uint64_t y) {
          return reference::Add(ad, *add_spec.model, x, y);
        };
        const auto ref_mul = [&](std::uint64_t x, std::uint64_t y) {
          return reference::Mul(md, *mul_spec.model, x, y);
        };
        const std::string what = add_spec.name + " x " + mul_spec.name;
        for (const std::size_t n : {std::size_t{1}, std::size_t{8},
                                    std::size_t{9}}) {
          for (const std::size_t stride : {std::size_t{1}, std::size_t{8}}) {
            const std::int64_t start =
                static_cast<std::int64_t>(rng.UniformBelow(1u << 20)) -
                (1 << 19);
            std::int64_t want = start;
            for (std::size_t i = 0; i < n; ++i)
              want = reference::SignedAdd(
                  ref_add, want,
                  reference::SignedMul(ref_mul, a[i * stride], b[i]));
            ASSERT_EQ(instrument::detail::DotChain(md, ad, start, a.data(),
                                                   stride, b.data(), 1, n),
                      want)
                << what << " n=" << n << " stride=" << stride;
          }
        }
        const std::int64_t alpha = b[rng.UniformBelow(b.size())];
        std::vector<std::int64_t> y(a.size()), want(a.size());
        for (std::size_t i = 0; i < y.size(); ++i) {
          y[i] = static_cast<std::int64_t>(rng.UniformBelow(1u << 24)) -
                 (1 << 23);
          want[i] = reference::SignedAdd(
              ref_add, y[i], reference::SignedMul(ref_mul, alpha, b[i]));
        }
        instrument::detail::AxpyChain(md, ad, y.data(), b.data(), y.size(),
                                      alpha);
        ASSERT_EQ(y, want) << what << " axpy";
      }
    }
  }
}

}  // namespace
}  // namespace axdse::axc
