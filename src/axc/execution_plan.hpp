#pragma once
// Compiled-plan operator dispatch: POD descriptors (opcode + family
// parameter) standing in for the virtual Adder/Multiplier hierarchy on the
// evaluate hot path. An ApproxSelection is fixed for an entire kernel run,
// so instrument::ApproxContext::Configure resolves each catalog model to a
// descriptor ONCE per configuration; every scalar op then goes through a
// flat, inlinable switch (Dispatch*) instead of a virtual call, and the
// batched MAC chains (instrument/mac_chains.hpp) jump straight to a loop
// compiled for the descriptor pair's opcodes (AddFnFor/MulFnFor).
//
// Operators outside the built-in families (user subclasses of Adder /
// Multiplier) degrade gracefully: their descriptor carries kVirtual plus
// the model pointer, and dispatch routes through the historical virtual
// call — identical results, identical cost to the pre-plan code.

#include <cstddef>
#include <cstdint>

#include "axc/op_primitives.hpp"

namespace axdse::axc {

class Adder;
class Multiplier;

enum class AddOpCode : std::uint8_t {
  kExact,
  kLowerOr,
  kTruncatedZero,
  kTruncatedPassA,
  kSegmentedCarry,
  kAlmostCorrect,
  kAma,
  kVirtual,  ///< fall back to Adder::Add through `fallback`
};

enum class MulOpCode : std::uint8_t {
  kExact,
  kPpTruncated,
  kOperandTruncated,
  kMitchell,
  kDrum,
  kLeadingOne,
  kKulkarni,
  kRoba,
  kVirtual,  ///< fall back to Multiplier::Multiply through `fallback`
};

/// POD adder descriptor: everything DispatchAdd needs, resolved once.
/// Content equality means "dispatches identically for every operand pair" —
/// the lane-parallel context merges lanes whose resolved descriptors compare
/// equal (e.g. a lane whose selected "approximate" adder is the exact one
/// shares the precise lanes' dedup group).
struct AddOpDescriptor {
  AddOpCode code = AddOpCode::kExact;
  std::int32_t param = 0;               ///< approx/segment bits or window
  const Adder* fallback = nullptr;      ///< kVirtual only

  friend bool operator==(const AddOpDescriptor&,
                         const AddOpDescriptor&) noexcept = default;
};

/// POD multiplier descriptor. Content equality mirrors AddOpDescriptor's:
/// equal descriptors dispatch identically for every operand pair.
struct MulOpDescriptor {
  MulOpCode code = MulOpCode::kExact;
  std::int32_t param = 0;               ///< cut column / kept / msb bits
  const Multiplier* fallback = nullptr; ///< kVirtual only
  /// Full 256x256 product table (table8[a << 8 | b] == Multiply(a, b)) for
  /// operators whose model lazily memoized its 8-bit domain — the batched
  /// u8 MAC loops turn family math into one load. Null for wide operators,
  /// the exact multiplier (a*b is cheaper than a load), and kVirtual.
  const std::uint32_t* table8 = nullptr;

  friend bool operator==(const MulOpDescriptor&,
                         const MulOpDescriptor&) noexcept = default;
};

/// A configuration compiled to operators: [0] = the precise operator the
/// unselected ops use, [1] = the selected approximate operator.
struct OperatorPlan {
  AddOpDescriptor add[2];
  MulOpDescriptor mul[2];
};

namespace detail {
/// Out-of-line virtual escapes (defined in execution_plan.cpp, which can
/// see the full Adder/Multiplier types without an include cycle).
std::uint64_t VirtualAdd(const Adder* model, std::uint64_t a,
                         std::uint64_t b) noexcept;
std::uint64_t VirtualMul(const Multiplier* model, std::uint64_t a,
                         std::uint64_t b) noexcept;
}  // namespace detail

/// Number of opcodes per operator kind (kVirtual is the last one): the
/// dimensions of the per-code tables in instrument/mac_chains.hpp.
inline constexpr std::size_t kAddOpCodes =
    static_cast<std::size_t>(AddOpCode::kVirtual) + 1;
inline constexpr std::size_t kMulOpCodes =
    static_cast<std::size_t>(MulOpCode::kVirtual) + 1;

/// The inlinable unsigned-add functor of opcode C with the descriptor's
/// family parameter bound. kExact yields the named ops::ExactAddFn, which
/// the sign-magnitude wrappers fold to modular arithmetic.
template <AddOpCode C>
constexpr auto AddFnFor(const AddOpDescriptor& d) noexcept {
  if constexpr (C == AddOpCode::kExact) {
    return ops::ExactAddFn{};
  } else if constexpr (C == AddOpCode::kLowerOr) {
    return [k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::LowerOrAdd(a, b, k);
    };
  } else if constexpr (C == AddOpCode::kTruncatedZero) {
    return [k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::TruncatedZeroAdd(a, b, k);
    };
  } else if constexpr (C == AddOpCode::kTruncatedPassA) {
    return [k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::TruncatedPassAAdd(a, b, k);
    };
  } else if constexpr (C == AddOpCode::kSegmentedCarry) {
    return [s = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::SegmentedCarryAdd(a, b, s);
    };
  } else if constexpr (C == AddOpCode::kAlmostCorrect) {
    return [w = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::AlmostCorrectAdd(a, b, w);
    };
  } else if constexpr (C == AddOpCode::kAma) {
    return [k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::AmaAdd(a, b, k);
    };
  } else {
    static_assert(C == AddOpCode::kVirtual);
    return [m = d.fallback](std::uint64_t a, std::uint64_t b) noexcept {
      return detail::VirtualAdd(m, a, b);
    };
  }
}

/// Multiplier counterpart of AddFnFor (kExact yields ops::ExactMulFn).
template <MulOpCode C>
constexpr auto MulFnFor(const MulOpDescriptor& d) noexcept {
  if constexpr (C == MulOpCode::kExact) {
    return ops::ExactMulFn{};
  } else if constexpr (C == MulOpCode::kPpTruncated) {
    return [c = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::PpTruncatedMul(a, b, c);
    };
  } else if constexpr (C == MulOpCode::kOperandTruncated) {
    return [k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::OperandTruncatedMul(a, b, k);
    };
  } else if constexpr (C == MulOpCode::kMitchell) {
    return [](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::MitchellLogMul(a, b);
    };
  } else if constexpr (C == MulOpCode::kDrum) {
    return [k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::DrumMul(a, b, k);
    };
  } else if constexpr (C == MulOpCode::kLeadingOne) {
    return [m = d.param](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::LeadingOneMul(a, b, m);
    };
  } else if constexpr (C == MulOpCode::kKulkarni) {
    return [](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::KulkarniMul(a, b);
    };
  } else if constexpr (C == MulOpCode::kRoba) {
    return [](std::uint64_t a, std::uint64_t b) noexcept {
      return ops::RobaMul(a, b);
    };
  } else {
    static_assert(C == MulOpCode::kVirtual);
    return [m = d.fallback](std::uint64_t a, std::uint64_t b) noexcept {
      return detail::VirtualMul(m, a, b);
    };
  }
}

/// Invokes `fn` with the descriptor's functor (AddFnFor) — the one switch
/// over add opcodes. `fn`'s return type must not depend on the functor.
template <class Fn>
decltype(auto) WithAddOp(const AddOpDescriptor& d, Fn&& fn) {
  switch (d.code) {
    case AddOpCode::kLowerOr:
      return fn(AddFnFor<AddOpCode::kLowerOr>(d));
    case AddOpCode::kTruncatedZero:
      return fn(AddFnFor<AddOpCode::kTruncatedZero>(d));
    case AddOpCode::kTruncatedPassA:
      return fn(AddFnFor<AddOpCode::kTruncatedPassA>(d));
    case AddOpCode::kSegmentedCarry:
      return fn(AddFnFor<AddOpCode::kSegmentedCarry>(d));
    case AddOpCode::kAlmostCorrect:
      return fn(AddFnFor<AddOpCode::kAlmostCorrect>(d));
    case AddOpCode::kAma:
      return fn(AddFnFor<AddOpCode::kAma>(d));
    case AddOpCode::kVirtual:
      return fn(AddFnFor<AddOpCode::kVirtual>(d));
    case AddOpCode::kExact:
      break;
  }
  return fn(AddFnFor<AddOpCode::kExact>(d));
}

/// Multiplier counterpart of WithAddOp.
template <class Fn>
decltype(auto) WithMulOp(const MulOpDescriptor& d, Fn&& fn) {
  switch (d.code) {
    case MulOpCode::kPpTruncated:
      return fn(MulFnFor<MulOpCode::kPpTruncated>(d));
    case MulOpCode::kOperandTruncated:
      return fn(MulFnFor<MulOpCode::kOperandTruncated>(d));
    case MulOpCode::kMitchell:
      return fn(MulFnFor<MulOpCode::kMitchell>(d));
    case MulOpCode::kDrum:
      return fn(MulFnFor<MulOpCode::kDrum>(d));
    case MulOpCode::kLeadingOne:
      return fn(MulFnFor<MulOpCode::kLeadingOne>(d));
    case MulOpCode::kKulkarni:
      return fn(MulFnFor<MulOpCode::kKulkarni>(d));
    case MulOpCode::kRoba:
      return fn(MulFnFor<MulOpCode::kRoba>(d));
    case MulOpCode::kVirtual:
      return fn(MulFnFor<MulOpCode::kVirtual>(d));
    case MulOpCode::kExact:
      break;
  }
  return fn(MulFnFor<MulOpCode::kExact>(d));
}

/// Unsigned add through the descriptor's switch.
inline std::uint64_t DispatchAdd(const AddOpDescriptor& d, std::uint64_t a,
                                 std::uint64_t b) noexcept {
  return WithAddOp(d, [=](auto add) noexcept { return add(a, b); });
}

/// Unsigned multiply through the descriptor's switch.
inline std::uint64_t DispatchMul(const MulOpDescriptor& d, std::uint64_t a,
                                 std::uint64_t b) noexcept {
  return WithMulOp(d, [=](auto mul) noexcept { return mul(a, b); });
}

/// Signed addition with the historical sign-magnitude semantics
/// (bit-identical to Adder::AddSigned for the same descriptor's model).
inline std::int64_t DispatchAddSigned(const AddOpDescriptor& d, std::int64_t a,
                                      std::int64_t b) noexcept {
  return WithAddOp(
      d, [=](auto add) noexcept { return ops::SignedAdd(add, a, b); });
}

/// Signed multiplication (bit-identical to Multiplier::MultiplySigned).
inline std::int64_t DispatchMulSigned(const MulOpDescriptor& d, std::int64_t a,
                                      std::int64_t b) noexcept {
  return WithMulOp(
      d, [=](auto mul) noexcept { return ops::SignedMul(mul, a, b); });
}

}  // namespace axdse::axc
