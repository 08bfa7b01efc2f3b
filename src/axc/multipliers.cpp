#include "axc/multipliers.hpp"

#include <stdexcept>

#include "axc/op_primitives.hpp"

namespace axdse::axc {

namespace {

void CheckOperandBits(int operand_bits) {
  if (operand_bits < 1 || operand_bits > 32)
    throw std::invalid_argument("multiplier: operand_bits must be in [1,32]");
}

}  // namespace

// The family arithmetic lives in axc/op_primitives.hpp (shared with the
// compiled-plan dispatcher); these classes adapt it to the catalog /
// characterization interface.

const std::uint32_t* Multiplier::Table8() const noexcept {
  if (OperandBits() > 8) return nullptr;
  std::call_once(table8_once_, [this]() noexcept {
    auto table = std::unique_ptr<std::uint32_t[]>(
        new (std::nothrow) std::uint32_t[65536]);
    if (!table) return;  // allocation failure: stay on the compute path
    for (std::uint64_t a = 0; a < 256; ++a)
      for (std::uint64_t b = 0; b < 256; ++b)
        table[(a << 8) | b] = static_cast<std::uint32_t>(Multiply(a, b));
    table8_ = std::move(table);
  });
  return table8_.get();
}

std::int64_t Multiplier::MultiplySigned(std::int64_t a,
                                        std::int64_t b) const noexcept {
  return ops::SignedMul(
      [this](std::uint64_t x, std::uint64_t y) noexcept {
        return Multiply(x, y);
      },
      a, b);
}

ExactMultiplier::ExactMultiplier(int operand_bits)
    : operand_bits_(operand_bits) {
  CheckOperandBits(operand_bits);
}

std::string ExactMultiplier::Describe() const { return "Exact"; }

std::uint64_t ExactMultiplier::Multiply(std::uint64_t a,
                                        std::uint64_t b) const noexcept {
  return ops::ExactMulFn{}(a, b);
}

PpTruncatedMultiplier::PpTruncatedMultiplier(int operand_bits, int cut_column)
    : operand_bits_(operand_bits), cut_column_(cut_column) {
  CheckOperandBits(operand_bits);
  if (cut_column < 1 || cut_column > 2 * operand_bits - 1)
    throw std::invalid_argument(
        "multiplier: cut_column must be in [1, 2*operand_bits-1]");
}

std::string PpTruncatedMultiplier::Describe() const {
  return "PPTrunc(c=" + std::to_string(cut_column_) + ")";
}

std::uint64_t PpTruncatedMultiplier::Multiply(std::uint64_t a,
                                              std::uint64_t b) const noexcept {
  return ops::PpTruncatedMul(a, b, cut_column_);
}

OperandTruncatedMultiplier::OperandTruncatedMultiplier(int operand_bits,
                                                       int trunc_bits)
    : operand_bits_(operand_bits), trunc_bits_(trunc_bits) {
  CheckOperandBits(operand_bits);
  if (trunc_bits < 1 || trunc_bits >= operand_bits)
    throw std::invalid_argument(
        "multiplier: trunc_bits must be in [1, operand_bits)");
}

std::string OperandTruncatedMultiplier::Describe() const {
  return "OpTrunc(k=" + std::to_string(trunc_bits_) + ")";
}

std::uint64_t OperandTruncatedMultiplier::Multiply(
    std::uint64_t a, std::uint64_t b) const noexcept {
  return ops::OperandTruncatedMul(a, b, trunc_bits_);
}

MitchellLogMultiplier::MitchellLogMultiplier(int operand_bits)
    : operand_bits_(operand_bits) {
  CheckOperandBits(operand_bits);
}

std::string MitchellLogMultiplier::Describe() const { return "Mitchell"; }

std::uint64_t MitchellLogMultiplier::Multiply(std::uint64_t a,
                                              std::uint64_t b) const noexcept {
  return ops::MitchellLogMul(a, b);
}

DrumMultiplier::DrumMultiplier(int operand_bits, int kept_bits)
    : operand_bits_(operand_bits), kept_bits_(kept_bits) {
  CheckOperandBits(operand_bits);
  if (kept_bits < 2 || kept_bits > operand_bits)
    throw std::invalid_argument(
        "multiplier: kept_bits must be in [2, operand_bits]");
}

std::string DrumMultiplier::Describe() const {
  return "DRUM(k=" + std::to_string(kept_bits_) + ")";
}

std::uint64_t DrumMultiplier::Multiply(std::uint64_t a,
                                       std::uint64_t b) const noexcept {
  return ops::DrumMul(a, b, kept_bits_);
}

LeadingOneMultiplier::LeadingOneMultiplier(int operand_bits, int msb_bits)
    : operand_bits_(operand_bits), msb_bits_(msb_bits) {
  CheckOperandBits(operand_bits);
  if (msb_bits < 1 || msb_bits > operand_bits)
    throw std::invalid_argument(
        "multiplier: msb_bits must be in [1, operand_bits]");
}

std::string LeadingOneMultiplier::Describe() const {
  return "LeadOne(m=" + std::to_string(msb_bits_) + ")";
}

std::uint64_t LeadingOneMultiplier::Multiply(std::uint64_t a,
                                             std::uint64_t b) const noexcept {
  return ops::LeadingOneMul(a, b, msb_bits_);
}

KulkarniMultiplier::KulkarniMultiplier(int operand_bits)
    : operand_bits_(operand_bits) {
  CheckOperandBits(operand_bits);
}

std::string KulkarniMultiplier::Describe() const { return "Kulkarni2x2"; }

std::uint64_t KulkarniMultiplier::Multiply(std::uint64_t a,
                                           std::uint64_t b) const noexcept {
  return ops::KulkarniMul(a, b);
}

RobaMultiplier::RobaMultiplier(int operand_bits) : operand_bits_(operand_bits) {
  CheckOperandBits(operand_bits);
}

std::string RobaMultiplier::Describe() const { return "ROBA"; }

std::uint64_t RobaMultiplier::RoundToNearestPowerOfTwo(
    std::uint64_t v) noexcept {
  return ops::RoundToNearestPowerOfTwo(v);
}

std::uint64_t RobaMultiplier::Multiply(std::uint64_t a,
                                       std::uint64_t b) const noexcept {
  return ops::RobaMul(a, b);
}

std::shared_ptr<const Multiplier> MakeExactMultiplier(int operand_bits) {
  return std::make_shared<ExactMultiplier>(operand_bits);
}

std::shared_ptr<const Multiplier> MakePpTruncatedMultiplier(int operand_bits,
                                                            int cut_column) {
  return std::make_shared<PpTruncatedMultiplier>(operand_bits, cut_column);
}

std::shared_ptr<const Multiplier> MakeOperandTruncatedMultiplier(
    int operand_bits, int trunc_bits) {
  return std::make_shared<OperandTruncatedMultiplier>(operand_bits, trunc_bits);
}

std::shared_ptr<const Multiplier> MakeMitchellLogMultiplier(int operand_bits) {
  return std::make_shared<MitchellLogMultiplier>(operand_bits);
}

std::shared_ptr<const Multiplier> MakeDrumMultiplier(int operand_bits,
                                                     int kept_bits) {
  return std::make_shared<DrumMultiplier>(operand_bits, kept_bits);
}

std::shared_ptr<const Multiplier> MakeLeadingOneMultiplier(int operand_bits,
                                                           int msb_bits) {
  return std::make_shared<LeadingOneMultiplier>(operand_bits, msb_bits);
}

std::shared_ptr<const Multiplier> MakeKulkarniMultiplier(int operand_bits) {
  return std::make_shared<KulkarniMultiplier>(operand_bits);
}

std::shared_ptr<const Multiplier> MakeRobaMultiplier(int operand_bits) {
  return std::make_shared<RobaMultiplier>(operand_bits);
}

}  // namespace axdse::axc
