#include "axc/adders.hpp"

#include <stdexcept>

#include "axc/op_primitives.hpp"

namespace axdse::axc {

namespace {

void CheckOperandBits(int operand_bits) {
  if (operand_bits < 1 || operand_bits > 64)
    throw std::invalid_argument("adder: operand_bits must be in [1,64]");
}

void CheckApproxBits(int operand_bits, int approx_bits) {
  CheckOperandBits(operand_bits);
  if (approx_bits < 1 || approx_bits > 63 || approx_bits > operand_bits)
    throw std::invalid_argument(
        "adder: approx_bits must be in [1,63] and <= operand_bits");
}

}  // namespace

// The family arithmetic lives in axc/op_primitives.hpp (shared with the
// compiled-plan dispatcher); these classes adapt it to the catalog /
// characterization interface.

std::int64_t Adder::AddSigned(std::int64_t a, std::int64_t b) const noexcept {
  return ops::SignedAdd(
      [this](std::uint64_t x, std::uint64_t y) noexcept { return Add(x, y); },
      a, b);
}

ExactAdder::ExactAdder(int operand_bits) : operand_bits_(operand_bits) {
  CheckOperandBits(operand_bits);
}

std::string ExactAdder::Describe() const { return "Exact"; }

std::uint64_t ExactAdder::Add(std::uint64_t a, std::uint64_t b) const noexcept {
  return ops::ExactAddFn{}(a, b);
}

LowerOrAdder::LowerOrAdder(int operand_bits, int approx_bits)
    : operand_bits_(operand_bits), approx_bits_(approx_bits) {
  CheckApproxBits(operand_bits, approx_bits);
}

std::string LowerOrAdder::Describe() const {
  return "LOA(k=" + std::to_string(approx_bits_) + ")";
}

std::uint64_t LowerOrAdder::Add(std::uint64_t a, std::uint64_t b) const noexcept {
  return ops::LowerOrAdd(a, b, approx_bits_);
}

TruncatedZeroAdder::TruncatedZeroAdder(int operand_bits, int approx_bits)
    : operand_bits_(operand_bits), approx_bits_(approx_bits) {
  CheckApproxBits(operand_bits, approx_bits);
}

std::string TruncatedZeroAdder::Describe() const {
  return "TruncZero(k=" + std::to_string(approx_bits_) + ")";
}

std::uint64_t TruncatedZeroAdder::Add(std::uint64_t a,
                                      std::uint64_t b) const noexcept {
  return ops::TruncatedZeroAdd(a, b, approx_bits_);
}

TruncatedPassAAdder::TruncatedPassAAdder(int operand_bits, int approx_bits)
    : operand_bits_(operand_bits), approx_bits_(approx_bits) {
  CheckApproxBits(operand_bits, approx_bits);
}

std::string TruncatedPassAAdder::Describe() const {
  return "TruncPassA(k=" + std::to_string(approx_bits_) + ")";
}

std::uint64_t TruncatedPassAAdder::Add(std::uint64_t a,
                                       std::uint64_t b) const noexcept {
  return ops::TruncatedPassAAdd(a, b, approx_bits_);
}

SegmentedCarryAdder::SegmentedCarryAdder(int operand_bits, int segment_bits)
    : operand_bits_(operand_bits), segment_bits_(segment_bits) {
  CheckOperandBits(operand_bits);
  if (segment_bits < 1 || segment_bits > 32)
    throw std::invalid_argument("adder: segment_bits must be in [1,32]");
}

std::string SegmentedCarryAdder::Describe() const {
  return "SegCarry(s=" + std::to_string(segment_bits_) + ")";
}

std::uint64_t SegmentedCarryAdder::Add(std::uint64_t a,
                                       std::uint64_t b) const noexcept {
  return ops::SegmentedCarryAdd(a, b, segment_bits_);
}

AlmostCorrectAdder::AlmostCorrectAdder(int operand_bits, int window)
    : operand_bits_(operand_bits), window_(window) {
  CheckOperandBits(operand_bits);
  if (window < 1 || window > 63)
    throw std::invalid_argument("adder: window must be in [1,63]");
}

std::string AlmostCorrectAdder::Describe() const {
  return "ACA(w=" + std::to_string(window_) + ")";
}

std::uint64_t AlmostCorrectAdder::Add(std::uint64_t a,
                                      std::uint64_t b) const noexcept {
  return ops::AlmostCorrectAdd(a, b, window_);
}

AmaAdder::AmaAdder(int operand_bits, int approx_bits)
    : operand_bits_(operand_bits), approx_bits_(approx_bits) {
  CheckApproxBits(operand_bits, approx_bits);
}

std::string AmaAdder::Describe() const {
  return "AMA1(k=" + std::to_string(approx_bits_) + ")";
}

std::uint64_t AmaAdder::Add(std::uint64_t a, std::uint64_t b) const noexcept {
  return ops::AmaAdd(a, b, approx_bits_);
}

std::shared_ptr<const Adder> MakeExactAdder(int operand_bits) {
  return std::make_shared<ExactAdder>(operand_bits);
}

std::shared_ptr<const Adder> MakeLowerOrAdder(int operand_bits,
                                              int approx_bits) {
  return std::make_shared<LowerOrAdder>(operand_bits, approx_bits);
}

std::shared_ptr<const Adder> MakeTruncatedZeroAdder(int operand_bits,
                                                    int approx_bits) {
  return std::make_shared<TruncatedZeroAdder>(operand_bits, approx_bits);
}

std::shared_ptr<const Adder> MakeTruncatedPassAAdder(int operand_bits,
                                                     int approx_bits) {
  return std::make_shared<TruncatedPassAAdder>(operand_bits, approx_bits);
}

std::shared_ptr<const Adder> MakeSegmentedCarryAdder(int operand_bits,
                                                     int segment_bits) {
  return std::make_shared<SegmentedCarryAdder>(operand_bits, segment_bits);
}

std::shared_ptr<const Adder> MakeAlmostCorrectAdder(int operand_bits,
                                                    int window) {
  return std::make_shared<AlmostCorrectAdder>(operand_bits, window);
}

std::shared_ptr<const Adder> MakeAmaAdder(int operand_bits, int approx_bits) {
  return std::make_shared<AmaAdder>(operand_bits, approx_bits);
}

}  // namespace axdse::axc
