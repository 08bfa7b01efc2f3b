#pragma once
// Biquad IIR low-pass kernel (extension workload): unlike the FIR benchmark,
// the recurrence feeds approximate results back into the datapath, so
// operator errors recirculate — the hardest structural case for approximate
// arithmetic in filters.

#include <cstdint>
#include <string>
#include <vector>

#include "signal/biquad.hpp"
#include "workloads/kernel.hpp"

namespace axdse::workloads {

/// Direct-form-I biquad on Q15 white noise:
///   y[n] = (b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2])
/// with Q15 coefficients, Q30 products accumulated by the 16-bit adder model
/// and rescaled (>>15) into the Q15 feedback state. Outputs the Q15 output
/// samples. Variables: "x", "b" (feed-forward), "a" (feedback), "acc".
class IirKernel final : public Kernel {
 public:
  /// Throws std::invalid_argument on invalid sizes/design parameters or an
  /// unstable design.
  IirKernel(std::size_t num_samples, double cutoff, std::uint64_t seed);

  const std::string& Name() const noexcept override;
  const axc::OperatorSet& Operators() const noexcept override {
    return operators_;
  }
  const std::vector<VariableInfo>& Variables() const noexcept override {
    return variables_;
  }
  std::vector<double> Run(instrument::ApproxContext& ctx) const override;
  bool SupportsLanes() const noexcept override { return true; }
  std::vector<double> RunLanes(
      instrument::MultiApproxContext& ctx) const override;

  std::size_t NumSamples() const noexcept { return x_.size(); }
  const signal::BiquadCoeffs& Design() const noexcept { return design_; }

  std::size_t VarOfInput() const noexcept { return 0; }
  std::size_t VarOfFeedForward() const noexcept { return 1; }
  std::size_t VarOfFeedback() const noexcept { return 2; }
  std::size_t VarOfAccumulator() const noexcept { return 3; }

  /// Q15 input samples (for tests).
  const std::vector<std::int32_t>& SamplesQ15() const noexcept { return x_; }

  /// Q15 coefficient accessors (for the batched/scalar equivalence tests):
  /// feed-forward {b0, b1, b2} and feedback {a1/2, a2}.
  const std::int32_t* FeedForwardQ15() const noexcept { return b_q15_; }
  const std::int32_t* FeedbackQ15() const noexcept { return a_q15_; }

 private:
  /// The one body behind Run and RunLanes, for either context.
  template <class Ctx>
  std::vector<double> Body(Ctx& ctx) const;

  signal::BiquadCoeffs design_;
  std::string name_;
  std::vector<std::int32_t> x_;  ///< Q15 input
  std::int32_t b_q15_[3] = {0, 0, 0};
  std::int32_t a_q15_[2] = {0, 0};
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
};

}  // namespace axdse::workloads
