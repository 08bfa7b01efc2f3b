#pragma once
// 8x8 DCT-II kernel (extension workload): the transform at the heart of
// JPEG/MPEG — the canonical "accuracy-tolerant" application domain of the
// approximate-computing literature. Integer implementation: Q14 cosine
// coefficients, two instrumented matrix passes (C*X, then *C^T) with a >>14
// rescale between passes.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/kernel.hpp"

namespace axdse::workloads {

/// The orthonormal order-8 DCT-II matrix in Q14, row-major:
/// C[u][k] = s(u) * cos((2k+1) u pi / 16), s(0) = sqrt(1/8),
/// s(u>0) = sqrt(2/8). Shared by DctKernel and the jpeg-path dct stages.
std::vector<std::int32_t> DctMatrixQ14();

/// Computes Y = C * X * C^T for `blocks` random 8x8 uint8 blocks, where C is
/// the order-8 DCT-II matrix in Q14. Uses the 16-bit adder / 32-bit
/// multiplier operator set (products are up to ~22 bits). Outputs all 64
/// coefficients of every block (Q14-scaled integers).
/// Variables: "pixels", "coeffs", "acc".
class DctKernel final : public Kernel {
 public:
  /// Throws std::invalid_argument if blocks == 0.
  DctKernel(std::size_t blocks, std::uint64_t seed);

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

  std::size_t Blocks() const noexcept { return blocks_; }
  std::size_t VarOfPixels() const noexcept { return 0; }
  std::size_t VarOfCoeffs() const noexcept { return 1; }
  std::size_t VarOfAccumulator() const noexcept { return 2; }

  /// Q14 DCT matrix entry C[u][k] (for tests).
  std::int32_t CoefficientQ14(std::size_t u, std::size_t k) const {
    return dct_q14_[u * 8 + k];
  }

  /// Pixel accessor (for tests): block b, row r, column c.
  std::uint8_t Pixel(std::size_t b, std::size_t r, std::size_t c) const {
    return pixels_[(b * 8 + r) * 8 + c];
  }

 private:
  /// The one body behind Run and RunLanes, for either context.
  template <class Ctx>
  std::vector<double> Body(Ctx& ctx) const;

  std::size_t blocks_;
  std::string name_;
  std::vector<std::uint8_t> pixels_;     ///< blocks_ x 8 x 8
  std::vector<std::int32_t> dct_q14_;    ///< 8 x 8 DCT-II matrix, Q14
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
};

}  // namespace axdse::workloads
