#pragma once
// Sobel 3x3 edge-detection kernel (campaign workload): gradient magnitude of
// a synthetic 8-bit image — the second image-processing benchmark next to
// conv2d, structured so its MACs hit the batched u8 table path while the
// gradient differences exercise signed adds.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/kernel.hpp"

namespace axdse::workloads {

/// out(y,x) = |Gx| + |Gy| over the valid interior, where Gx/Gy are the Sobel
/// gradients. Each gradient is computed as the difference of two smoothed
/// 3-MAC sums with the separable weight vector (1 2 1):
///   Gx = smooth(column x+2) - smooth(column x)
///   Gy = smooth(row y+2)    - smooth(row y)
/// 8-bit data and weights (batched u8 MACs, strided for Gx, contiguous for
/// Gy), signed adds for the differences and the magnitude.
/// Variables: one per image row band, "kx", "ky", "acc".
class SobelKernel final : public Kernel {
 public:
  /// A `height` x `width` random 8-bit image. `row_bands` >= 1 splits the
  /// output rows into bands with one selection variable each.
  /// Throws std::invalid_argument if the image is smaller than 3x3 or
  /// row_bands is 0 or exceeds the output height.
  SobelKernel(std::size_t height, std::size_t width, std::size_t row_bands,
              std::uint64_t seed);

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

  std::size_t VarOfKx() const noexcept { return row_bands_; }
  std::size_t VarOfKy() const noexcept { return row_bands_ + 1; }
  std::size_t VarOfAccumulator() const noexcept { return row_bands_ + 2; }
  /// Variable covering output row `y`.
  std::size_t VarOfRow(std::size_t y) const noexcept;

  std::size_t Height() const noexcept { return height_; }
  std::size_t Width() const noexcept { return width_; }

  /// Data accessors (for tests): image pixel and smoothing weight (1 2 1).
  std::uint8_t Pixel(std::size_t y, std::size_t x) const {
    return image_[y * width_ + x];
  }
  std::uint8_t SmoothWeight(std::size_t i) const { return smooth_[i]; }

 private:
  /// The one body behind Run and RunLanes, for either context.
  template <class Ctx>
  std::vector<double> Body(Ctx& ctx) const;

  std::size_t height_;
  std::size_t width_;
  std::size_t row_bands_;
  std::string name_;
  std::vector<std::uint8_t> image_;
  /// Separable Sobel smoothing weights {1, 2, 1}; stored narrow so the
  /// batched MACs take the u8 table path.
  std::vector<std::uint8_t> smooth_;
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
};

namespace detail {

/// The Sobel arithmetic of SobelKernel and the edge-path sobel stage, for
/// either context: per interior pixel, Gx and Gy as differences of two
/// (1 2 1)-smoothed 3-MACs (pixel first operand), then |Gx| + |Gy|, with
/// negation and abs as wiring. `row_var(y)` names output row y's image
/// variable; `emit(i, value)` receives output i in row-major order.
template <class Ctx, class Pixel, class Weight, class RowVar, class Emit>
void SobelMagnitude(Ctx& ctx, const Pixel* image, std::size_t height,
                    std::size_t width, const Weight* smooth, RowVar row_var,
                    std::size_t kx_var, std::size_t ky_var,
                    std::size_t acc_var, Emit emit) {
  const auto neg = [](std::int64_t v) { return -v; };
  const auto abs = [](std::int64_t v) { return v < 0 ? -v : v; };
  const std::size_t out_rows = height - 2;
  const std::size_t out_cols = width - 2;
  for (std::size_t y = 0; y < out_rows; ++y) {
    const std::size_t rv = row_var(y);
    for (std::size_t x = 0; x < out_cols; ++x) {
      // Gx: smoothed right column minus smoothed left column (stride =
      // image width).
      const auto gx_pos = ctx.DotAccumulate(0, &image[y * width + x + 2],
                                            width, smooth, 1, 3,
                                            {rv, kx_var}, {acc_var});
      const auto gx_neg = ctx.DotAccumulate(0, &image[y * width + x], width,
                                            smooth, 1, 3, {rv, kx_var},
                                            {acc_var});
      const auto gx = ctx.Add(gx_pos, ctx.Map(gx_neg, neg), {acc_var});
      // Gy: smoothed bottom row minus smoothed top row (contiguous).
      const auto gy_pos = ctx.DotAccumulate(0, &image[(y + 2) * width + x], 1,
                                            smooth, 1, 3, {rv, ky_var},
                                            {acc_var});
      const auto gy_neg = ctx.DotAccumulate(0, &image[y * width + x], 1,
                                            smooth, 1, 3, {rv, ky_var},
                                            {acc_var});
      const auto gy = ctx.Add(gy_pos, ctx.Map(gy_neg, neg), {acc_var});
      emit(y * out_cols + x,
           ctx.Add(ctx.Map(gx, abs), ctx.Map(gy, abs), {acc_var}));
    }
  }
}

}  // namespace detail

}  // namespace axdse::workloads
