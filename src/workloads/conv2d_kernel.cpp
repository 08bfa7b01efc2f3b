#include "workloads/conv2d_kernel.hpp"

#include <stdexcept>

#include "instrument/multi_approx_context.hpp"

namespace axdse::workloads {

Conv2DKernel::Conv2DKernel(std::size_t height, std::size_t width,
                           std::size_t row_bands, std::uint64_t seed)
    : height_(height),
      width_(width),
      row_bands_(row_bands),
      name_("conv2d-" + std::to_string(height) + "x" + std::to_string(width)),
      stencil_({1, 2, 1, 2, 4, 2, 1, 2, 1}),
      operators_(axc::EvoApproxCatalog::Instance().MatMulSet()) {
  if (height < 3 || width < 3)
    throw std::invalid_argument("Conv2DKernel: image must be at least 3x3");
  const std::size_t out_rows = height - 2;
  if (row_bands == 0 || row_bands > out_rows)
    throw std::invalid_argument("Conv2DKernel: invalid row_bands");
  image_ = SeededPixels(height * width, seed);

  variables_.reserve(row_bands + 2);
  for (std::size_t b = 0; b < row_bands; ++b)
    variables_.push_back({"image.band" + std::to_string(b)});
  variables_.push_back({"stencil"});
  variables_.push_back({"acc"});
}

const std::string& Conv2DKernel::Name() const noexcept { return name_; }

std::size_t Conv2DKernel::VarOfRow(std::size_t y) const noexcept {
  return RowBand(y, height_ - 2, row_bands_);
}

template <class Ctx>
std::vector<double> Conv2DKernel::Body(Ctx& ctx) const {
  const std::size_t out_rows = height_ - 2;
  const std::size_t out_cols = width_ - 2;
  const std::size_t out_size = out_rows * out_cols;
  std::vector<double> out(ctx.NumLanes() * out_size);
  const std::size_t stencil_var = VarOfStencil();
  const std::size_t acc_var = VarOfAccumulator();
  for (std::size_t y = 0; y < out_rows; ++y) {
    const std::size_t row_var = VarOfRow(y);
    for (std::size_t x = 0; x < out_cols; ++x) {
      // Three batched 3-MACs (one per stencil row) chained through `acc` —
      // same dy-major/dx-minor operation order as the scalar loops.
      typename Ctx::Value acc = ctx.Broadcast(0);
      for (std::size_t dy = 0; dy < 3; ++dy) {
        acc = ctx.DotAccumulate(acc, &image_[(y + dy) * width_ + x], 1,
                                &stencil_[dy * 3], 1, 3,
                                {row_var, stencil_var}, {acc_var});
      }
      ctx.StoreOutput(out, out_size, y * out_cols + x, acc);
    }
  }
  return out;
}

std::vector<double> Conv2DKernel::Run(instrument::ApproxContext& ctx) const {
  return Body(ctx);
}

std::vector<double> Conv2DKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  return Body(ctx);
}

}  // namespace axdse::workloads
