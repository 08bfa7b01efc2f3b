#include "workloads/sobel_kernel.hpp"

#include <stdexcept>

#include "instrument/multi_approx_context.hpp"

namespace axdse::workloads {

SobelKernel::SobelKernel(std::size_t height, std::size_t width,
                         std::size_t row_bands, std::uint64_t seed)
    : height_(height),
      width_(width),
      row_bands_(row_bands),
      name_("sobel3x3-" + std::to_string(height) + "x" + std::to_string(width)),
      smooth_({1, 2, 1}),
      operators_(axc::EvoApproxCatalog::Instance().MatMulSet()) {
  if (height < 3 || width < 3)
    throw std::invalid_argument("SobelKernel: image must be at least 3x3");
  const std::size_t out_rows = height - 2;
  if (row_bands == 0 || row_bands > out_rows)
    throw std::invalid_argument("SobelKernel: invalid row_bands");
  image_ = SeededPixels(height * width, seed);

  variables_.reserve(row_bands + 3);
  for (std::size_t b = 0; b < row_bands; ++b)
    variables_.push_back({"image.band" + std::to_string(b)});
  variables_.push_back({"kx"});
  variables_.push_back({"ky"});
  variables_.push_back({"acc"});
}

const std::string& SobelKernel::Name() const noexcept { return name_; }

std::size_t SobelKernel::VarOfRow(std::size_t y) const noexcept {
  return RowBand(y, height_ - 2, row_bands_);
}

template <class Ctx>
std::vector<double> SobelKernel::Body(Ctx& ctx) const {
  const std::size_t out_size = (height_ - 2) * (width_ - 2);
  std::vector<double> out(ctx.NumLanes() * out_size);
  // 8-bit pixels and weights: the batched u8 MAC path.
  detail::SobelMagnitude(
      ctx, image_.data(), height_, width_, smooth_.data(),
      [this](std::size_t y) { return VarOfRow(y); }, VarOfKx(), VarOfKy(),
      VarOfAccumulator(), [&](std::size_t i, const auto& mag) {
        ctx.StoreOutput(out, out_size, i, mag);
      });
  return out;
}

std::vector<double> SobelKernel::Run(instrument::ApproxContext& ctx) const {
  return Body(ctx);
}

std::vector<double> SobelKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  return Body(ctx);
}

}  // namespace axdse::workloads
