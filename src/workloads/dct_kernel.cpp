#include "workloads/dct_kernel.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "instrument/multi_approx_context.hpp"

namespace axdse::workloads {

std::vector<std::int32_t> DctMatrixQ14() {
  std::vector<std::int32_t> c(64);
  for (std::size_t u = 0; u < 8; ++u) {
    const double scale = u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
    for (std::size_t k = 0; k < 8; ++k) {
      const double value =
          scale * std::cos((2.0 * static_cast<double>(k) + 1.0) *
                           static_cast<double>(u) * std::numbers::pi / 16.0);
      c[u * 8 + k] = static_cast<std::int32_t>(std::lround(value * 16384.0));
    }
  }
  return c;
}

DctKernel::DctKernel(std::size_t blocks, std::uint64_t seed)
    : blocks_(blocks),
      name_("dct8x8-" + std::to_string(blocks)),
      dct_q14_(DctMatrixQ14()),
      variables_({{"pixels"}, {"coeffs"}, {"acc"}}),
      operators_(axc::EvoApproxCatalog::Instance().FirSet()) {
  if (blocks == 0) throw std::invalid_argument("DctKernel: blocks == 0");
  pixels_ = SeededPixels(blocks * 64, seed);
}

const std::string& DctKernel::Name() const noexcept { return name_; }

template <class Ctx>
std::vector<double> DctKernel::Body(Ctx& ctx) const {
  const std::size_t out_size = blocks_ * 64;
  std::vector<double> out(ctx.NumLanes() * out_size);
  const std::size_t px = VarOfPixels();
  const std::size_t cf = VarOfCoeffs();
  const std::size_t ac = VarOfAccumulator();
  const auto shift14 = [](std::int64_t v) { return v >> 14; };
  typename Ctx::Value temp[64];  // C * X, rescaled to ~pixel magnitude

  for (std::size_t b = 0; b < blocks_; ++b) {
    const std::uint8_t* block = &pixels_[b * 64];
    // Pass 1: T = (C * X) >> 14  (row transform). Each entry is one batched
    // 8-MAC: DCT row (unit stride, first operand) dot pixel column (stride
    // 8); the rescale is wiring, not an ALU op.
    for (std::size_t u = 0; u < 8; ++u) {
      for (std::size_t j = 0; j < 8; ++j) {
        temp[u * 8 + j] = ctx.Map(
            ctx.DotAccumulate(0, &dct_q14_[u * 8], 1, &block[j], 8, 8,
                              {cf, px}, {ac}),
            shift14);
      }
    }
    // Pass 2: Y = T * C^T (column transform), output in Q14 — both operands
    // unit stride.
    for (std::size_t u = 0; u < 8; ++u) {
      for (std::size_t v = 0; v < 8; ++v) {
        ctx.StoreOutput(out, out_size, b * 64 + u * 8 + v,
                        ctx.DotAccumulate(0, &temp[u * 8], 1, &dct_q14_[v * 8],
                                          1, 8, {px, cf}, {ac}));
      }
    }
  }
  return out;
}

std::vector<double> DctKernel::Run(instrument::ApproxContext& ctx) const {
  return Body(ctx);
}

std::vector<double> DctKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  return Body(ctx);
}

}  // namespace axdse::workloads
