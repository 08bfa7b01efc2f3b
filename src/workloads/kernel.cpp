#include "workloads/kernel.hpp"

#include <stdexcept>

#include "metrics/error_metrics.hpp"
#include "util/rng.hpp"

namespace axdse::workloads {

std::vector<double> Kernel::RunLanes(instrument::MultiApproxContext&) const {
  throw std::logic_error("Kernel::RunLanes: '" + Name() +
                         "' does not support lane-parallel evaluation");
}

double Kernel::AccuracyError(std::span<const double> precise,
                             std::span<const double> approx) const {
  return metrics::MeanAbsoluteError(precise, approx);
}

std::size_t Kernel::VariableIndex(const std::string& name) const {
  const auto& vars = Variables();
  for (std::size_t i = 0; i < vars.size(); ++i)
    if (vars[i].name == name) return i;
  throw std::invalid_argument("Kernel::VariableIndex: unknown variable '" +
                              name + "'");
}

std::vector<std::uint8_t> SeededPixels(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> pixels(count);
  for (auto& v : pixels) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
  return pixels;
}

std::size_t RowBand(std::size_t y, std::size_t out_rows,
                    std::size_t row_bands) noexcept {
  const std::size_t band = y * row_bands / out_rows;
  return band >= row_bands ? row_bands - 1 : band;
}

}  // namespace axdse::workloads
