#pragma once
// 1D k-means distance-accumulation kernel (campaign workload): one
// assignment iteration of Lloyd's algorithm over signed 16-bit points —
// the clustering-style benchmark of the AxC literature, built on signed
// MACs (scalar squared distances for the argmin, a batched signed
// DotAccumulate for the per-cluster inertia).

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/kernel.hpp"

namespace axdse::workloads {

/// For every point, computes the squared distance to each centroid
/// ((x - c)^2, signed add + signed mul) and assigns the point to the
/// nearest one; then accumulates each cluster's inertia as a batched
/// signed MAC chain over the winning differences. Outputs per cluster:
/// inertia, then assigned point count (assignments shift under
/// approximation, so the count itself is error-sensitive).
/// Variables: "points", "centroids", "dist", "acc".
class KMeans1DKernel final : public Kernel {
 public:
  /// `n` random signed 16-bit points, `clusters` centroids evenly spaced
  /// over the value range. Throws std::invalid_argument if n == 0 or
  /// clusters is 0 or exceeds n.
  KMeans1DKernel(std::size_t n, std::size_t clusters, std::uint64_t seed);

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

  std::size_t VarOfPoints() const noexcept { return 0; }
  std::size_t VarOfCentroids() const noexcept { return 1; }
  std::size_t VarOfDistance() const noexcept { return 2; }
  std::size_t VarOfAccumulator() const noexcept { return 3; }

  /// Data accessors (for tests).
  std::int16_t Point(std::size_t i) const { return points_[i]; }
  std::int32_t Centroid(std::size_t j) const { return centroids_[j]; }
  std::size_t Length() const noexcept { return points_.size(); }
  std::size_t Clusters() const noexcept { return centroids_.size(); }

 private:
  /// The one body behind Run and RunLanes, for either context.
  template <class Ctx>
  std::vector<double> Body(Ctx& ctx) const;

  std::string name_;
  std::vector<std::int16_t> points_;
  std::vector<std::int32_t> centroids_;
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
};

}  // namespace axdse::workloads
