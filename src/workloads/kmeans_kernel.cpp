#include "workloads/kmeans_kernel.hpp"

#include <array>
#include <limits>
#include <stdexcept>

#include "instrument/multi_approx_context.hpp"
#include "util/rng.hpp"

namespace axdse::workloads {

namespace {
/// Signed point range: +-2^13, comfortably inside the FIR set's Q15 domain.
constexpr std::int32_t kRange = 1 << 13;
}  // namespace

KMeans1DKernel::KMeans1DKernel(std::size_t n, std::size_t clusters,
                               std::uint64_t seed)
    : name_("kmeans1d-" + std::to_string(n) + "x" + std::to_string(clusters)),
      variables_({{"points"}, {"centroids"}, {"dist"}, {"acc"}}),
      operators_(axc::EvoApproxCatalog::Instance().FirSet()) {
  if (n == 0) throw std::invalid_argument("KMeans1DKernel: n == 0");
  if (clusters == 0 || clusters > n)
    throw std::invalid_argument("KMeans1DKernel: invalid cluster count");
  util::Rng rng(seed);
  points_.resize(n);
  for (auto& p : points_)
    p = static_cast<std::int16_t>(
        static_cast<std::int32_t>(rng.UniformBelow(2 * kRange)) - kRange);
  centroids_.resize(clusters);
  for (std::size_t j = 0; j < clusters; ++j)
    centroids_[j] = -kRange + static_cast<std::int32_t>(
                                  (2 * j + 1) * (2 * kRange) / (2 * clusters));
}

const std::string& KMeans1DKernel::Name() const noexcept { return name_; }

template <class Ctx>
std::vector<double> KMeans1DKernel::Body(Ctx& ctx) const {
  using Value = typename Ctx::Value;
  // Per-lane control flow (the argmin, per-group scratch) indexes lanes up
  // to Ctx::kMaxLanes; with the scalar context that is 1 and the lane loops
  // fold away.
  constexpr std::size_t kMaxLanes = Ctx::kMaxLanes;
  const std::size_t lanes = ctx.NumLanes();
  const std::size_t n = points_.size();
  const std::size_t k = centroids_.size();
  // Group decisions hoisted out of the n x k loop (iir-style).
  const auto diff_mask = ctx.ApproxLaneMask({VarOfPoints(), VarOfCentroids()});
  const auto dist_mask = ctx.ApproxLaneMask({VarOfDistance()});

  // Pass 1 — assignment: signed squared distance to every centroid, argmin
  // per point and lane (the comparisons are not counted arithmetic). The
  // decision masks are constant across the n x k loop, so every distance
  // shares one partition P: lanes grouped under P see identical distances,
  // hence identical assignments.
  std::vector<std::int64_t> best_diff(n * kMaxLanes);
  std::vector<std::uint32_t> assign(n * kMaxLanes);
  typename Ctx::Partition p{};
  for (std::size_t i = 0; i < n; ++i) {
    std::array<std::int64_t, kMaxLanes> best_d;
    best_d.fill(std::numeric_limits<std::int64_t>::max());
    std::array<std::uint32_t, kMaxLanes> best_j{};
    std::array<std::int64_t, kMaxLanes> best_diff_i{};
    for (std::size_t j = 0; j < k; ++j) {
      const Value diff = ctx.AddResolved(diff_mask, ctx.Broadcast(points_[i]),
                                         ctx.Broadcast(-centroids_[j]));
      const Value d = ctx.MulResolved(dist_mask, diff, diff);
      if (i == 0 && j == 0) p = Ctx::Rep(d);
      for (std::size_t l = 0; l < lanes; ++l) {
        if (Ctx::Lane(d, l) < best_d[l]) {
          best_d[l] = Ctx::Lane(d, l);
          best_j[l] = static_cast<std::uint32_t>(j);
          best_diff_i[l] = Ctx::Lane(diff, l);
        }
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      assign[i * kMaxLanes + l] = best_j[l];
      best_diff[i * kMaxLanes + l] = best_diff_i[l];
    }
  }

  // Pass 2 — inertia: one batched signed MAC chain per cluster over the
  // winning differences, plus the assigned count (itself error-sensitive:
  // approximation moves points across cluster boundaries). Scratch is built
  // once per dedup group (its representative lane), every grouped lane
  // pointing at the same buffer; the per-lane dot charges each lane its own
  // member count.
  const std::size_t out_size = 2 * k;
  std::vector<double> out(lanes * out_size);
  std::array<std::vector<std::int64_t>, kMaxLanes> scratch;
  for (std::size_t l = 0; l < lanes; ++l)
    if (p[l] == l) scratch[l].reserve(n);
  for (std::size_t j = 0; j < k; ++j) {
    std::array<const std::int64_t*, kMaxLanes> aptr{};
    std::array<std::size_t, kMaxLanes> alen{};
    for (std::size_t l = 0; l < lanes; ++l) {
      if (p[l] != l) continue;
      scratch[l].clear();
      for (std::size_t i = 0; i < n; ++i)
        if (assign[i * kMaxLanes + l] == j)
          scratch[l].push_back(best_diff[i * kMaxLanes + l]);
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      aptr[l] = scratch[p[l]].data();
      alen[l] = scratch[p[l]].size();
    }
    ctx.StoreOutput(out, out_size, 2 * j,
                    ctx.DotAccumulate(0, aptr, aptr, alen, p,
                                      {VarOfDistance()},
                                      {VarOfAccumulator()}));
    for (std::size_t l = 0; l < lanes; ++l)
      out[l * out_size + 2 * j + 1] = static_cast<double>(alen[l]);
  }
  return out;
}

std::vector<double> KMeans1DKernel::Run(instrument::ApproxContext& ctx) const {
  return Body(ctx);
}

std::vector<double> KMeans1DKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  return Body(ctx);
}

}  // namespace axdse::workloads
