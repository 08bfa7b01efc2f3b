// Lane-parallel equivalence: MultiApproxContext must score every configured
// lane bit-identically to a scalar ApproxContext configured with that lane's
// selection — outputs AND per-lane OpCounts — for every registry kernel,
// across lane counts 1..kMaxLanes, with duplicate and near-duplicate
// selections mixed in so the dedup partitions actually collapse lanes.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "axc/catalog.hpp"
#include "common/test_support.hpp"
#include "instrument/approx_context.hpp"
#include "instrument/multi_approx_context.hpp"
#include "util/rng.hpp"
#include "workloads/conv2d_kernel.hpp"
#include "workloads/dct_kernel.hpp"
#include "workloads/dot_product_kernel.hpp"
#include "workloads/fir_kernel.hpp"
#include "workloads/iir_kernel.hpp"
#include "workloads/kernel.hpp"
#include "workloads/kmeans_kernel.hpp"
#include "workloads/matmul_kernel.hpp"
#include "workloads/sobel_kernel.hpp"

namespace axdse::instrument {
namespace {

using testsupport::CheckLanesAgainstScalar;
using testsupport::ExpectSameCounts;
using testsupport::RandomLaneBatch;
using testsupport::WithAsymmetricOperators;

TEST(MultiLaneEquivalence, ConfigureValidatesLikeScalar) {
  const auto set = axc::EvoApproxCatalog::Instance().FirSet();
  MultiApproxContext multi(set, 3);
  std::vector<ApproxSelection> none;
  EXPECT_THROW(multi.Configure(none), std::invalid_argument);
  std::vector<ApproxSelection> too_many(MultiApproxContext::kMaxLanes + 1,
                                        ApproxSelection(3));
  EXPECT_THROW(multi.Configure(too_many), std::invalid_argument);
  std::vector<ApproxSelection> wrong_vars(2, ApproxSelection(4));
  EXPECT_THROW(multi.Configure(wrong_vars), std::invalid_argument);
  ApproxSelection bad_adder(3);
  bad_adder.SetAdderIndex(static_cast<std::uint32_t>(set.adders.size()));
  EXPECT_THROW(multi.Configure({ApproxSelection(3), bad_adder}),
               std::invalid_argument);
  // A failed Configure must not leave the context unusable.
  multi.Configure({ApproxSelection(3), ApproxSelection(3)});
  EXPECT_EQ(multi.NumLanes(), 2u);
}

TEST(MultiLaneEquivalence, ResolvedOpsMatchPerLaneScalarContexts) {
  util::Rng rng(301);
  const auto set = axc::EvoApproxCatalog::Instance().FirSet();
  for (int c = 0; c < 12; ++c) {
    const std::size_t lanes = 2 + rng.UniformBelow(7);
    const std::vector<ApproxSelection> selections =
        RandomLaneBatch(set, 4, lanes, rng);
    MultiApproxContext multi(set, 4);
    multi.Configure(selections);
    std::vector<ApproxContext> scalars;
    for (std::size_t l = 0; l < lanes; ++l) {
      scalars.emplace_back(set, 4);
      scalars.back().Configure(selections[l]);
    }
    const std::uint64_t mask = multi.ApproxLaneMask({1, 2});
    MultiApproxContext::Lanes a = multi.Broadcast(12345);
    MultiApproxContext::Lanes b = multi.Broadcast(-678);
    for (int i = 0; i < 40; ++i) {
      const MultiApproxContext::Lanes sum = multi.AddResolved(mask, a, b);
      const MultiApproxContext::Lanes product = multi.MulResolved(mask, b, a);
      for (std::size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(sum.v[l], scalars[l].Add(a.v[l], b.v[l], {1, 2}))
            << "lane " << l;
        EXPECT_EQ(product.v[l], scalars[l].Mul(b.v[l], a.v[l], {1, 2}))
            << "lane " << l;
      }
      a = sum;
      b = product;
      // Wiring transform keeps the magnitudes bounded; lane-wise, so the
      // partition is preserved.
      for (std::size_t l = 0; l < MultiApproxContext::kMaxLanes; ++l) {
        a.v[l] >>= 8;
        b.v[l] >>= 8;
      }
      for (std::size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(a.v[l], sum.v[l] >> 8);
        EXPECT_EQ(b.v[l], product.v[l] >> 8);
      }
    }
    for (std::size_t l = 0; l < lanes; ++l)
      ExpectSameCounts(multi.Counts(l), scalars[l].Counts(),
                       "resolved-ops lane " + std::to_string(l));
  }
}

TEST(MultiLaneEquivalence, MapKeepsPartitionAndMatchesScalarTransform) {
  // Map is the uncounted wiring primitive shared kernel bodies use for
  // negate/shift/abs: per lane it must equal the scalar context's Map of
  // that lane's scalar result, and it must leave the partition untouched.
  util::Rng rng(373);
  const auto set = axc::EvoApproxCatalog::Instance().FirSet();
  const auto fn = [](std::int64_t v) { return (v >> 3) - 2 * v; };
  for (int c = 0; c < 8; ++c) {
    const std::size_t lanes = 1 + rng.UniformBelow(MultiApproxContext::kMaxLanes);
    const std::vector<ApproxSelection> selections =
        RandomLaneBatch(set, 4, lanes, rng);
    MultiApproxContext multi(set, 4);
    multi.Configure(selections);
    const std::int64_t a =
        static_cast<std::int64_t>(rng.UniformBelow(1u << 20));
    const MultiApproxContext::Lanes x =
        multi.AddResolved(multi.ApproxLaneMask({0, 3}), multi.Broadcast(a),
                          multi.Broadcast(-1234));
    const MultiApproxContext::Lanes y = multi.Map(x, fn);
    EXPECT_EQ(y.rep, x.rep);
    for (std::size_t l = 0; l < lanes; ++l) {
      ApproxContext scalar(set, 4);
      scalar.Configure(selections[l]);
      const std::int64_t sx =
          scalar.AddResolved(scalar.ApproxLaneMask({0, 3}), a, -1234);
      EXPECT_EQ(y.v[l], scalar.Map(sx, fn)) << "lane " << l;
    }
  }
}

TEST(MultiLaneEquivalence, DefaultKernelRejectsLanes) {
  class NoLanesKernel final : public workloads::Kernel {
   public:
    NoLanesKernel()
        : name_("no-lanes"),
          variables_({{"x"}}),
          operators_(axc::EvoApproxCatalog::Instance().FirSet()) {}
    const std::string& Name() const noexcept override { return name_; }
    const axc::OperatorSet& Operators() const noexcept override {
      return operators_;
    }
    const std::vector<workloads::VariableInfo>& Variables()
        const noexcept override {
      return variables_;
    }
    std::vector<double> Run(ApproxContext& ctx) const override {
      return {static_cast<double>(ctx.Add(1, 2, {0}))};
    }

   private:
    std::string name_;
    std::vector<workloads::VariableInfo> variables_;
    axc::OperatorSet operators_;
  };
  const NoLanesKernel kernel;
  EXPECT_FALSE(kernel.SupportsLanes());
  MultiApproxContext multi(kernel.Operators(), kernel.NumVariables());
  EXPECT_THROW(kernel.RunLanes(multi), std::logic_error);
}

TEST(MultiLaneEquivalence, MatMulRowColMatchesScalarRuns) {
  CheckLanesAgainstScalar(
      workloads::MatMulKernel(8, workloads::MatMulGranularity::kRowCol, 5), 6,
      311);
}

TEST(MultiLaneEquivalence, MatMulPerMatrixMatchesScalarRuns) {
  CheckLanesAgainstScalar(
      workloads::MatMulKernel(6, workloads::MatMulGranularity::kPerMatrix, 9),
      6, 313);
}

TEST(MultiLaneEquivalence, FirMatchesScalarRuns) {
  CheckLanesAgainstScalar(workloads::FirKernel(60, 5), 6, 317);
  // Fewer samples than taps: the truncated tap loop must agree too.
  CheckLanesAgainstScalar(
      workloads::FirKernel(9, 17, 0.2, workloads::FirGranularity::kPerTap, 5),
      4, 331);
}

TEST(MultiLaneEquivalence, IirMatchesScalarRuns) {
  CheckLanesAgainstScalar(workloads::IirKernel(64, 0.2, 7), 6, 337);
}

TEST(MultiLaneEquivalence, Conv2DMatchesScalarRuns) {
  CheckLanesAgainstScalar(workloads::Conv2DKernel(10, 12, 3, 11), 6, 347);
}

TEST(MultiLaneEquivalence, DctMatchesScalarRuns) {
  CheckLanesAgainstScalar(workloads::DctKernel(2, 13), 6, 349);
}

TEST(MultiLaneEquivalence, DotMatchesScalarRuns) {
  CheckLanesAgainstScalar(workloads::DotProductKernel(48, 5, 17), 6, 353);
}

TEST(MultiLaneEquivalence, SobelMatchesScalarRuns) {
  CheckLanesAgainstScalar(workloads::SobelKernel(9, 11, 3, 19), 6, 359);
}

TEST(MultiLaneEquivalence, KMeansMatchesScalarRuns) {
  CheckLanesAgainstScalar(workloads::KMeans1DKernel(40, 5, 23), 6, 367);
}

// The operand-order-sensitive test operators in the lane batches: a lane
// primitive that swaps operands (or gathers the wrong operand) diverges
// from the scalar run.
TEST(MultiLaneEquivalence, AsymmetricOperatorsMatchScalarRuns) {
  const auto check = [](const workloads::Kernel& kernel, std::uint64_t seed) {
    CheckLanesAgainstScalar(kernel, 3, seed,
                            WithAsymmetricOperators(kernel.Operators()));
  };
  check(workloads::MatMulKernel(6, workloads::MatMulGranularity::kRowCol, 5),
        401);
  check(workloads::FirKernel(40, 5), 409);
  check(workloads::IirKernel(48, 0.2, 7), 419);
  check(workloads::Conv2DKernel(8, 9, 3, 11), 421);
  check(workloads::DctKernel(1, 13), 431);
  check(workloads::DotProductKernel(48, 5, 17), 433);
  check(workloads::SobelKernel(8, 9, 3, 19), 439);
  check(workloads::KMeans1DKernel(32, 4, 23), 443);
}

}  // namespace
}  // namespace axdse::instrument
