// Unit tests for util/linear_regression: exact coefficient recovery, the
// typed FitStatus taxonomy for every degenerate-input class (the surrogate
// tier depends on "no usable model" being distinguishable from "a model
// that predicts NaN"), ridge behavior on singular designs, bit-identity of
// the running normal equations (dense and index-list rows, every prefix)
// with a refit-from-every-row reference solver, and the
// FitLine/FitLineIndexed throwing contract.

#include "util/linear_regression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace axdse::util {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// FitLinearModel: the happy path
// ---------------------------------------------------------------------------

TEST(FitLinearModel, RecoversExactCoefficients) {
  // y = 2 + 3*a - 0.5*b on a full-rank design.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (double a = 0.0; a < 4.0; a += 1.0) {
    for (double b = 0.0; b < 3.0; b += 1.0) {
      rows.push_back({1.0, a, b});
      y.push_back(2.0 + 3.0 * a - 0.5 * b);
    }
  }
  const LinearModelFit fit = FitLinearModel(rows, y);
  ASSERT_TRUE(fit.Ok());
  EXPECT_EQ(fit.status, FitStatus::kOk);
  EXPECT_EQ(fit.n, rows.size());
  ASSERT_EQ(fit.coefficients.size(), 3u);
  EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(fit.coefficients[1], 3.0, 1e-9);
  EXPECT_NEAR(fit.coefficients[2], -0.5, 1e-9);
  EXPECT_NEAR(fit.Predict({1.0, 2.0, 1.0}), 2.0 + 6.0 - 0.5, 1e-9);
}

TEST(FitLinearModel, RidgeShrinksButStaysUsable) {
  std::vector<std::vector<double>> rows = {
      {1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  std::vector<double> y = {1.0, 3.0, 5.0, 7.0};
  const LinearModelFit exact = FitLinearModel(rows, y, 0.0);
  const LinearModelFit ridged = FitLinearModel(rows, y, 1.0);
  ASSERT_TRUE(exact.Ok());
  ASSERT_TRUE(ridged.Ok());
  EXPECT_NEAR(exact.coefficients[1], 2.0, 1e-9);
  // Regularization pulls the slope toward zero, never past the OLS value.
  EXPECT_LT(std::abs(ridged.coefficients[1]), std::abs(exact.coefficients[1]));
  EXPECT_GT(ridged.coefficients[1], 0.0);
}

// ---------------------------------------------------------------------------
// FitLinearModel: every FitStatus failure class
// ---------------------------------------------------------------------------

TEST(FitLinearModel, TooFewPoints) {
  // Fewer rows than features: underdetermined.
  const LinearModelFit fit =
      FitLinearModel({{1.0, 2.0, 3.0}, {1.0, 3.0, 5.0}}, {1.0, 2.0});
  EXPECT_EQ(fit.status, FitStatus::kTooFewPoints);
  EXPECT_FALSE(fit.Ok());
  EXPECT_TRUE(fit.coefficients.empty());
}

TEST(FitLinearModel, EmptyInputIsTooFewPoints) {
  const LinearModelFit fit = FitLinearModel({}, {});
  EXPECT_EQ(fit.status, FitStatus::kTooFewPoints);
  EXPECT_TRUE(fit.coefficients.empty());
}

TEST(FitLinearModel, SizeMismatchRowsVsTargets) {
  const LinearModelFit fit =
      FitLinearModel({{1.0}, {2.0}, {3.0}}, {1.0, 2.0});
  EXPECT_EQ(fit.status, FitStatus::kSizeMismatch);
  EXPECT_TRUE(fit.coefficients.empty());
}

TEST(FitLinearModel, SizeMismatchRaggedRows) {
  const LinearModelFit fit =
      FitLinearModel({{1.0, 2.0}, {1.0}, {1.0, 4.0}}, {1.0, 2.0, 3.0});
  EXPECT_EQ(fit.status, FitStatus::kSizeMismatch);
  EXPECT_TRUE(fit.coefficients.empty());
}

TEST(FitLinearModel, NonFiniteFeatureOrTarget) {
  EXPECT_EQ(FitLinearModel({{1.0, kNaN}, {1.0, 2.0}, {1.0, 3.0}},
                           {1.0, 2.0, 3.0})
                .status,
            FitStatus::kNonFinite);
  EXPECT_EQ(FitLinearModel({{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}},
                           {1.0, kInf, 3.0})
                .status,
            FitStatus::kNonFinite);
}

TEST(FitLinearModel, BadRidgeReportsNonFinite) {
  const std::vector<std::vector<double>> rows = {{1.0}, {1.0}};
  EXPECT_EQ(FitLinearModel(rows, {1.0, 2.0}, -1.0).status,
            FitStatus::kNonFinite);
  EXPECT_EQ(FitLinearModel(rows, {1.0, 2.0}, kNaN).status,
            FitStatus::kNonFinite);
}

TEST(FitLinearModel, SingularDesignWithoutRidge) {
  // Two identical columns: normal equations are singular at lambda=0 but
  // solvable with any positive ridge.
  const std::vector<std::vector<double>> rows = {
      {1.0, 1.0, 1.0}, {1.0, 2.0, 2.0}, {1.0, 3.0, 3.0}, {1.0, 4.0, 4.0}};
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  const LinearModelFit singular = FitLinearModel(rows, y, 0.0);
  EXPECT_EQ(singular.status, FitStatus::kSingular);
  EXPECT_TRUE(singular.coefficients.empty());
  const LinearModelFit ridged = FitLinearModel(rows, y, 1e-6);
  EXPECT_TRUE(ridged.Ok());
}

TEST(FitStatus, NamesAreDistinct) {
  EXPECT_STREQ(ToString(FitStatus::kOk), "ok");
  const FitStatus all[] = {FitStatus::kOk, FitStatus::kSizeMismatch,
                           FitStatus::kTooFewPoints, FitStatus::kNonFinite,
                           FitStatus::kSingular};
  for (const FitStatus a : all)
    for (const FitStatus b : all)
      if (a != b) {
        EXPECT_STRNE(ToString(a), ToString(b));
      }
}

// ---------------------------------------------------------------------------
// LinearModelFit::Predict contract
// ---------------------------------------------------------------------------

TEST(LinearModelFit, PredictOnFailedFitThrows) {
  const LinearModelFit failed = FitLinearModel({}, {});
  EXPECT_THROW(failed.Predict({1.0}), std::invalid_argument);
}

TEST(LinearModelFit, PredictWidthMismatchThrows) {
  const LinearModelFit fit =
      FitLinearModel({{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}}, {1.0, 2.0, 3.0});
  ASSERT_TRUE(fit.Ok());
  EXPECT_THROW(fit.Predict({1.0}), std::invalid_argument);
  EXPECT_THROW(fit.Predict({1.0, 2.0, 3.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// NormalEquations: bit-identity with a refit from every row
// ---------------------------------------------------------------------------

/// The dense refit-from-every-row solver the running normal equations
/// replaced: builds X^T X and X^T y from all rows, then eliminates. Kept
/// here as the oracle the incremental paths must match bit for bit.
std::vector<double> ReferenceSolve(const std::vector<std::vector<double>>& rows,
                                   const std::vector<double>& y,
                                   double ridge_lambda) {
  const std::size_t dim = rows.front().size();
  std::vector<double> a(dim * dim, 0.0);
  std::vector<double> b(dim, 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (std::size_t i = 0; i < dim; ++i) {
      b[i] += rows[r][i] * y[r];
      for (std::size_t j = i; j < dim; ++j)
        a[i * dim + j] += rows[r][i] * rows[r][j];
    }
  for (std::size_t i = 0; i < dim; ++i) {
    a[i * dim + i] += ridge_lambda;
    for (std::size_t j = 0; j < i; ++j) a[i * dim + j] = a[j * dim + i];
  }
  double scale = 0.0;
  for (const double v : a) scale = std::max(scale, std::abs(v));
  for (std::size_t col = 0; col < dim; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < dim; ++r)
      if (std::abs(a[r * dim + col]) > std::abs(a[pivot * dim + col]))
        pivot = r;
    if (std::abs(a[pivot * dim + col]) <= scale * 1e-12) return {};
    if (pivot != col) {
      for (std::size_t j = 0; j < dim; ++j)
        std::swap(a[pivot * dim + j], a[col * dim + j]);
      std::swap(b[pivot], b[col]);
    }
    const double inv = 1.0 / a[col * dim + col];
    for (std::size_t r = col + 1; r < dim; ++r) {
      const double factor = a[r * dim + col] * inv;
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < dim; ++j)
        a[r * dim + j] -= factor * a[col * dim + j];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> beta(dim, 0.0);
  for (std::size_t i = dim; i-- > 0;) {
    double sum = b[i];
    for (std::size_t j = i + 1; j < dim; ++j) sum -= a[i * dim + j] * beta[j];
    beta[i] = sum / a[i * dim + i];
    if (!std::isfinite(beta[i])) return {};
  }
  return beta;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Random 0/1 row with a leading bias column, and its active indices.
std::vector<double> RandomZeroOneRow(Rng& rng, std::size_t dim,
                                     std::vector<std::uint32_t>* active) {
  std::vector<double> row(dim, 0.0);
  active->assign(1, 0);
  row[0] = 1.0;
  for (std::size_t i = 1; i < dim; ++i)
    if (rng.UniformBelow(3) == 0) {
      row[i] = 1.0;
      active->push_back(static_cast<std::uint32_t>(i));
    }
  return row;
}

/// Solves at every prefix and checks the incremental fit against
/// FitLinearModel and the reference solver: same status, same bits. Returns
/// how many prefixes produced a usable fit.
std::size_t ExpectEveryPrefixMatches(
    const std::vector<std::vector<double>>& rows, const std::vector<double>& y,
    const std::vector<std::vector<std::uint32_t>>* active_rows,
    double ridge_lambda) {
  NormalEquations equations(rows.front().size());
  std::size_t ok = 0;
  for (std::size_t n = 1; n <= rows.size(); ++n) {
    if (active_rows != nullptr)
      equations.AddActive((*active_rows)[n - 1], {&y[n - 1], 1});
    else
      equations.Add(rows[n - 1], {&y[n - 1], 1});
    const std::vector<std::vector<double>> prefix(rows.begin(),
                                                  rows.begin() + n);
    const std::vector<double> prefix_y(y.begin(), y.begin() + n);
    const LinearModelFit incremental = equations.Solve(ridge_lambda).front();
    const LinearModelFit oneshot = FitLinearModel(prefix, prefix_y,
                                                  ridge_lambda);
    EXPECT_EQ(incremental.status, oneshot.status) << "prefix " << n;
    EXPECT_TRUE(SameBits(incremental.coefficients, oneshot.coefficients))
        << "prefix " << n;
    if (n >= rows.front().size()) {
      EXPECT_TRUE(SameBits(incremental.coefficients,
                           ReferenceSolve(prefix, prefix_y, ridge_lambda)))
          << "prefix " << n;
    }
    if (incremental.Ok()) {
      EXPECT_EQ(incremental.n, n);
      ++ok;
    }
  }
  return ok;
}

TEST(NormalEquations, DenseRowsMatchRefitAtEveryPrefix) {
  for (const double ridge : {0.0, 1e-3}) {
    Rng rng(41);
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    for (int r = 0; r < 40; ++r) {
      std::vector<double> row(6);
      for (double& v : row) v = rng.UniformReal(-3.0, 3.0);
      rows.push_back(row);
      y.push_back(rng.UniformReal(-10.0, 10.0));
    }
    EXPECT_GT(ExpectEveryPrefixMatches(rows, y, nullptr, ridge), 30u)
        << "ridge " << ridge;
  }
}

TEST(NormalEquations, ZeroOneIndexRowsMatchDenseRefitAtEveryPrefix) {
  for (const double ridge : {0.0, 1e-3}) {
    Rng rng(7);
    std::vector<std::vector<double>> rows;
    std::vector<std::vector<std::uint32_t>> active_rows;
    std::vector<double> y;
    for (int r = 0; r < 80; ++r) {
      std::vector<std::uint32_t> active;
      rows.push_back(RandomZeroOneRow(rng, 9, &active));
      active_rows.push_back(active);
      // Negative targets too: 0 * y is then -0, which a skipped term must
      // not change either.
      y.push_back(rng.UniformReal(-25.0, 5.0));
    }
    EXPECT_GT(ExpectEveryPrefixMatches(rows, y, &active_rows, ridge), 40u)
        << "ridge " << ridge;
  }
}

TEST(NormalEquations, TargetsShareOneGramBitForBit) {
  // Columns of growing scale next to a bias column force row swaps during
  // elimination, which every target's right-hand side must follow.
  Rng rng(3);
  NormalEquations shared(7, 3);
  std::vector<NormalEquations> single(3, NormalEquations(7));
  for (int r = 0; r < 50; ++r) {
    std::vector<double> row = {1.0};
    for (int j = 1; j < 7; ++j) row.push_back(rng.UniformReal(0.0, 4.0 * j));
    const double targets[3] = {rng.UniformReal(0.0, 100.0),
                               rng.UniformReal(-1.0, 1.0),
                               std::round(rng.UniformReal(0.0, 50.0))};
    shared.Add(row, targets);
    for (std::size_t t = 0; t < 3; ++t) single[t].Add(row, {&targets[t], 1});
  }
  const std::vector<LinearModelFit> fits = shared.Solve(0.0);
  ASSERT_EQ(fits.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    const LinearModelFit alone = single[t].Solve(0.0).front();
    ASSERT_TRUE(alone.Ok());
    EXPECT_EQ(fits[t].status, alone.status);
    EXPECT_TRUE(SameBits(fits[t].coefficients, alone.coefficients)) << t;
  }
}

TEST(NormalEquations, ReportsEveryFailureClass) {
  const double one = 1.0;
  const double nan = kNaN;
  const auto status = [](const NormalEquations& e, double ridge = 0.0) {
    return e.Solve(ridge).front().status;
  };

  NormalEquations empty(2);
  EXPECT_EQ(status(empty), FitStatus::kTooFewPoints);
  empty.Add(std::vector<double>{1.0, 2.0}, {&one, 1});
  EXPECT_EQ(status(empty), FitStatus::kTooFewPoints);

  EXPECT_EQ(status(NormalEquations(0)), FitStatus::kSizeMismatch);
  NormalEquations wide(2);
  wide.Add(std::vector<double>{1.0, 2.0, 3.0}, {&one, 1});
  EXPECT_EQ(status(wide), FitStatus::kSizeMismatch);
  NormalEquations targets(2, 2);
  targets.AddActive(std::vector<std::uint32_t>{0}, {&one, 1});
  EXPECT_EQ(status(targets), FitStatus::kSizeMismatch);
  NormalEquations out_of_range(2);
  out_of_range.AddActive(std::vector<std::uint32_t>{0, 2}, {&one, 1});
  EXPECT_EQ(status(out_of_range), FitStatus::kSizeMismatch);
  NormalEquations unsorted(3);
  unsorted.AddActive(std::vector<std::uint32_t>{1, 0}, {&one, 1});
  EXPECT_EQ(status(unsorted), FitStatus::kSizeMismatch);

  // Non-finite data, sticky across later good rows; a width problem in the
  // same row outranks it, as in FitLinearModel.
  NormalEquations bad_target(1);
  bad_target.AddActive(std::vector<std::uint32_t>{0}, {&nan, 1});
  for (int r = 0; r < 3; ++r)
    bad_target.AddActive(std::vector<std::uint32_t>{0}, {&one, 1});
  EXPECT_EQ(status(bad_target), FitStatus::kNonFinite);
  NormalEquations bad_feature(2);
  bad_feature.Add(std::vector<double>{1.0, kInf}, {&one, 1});
  bad_feature.Add(std::vector<double>{1.0, 2.0}, {&one, 1});
  EXPECT_EQ(status(bad_feature), FitStatus::kNonFinite);
  NormalEquations both(2);
  both.Add(std::vector<double>{kNaN}, {&nan, 1});
  both.Add(std::vector<double>{1.0, 2.0}, {&one, 1});
  EXPECT_EQ(status(both), FitStatus::kSizeMismatch);

  NormalEquations fine(1);
  fine.AddActive(std::vector<std::uint32_t>{0}, {&one, 1});
  EXPECT_EQ(status(fine), FitStatus::kOk);
  EXPECT_EQ(status(fine, -1.0), FitStatus::kNonFinite);
  EXPECT_EQ(status(fine, kNaN), FitStatus::kNonFinite);

  // Two identical columns: singular without ridge, solvable with it.
  NormalEquations twin(2);
  for (int r = 0; r < 4; ++r)
    twin.AddActive(std::vector<std::uint32_t>{0, 1}, {&one, 1});
  const LinearModelFit singular = twin.Solve(0.0).front();
  EXPECT_EQ(singular.status, FitStatus::kSingular);
  EXPECT_TRUE(singular.coefficients.empty());
  EXPECT_EQ(status(twin, 1e-6), FitStatus::kOk);
}

TEST(LinearModelFit, PredictActiveMatchesDensePredictBitForBit) {
  Rng rng(19);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int r = 0; r < 60; ++r) {
    std::vector<std::uint32_t> active;
    rows.push_back(RandomZeroOneRow(rng, 12, &active));
    y.push_back(rng.UniformReal(-30.0, 0.0));
  }
  const LinearModelFit fit = FitLinearModel(rows, y, 1e-3);
  ASSERT_TRUE(fit.Ok());
  for (int r = 0; r < 200; ++r) {
    std::vector<std::uint32_t> active;
    const std::vector<double> row = RandomZeroOneRow(rng, 12, &active);
    const double dense = fit.Predict(row);
    const double sparse = fit.PredictActive(active);
    EXPECT_EQ(std::memcmp(&dense, &sparse, sizeof(double)), 0) << r;
  }
  EXPECT_THROW(fit.PredictActive(std::vector<std::uint32_t>{12}),
               std::invalid_argument);
  const LinearModelFit failed = FitLinearModel({}, {});
  EXPECT_THROW(failed.PredictActive(std::vector<std::uint32_t>{0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FitLine / FitLineIndexed
// ---------------------------------------------------------------------------

TEST(FitLine, RecoversSlopeAndIntercept) {
  const LinearFit fit =
      FitLine({0.0, 1.0, 2.0, 3.0}, {1.0, 3.0, 5.0, 7.0});
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_EQ(fit.n, 4u);
  EXPECT_NEAR(fit.At(10.0), 21.0, 1e-12);
}

TEST(FitLine, ConstantXIsFlatLineThroughMeanY) {
  const LinearFit fit = FitLine({2.0, 2.0, 2.0}, {1.0, 2.0, 6.0});
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
}

TEST(FitLine, DegenerateInputsThrow) {
  EXPECT_THROW(FitLine({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(FitLine({1.0, 2.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(FitLine({1.0, kNaN}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(FitLine({1.0, 2.0}, {kInf, 2.0}), std::invalid_argument);
}

TEST(FitLineIndexed, MatchesExplicitIndices) {
  const std::vector<double> y = {5.0, 4.0, 3.5, 2.0};
  const LinearFit indexed = FitLineIndexed(y);
  const LinearFit explicit_x = FitLine({0.0, 1.0, 2.0, 3.0}, y);
  EXPECT_DOUBLE_EQ(indexed.slope, explicit_x.slope);
  EXPECT_DOUBLE_EQ(indexed.intercept, explicit_x.intercept);
}

}  // namespace
}  // namespace axdse::util
