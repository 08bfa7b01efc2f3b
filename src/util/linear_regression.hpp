#pragma once
// Least-squares fits.
//
// FitLine: univariate OLS of y = slope*x + intercept, used to draw the trend
// lines of the paper's Figures 2 and 3 over exploration traces.
//
// NormalEquations: multivariate (ridge-regularized) least squares from
// running normal equations. Rows are added once — dense, or as the ascending
// indices of the 1.0 entries of a 0/1 row — into X^T X and one X^T y vector
// per target; a solve copies the D x D system, adds the ridge and eliminates.
// The surrogate evaluator tier (dse/surrogate.hpp) refits from it as
// observations arrive, so a refit costs O(D^3) instead of a pass over every
// row. FitLinearModel is the one-shot form over an explicit feature matrix.
// Degenerate inputs — size mismatches, too few rows, non-finite values,
// singular or constant-column design matrices — surface as a typed FitStatus
// instead of NaN coefficients, so callers can tell "no usable model" from "a
// model that predicts NaN".
//
// A 0/1 row added by index list is bit-identical to the same row added
// dense: every X^T X and X^T y entry receives the same additions in the same
// order (1.0*c == c, and a skipped 0*c term cannot change an IEEE sum that
// starts at +0). PredictActive has the same property against Predict.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace axdse::util {

/// Result of a univariate OLS fit.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0,1]; 0 when y is constant.
  double r_squared = 0.0;
  std::size_t n = 0;

  /// Predicted value at x.
  double At(double x) const noexcept { return slope * x + intercept; }
};

/// Fits y against x. Throws std::invalid_argument if sizes mismatch, fewer
/// than two points are supplied, or any input is non-finite (NaN/inf inputs
/// would otherwise flow silently into NaN coefficients). Constant-x data is
/// degenerate but well-defined: the fit is the flat line through mean(y).
LinearFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

/// Fits y against its own index 0..n-1 (the common case for step traces).
LinearFit FitLineIndexed(const std::vector<double>& y);

/// Why a multivariate fit did (or did not) produce usable coefficients.
enum class FitStatus {
  kOk,            ///< coefficients are valid
  kSizeMismatch,  ///< rows/y disagree, or rows have inconsistent widths
  kTooFewPoints,  ///< fewer rows than features (underdetermined)
  kNonFinite,     ///< a feature or target value is NaN or infinite
  kSingular,      ///< normal equations are singular (e.g. constant column
                  ///< with no ridge, or linearly dependent features)
};

/// Human-readable status name.
const char* ToString(FitStatus status) noexcept;

/// Result of a multivariate least-squares fit. `coefficients` is only
/// meaningful when `status == FitStatus::kOk`; every failure leaves it
/// empty — a failed fit can never be mistaken for a model.
struct LinearModelFit {
  FitStatus status = FitStatus::kSingular;
  std::vector<double> coefficients;  ///< one per feature column
  std::size_t n = 0;                 ///< rows fitted

  bool Ok() const noexcept { return status == FitStatus::kOk; }

  /// Dot product of `features` with the coefficients. Requires Ok() and a
  /// matching feature width; throws std::invalid_argument otherwise.
  double Predict(const std::vector<double>& features) const;

  /// Predict of the 0/1 row whose 1.0 entries sit at the ascending indices
  /// `active`, in O(active.size()); bit-identical to the dense Predict.
  /// Requires Ok() and indices below the feature width; throws
  /// std::invalid_argument otherwise.
  double PredictActive(std::span<const std::uint32_t> active) const;
};

/// Running normal equations A = X^T X, b_t = X^T y_t of `num_targets`
/// least-squares problems that share one design matrix X with `dim` columns.
/// Adding a row costs O(D^2) dense or O(nnz^2) by index list; Solve costs
/// O(D^3) whatever the number of rows.
class NormalEquations {
 public:
  explicit NormalEquations(std::size_t dim, std::size_t num_targets = 1);

  /// Rows added so far, including ones Solve will reject.
  std::size_t Rows() const noexcept { return rows_; }

  /// Adds one dense row with its target values (one per target). A row of
  /// the wrong width or target count makes every later Solve report
  /// kSizeMismatch; a non-finite value makes it report kNonFinite.
  void Add(std::span<const double> row, std::span<const double> targets);

  /// Adds the 0/1 row whose 1.0 entries sit at the ascending indices
  /// `active`. Indices that are out of range or not strictly ascending count
  /// as a width mismatch.
  void AddActive(std::span<const std::uint32_t> active,
                 std::span<const double> targets);

  /// Solves min ||X*beta - y_t||^2 + ridge_lambda*||beta||^2 for every
  /// target via Gaussian elimination with partial pivoting on the D x D
  /// system; one fit per target, in target order. Never throws on data
  /// problems: every degenerate input is reported through FitStatus (a
  /// singular system fails every target). `ridge_lambda` must be >= 0 and
  /// finite (violations report kNonFinite).
  std::vector<LinearModelFit> Solve(double ridge_lambda = 0.0) const;

 private:
  /// Counts the row and records a width or non-finite problem; true when
  /// the row may be accumulated.
  bool Accept(bool row_fits, std::span<const double> targets);

  std::size_t dim_;
  std::size_t num_targets_;
  std::size_t rows_ = 0;
  bool size_mismatch_ = false;
  bool non_finite_ = false;
  std::vector<double> gram_;  ///< D x D, upper triangle (j >= i) only
  std::vector<double> xty_;   ///< num_targets x D, target-major
};

/// One-shot form of NormalEquations: adds every row of `rows` and solves for
/// the single target `y`. Include a constant 1.0 column in `rows` if an
/// intercept is wanted.
LinearModelFit FitLinearModel(const std::vector<std::vector<double>>& rows,
                              const std::vector<double>& y,
                              double ridge_lambda = 0.0);

}  // namespace axdse::util
