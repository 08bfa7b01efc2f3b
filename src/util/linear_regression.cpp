#include "util/linear_regression.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <numeric>
#include <stdexcept>

namespace axdse::util {

namespace {

bool AllFinite(const std::vector<double>& values) noexcept {
  for (const double v : values)
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace

LinearFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size())
    throw std::invalid_argument("FitLine: size mismatch");
  if (x.size() < 2) throw std::invalid_argument("FitLine: need >= 2 points");
  if (!AllFinite(x) || !AllFinite(y))
    throw std::invalid_argument("FitLine: non-finite input value");
  const double n = static_cast<double>(x.size());
  const double mean_x = std::accumulate(x.begin(), x.end(), 0.0) / n;
  const double mean_y = std::accumulate(y.begin(), y.end(), 0.0) / n;
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  LinearFit fit;
  fit.n = x.size();
  if (sxx == 0.0) {
    // Vertical data: degenerate; report a flat line through the mean.
    fit.slope = 0.0;
    fit.intercept = mean_y;
    fit.r_squared = 0.0;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = mean_y - fit.slope * mean_x;
  fit.r_squared = (syy == 0.0) ? 0.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

LinearFit FitLineIndexed(const std::vector<double>& y) {
  std::vector<double> x(y.size());
  std::iota(x.begin(), x.end(), 0.0);
  return FitLine(x, y);
}

const char* ToString(FitStatus status) noexcept {
  switch (status) {
    case FitStatus::kOk:
      return "ok";
    case FitStatus::kSizeMismatch:
      return "size-mismatch";
    case FitStatus::kTooFewPoints:
      return "too-few-points";
    case FitStatus::kNonFinite:
      return "non-finite";
    case FitStatus::kSingular:
      return "singular";
  }
  return "unknown";
}

double LinearModelFit::Predict(const std::vector<double>& features) const {
  if (!Ok())
    throw std::invalid_argument(
        std::string("LinearModelFit::Predict: fit status is ") +
        util::ToString(status));
  if (features.size() != coefficients.size())
    throw std::invalid_argument(
        "LinearModelFit::Predict: feature width does not match the fit");
  double sum = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i)
    sum += features[i] * coefficients[i];
  return sum;
}

double LinearModelFit::PredictActive(
    std::span<const std::uint32_t> active) const {
  if (!Ok())
    throw std::invalid_argument(
        std::string("LinearModelFit::PredictActive: fit status is ") +
        util::ToString(status));
  double sum = 0.0;
  for (const std::uint32_t i : active) {
    if (i >= coefficients.size())
      throw std::invalid_argument(
          "LinearModelFit::PredictActive: feature index outside the fit");
    sum += coefficients[i];
  }
  return sum;
}

NormalEquations::NormalEquations(std::size_t dim, std::size_t num_targets)
    : dim_(dim),
      num_targets_(num_targets),
      gram_(dim * dim, 0.0),
      xty_(num_targets * dim, 0.0) {}

bool NormalEquations::Accept(bool row_fits, std::span<const double> targets) {
  // A width problem outranks a non-finite value in the reported status.
  ++rows_;
  if (!row_fits || targets.size() != num_targets_) {
    size_mismatch_ = true;
    return false;
  }
  for (const double t : targets)
    if (!std::isfinite(t)) {
      non_finite_ = true;
      return false;
    }
  return true;
}

void NormalEquations::Add(std::span<const double> row,
                          std::span<const double> targets) {
  if (!Accept(row.size() == dim_, targets)) return;
  for (const double v : row)
    if (!std::isfinite(v)) {
      non_finite_ = true;
      return;
    }
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t t = 0; t < num_targets_; ++t)
      xty_[t * dim_ + i] += row[i] * targets[t];
    for (std::size_t j = i; j < dim_; ++j)
      gram_[i * dim_ + j] += row[i] * row[j];
  }
}

void NormalEquations::AddActive(std::span<const std::uint32_t> active,
                                std::span<const double> targets) {
  bool row_fits = true;
  for (std::size_t k = 0; k < active.size() && row_fits; ++k)
    row_fits = active[k] < dim_ && (k == 0 || active[k] > active[k - 1]);
  if (!Accept(row_fits, targets)) return;
  for (std::size_t k = 0; k < active.size(); ++k) {
    const std::size_t i = active[k];
    for (std::size_t t = 0; t < num_targets_; ++t)
      xty_[t * dim_ + i] += targets[t];
    for (std::size_t l = k; l < active.size(); ++l)
      gram_[i * dim_ + active[l]] += 1.0;
  }
}

std::vector<LinearModelFit> NormalEquations::Solve(double ridge_lambda) const {
  std::vector<LinearModelFit> fits(num_targets_);
  const auto fail = [&](FitStatus status) {
    for (LinearModelFit& fit : fits) fit.status = status;
    return fits;
  };
  if (dim_ == 0 || size_mismatch_) return fail(FitStatus::kSizeMismatch);
  if (rows_ < dim_) return fail(FitStatus::kTooFewPoints);
  if (!std::isfinite(ridge_lambda) || ridge_lambda < 0.0 || non_finite_)
    return fail(FitStatus::kNonFinite);

  const std::size_t dim = dim_;
  std::vector<double> a = gram_;
  std::vector<double> b = xty_;
  for (std::size_t i = 0; i < dim; ++i) {
    a[i * dim + i] += ridge_lambda;
    for (std::size_t j = 0; j < i; ++j) a[i * dim + j] = a[j * dim + i];
  }

  // Gaussian elimination with partial pivoting, every target's right-hand
  // side carried along (pivoting reads only A, so each target sees exactly
  // the operations a single-target solve would apply). The pivot floor is
  // relative to the matrix scale so "singular" means singular at double
  // precision, not merely small-valued.
  double scale = 0.0;
  for (const double v : a) scale = std::max(scale, std::abs(v));
  const double pivot_floor = scale * 1e-12;
  for (std::size_t col = 0; col < dim; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < dim; ++r)
      if (std::abs(a[r * dim + col]) > std::abs(a[pivot * dim + col]))
        pivot = r;
    if (std::abs(a[pivot * dim + col]) <= pivot_floor)
      return fail(FitStatus::kSingular);
    if (pivot != col) {
      for (std::size_t j = 0; j < dim; ++j)
        std::swap(a[pivot * dim + j], a[col * dim + j]);
      for (std::size_t t = 0; t < num_targets_; ++t)
        std::swap(b[t * dim + pivot], b[t * dim + col]);
    }
    const double inv = 1.0 / a[col * dim + col];
    for (std::size_t r = col + 1; r < dim; ++r) {
      const double factor = a[r * dim + col] * inv;
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < dim; ++j)
        a[r * dim + j] -= factor * a[col * dim + j];
      for (std::size_t t = 0; t < num_targets_; ++t)
        b[t * dim + r] -= factor * b[t * dim + col];
    }
  }
  for (std::size_t t = 0; t < num_targets_; ++t) {
    LinearModelFit& fit = fits[t];
    const double* bt = &b[t * dim];
    std::vector<double> beta(dim, 0.0);
    fit.status = FitStatus::kOk;
    for (std::size_t i = dim; i-- > 0;) {
      double sum = bt[i];
      for (std::size_t j = i + 1; j < dim; ++j) sum -= a[i * dim + j] * beta[j];
      beta[i] = sum / a[i * dim + i];
      if (!std::isfinite(beta[i])) {
        fit.status = FitStatus::kSingular;
        break;
      }
    }
    if (!fit.Ok()) continue;
    fit.coefficients = std::move(beta);
    fit.n = rows_;
  }
  return fits;
}

LinearModelFit FitLinearModel(const std::vector<std::vector<double>>& rows,
                              const std::vector<double>& y,
                              double ridge_lambda) {
  if (rows.empty() || rows.size() != y.size()) {
    LinearModelFit fit;
    fit.status = rows.empty() ? FitStatus::kTooFewPoints
                              : FitStatus::kSizeMismatch;
    return fit;
  }
  NormalEquations equations(rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r)
    equations.Add(rows[r], std::span<const double>(&y[r], 1));
  return std::move(equations.Solve(ridge_lambda).front());
}

}  // namespace axdse::util
