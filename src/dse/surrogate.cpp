#include "dse/surrogate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>

namespace axdse::dse {

namespace {

// Numeric anchors of the log-space model. kEps keeps log() defined at
// Δacc = 0; the clamp bounds keep deeply feasible (Δacc ~ 0) and wildly
// infeasible observations from dominating the residual scale — only the
// neighbourhood of the threshold matters for the skip decision.
constexpr double kEps = 1e-12;
constexpr double kClampBelow = 6.0;
constexpr double kClampAbove = 20.0;

// Bound on the quadratic counts model's feature dimension (1 + V + V(V-1)/2)
// — beyond it the exact normal-equation fit gets too expensive and the
// surrogate falls back to the mask memo alone.
constexpr std::size_t kMaxCountsDim = 512;
// Retry cadence (in new distinct masks) of the counts fit while it is not
// yet validated.
constexpr std::size_t kCountsFitInterval = 64;

// Reads/writes OpCounts as an indexable quadruple, in declaration order.
std::uint64_t CountField(const axdse::energy::OpCounts& counts, int field) {
  switch (field) {
    case 0: return counts.precise_adds;
    case 1: return counts.approx_adds;
    case 2: return counts.precise_muls;
    default: return counts.approx_muls;
  }
}

void SetCountField(axdse::energy::OpCounts& counts, int field,
                   std::uint64_t value) {
  switch (field) {
    case 0: counts.precise_adds = value; break;
    case 1: counts.approx_adds = value; break;
    case 2: counts.precise_muls = value; break;
    default: counts.approx_muls = value; break;
  }
}

// Calls fn(v) for every selected variable v of `mask`, in ascending order.
template <typename Fn>
void ForEachSelected(const std::vector<std::uint64_t>& mask, Fn&& fn) {
  for (std::size_t w = 0; w < mask.size(); ++w)
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1)
      fn(64 * w + static_cast<std::size_t>(std::countr_zero(bits)));
}

/// Dimension of the quadratic counts model over `v` variables, or 0 when it
/// exceeds kMaxCountsDim.
std::size_t CountsDim(std::size_t v) {
  const std::size_t quad_dim = 1 + v + v * (v - 1) / 2;
  return quad_dim <= kMaxCountsDim ? quad_dim : 0;
}

}  // namespace

SurrogateModel::SurrogateModel(const SpaceShape& shape, double acc_threshold,
                               const energy::EnergyModel& energy,
                               double precise_power_mw, double precise_time_ns,
                               const SurrogateOptions& options)
    : shape_(shape),
      acc_threshold_(acc_threshold),
      cut_(std::log(std::max(acc_threshold, 0.0) + kEps)),
      energy_(&energy),
      precise_power_mw_(precise_power_mw),
      precise_time_ns_(precise_time_ns),
      options_(options),
      dim_(1 + shape.num_adders + shape.num_multipliers + shape.num_variables),
      min_samples_(std::max(options.min_samples, 2 * dim_)),
      equations_(dim_),
      counts_dim_(CountsDim(shape.num_variables)),
      counts_equations_(counts_dim_, 4) {}

void SurrogateModel::ActiveFeatures(const Configuration& config,
                                    std::vector<std::uint32_t>* out) const {
  // The operator one-hots are gated by "any variable selected": with an
  // empty mask no operation is approximate and Δacc is 0 no matter which
  // operators are nominally selected, so those rows must not teach the model
  // anything about the operators.
  out->clear();
  out->push_back(0);
  if (!config.NoneSelected()) {
    out->push_back(static_cast<std::uint32_t>(1 + config.AdderIndex()));
    out->push_back(static_cast<std::uint32_t>(1 + shape_.num_adders +
                                              config.MultiplierIndex()));
  }
  const std::size_t vars_base = 1 + shape_.num_adders + shape_.num_multipliers;
  ForEachSelected(config.MaskWords(), [&](std::size_t v) {
    out->push_back(static_cast<std::uint32_t>(vars_base + v));
  });
}

bool SurrogateModel::IsSaturation(const Configuration& config) const noexcept {
  return shape_.num_adders > 0 && shape_.num_multipliers > 0 &&
         config.AdderIndex() + 1 == shape_.num_adders &&
         config.MultiplierIndex() + 1 == shape_.num_multipliers &&
         config.AllVariablesSelected();
}

bool SurrogateModel::Dominates(const Configuration& a, const Configuration& b) {
  if (a.AdderIndex() < b.AdderIndex() ||
      a.MultiplierIndex() < b.MultiplierIndex())
    return false;
  const std::vector<std::uint64_t>& a_mask = a.MaskWords();
  const std::vector<std::uint64_t>& b_mask = b.MaskWords();
  for (std::size_t w = 0; w < b_mask.size(); ++w)
    if ((b_mask[w] & ~a_mask[w]) != 0) return false;  // b selects more than a
  return true;
}

void SurrogateModel::ActiveMaskFeatures(const std::vector<std::uint64_t>& mask,
                                        std::vector<std::uint32_t>* out) const {
  // Dense layout: [bias | x_v (v < V) | x_i*x_j for i < j in (i, j) order],
  // so pair (i, j) sits at V*(i+1) - i*(i+3)/2 + j. Emitting the linear
  // terms, then the pairs in (i, j) order, keeps the list ascending.
  const std::size_t v_count = shape_.num_variables;
  out->clear();
  out->push_back(0);
  ForEachSelected(mask, [&](std::size_t v) {
    out->push_back(static_cast<std::uint32_t>(1 + v));
  });
  const std::size_t selected_end = out->size();
  for (std::size_t a = 1; a < selected_end; ++a) {
    const std::size_t i = (*out)[a] - 1;
    const std::size_t row_base = v_count * (i + 1) - i * (i + 3) / 2;
    for (std::size_t b = a + 1; b < selected_end; ++b)
      out->push_back(static_cast<std::uint32_t>(row_base + ((*out)[b] - 1)));
  }
}

void SurrogateModel::TryFitCounts() {
  // Exact fit (no ridge): the counts of every straight-line kernel are an
  // integer-valued quadratic in the mask bits, so the model is only trusted
  // when it reproduces EVERY observed mask exactly after rounding.
  std::vector<util::LinearModelFit> fits = counts_equations_.Solve(0.0);
  for (const util::LinearModelFit& fit : fits)
    if (!fit.Ok()) return;
  for (const auto& [mask, counts] : mask_counts_) {
    ActiveMaskFeatures(mask, &active_);
    for (int field = 0; field < 4; ++field) {
      const double pred = fits[field].PredictActive(active_);
      if (!std::isfinite(pred) ||
          std::abs(pred - static_cast<double>(CountField(counts, field))) >=
              0.5)
        return;
    }
  }
  counts_fits_ = std::move(fits);
}

bool SurrogateModel::PredictCounts(const std::vector<std::uint64_t>& mask,
                                   energy::OpCounts* out) {
  if (counts_fits_.empty()) return false;
  ActiveMaskFeatures(mask, &active_);
  for (int field = 0; field < 4; ++field) {
    const double pred = counts_fits_[field].PredictActive(active_);
    if (!std::isfinite(pred)) return false;
    const double rounded = std::round(pred);
    if (rounded < 0.0) return false;
    SetCountField(*out, field, static_cast<std::uint64_t>(rounded));
  }
  return true;
}

void SurrogateModel::Refit() {
  fit_ = std::move(equations_.Solve(options_.ridge_lambda).front());
  if (!fit_.Ok()) return;
  double max_residual = 0.0;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < row_end_.size(); ++i) {
    const std::span<const std::uint32_t> row(row_active_.data() + begin,
                                             row_end_[i] - begin);
    max_residual =
        std::max(max_residual, std::abs(fit_.PredictActive(row) - targets_[i]));
    begin = row_end_[i];
  }
  margin_ = std::max(options_.margin_factor *
                         std::max({max_residual, prequential_max_,
                                   options_.residual_floor}),
                     calibration_floor_);
}

void SurrogateModel::Observe(const Configuration& config,
                             const instrument::Measurement& m) {
  if (!FitsShape(shape_, config))
    throw std::invalid_argument(
        "SurrogateModel::Observe: configuration does not fit the space");

  const double y = std::clamp(std::log(std::max(m.delta_acc, 0.0) + kEps),
                              cut_ - kClampBelow, cut_ + kClampAbove);
  ActiveFeatures(config, &active_);

  // Margin self-calibration against every ground truth BEFORE it joins the
  // training set. This is an honest out-of-sample (prequential) error of
  // exactly the model a skip of this configuration would have used — audits
  // routinely route confident configurations through here, so the skip
  // region itself is probed. Two floors, both permanent:
  //   * the running max prequential error scales the margin like the
  //     training residuals do, but without their optimism;
  //   * a confidently-misclassified observation pushes the margin past its
  //     own confidence (with headroom) so that exact mistake cannot recur.
  if (fit_.Ok()) {
    const double pred = fit_.PredictActive(active_);
    if (std::isfinite(pred)) {
      prequential_max_ = std::max(prequential_max_, std::abs(pred - y));
      const bool pred_infeasible = pred > cut_;
      const bool true_infeasible = m.delta_acc > acc_threshold_;
      if (pred_infeasible != true_infeasible)
        calibration_floor_ =
            std::max(calibration_floor_, 1.25 * std::abs(pred - cut_));
      margin_ = std::max(
          options_.margin_factor *
              std::max(prequential_max_, options_.residual_floor),
          calibration_floor_);
    }
  }
  observations_.push_back(config);
  equations_.AddActive(active_, std::span<const double>(&y, 1));
  row_active_.insert(row_active_.end(), active_.begin(), active_.end());
  row_end_.push_back(row_active_.size());
  targets_.push_back(y);

  // Learn (or cross-check) the operation counts of this variable mask. The
  // op split depends only on which variables are selected, not on the
  // operator choice — if two runs with the same mask ever disagree, that
  // assumption is wrong for this kernel and exact-cost prediction is
  // impossible: stop skipping permanently.
  const auto [it, inserted] =
      mask_counts_.try_emplace(config.MaskWords(), m.counts);
  if (!inserted && !(it->second == m.counts)) counts_unstable_ = true;
  if (inserted && counts_dim_ > 0) {
    if (!counts_fits_.empty()) {
      // A validated quadratic counts model must keep matching reality: one
      // off-model mask means its predictions cannot be trusted anywhere.
      energy::OpCounts predicted;
      if (!PredictCounts(it->first, &predicted) || !(predicted == m.counts))
        counts_unstable_ = true;
    } else if (!counts_unstable_) {
      // Still learning. A trusted model is never refitted and unstable
      // counts are permanent, so only this branch feeds the fit.
      double counts_targets[4];
      for (int field = 0; field < 4; ++field)
        counts_targets[field] =
            static_cast<double>(CountField(m.counts, field));
      ActiveMaskFeatures(it->first, &active_);
      counts_equations_.AddActive(active_, counts_targets);
      const std::size_t masks = counts_equations_.Rows();
      if (masks >= counts_dim_ &&
          (masks - counts_dim_) % kCountsFitInterval == 0)
        TryFitCounts();
    }
  }

  // Record the ground truth as a dominance witness, keeping each set an
  // antichain: the feasible side only Pareto-maximal points (the most
  // aggressive configurations known feasible), the infeasible side only
  // Pareto-minimal ones — anything else witnesses nothing those cannot.
  if (m.delta_acc <= acc_threshold_) {
    if (std::none_of(feasible_witnesses_.begin(), feasible_witnesses_.end(),
                     [&](const Configuration& q) {
                       return Dominates(q, config);
                     })) {
      std::erase_if(feasible_witnesses_, [&](const Configuration& q) {
        return Dominates(config, q);
      });
      feasible_witnesses_.push_back(config);
    }
  } else if (std::none_of(infeasible_witnesses_.begin(),
                          infeasible_witnesses_.end(),
                          [&](const Configuration& q) {
                            return Dominates(config, q);
                          })) {
    std::erase_if(infeasible_witnesses_, [&](const Configuration& q) {
      return Dominates(q, config);
    });
    infeasible_witnesses_.push_back(config);
  }

  const std::size_t n = observations_.size();
  const std::size_t interval = std::max<std::size_t>(options_.refit_interval, 1);
  if (n >= min_samples_ && (n - min_samples_) % interval == 0) Refit();
}

const instrument::Measurement* SurrogateModel::Lookup(
    const Configuration& config) const {
  const auto it = predicted_.find(config);
  return it == predicted_.end() ? nullptr : &it->second;
}

bool SurrogateModel::TrySkip(const Configuration& config,
                             instrument::Measurement* out) {
  if (acc_threshold_ <= 0.0 || counts_unstable_ || !fit_.Ok()) return false;
  // Never skip the states with special roles in Algorithm 1: the all-precise
  // direction (empty mask, trivially feasible) and the saturation terminate
  // state.
  if (config.NoneSelected() || IsSaturation(config)) return false;
  // Exact operation counts of this configuration's mask: the ground-truth
  // memo first, the validated quadratic model for unseen masks.
  energy::OpCounts counts;
  const auto counts_it = mask_counts_.find(config.MaskWords());
  if (counts_it != mask_counts_.end()) {
    counts = counts_it->second;
  } else if (!PredictCounts(config.MaskWords(), &counts)) {
    return false;
  }

  ActiveFeatures(config, &active_);
  const double pred = fit_.PredictActive(active_);
  if (!std::isfinite(pred) || std::abs(pred - cut_) <= margin_) return false;

  // Independent structural confirmation: a dominance witness on the
  // predicted side. A feasible skip needs an observed feasible point at
  // least as aggressive as the candidate; an infeasible skip an observed
  // infeasible point at most as aggressive.
  const bool witnessed =
      pred < cut_
          ? std::any_of(feasible_witnesses_.begin(), feasible_witnesses_.end(),
                        [&](const Configuration& q) {
                          return Dominates(q, config);
                        })
          : std::any_of(infeasible_witnesses_.begin(),
                        infeasible_witnesses_.end(),
                        [&](const Configuration& q) {
                          return Dominates(config, q);
                        });
  if (!witnessed) return false;

  // Skip-eligible. Deterministic audit: every Nth eligible configuration is
  // executed anyway, feeding the model a ground truth exactly where it is
  // most confident.
  ++audit_counter_;
  if (options_.audit_period > 0 && audit_counter_ % options_.audit_period == 0)
    return false;

  // Predicted Δacc = exp(pred) - kEps lands on the same side of the
  // threshold as the prediction: pred > cut_ + margin_ puts it strictly
  // above acc_threshold, pred < cut_ - margin_ strictly below (margin_ > 0).
  // ConsiderBest and the reward therefore classify the point exactly as a
  // correct true measurement would.
  instrument::Measurement m;
  m.counts = counts;
  m.delta_acc = std::max(std::exp(std::min(pred, 700.0)) - kEps, 0.0);
  const energy::CostEstimate approx_cost = energy_->Cost(
      m.counts, config.AdderIndex(), config.MultiplierIndex());
  m.approx_power_mw = approx_cost.power_mw;
  m.approx_time_ns = approx_cost.time_ns;
  m.precise_power_mw = precise_power_mw_;
  m.precise_time_ns = precise_time_ns_;
  m.delta_power_mw = precise_power_mw_ - approx_cost.power_mw;
  m.delta_time_ns = precise_time_ns_ - approx_cost.time_ns;

  predicted_.emplace(config, m);
  *out = m;
  return true;
}

void SurrogateModel::Invalidate(const Configuration& config) {
  predicted_.erase(config);
}

SurrogateModel::State SurrogateModel::CaptureState() const {
  State state;
  state.audit_counter = audit_counter_;
  state.counts_unstable = counts_unstable_;
  state.observations = observations_;
  state.predicted.assign(predicted_.begin(), predicted_.end());
  return state;
}

void SurrogateModel::RestoreState(
    const State& state,
    const std::function<instrument::Measurement(const Configuration&)>&
        measurement_of) {
  for (const Configuration& config : state.observations)
    Observe(config, measurement_of(config));
  audit_counter_ = state.audit_counter;
  counts_unstable_ = counts_unstable_ || state.counts_unstable;
  for (const auto& [config, measurement] : state.predicted) {
    if (!FitsShape(shape_, config))
      throw std::invalid_argument(
          "SurrogateModel::RestoreState: predicted configuration does not "
          "fit the space");
    predicted_.insert_or_assign(config, measurement);
  }
}

}  // namespace axdse::dse
