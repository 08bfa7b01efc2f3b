#include "workloads/iir_kernel.hpp"

#include <cmath>
#include <stdexcept>

#include "instrument/multi_approx_context.hpp"
#include "signal/noise.hpp"
#include "signal/quantize.hpp"

namespace axdse::workloads {

IirKernel::IirKernel(std::size_t num_samples, double cutoff,
                     std::uint64_t seed)
    : design_(signal::DesignBiquadLowPass(cutoff)),
      variables_({{"x"}, {"b"}, {"a"}, {"acc"}}),
      operators_(axc::EvoApproxCatalog::Instance().FirSet()) {
  if (num_samples == 0) throw std::invalid_argument("IirKernel: no samples");
  if (!signal::IsStable(design_))
    throw std::invalid_argument("IirKernel: unstable design");
  const std::vector<double> noise =
      signal::UniformWhiteNoise(num_samples, 0.9, seed);
  x_ = signal::ToFixedVector(noise, 15);
  name_ = "iir-biquad-" + std::to_string(x_.size());
  b_q15_[0] = signal::ToFixed(design_.b0, 15);
  b_q15_[1] = signal::ToFixed(design_.b1, 15);
  b_q15_[2] = signal::ToFixed(design_.b2, 15);
  // a1 of a low-pass biquad lies in (-2, 0): halve into Q15 range and
  // compensate with a doubled accumulation (standard fixed-point trick).
  a_q15_[0] = signal::ToFixed(design_.a1 / 2.0, 15);
  a_q15_[1] = signal::ToFixed(design_.a2, 15);
}

const std::string& IirKernel::Name() const noexcept { return name_; }

template <class Ctx>
std::vector<double> IirKernel::Body(Ctx& ctx) const {
  using Value = typename Ctx::Value;
  const std::size_t size = x_.size();
  std::vector<double> out(ctx.NumLanes() * size);
  // The recurrence cannot batch across samples, but the three selection
  // decisions are loop-invariant: resolve them once and run the sample loop
  // on pre-resolved (plan-dispatched) ops.
  const auto ff = ctx.ApproxLaneMask({VarOfFeedForward(), VarOfInput()});
  const auto fb = ctx.ApproxLaneMask({VarOfFeedback(), VarOfAccumulator()});
  const auto ac = ctx.ApproxLaneMask({VarOfAccumulator()});
  const Value b0 = ctx.Broadcast(b_q15_[0]);
  const Value b1 = ctx.Broadcast(b_q15_[1]);
  const Value b2 = ctx.Broadcast(b_q15_[2]);
  const Value a1 = ctx.Broadcast(a_q15_[0]);
  const Value a2 = ctx.Broadcast(a_q15_[1]);

  Value x1 = ctx.Broadcast(0);
  Value x2 = ctx.Broadcast(0);
  Value y1 = ctx.Broadcast(0);  // Q15 feedback state
  Value y2 = ctx.Broadcast(0);
  for (std::size_t n = 0; n < size; ++n) {
    const Value xn = ctx.Broadcast(x_[n]);
    Value acc = ctx.Broadcast(0);  // Q30
    acc = ctx.AddResolved(ac, acc, ctx.MulResolved(ff, b0, xn));
    acc = ctx.AddResolved(ac, acc, ctx.MulResolved(ff, b1, x1));
    acc = ctx.AddResolved(ac, acc, ctx.MulResolved(ff, b2, x2));
    // Feedback taps: -a1*y1 (a1 stored halved -> product doubled) - a2*y2.
    // The -2*, unary minus and >>15 rescale are wiring, not counted ops.
    const Value fb1 = ctx.MulResolved(fb, a1, y1);
    acc = ctx.AddResolved(
        ac, acc, ctx.Map(fb1, [](std::int64_t v) { return -2 * v; }));
    const Value fb2 = ctx.MulResolved(fb, a2, y2);
    acc = ctx.AddResolved(ac, acc,
                          ctx.Map(fb2, [](std::int64_t v) { return -v; }));

    const Value yn =
        ctx.Map(acc, [](std::int64_t v) { return v >> 15; });  // Q30 -> Q15
    ctx.StoreOutput(out, size, n, yn);
    x2 = x1;
    x1 = xn;
    y2 = y1;
    y1 = yn;
  }
  return out;
}

std::vector<double> IirKernel::Run(instrument::ApproxContext& ctx) const {
  return Body(ctx);
}

std::vector<double> IirKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  return Body(ctx);
}

}  // namespace axdse::workloads
