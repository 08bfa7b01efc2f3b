#include "workloads/pipeline_kernel.hpp"

#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "metrics/error_metrics.hpp"
#include "util/rng.hpp"
#include "workloads/dct_kernel.hpp"
#include "workloads/sobel_kernel.hpp"

namespace axdse::workloads {

namespace {

using instrument::ApproxContext;
using instrument::MultiApproxContext;
using Lanes = MultiApproxContext::Lanes;

/// Stage plumbing shared by the built-in stages: name, local variables and
/// sizes, and the Run/RunLanes pair forwarded to the derived stage's one
/// `Body<Ctx>(ctx, var_base, in, out)`.
template <class Derived>
class StageOf : public PipelineKernel::Stage {
 public:
  StageOf(std::string name, std::vector<std::string> vars,
          std::size_t input_size, std::size_t output_size)
      : name_(std::move(name)),
        vars_(std::move(vars)),
        input_size_(input_size),
        output_size_(output_size) {}

  const std::string& StageName() const noexcept final { return name_; }
  const std::vector<std::string>& LocalVariables() const noexcept final {
    return vars_;
  }
  std::size_t InputSize() const noexcept final { return input_size_; }
  std::size_t OutputSize() const noexcept final { return output_size_; }

  void Run(ApproxContext& ctx, std::size_t base,
           std::span<const std::int64_t> in,
           std::span<std::int64_t> out) const final {
    static_cast<const Derived&>(*this).Body(ctx, base, in, out);
  }
  void RunLanes(MultiApproxContext& ctx, std::size_t base,
                std::span<const Lanes> in,
                std::span<Lanes> out) const final {
    static_cast<const Derived&>(*this).Body(ctx, base, in, out);
  }

 private:
  std::string name_;
  std::vector<std::string> vars_;
  std::size_t input_size_;
  std::size_t output_size_;
};

/// Wiring shared by the stages: Q14 -> pixel-scale rescale and |x|.
constexpr auto kShift14 = [](std::int64_t v) { return v >> 14; };
constexpr auto kAbs = [](std::int64_t v) { return v < 0 ? -v : v; };

// ---- DCT / inverse-DCT stage ----------------------------------------------
//
// Forward: Y = (C * X * C^T), pass 1 rescaled by >>14 so pass-1 products
// stay ~22 bits (the DctKernel wiring); output in Q14 of the pixel scale.
// Inverse: X = (C^T * Y * C) with >>14 after each pass; expects a
// pixel-scale input (the quantize stage dequantizes to pixel scale), so MAC
// products stay in the same range as the forward transform's second pass.
// The input is the first multiplier operand throughout (DctKernel puts the
// coefficient first in its pass 1, so the two do not share a body).
class DctStage final : public StageOf<DctStage> {
 public:
  DctStage(std::string name, std::size_t blocks, bool inverse)
      : StageOf(std::move(name), {"input", "coeffs", "acc"}, blocks * 64,
                blocks * 64),
        blocks_(blocks),
        inverse_(inverse),
        c_q14_(DctMatrixQ14()) {}

 private:
  friend StageOf;
  template <class Ctx>
  void Body(Ctx& ctx, std::size_t base,
            std::span<const typename Ctx::Value> in,
            std::span<typename Ctx::Value> out) const {
    const std::size_t vin = base, vcf = base + 1, vac = base + 2;
    typename Ctx::Value temp[64];
    for (std::size_t b = 0; b < blocks_; ++b) {
      const auto* block = &in[b * 64];
      if (!inverse_) {
        // Pass 1: T = (C * X) >> 14 — input column j (stride 8) dot DCT
        // row u (unit stride).
        for (std::size_t u = 0; u < 8; ++u)
          for (std::size_t j = 0; j < 8; ++j)
            temp[u * 8 + j] =
                ctx.Map(ctx.DotAccumulate(0, &block[j], 8, &c_q14_[u * 8], 1,
                                          8, {vin, vcf}, {vac}),
                        kShift14);
        // Pass 2: Y = T * C^T, output in Q14 — both operands unit stride.
        for (std::size_t u = 0; u < 8; ++u)
          for (std::size_t v = 0; v < 8; ++v)
            out[b * 64 + u * 8 + v] = ctx.DotAccumulate(
                0, &temp[u * 8], 1, &c_q14_[v * 8], 1, 8, {vin, vcf}, {vac});
      } else {
        // Pass 1: T = (C^T * Y) >> 14 — input column v dot C column k
        // (both stride 8).
        for (std::size_t k = 0; k < 8; ++k)
          for (std::size_t v = 0; v < 8; ++v)
            temp[k * 8 + v] =
                ctx.Map(ctx.DotAccumulate(0, &block[v], 8, &c_q14_[k], 8, 8,
                                          {vin, vcf}, {vac}),
                        kShift14);
        // Pass 2: X = (T * C) >> 14 — back to pixel scale.
        for (std::size_t k = 0; k < 8; ++k)
          for (std::size_t l = 0; l < 8; ++l)
            out[b * 64 + k * 8 + l] =
                ctx.Map(ctx.DotAccumulate(0, &temp[k * 8], 1, &c_q14_[l], 8,
                                          8, {vin, vcf}, {vac}),
                        kShift14);
      }
    }
  }

  std::size_t blocks_;
  bool inverse_;
  std::vector<std::int32_t> c_q14_;
};

// ---- quantize stage -------------------------------------------------------
//
// Uniform mid-tread quantization of pixel-scale DCT coefficients: the Q14
// input is rescaled to pixel scale (wiring), multiplied by the Q12
// reciprocal of the step ("quantize.level"), rounded, and dequantized by
// the step multiply ("quantize.scale"). Output is pixel-scale.
class QuantizeStage final : public StageOf<QuantizeStage> {
 public:
  QuantizeStage(std::string name, std::size_t size, std::int64_t step)
      : StageOf(std::move(name), {"level", "scale"}, size, size),
        step_(step),
        recip_q12_(4096 / step) {}

 private:
  friend StageOf;
  template <class Ctx>
  void Body(Ctx& ctx, std::size_t base,
            std::span<const typename Ctx::Value> in,
            std::span<typename Ctx::Value> out) const {
    const std::size_t vlv = base, vsc = base + 1;
    const auto recip = ctx.Broadcast(recip_q12_);
    const auto half = ctx.Broadcast(std::int64_t{1} << 11);
    const auto step = ctx.Broadcast(step_);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const auto p = ctx.Mul(ctx.Map(in[i], kShift14), recip, {vlv});
      // Rounded level: the >>12 is wiring.
      const auto q = ctx.Map(ctx.Add(p, half, {vlv}),
                             [](std::int64_t v) { return v >> 12; });
      out[i] = ctx.Mul(q, step, {vsc});
    }
  }

  std::int64_t step_;
  std::int64_t recip_q12_;
};

// ---- sobel stage ----------------------------------------------------------
//
// The SobelKernel gradient math (detail::SobelMagnitude, one body for both)
// over the pipeline's shared image buffer, with one "image" variable.
class SobelStage final : public StageOf<SobelStage> {
 public:
  SobelStage(std::string name, std::size_t height, std::size_t width)
      : StageOf(std::move(name), {"image", "kx", "ky", "acc"},
                height * width, (height - 2) * (width - 2)),
        height_(height),
        width_(width),
        smooth_({1, 2, 1}) {}

 private:
  friend StageOf;
  template <class Ctx>
  void Body(Ctx& ctx, std::size_t base,
            std::span<const typename Ctx::Value> in,
            std::span<typename Ctx::Value> out) const {
    detail::SobelMagnitude(
        ctx, in.data(), height_, width_, smooth_.data(),
        [base](std::size_t) { return base; }, base + 1, base + 2, base + 3,
        [out](std::size_t i, const auto& mag) { out[i] = mag; });
  }

  std::size_t height_;
  std::size_t width_;
  std::vector<std::int32_t> smooth_;
};

// ---- threshold stage ------------------------------------------------------
//
// Binarizes gradient magnitudes: the comparison is carried by a counted
// signed add ("threshold.bias"), the sign test is wiring.
class ThresholdStage final : public StageOf<ThresholdStage> {
 public:
  ThresholdStage(std::string name, std::size_t size, std::int64_t threshold)
      : StageOf(std::move(name), {"bias"}, size, size),
        threshold_(threshold) {}

 private:
  friend StageOf;
  template <class Ctx>
  void Body(Ctx& ctx, std::size_t base,
            std::span<const typename Ctx::Value> in,
            std::span<typename Ctx::Value> out) const {
    const auto bias = ctx.Broadcast(-threshold_);
    for (std::size_t i = 0; i < in.size(); ++i)
      out[i] = ctx.Map(ctx.Add(in[i], bias, {base}),
                       [](std::int64_t v) { return v > 0 ? 255 : 0; });
  }

  std::int64_t threshold_;
};

// ---- conv stage -----------------------------------------------------------
//
// Multi-channel 3x3 convolution over the shared image: one seed-generated
// stencil per output channel, each output the sum of three 3-MAC row dots
// combined by counted adds. Output is channel-major.
class ConvStage final : public StageOf<ConvStage> {
 public:
  ConvStage(std::string name, std::size_t height, std::size_t width,
            std::vector<std::int32_t> stencils)
      : StageOf(std::move(name), {"image", "stencil", "acc"}, height * width,
                stencils.size() / 9 * (height - 2) * (width - 2)),
        height_(height),
        width_(width),
        stencils_(std::move(stencils)) {}

 private:
  friend StageOf;
  template <class Ctx>
  void Body(Ctx& ctx, std::size_t base,
            std::span<const typename Ctx::Value> in,
            std::span<typename Ctx::Value> out) const {
    const std::size_t vim = base, vst = base + 1, vac = base + 2;
    const std::size_t out_rows = height_ - 2;
    const std::size_t out_cols = width_ - 2;
    const std::size_t spatial = out_rows * out_cols;
    for (std::size_t c = 0; c < stencils_.size() / 9; ++c) {
      const std::int32_t* st = &stencils_[c * 9];
      for (std::size_t y = 0; y < out_rows; ++y) {
        for (std::size_t x = 0; x < out_cols; ++x) {
          typename Ctx::Value rows[3];
          for (std::size_t dy = 0; dy < 3; ++dy)
            rows[dy] =
                ctx.DotAccumulate(0, &in[(y + dy) * width_ + x], 1,
                                  &st[dy * 3], 1, 3, {vim, vst}, {vac});
          const auto s01 = ctx.Add(rows[0], rows[1], {vac});
          out[c * spatial + y * out_cols + x] = ctx.Add(s01, rows[2], {vac});
        }
      }
    }
  }

  std::size_t height_;
  std::size_t width_;
  std::vector<std::int32_t> stencils_;
};

// ---- bias stage -----------------------------------------------------------
class BiasStage final : public StageOf<BiasStage> {
 public:
  BiasStage(std::string name, std::size_t spatial,
            std::vector<std::int64_t> biases)
      : StageOf(std::move(name), {"add"}, biases.size() * spatial,
                biases.size() * spatial),
        spatial_(spatial),
        biases_(std::move(biases)) {}

 private:
  friend StageOf;
  template <class Ctx>
  void Body(Ctx& ctx, std::size_t base,
            std::span<const typename Ctx::Value> in,
            std::span<typename Ctx::Value> out) const {
    for (std::size_t c = 0; c < biases_.size(); ++c) {
      const auto bias = ctx.Broadcast(biases_[c]);
      for (std::size_t s = 0; s < spatial_; ++s)
        out[c * spatial_ + s] = ctx.Add(in[c * spatial_ + s], bias, {base});
    }
  }

  std::size_t spatial_;
  std::vector<std::int64_t> biases_;
};

// ---- relu stage -----------------------------------------------------------
//
// max(x, 0) computed as (x + |x|) >> 1 so the gate is a counted add
// ("relu.gate"); |x| and the halving shift are wiring.
class ReluStage final : public StageOf<ReluStage> {
 public:
  ReluStage(std::string name, std::size_t size)
      : StageOf(std::move(name), {"gate"}, size, size) {}

 private:
  friend StageOf;
  template <class Ctx>
  void Body(Ctx& ctx, std::size_t base,
            std::span<const typename Ctx::Value> in,
            std::span<typename Ctx::Value> out) const {
    for (std::size_t i = 0; i < in.size(); ++i)
      out[i] = ctx.Map(ctx.Add(in[i], ctx.Map(in[i], kAbs), {base}),
                       [](std::int64_t v) { return v >> 1; });
  }
};

std::vector<std::int64_t> RandomPixels(std::size_t n, util::Rng& rng) {
  std::vector<std::int64_t> out(n);
  for (auto& v : out) v = static_cast<std::int64_t>(rng.UniformBelow(256));
  return out;
}

}  // namespace

// ---- PipelineKernel -------------------------------------------------------

PipelineKernel::PipelineKernel(std::string name, axc::OperatorSet operators,
                               std::vector<std::int64_t> source,
                               std::vector<std::unique_ptr<Stage>> stages,
                               Scorer scorer)
    : name_(std::move(name)),
      operators_(std::move(operators)),
      source_(std::move(source)),
      stages_(std::move(stages)),
      scorer_(std::move(scorer)) {
  if (stages_.empty())
    throw std::invalid_argument("PipelineKernel: no stages");
  if (source_.empty())
    throw std::invalid_argument("PipelineKernel: empty source");
  std::set<std::string> stage_names;
  std::size_t size = source_.size();
  for (const auto& stage : stages_) {
    if (!stage) throw std::invalid_argument("PipelineKernel: null stage");
    if (!stage_names.insert(stage->StageName()).second)
      throw std::invalid_argument("PipelineKernel: duplicate stage '" +
                                  stage->StageName() + "'");
    if (stage->InputSize() != size)
      throw std::invalid_argument(
          "PipelineKernel: stage '" + stage->StageName() + "' expects " +
          std::to_string(stage->InputSize()) + " inputs, gets " +
          std::to_string(size));
    size = stage->OutputSize();
    if (size == 0)
      throw std::invalid_argument("PipelineKernel: stage '" +
                                  stage->StageName() + "' has empty output");
    var_bases_.push_back(variables_.size());
    for (const std::string& local : stage->LocalVariables())
      variables_.push_back({stage->StageName() + "." + local});
  }
}

template <class Ctx>
std::vector<double> PipelineKernel::Body(Ctx& ctx) const {
  std::vector<typename Ctx::Value> cur(source_.size());
  for (std::size_t i = 0; i < source_.size(); ++i)
    cur[i] = ctx.Broadcast(source_[i]);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    std::vector<typename Ctx::Value> next(stages_[i]->OutputSize());
    if constexpr (std::is_same_v<Ctx, instrument::ApproxContext>)
      stages_[i]->Run(ctx, var_bases_[i], cur, next);
    else
      stages_[i]->RunLanes(ctx, var_bases_[i], cur, next);
    cur = std::move(next);
  }
  std::vector<double> out(ctx.NumLanes() * cur.size());
  for (std::size_t i = 0; i < cur.size(); ++i)
    ctx.StoreOutput(out, cur.size(), i, cur[i]);
  return out;
}

std::vector<double> PipelineKernel::Run(instrument::ApproxContext& ctx) const {
  return Body(ctx);
}

std::vector<double> PipelineKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  return Body(ctx);
}

double PipelineKernel::AccuracyError(std::span<const double> precise,
                                     std::span<const double> approx) const {
  if (scorer_) return scorer_(precise, approx);
  return Kernel::AccuracyError(precise, approx);
}

std::vector<StageOpCounts> PipelineKernel::StageCounts(
    const instrument::ApproxSelection& selection) const {
  instrument::ApproxContext ctx = MakeContext();
  ctx.Configure(selection);
  std::vector<StageOpCounts> out;
  out.reserve(stages_.size());
  std::vector<std::int64_t> cur = source_;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    ctx.ResetCounts();
    std::vector<std::int64_t> next(stages_[i]->OutputSize());
    stages_[i]->Run(ctx, var_bases_[i], cur, next);
    out.push_back({stages_[i]->StageName(), ctx.Counts()});
    cur = std::move(next);
  }
  return out;
}

// ---- built-in pipeline factories ------------------------------------------

std::unique_ptr<Kernel> MakeJpegPathPipeline(const KernelParams& params) {
  const std::size_t blocks = params.size == 0 ? 2 : params.size;
  const std::int64_t step = params.GetInt("step", 16);
  if (step < 2 || step > 256 || (step & (step - 1)) != 0)
    throw std::invalid_argument(
        "jpeg-path: step must be a power of two in [2, 256], got " +
        std::to_string(step));
  util::Rng rng(params.seed);
  std::vector<std::int64_t> pixels = RandomPixels(blocks * 64, rng);
  std::vector<std::unique_ptr<PipelineKernel::Stage>> stages;
  stages.push_back(std::make_unique<DctStage>("dct", blocks, false));
  stages.push_back(
      std::make_unique<QuantizeStage>("quantize", blocks * 64, step));
  stages.push_back(std::make_unique<DctStage>("idct", blocks, true));
  // Quality: PSNR of the approximated reconstruction against the precise
  // one (8-bit peak), reported as the gap below a 100 dB cap so that 0
  // means indistinguishable and larger means worse — the orientation the
  // evaluator's delta_acc threshold expects.
  PipelineKernel::Scorer scorer = [](std::span<const double> precise,
                                     std::span<const double> approx) {
    constexpr double kCapDb = 100.0;
    const double psnr = metrics::Psnr(precise, approx, 255.0);
    return psnr >= kCapDb ? 0.0 : kCapDb - psnr;
  };
  return std::make_unique<PipelineKernel>(
      "jpeg-path-" + std::to_string(blocks),
      axc::EvoApproxCatalog::Instance().FirSet(), std::move(pixels),
      std::move(stages), std::move(scorer));
}

std::unique_ptr<Kernel> MakeEdgePathPipeline(const KernelParams& params) {
  const std::size_t height = params.size == 0 ? 12 : params.size;
  const std::size_t width = static_cast<std::size_t>(
      params.GetInt("width", static_cast<std::int64_t>(height)));
  if (height < 3 || width < 3)
    throw std::invalid_argument("edge-path: image must be at least 3x3");
  const std::int64_t threshold = params.GetInt("threshold", 512);
  util::Rng rng(params.seed);
  std::vector<std::int64_t> image = RandomPixels(height * width, rng);
  std::vector<std::unique_ptr<PipelineKernel::Stage>> stages;
  stages.push_back(std::make_unique<SobelStage>("sobel", height, width));
  stages.push_back(std::make_unique<ThresholdStage>(
      "threshold", (height - 2) * (width - 2), threshold));
  return std::make_unique<PipelineKernel>(
      "edge-path-" + std::to_string(height) + "x" + std::to_string(width),
      axc::EvoApproxCatalog::Instance().MatMulSet(), std::move(image),
      std::move(stages));
}

std::unique_ptr<Kernel> MakeNnLayerPipeline(const KernelParams& params) {
  const std::size_t height = params.size == 0 ? 12 : params.size;
  const std::size_t width = static_cast<std::size_t>(
      params.GetInt("width", static_cast<std::int64_t>(height)));
  if (height < 3 || width < 3)
    throw std::invalid_argument("nn-layer: image must be at least 3x3");
  const std::size_t channels =
      static_cast<std::size_t>(params.GetInt("channels", 3));
  if (channels < 2)
    throw std::invalid_argument("nn-layer: channels must be >= 2 (top-error "
                                "needs competing channels), got " +
                                std::to_string(channels));
  util::Rng rng(params.seed);
  std::vector<std::int64_t> image = RandomPixels(height * width, rng);
  std::vector<std::int32_t> stencils(channels * 9);
  for (auto& w : stencils) w = static_cast<std::int32_t>(rng.UniformBelow(8));
  std::vector<std::int64_t> biases(channels);
  for (auto& b : biases)
    b = static_cast<std::int64_t>(rng.UniformBelow(2049)) - 1024;
  const std::size_t spatial = (height - 2) * (width - 2);
  std::vector<std::unique_ptr<PipelineKernel::Stage>> stages;
  stages.push_back(
      std::make_unique<ConvStage>("conv", height, width, std::move(stencils)));
  stages.push_back(
      std::make_unique<BiasStage>("bias", spatial, std::move(biases)));
  stages.push_back(
      std::make_unique<ReluStage>("relu", channels * spatial));
  // Quality: classification-style top-error — the fraction of spatial
  // positions whose winning channel (argmax, first-wins ties) changed.
  PipelineKernel::Scorer scorer = [channels, spatial](
                                      std::span<const double> precise,
                                      std::span<const double> approx) {
    std::size_t wrong = 0;
    for (std::size_t s = 0; s < spatial; ++s) {
      std::size_t best_p = 0, best_a = 0;
      for (std::size_t c = 1; c < channels; ++c) {
        if (precise[c * spatial + s] > precise[best_p * spatial + s])
          best_p = c;
        if (approx[c * spatial + s] > approx[best_a * spatial + s])
          best_a = c;
      }
      if (best_p != best_a) ++wrong;
    }
    return static_cast<double>(wrong) / static_cast<double>(spatial);
  };
  return std::make_unique<PipelineKernel>(
      "nn-layer-" + std::to_string(height) + "x" + std::to_string(width) +
          "x" + std::to_string(channels),
      axc::EvoApproxCatalog::Instance().MatMulSet(), std::move(image),
      std::move(stages), std::move(scorer));
}

}  // namespace axdse::workloads
