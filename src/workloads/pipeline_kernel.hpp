#pragma once
// Multi-stage pipeline kernel: chains named processing stages, each owning a
// disjoint slice of the variable space (stage-scoped names like
// "dct.coeffs" or "quantize.level"), so a single ApproxSelection expresses
// *per-stage* approximation choices and the RL agent learns which stage of
// an application tolerates approximation. Stage outputs feed the next
// stage's inputs; quality is judged end-to-end by an application metric
// (PSNR for the JPEG path, top-error for the NN layer) instead of the
// per-kernel output MAE.
//
// Built-in pipelines (registered in the global registry):
//   "jpeg-path"  dct -> quantize -> idct      scored by PSNR gap
//   "edge-path"  sobel3x3 -> threshold        scored by MAE (default)
//   "nn-layer"   conv2d -> bias -> relu       scored by top-error

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "instrument/multi_approx_context.hpp"
#include "workloads/kernel.hpp"
#include "workloads/registry.hpp"

namespace axdse::workloads {

/// A kernel assembled from a chain of stages over int64 intermediates. The
/// pipeline owns the source data; stage i reads stage i-1's outputs (stage 0
/// reads the source), and the final stage's outputs — widened to double —
/// are the kernel outputs. Variables are the concatenation of every stage's
/// local variables under "<stage>.<variable>" names, so one selection spans
/// the whole pipeline while each stage sees only its own slice.
class PipelineKernel final : public Kernel {
 public:
  /// One processing stage. Implementations must be deterministic,
  /// const-thread-safe, and route all counted arithmetic through the
  /// context using variable indices offset by `var_base` (the index of this
  /// stage's first variable in the pipeline's variable list). RunLanes must
  /// be per-lane bit-identical to Run in both values and op counts; the
  /// built-in stages hold this by construction, forwarding both to one
  /// template body over the context type (checked by the pipeline tests).
  class Stage {
   public:
    virtual ~Stage() = default;
    virtual const std::string& StageName() const noexcept = 0;
    virtual const std::vector<std::string>& LocalVariables() const noexcept = 0;
    virtual std::size_t InputSize() const noexcept = 0;
    virtual std::size_t OutputSize() const noexcept = 0;
    virtual void Run(instrument::ApproxContext& ctx, std::size_t var_base,
                     std::span<const std::int64_t> in,
                     std::span<std::int64_t> out) const = 0;
    virtual void RunLanes(
        instrument::MultiApproxContext& ctx, std::size_t var_base,
        std::span<const instrument::MultiApproxContext::Lanes> in,
        std::span<instrument::MultiApproxContext::Lanes> out) const = 0;
  };

  /// End-to-end quality metric (see Kernel::AccuracyError). Empty means the
  /// default MAE.
  using Scorer = std::function<double(std::span<const double> precise,
                                      std::span<const double> approx)>;

  /// Throws std::invalid_argument when the stage list or source is empty,
  /// when stage names collide, or when adjacent stage sizes do not chain
  /// (stage 0's InputSize must equal source.size()).
  PipelineKernel(std::string name, axc::OperatorSet operators,
                 std::vector<std::int64_t> source,
                 std::vector<std::unique_ptr<Stage>> stages,
                 Scorer scorer = {});

  const std::string& Name() const noexcept override { return name_; }
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
  double AccuracyError(std::span<const double> precise,
                       std::span<const double> approx) const override;
  std::vector<StageOpCounts> StageCounts(
      const instrument::ApproxSelection& selection) const override;

  std::size_t NumStages() const noexcept { return stages_.size(); }
  const Stage& StageAt(std::size_t i) const { return *stages_.at(i); }
  /// Index of stage i's first variable in Variables().
  std::size_t StageVariableBase(std::size_t i) const {
    return var_bases_.at(i);
  }

 private:
  /// The one body behind Run and RunLanes, for either context.
  template <class Ctx>
  std::vector<double> Body(Ctx& ctx) const;

  std::string name_;
  axc::OperatorSet operators_;
  std::vector<std::int64_t> source_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::vector<std::size_t> var_bases_;
  std::vector<VariableInfo> variables_;
  Scorer scorer_;
};

/// Factories behind the registry's "jpeg-path", "edge-path", and "nn-layer"
/// entries. Sizes/extras:
///   jpeg-path  size = 8x8 blocks (default 2); extra: step (power-of-two
///              quantization step, default 16)
///   edge-path  size = image height (default 12); extra: width, threshold
///   nn-layer   size = image height (default 12); extra: width, channels
///              (>= 2, default 3)
std::unique_ptr<Kernel> MakeJpegPathPipeline(const KernelParams& params);
std::unique_ptr<Kernel> MakeEdgePathPipeline(const KernelParams& params);
std::unique_ptr<Kernel> MakeNnLayerPipeline(const KernelParams& params);

}  // namespace axdse::workloads
