#pragma once
// Plain scalar reimplementations of built-in workloads, shared by the
// workloads reference tests and any suite that needs an answer computed
// independently of the kernel bodies under test:
//
//   * uninstrumented references (SobelReference, KMeansReference) give the
//     exact ground truth an all-precise instrumented run must reproduce;
//   * per-op pipeline mirrors (Mirror*Path, MirrorNnLayer) rebuild the
//     built-in pipelines from their registry parameters and route every
//     counted operation through ApproxContext::Mul/Add with a per-op
//     selection scan, so outputs, OpCounts and per-stage counts can be
//     checked under any selection without trusting the batched primitives.

#include <cstdint>
#include <vector>

#include "energy/energy_model.hpp"
#include "instrument/approx_context.hpp"
#include "workloads/kmeans_kernel.hpp"
#include "workloads/sobel_kernel.hpp"

namespace axdse::testsupport {

/// Sobel magnitude reference: |Gx| + |Gy| with the classic
/// [-1 0 1; -2 0 2; -1 0 1] / transpose masks, no instrumentation.
std::vector<double> SobelReference(const workloads::SobelKernel& k);

/// One k-means assignment pass reference: argmin over exact squared
/// distances, then per-cluster inertia and count.
std::vector<double> KMeansReference(const workloads::KMeans1DKernel& k);

/// A per-op pipeline mirror's result: the final outputs and the op counts
/// each stage charged, in stage order.
struct PipelineMirror {
  std::vector<double> out;
  std::vector<energy::OpCounts> stage_counts;
};

/// "jpeg-path@<blocks>{step=<step>}" built with kernel seed `seed`, run
/// under `ctx`'s active selection (ctx's counts are reset per stage).
PipelineMirror MirrorJpegPath(std::size_t blocks, std::int64_t step,
                              std::uint64_t seed,
                              instrument::ApproxContext& ctx);

/// "edge-path@<height>{width=<width>,threshold=<threshold>}".
PipelineMirror MirrorEdgePath(std::size_t height, std::size_t width,
                              std::int64_t threshold, std::uint64_t seed,
                              instrument::ApproxContext& ctx);

/// "nn-layer@<height>{width=<width>,channels=<channels>}".
PipelineMirror MirrorNnLayer(std::size_t height, std::size_t width,
                             std::size_t channels, std::uint64_t seed,
                             instrument::ApproxContext& ctx);

}  // namespace axdse::testsupport
