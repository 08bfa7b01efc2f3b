#include "common/kernel_mirrors.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <numbers>

#include "util/rng.hpp"

namespace axdse::testsupport {

std::vector<double> SobelReference(const workloads::SobelKernel& k) {
  const std::size_t out_rows = k.Height() - 2;
  const std::size_t out_cols = k.Width() - 2;
  std::vector<double> out(out_rows * out_cols);
  const int w[3] = {1, 2, 1};
  for (std::size_t y = 0; y < out_rows; ++y) {
    for (std::size_t x = 0; x < out_cols; ++x) {
      long gx = 0, gy = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        gx += w[i] * (static_cast<long>(k.Pixel(y + i, x + 2)) -
                      static_cast<long>(k.Pixel(y + i, x)));
        gy += w[i] * (static_cast<long>(k.Pixel(y + 2, x + i)) -
                      static_cast<long>(k.Pixel(y, x + i)));
      }
      out[y * out_cols + x] =
          static_cast<double>(std::labs(gx) + std::labs(gy));
    }
  }
  return out;
}

std::vector<double> KMeansReference(const workloads::KMeans1DKernel& k) {
  std::vector<double> out(2 * k.Clusters());
  std::vector<long long> inertia(k.Clusters(), 0);
  std::vector<long long> counts(k.Clusters(), 0);
  for (std::size_t i = 0; i < k.Length(); ++i) {
    long long best_d = std::numeric_limits<long long>::max();
    std::size_t best_j = 0;
    for (std::size_t j = 0; j < k.Clusters(); ++j) {
      const long long diff =
          static_cast<long long>(k.Point(i)) - k.Centroid(j);
      const long long d = diff * diff;
      if (d < best_d) {
        best_d = d;
        best_j = j;
      }
    }
    inertia[best_j] += best_d;
    ++counts[best_j];
  }
  for (std::size_t j = 0; j < k.Clusters(); ++j) {
    out[2 * j] = static_cast<double>(inertia[j]);
    out[2 * j + 1] = static_cast<double>(counts[j]);
  }
  return out;
}

namespace {

using instrument::ApproxContext;
using instrument::VarList;

/// acc = Add(acc, Mul(a(i), b(i))) for i in [0, n): one Mul and one Add per
/// element, each resolving its selection with a per-op scan.
template <class A, class B>
std::int64_t PerOpDot(ApproxContext& ctx, std::size_t n, A a, B b,
                      VarList mul_vars, VarList add_vars) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc = ctx.Add(acc, ctx.Mul(a(i), b(i), mul_vars), add_vars);
  return acc;
}

/// Closes one stage: records its counts and starts the next from zero.
void EndStage(ApproxContext& ctx, PipelineMirror& m) {
  m.stage_counts.push_back(ctx.Counts());
  ctx.ResetCounts();
}

/// The pipelines' source image: `n` uniform 8-bit draws from `rng`.
std::vector<std::int64_t> Pixels(std::size_t n, util::Rng& rng) {
  std::vector<std::int64_t> out(n);
  for (auto& v : out) v = static_cast<std::int64_t>(rng.UniformBelow(256));
  return out;
}

std::int64_t Abs(std::int64_t v) { return v < 0 ? -v : v; }

}  // namespace

PipelineMirror MirrorJpegPath(std::size_t blocks, std::int64_t step,
                              std::uint64_t seed, ApproxContext& ctx) {
  util::Rng rng(seed);
  std::vector<std::int64_t> cur = Pixels(blocks * 64, rng);
  // Orthonormal DCT-II basis in Q14: C[u][k] = s(u) cos((2k+1) u pi / 16).
  std::int64_t c[8][8];
  for (std::size_t u = 0; u < 8; ++u)
    for (std::size_t k = 0; k < 8; ++k)
      c[u][k] = std::lround((u == 0 ? std::sqrt(1.0 / 8.0)
                                    : std::sqrt(2.0 / 8.0)) *
                            std::cos((2.0 * k + 1.0) * u * std::numbers::pi /
                                     16.0) *
                            16384.0);
  PipelineMirror m;
  ctx.ResetCounts();
  std::vector<std::int64_t> next(cur.size());
  std::int64_t t[8][8];
  // dct (vars 0-2: input, coeffs, acc): T = (X-columns . C-rows) >> 14 with
  // the input as first multiplier operand, then Y = T . C^T.
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::int64_t* x = &cur[b * 64];
    for (std::size_t u = 0; u < 8; ++u)
      for (std::size_t j = 0; j < 8; ++j)
        t[u][j] = PerOpDot(
                      ctx, 8, [&](std::size_t k) { return x[k * 8 + j]; },
                      [&](std::size_t k) { return c[u][k]; }, {0, 1}, {2}) >>
                  14;
    for (std::size_t u = 0; u < 8; ++u)
      for (std::size_t v = 0; v < 8; ++v)
        next[b * 64 + u * 8 + v] = PerOpDot(
            ctx, 8, [&](std::size_t k) { return t[u][k]; },
            [&](std::size_t k) { return c[v][k]; }, {0, 1}, {2});
  }
  cur.swap(next);
  EndStage(ctx, m);
  // quantize (vars 3-4: level, scale): Q14 -> pixel scale, times the Q12
  // reciprocal, rounded, times the step.
  const std::int64_t recip = 4096 / step;
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const std::int64_t level =
        ctx.Add(ctx.Mul(cur[i] >> 14, recip, {3}), std::int64_t{1} << 11,
                {3}) >>
        12;
    next[i] = ctx.Mul(level, step, {4});
  }
  cur.swap(next);
  EndStage(ctx, m);
  // idct (vars 5-7): T = (C^T . Y) >> 14, X = (T . C) >> 14.
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::int64_t* y = &cur[b * 64];
    for (std::size_t k = 0; k < 8; ++k)
      for (std::size_t v = 0; v < 8; ++v)
        t[k][v] = PerOpDot(
                      ctx, 8, [&](std::size_t u) { return y[u * 8 + v]; },
                      [&](std::size_t u) { return c[u][k]; }, {5, 6}, {7}) >>
                  14;
    for (std::size_t k = 0; k < 8; ++k)
      for (std::size_t l = 0; l < 8; ++l)
        next[b * 64 + k * 8 + l] =
            PerOpDot(
                ctx, 8, [&](std::size_t i) { return t[k][i]; },
                [&](std::size_t i) { return c[i][l]; }, {5, 6}, {7}) >>
            14;
  }
  cur.swap(next);
  EndStage(ctx, m);
  m.out.assign(cur.begin(), cur.end());
  return m;
}

PipelineMirror MirrorEdgePath(std::size_t height, std::size_t width,
                              std::int64_t threshold, std::uint64_t seed,
                              ApproxContext& ctx) {
  util::Rng rng(seed);
  const std::vector<std::int64_t> image = Pixels(height * width, rng);
  const std::int64_t smooth[3] = {1, 2, 1};
  const auto px = [&](std::size_t y, std::size_t x) {
    return image[y * width + x];
  };
  PipelineMirror m;
  ctx.ResetCounts();
  // sobel (vars 0-3: image, kx, ky, acc): four (1 2 1)-smoothed 3-MACs,
  // the two differences, then |Gx| + |Gy|.
  std::vector<std::int64_t> mag;
  for (std::size_t y = 0; y + 2 < height; ++y) {
    for (std::size_t x = 0; x + 2 < width; ++x) {
      const auto w = [&](std::size_t i) { return smooth[i]; };
      const std::int64_t gx_pos = PerOpDot(
          ctx, 3, [&](std::size_t i) { return px(y + i, x + 2); }, w, {0, 1},
          {3});
      const std::int64_t gx_neg = PerOpDot(
          ctx, 3, [&](std::size_t i) { return px(y + i, x); }, w, {0, 1}, {3});
      const std::int64_t gx = ctx.Add(gx_pos, -gx_neg, {3});
      const std::int64_t gy_pos = PerOpDot(
          ctx, 3, [&](std::size_t i) { return px(y + 2, x + i); }, w, {0, 2},
          {3});
      const std::int64_t gy_neg = PerOpDot(
          ctx, 3, [&](std::size_t i) { return px(y, x + i); }, w, {0, 2}, {3});
      const std::int64_t gy = ctx.Add(gy_pos, -gy_neg, {3});
      mag.push_back(ctx.Add(Abs(gx), Abs(gy), {3}));
    }
  }
  EndStage(ctx, m);
  // threshold (var 4: bias): a counted add against -threshold, sign test.
  for (const std::int64_t v : mag)
    m.out.push_back(ctx.Add(v, -threshold, {4}) > 0 ? 255.0 : 0.0);
  EndStage(ctx, m);
  return m;
}

PipelineMirror MirrorNnLayer(std::size_t height, std::size_t width,
                             std::size_t channels, std::uint64_t seed,
                             ApproxContext& ctx) {
  // Draw order as built: image, then the stencils, then the biases.
  util::Rng rng(seed);
  const std::vector<std::int64_t> image = Pixels(height * width, rng);
  std::vector<std::int64_t> stencils(channels * 9);
  for (auto& w : stencils) w = static_cast<std::int64_t>(rng.UniformBelow(8));
  std::vector<std::int64_t> biases(channels);
  for (auto& b : biases)
    b = static_cast<std::int64_t>(rng.UniformBelow(2049)) - 1024;
  const std::size_t rows = height - 2, cols = width - 2;
  const std::size_t spatial = rows * cols;
  PipelineMirror m;
  ctx.ResetCounts();
  // conv (vars 0-2: image, stencil, acc): three 3-MAC row dots per output,
  // summed by two counted adds; channel-major output.
  std::vector<std::int64_t> cur(channels * spatial);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t y = 0; y < rows; ++y) {
      for (std::size_t x = 0; x < cols; ++x) {
        std::int64_t row[3];
        for (std::size_t dy = 0; dy < 3; ++dy)
          row[dy] = PerOpDot(
              ctx, 3,
              [&](std::size_t dx) { return image[(y + dy) * width + x + dx]; },
              [&](std::size_t dx) { return stencils[c * 9 + dy * 3 + dx]; },
              {0, 1}, {2});
        cur[c * spatial + y * cols + x] =
            ctx.Add(ctx.Add(row[0], row[1], {2}), row[2], {2});
      }
    }
  }
  EndStage(ctx, m);
  // bias (var 3): one counted add per value.
  for (std::size_t c = 0; c < channels; ++c)
    for (std::size_t s = 0; s < spatial; ++s)
      cur[c * spatial + s] = ctx.Add(cur[c * spatial + s], biases[c], {3});
  EndStage(ctx, m);
  // relu (var 4): (x + |x|) >> 1 with the add counted.
  for (const std::int64_t v : cur)
    m.out.push_back(static_cast<double>(ctx.Add(v, Abs(v), {4}) >> 1));
  EndStage(ctx, m);
  return m;
}

}  // namespace axdse::testsupport
