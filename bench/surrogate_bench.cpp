// Tracked surrogate-tier benchmark: runs the paper's Table III grid
// (MatMul 10x10 / 50x50, FIR 100 / 200, Q-learning, 10,000 steps) twice —
// surrogate off and surrogate on — and emits BENCH_surrogate.json with two
// verdicts the CI gate pins across PRs:
//
//   1. FIDELITY: the per-run solutions, the per-kernel best-feasible rows,
//      and the campaign Pareto fronts must be BYTE-IDENTICAL between the
//      two modes (the surrogate's ground-truth valve makes skipping
//      invisible to results). Any mismatch exits nonzero.
//   2. ECONOMY: kernel runs executed must drop by at least --min-reduction
//      percent (default 25) across the grid, or the tier is not paying for
//      itself and the bench exits nonzero (full mode only; --quick runs a
//      shorter grid for smoke coverage and skips the economy gate).
//
// Each request runs as its own batch so stdout can report its surrogate-off
// and surrogate-on wall seconds (the tier's overhead against the kernel
// runs it saves). Wall time never reaches the JSON, which stays
// deterministic.
//
// Flags: --steps=N           step budget per exploration (default 10000)
//        --quick             CI smoke mode: 2000 steps, no economy gate
//        --min-reduction=P   economy gate percentage (default 25; 0 disables)
//        --json=PATH         output path (default BENCH_surrogate.json)

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "axdse.hpp"
#include "util/number_format.hpp"

namespace {

using namespace axdse;

dse::ExplorationRequest MakeRequest(const std::string& kernel,
                                    std::size_t size, const std::string& label,
                                    std::size_t steps, bool surrogate) {
  auto builder = Session::Request(kernel)
                     .Size(size)
                     .KernelSeed(2023)
                     .Label(label)
                     .MaxSteps(steps)
                     .RewardCap(500.0)
                     .Alpha(0.15)
                     .Gamma(0.95)
                     .Seed(1);
  if (surrogate) builder.Surrogate();
  return builder.Build();
}

std::vector<dse::ExplorationRequest> Table3Grid(std::size_t steps,
                                                bool surrogate) {
  return {
      MakeRequest("matmul", 10, "MatMul 10x10", steps, surrogate),
      MakeRequest("matmul", 50, "MatMul 50x50", steps, surrogate),
      MakeRequest("fir", 100, "FIR 100", steps, surrogate),
      MakeRequest("fir", 200, "FIR 200", steps, surrogate),
  };
}

/// Runs each request as its own batch (all caches are private, so the
/// results equal one batch of the whole grid) and records its wall seconds.
dse::BatchResult RunTimed(const Session& session,
                          const std::vector<dse::ExplorationRequest>& grid,
                          std::vector<double>* seconds) {
  dse::BatchResult batch;
  for (const dse::ExplorationRequest& request : grid) {
    const auto start = std::chrono::steady_clock::now();
    dse::BatchResult one = session.ExploreBatch({request});
    seconds->push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    batch.results.push_back(std::move(one.results.front()));
  }
  return batch;
}

/// Everything result-shaped a surrogate skip could corrupt, as one string:
/// per-run trajectories and solutions, then the campaign reduction (best
/// feasible per kernel + Pareto fronts). Counters (kernel_runs_executed,
/// surrogate_hits, ...) are deliberately excluded — those are SUPPOSED to
/// differ between the modes.
std::string FidelityDigest(const dse::BatchResult& batch) {
  dse::CampaignAggregator aggregator;
  std::ostringstream out;
  out.imbue(std::locale::classic());
  for (const dse::RequestResult& result : batch.results) {
    aggregator.Add(result);
    out << "request " << result.request.DisplayName() << "\n";
    for (const dse::ExplorationResult& run : result.runs) {
      const instrument::Measurement& m = run.solution_measurement;
      out << "run steps=" << run.steps << " stop="
          << rl::ToString(run.stop_reason)
          << " reward=" << util::ShortestDouble(run.cumulative_reward)
          << " episodes=" << run.episodes
          << " solution=" << run.solution.ToString()
          << " dp=" << util::ShortestDouble(m.delta_power_mw)
          << " dt=" << util::ShortestDouble(m.delta_time_ns)
          << " da=" << util::ShortestDouble(m.delta_acc);
      if (run.has_best_feasible)
        out << " best=" << run.best_feasible.ToString()
            << " bdp=" << util::ShortestDouble(
                              run.best_feasible_measurement.delta_power_mw)
            << " bdt=" << util::ShortestDouble(
                              run.best_feasible_measurement.delta_time_ns)
            << " bda=" << util::ShortestDouble(
                              run.best_feasible_measurement.delta_acc);
      out << "\n";
    }
  }
  for (const dse::CampaignBest& best : aggregator.Best())
    out << "best kernel=" << best.kernel << " cell=" << best.cell
        << " seed=" << best.seed << " feasible=" << best.feasible
        << " objective=" << util::ShortestDouble(best.objective)
        << " config=" << best.config.ToString() << "\n";
  for (const dse::CampaignFront& front : aggregator.Fronts()) {
    out << "front kernel=" << front.kernel
        << " seen=" << front.front.SeenCount() << "\n";
    for (const dse::ParetoPoint& point : front.front.Points())
      out << "point label=" << point.label
          << " config=" << point.config.ToString()
          << " dp=" << util::ShortestDouble(point.measurement.delta_power_mw)
          << " dt=" << util::ShortestDouble(point.measurement.delta_time_ns)
          << " da=" << util::ShortestDouble(point.measurement.delta_acc)
          << "\n";
  }
  return out.str();
}

struct BenchRow {
  std::string label;
  std::size_t executed_off = 0;
  std::size_t executed_on = 0;
  std::size_t deferred = 0;
  std::size_t surrogate_hits = 0;

  double ReductionPct() const {
    return executed_off == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(executed_off - executed_on) /
                     static_cast<double>(executed_off);
  }
};

std::size_t SumExecuted(const dse::RequestResult& result) {
  std::size_t total = 0;
  for (const dse::ExplorationResult& run : result.runs)
    total += run.kernel_runs_executed;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const bool quick = args.Has("quick");
  const std::size_t steps =
      static_cast<std::size_t>(args.GetInt("steps", quick ? 2000 : 10000));
  const double min_reduction =
      quick ? 0.0 : args.GetDouble("min-reduction", 25.0);

  Session session;
  std::vector<double> seconds_off;
  std::vector<double> seconds_on;
  std::printf("Table III grid, %zu steps, surrogate OFF...\n", steps);
  const dse::BatchResult off =
      RunTimed(session, Table3Grid(steps, false), &seconds_off);
  std::printf("Table III grid, %zu steps, surrogate ON...\n", steps);
  const dse::BatchResult on =
      RunTimed(session, Table3Grid(steps, true), &seconds_on);

  // Fidelity: digests must match byte for byte.
  const std::string digest_off = FidelityDigest(off);
  const std::string digest_on = FidelityDigest(on);
  const bool identical = digest_off == digest_on;

  std::vector<BenchRow> rows;
  std::size_t total_off = 0;
  std::size_t total_on = 0;
  for (std::size_t r = 0; r < off.results.size(); ++r) {
    BenchRow row;
    row.label = off.results[r].request.DisplayName();
    row.executed_off = SumExecuted(off.results[r]);
    row.executed_on = SumExecuted(on.results[r]);
    row.deferred = on.results[r].cache.deferred_runs;
    row.surrogate_hits = on.results[r].cache.surrogate_hits;
    total_off += row.executed_off;
    total_on += row.executed_on;
    std::printf(
        "  %-14s executed %5zu -> %5zu  (deferred %4zu, surrogate hits "
        "%5zu, reduction %.1f%%)  wall %.3f s -> %.3f s\n",
        row.label.c_str(), row.executed_off, row.executed_on, row.deferred,
        row.surrogate_hits, row.ReductionPct(), seconds_off[r],
        seconds_on[r]);
    rows.push_back(std::move(row));
  }
  const double total_reduction =
      total_off == 0 ? 0.0
                     : 100.0 * static_cast<double>(total_off - total_on) /
                           static_cast<double>(total_off);
  std::printf("  %-14s executed %5zu -> %5zu  (reduction %.1f%%)\n", "TOTAL",
              total_off, total_on, total_reduction);
  std::printf("  fidelity: %s\n",
              identical ? "IDENTICAL (best, pareto, and all runs match)"
                        : "MISMATCH");

  const std::string path = args.GetString("json", "BENCH_surrogate.json");
  std::ofstream out(path);
  out.imbue(std::locale::classic());
  out << "{\"schema\":\"axdse-surrogate-v1\""
      << ",\"quick\":" << (quick ? "true" : "false") << ",\"steps\":" << steps
      << ",\"identical\":" << (identical ? "true" : "false")
      << ",\"min_reduction_pct\":" << util::ShortestDouble(min_reduction)
      << ",\"total\":{\"kernel_runs_executed_off\":" << total_off
      << ",\"kernel_runs_executed_on\":" << total_on
      << ",\"reduction_pct\":" << util::ShortestDouble(total_reduction) << "}"
      << ",\"benchmarks\":[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const BenchRow& row = rows[r];
    if (r != 0) out << ",";
    out << "{\"label\":\"" << report::JsonEscape(row.label)
        << "\",\"kernel_runs_executed_off\":" << row.executed_off
        << ",\"kernel_runs_executed_on\":" << row.executed_on
        << ",\"kernel_runs_deferred\":" << row.deferred
        << ",\"surrogate_hits\":" << row.surrogate_hits
        << ",\"reduction_pct\":" << util::ShortestDouble(row.ReductionPct())
        << "}";
  }
  out << "]}\n";
  out.close();
  std::printf("surrogate JSON written to %s\n", path.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: surrogate-on results diverge from surrogate-off\n");
    return 1;
  }
  if (min_reduction > 0.0 && total_reduction < min_reduction) {
    std::fprintf(stderr,
                 "FAIL: kernel-run reduction %.1f%% below the %.1f%% gate\n",
                 total_reduction, min_reduction);
    return 2;
  }
  return 0;
}
