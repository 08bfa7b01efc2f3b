// dse_bench — the axdse benchmark. One process runs one named workload
// through the public axdse::Session / dse::Campaign / serve API as a closed
// loop (every caller waits for its reply), checks that the outputs are
// correct, and prints the end-to-end metrics by name and unit. With
// --trace 1 it instead runs a separate traced pass that times the calls into
// each layer's public functions from this file and prints per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
//
//   dse_bench --workload NAME --seed N --seconds S --trace 0|1
//             --state-dir DIR --digests FILE --trace-out FILE
//
// Why each workload exists, what it stresses and what it bypasses:
//
// explore-miss — sequential Session::Explore calls on one engine worker,
//   Q-learning, 10k steps, over the Table III kernels at row-col
//   granularity (matmul@10{granularity=row-col}, fir@100, fir@200) plus the
//   jpeg-path@4 pipeline, each once with the surrogate off and once on.
//   Most steps visit a configuration for the first time, so kernel runs
//   (workloads, axc operators, instrument plans) do most of the work; the
//   surrogate-on half exercises dse.surrogate. Bypasses engine scheduling,
//   checkpoints, shared caches and serve.
// explore-revisit — the same loop over small spaces (matmul@10 per-matrix,
//   dot@64, iir@128, kmeans1d@96, conv2d@16) across all five agents. Memo
//   hits dominate, so rl, dse.environment and the evaluator memo carry the
//   time and kernel code does little: the control for MAC-chain and
//   operator work. Bypasses the surrogate, checkpoints, shared caches, serve.
// campaign-grid — Campaign::Run (what Session::RunCampaign calls, plus its
//   observer hooks) on 1 engine worker: 11 kernels (8 registry kernels +
//   jpeg-path, edge-path, nn-layer) x all agents x cache-modes
//   private,shared, 3000 steps per cell, with a checkpoint directory and
//   autosave every 1000 steps. The only workload with engine scheduling,
//   chunk barriers, dse.checkpoint and SharedEvaluationCache traffic
//   (timed: lookups and inserts from successive jobs; concurrent ones only
//   in an untimed repeat, see below). Throughput counts grid cells; job
//   latency is that of whole campaigns, the unit a caller waits for.
//   Bypasses serve and the surrogate.
// serve-closed-loop — an in-process serve::Server (port 0, 2 job workers,
//   1 engine worker each) with 1 client connection looping
//   Submit -> WaitJob -> Results over a pool of 48 4k-step requests
//   (the explore-miss kernels, each request with its own seed draw). The
//   only workload that touches serve: protocol, queue, manifest and
//   result-document I/O per job. The server restarts on a fresh state
//   directory before every rotation through the pool, so its job history
//   (which the manifest rewrites on every job) is the same in every
//   rotation and every run. Bypasses the surrogate and shared caches.
//
// Every request's agent and data seeds derive from --seed, so a claim can
// be re-checked on an unused seed. Most of the spread between seeds is the
// work itself (trajectories), so a run averages over many seed draws:
// explore workloads run whole cycles of their kernel list, each cycle with
// fresh seeds, until --seconds have passed, and so do campaign-grid's
// campaigns. Rates and latencies are medians over slices of whole cycles,
// campaigns or pool rotations. Quality metrics and the default-seed digest
// are taken over the first cycle, campaign or pool, so they are
// deterministic. Set-up is repeated before every exploration, campaign and
// serve rotation, and setup_s is the median: set-ups timed in one burst at
// start-up were bimodal between processes, set-ups spread through the run
// were not.
//
// Every workload keeps one thread busy at a time. On the 4-vCPU VM this
// was tuned on, the host took back a fifth of each vCPU's time (steal, in
// /proc/stat) as soon as two threads ran, against 1-2% with one; with 4
// campaign workers, runs of the same code spread by half their median.
// So campaign-grid times 1 engine worker, not 4, and serve-closed-loop
// runs 1 client, not 2. Concurrency is still checked, untimed: after the
// timed campaigns, the first one runs again on 4 workers and must match.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "axdse.hpp"
#include "dse/baselines.hpp"
#include "dse/checkpoint.hpp"
#include "report/campaign.hpp"
#include "report/export.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/number_format.hpp"

namespace dsebench {
namespace {

namespace fs = std::filesystem;
using namespace axdse;

constexpr std::uint64_t kDefaultSeed = 1;
const std::vector<std::string> kWorkloads = {
    "explore-miss", "explore-revisit", "campaign-grid", "serve-closed-loop"};

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir = ".bench_build/state";
  std::string digests;
  std::string trace_out;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--state-dir") o.state_dir = value;
    else if (key == "--digests") o.digests = value;
    else if (key == "--trace-out") o.trace_out = value;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) ==
      kWorkloads.end())
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::uint64_t Fnv64(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t Fnv64(const std::string& text) {
  return Fnv64(text.data(), text.size());
}

std::string Hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// A request seed derived from the workload seed and a stable tag.
std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t x = Fnv64(tag) ^ (seed * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x % 1000000 + 1;
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest of p99/p95/p90/p75/p50 (nearest rank) with at least ten
/// samples above it; the maximum (p100) when there are too few samples.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    if (n - 1 - index >= 10) {
      tail.value = values[index];
      tail.percentile = p;
      tail.beyond = n - 1 - index;
      return tail;
    }
  }
  tail.value = values.back();
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Replaces the digits after each "key": in a JSON document with '#'.
std::string MaskCounters(const std::string& json,
                         const std::vector<std::string>& keys) {
  std::string out;
  out.reserve(json.size());
  std::size_t at = 0;
  while (at < json.size()) {
    std::size_t next = std::string::npos, length = 0;
    for (const std::string& key : keys) {
      const std::size_t found = json.find("\"" + key + "\":", at);
      if (found < next) {
        next = found;
        length = key.size() + 3;
      }
    }
    if (next == std::string::npos) break;
    out.append(json, at, next + length - at);
    at = next + length;
    while (at < json.size() &&
           std::isdigit(static_cast<unsigned char>(json[at])))
      ++at;
    out += '#';
  }
  out.append(json, at, std::string::npos);
  return out;
}

// ---------------------------------------------------------------------------
// Logical results (what must not change with tracing, surrogate, repeats)
// ---------------------------------------------------------------------------

std::string MeasurementText(const instrument::Measurement& m) {
  return util::ShortestDouble(m.delta_acc) + "," +
         util::ShortestDouble(m.delta_power_mw) + "," +
         util::ShortestDouble(m.delta_time_ns);
}

/// Steps, stop reason, rewards, solution and best feasible point; with
/// `counters`, also the deterministic private-mode cost counters.
std::string RunText(const dse::ExplorationResult& run, bool counters) {
  std::ostringstream out;
  out << "steps=" << run.steps << " stop=" << rl::ToString(run.stop_reason)
      << " reward=" << util::ShortestDouble(run.cumulative_reward)
      << " rewards#=" << Hex(Fnv64(run.rewards.data(),
                                   run.rewards.size() * sizeof(double)))
      << " solution=" << run.solution.ToString() << " m="
      << MeasurementText(run.solution_measurement) << " best="
      << (run.has_best_feasible ? run.best_feasible.ToString() : "none")
      << " bm=" << MeasurementText(run.best_feasible_measurement);
  if (counters)
    out << " kernel_runs=" << run.kernel_runs << " hits=" << run.cache_hits
        << " surrogate_hits=" << run.surrogate_hits
        << " deferred=" << run.kernel_runs_deferred;
  return out.str();
}

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

/// The paper stops an exploration once its cumulative reward reaches 500.
/// Every request here lifts that cap so each job takes exactly its step
/// budget: per-job work then no longer depends on the seed.
constexpr double kNoRewardCap = 1e9;

dse::RequestBuilder BaseRequest(const std::string& spec, std::uint64_t seed,
                                const std::string& tag, std::size_t steps) {
  dse::RequestBuilder builder;
  builder.Spec(workloads::KernelSpec::Parse(spec))
      .KernelSeed(DeriveSeed(seed, tag + "/data"))
      .Seed(DeriveSeed(seed, tag + "/agent"))
      .MaxSteps(steps)
      .RewardCap(kNoRewardCap)
      .Alpha(0.15)
      .Gamma(0.95);
  return builder;
}

std::vector<dse::ExplorationRequest> ExploreMissRequests(std::uint64_t seed,
                                                        std::size_t cycle) {
  std::vector<dse::ExplorationRequest> requests;
  for (const std::string spec : {"matmul@10{granularity=row-col}", "fir@100",
                                 "fir@200", "jpeg-path@4"})
    for (const bool surrogate : {false, true})
      requests.push_back(BaseRequest(spec, seed,
                                     "miss/" + spec + "/" +
                                         std::to_string(cycle),
                                     10000)
                             .Surrogate(surrogate)
                             .Build());
  return requests;
}

std::vector<dse::ExplorationRequest> ExploreRevisitRequests(
    std::uint64_t seed, std::size_t cycle) {
  std::vector<dse::ExplorationRequest> requests;
  for (const std::string spec :
       {"matmul@10", "dot@64", "iir@128", "kmeans1d@96", "conv2d@16"}) {
    const std::string tag = "revisit/" + spec + "/" + std::to_string(cycle);
    for (const char* agent :
         {"q-learning", "sarsa", "expected-sarsa", "double-q", "q-lambda"})
      requests.push_back(BaseRequest(spec, seed, tag, 10000)
                             .Agent(agent)
                             .Seed(DeriveSeed(seed, tag + "/" + agent))
                             .Build());
  }
  return requests;
}

/// Steps per campaign cell. With checkpoints every 1000 steps each cell
/// writes two snapshots, and one campaign is short enough that a run covers
/// several seed draws.
constexpr std::size_t kCampaignCellSteps = 3000;

dse::CampaignSpec CampaignGridSpec(std::uint64_t seed, std::size_t draw) {
  const std::string tag = "campaign/" + std::to_string(draw);
  const std::string text =
      "kernels=matmul@10,fir@100,iir@128,conv2d@16,dct@4,dot@64,sobel3x3@16,"
      "kmeans1d@96,jpeg-path@4,edge-path@16,nn-layer@8 agents=all "
      "cache-modes=private,shared steps=" + std::to_string(kCampaignCellSteps) +
      " reward-cap=" +
      util::ShortestDouble(kNoRewardCap) + " alpha=0.15 gamma=0.95 seed=" +
      std::to_string(DeriveSeed(seed, tag + "/agent")) +
      " kernel-seed=" + std::to_string(DeriveSeed(seed, tag + "/data"));
  dse::CampaignSpec spec = dse::CampaignSpec::Parse(text);
  spec.Validate();
  return spec;
}

/// 48 kernel-bound 4k-step requests over the explore-miss kernels, each
/// with its own seed draw. The daemon's per-job cost (fsync'd manifest,
/// snapshot and result writes, thread hand-offs) swung 3-4x with the VM's
/// disk and scheduler: on ~4 ms small-space jobs it dominated, and served
/// jobs/s ranged 49-185 within minutes; on 2k-step jobs it still went from
/// 5 to 18 ms a job (a tenth to a quarter of the latency) as the host got
/// busier. On these ~40-250 ms jobs it is a smaller share. The kernels come
/// 6/12/21/9 times, cheapest first, so a rotation's median and p75 both
/// fall inside the fir@200 jobs (ranks 19-39 of 48), not at the gap
/// between two kernels and not on the cheap jobs, where the daemon's cost
/// is the largest share.
std::vector<dse::ExplorationRequest> ServePool(std::uint64_t seed) {
  const std::vector<std::pair<std::string, int>> mix = {
      {"matmul@10{granularity=row-col}", 6},
      {"fir@100", 12},
      {"fir@200", 21},
      {"jpeg-path@4", 9}};
  std::vector<dse::ExplorationRequest> pool;
  for (int variant = 0; variant < 21; ++variant)
    for (const auto& [spec, count] : mix)
      if (variant < count)
        pool.push_back(BaseRequest(spec, seed,
                                   "serve/" + spec + "/" +
                                       std::to_string(variant),
                                   4000)
                           .Build());
  return pool;
}

// ---------------------------------------------------------------------------
// Run bookkeeping
// ---------------------------------------------------------------------------

struct Job {
  double latency_s = 0.0;
  std::size_t steps = 0;
  std::size_t kernel_runs = 0;
  bool failed = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Everything one process reports: checks, jobs and metrics.
struct Report {
  std::vector<std::pair<std::string, bool>> checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks.emplace_back(name, ok);
    lines.push_back("check " + name + ": " + (ok ? "ok" : "FAILED") +
                    (detail.empty() ? "" : " (" + detail + ")"));
  }
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit,
                             note});
  }
  void CountJobs(const std::vector<Job>& jobs) {
    attempted += jobs.size();
    for (const Job& job : jobs) failed += job.failed ? 1 : 0;
  }
  bool Correct() const {
    if (failed != 0 || attempted == 0) return false;
    for (const auto& [name, ok] : checks)
      if (!ok) return false;
    return true;
  }
};

/// Quality over each distinct request's best feasible point.
struct Quality {
  double objective_sum = 0.0;
  std::size_t feasible = 0;
  std::size_t jobs = 0;

  void Add(bool has_best, double objective) {
    ++jobs;
    if (!has_best) return;
    ++feasible;
    objective_sum += objective;
  }
};

/// A stretch of a run with a whole job mix (whole cycles or campaigns
/// lasting at least kSliceSeconds, or one serve pool rotation). Rates and
/// latencies are reported as the median over a run's slices, so a few
/// seconds of interference from other processes on the machine move them
/// less than a run total would.
constexpr double kSliceSeconds = 2.0;

struct Slice {
  double steps = 0.0, runs = 0.0, jobs = 0.0, wall_s = 0.0;
  std::vector<double> latencies;

  void Add(const std::vector<Job>& list, double seconds) {
    for (const Job& job : list) {
      steps += static_cast<double>(job.steps);
      runs += static_cast<double>(job.kernel_runs);
      latencies.push_back(job.latency_s);
    }
    jobs += static_cast<double>(list.size());
    wall_s += seconds;
  }
};

/// Adds a unit of work to the last slice, or opens a new slice once the
/// last one lasts kSliceSeconds.
void AddToSlices(std::vector<Slice>& slices, const std::vector<Job>& jobs,
                 double seconds) {
  if (slices.empty() || slices.back().wall_s >= kSliceSeconds)
    slices.emplace_back();
  slices.back().Add(jobs, seconds);
}

/// Job latency statistics: the median and the tail of each slice's
/// samples, then the median over slices, so one stalled job moves neither.
struct Latency {
  double p50_s = 0.0, tail_s = 0.0;
  std::string p50_note, tail_note;
};

Latency LatencyOver(const std::vector<std::vector<double>>& slices,
                    const std::string& what) {
  Latency latency;
  std::vector<double> p50, tails, percentiles;
  std::size_t samples = 0;
  for (const std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    const Tail tail = TailOf(slice);
    p50.push_back(Median(slice));
    tails.push_back(tail.value);
    percentiles.push_back(tail.percentile);
    samples += slice.size();
  }
  latency.p50_s = Median(p50);
  latency.tail_s = Median(tails);
  const bool sliced = p50.size() > 1;
  const std::string of = sliced ? "each slice's " + what : what;
  const std::string over =
      sliced ? ", median over " + std::to_string(p50.size()) + " slices" : "";
  char note[240];
  std::snprintf(note, sizeof note, "median of %s%s; n=%zu", of.c_str(),
                over.c_str(), samples);
  latency.p50_note = note;
  std::snprintf(note, sizeof note,
                "p%g of %s (highest percentile with 10+ samples beyond, "
                "else the max)%s; n=%zu",
                Median(percentiles), of.c_str(), over.c_str(), samples);
  latency.tail_note = note;
  return latency;
}

/// The end-to-end metrics common to every workload.
void AddEndToEnd(Report& report, const std::vector<double>& setups,
                 const std::vector<Job>& jobs,
                 const std::vector<Slice>& slices, const Latency& latency,
                 const Quality& quality, const std::string& job_kind) {
  std::size_t failed = 0;
  for (const Job& job : jobs) failed += job.failed ? 1 : 0;
  const auto rate = [&](double Slice::*field) {
    std::vector<double> rates;
    for (const Slice& slice : slices)
      rates.push_back(Ratio(slice.*field, slice.wall_s));
    return Median(rates);
  };
  const std::string over =
      "median over " + std::to_string(slices.size()) + " slices";
  report.Add("setup_s", Median(setups), "s",
             "median of " + std::to_string(setups.size()) + " set-ups");
  report.Add("steps_per_s", rate(&Slice::steps), "1/s", over);
  report.Add("evaluations_per_s", rate(&Slice::runs), "1/s",
             "sum of kernel_runs, " + over);
  report.Add("jobs_per_s", rate(&Slice::jobs), "1/s", job_kind + ", " + over);
  report.Add("job_latency_p50_s", latency.p50_s, "s", latency.p50_note);
  report.Add("job_latency_tail_s", latency.tail_s, "s", latency.tail_note);
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("best_objective_mean",
             Ratio(quality.objective_sum,
                   static_cast<double>(quality.feasible)),
             "objective",
             std::to_string(quality.feasible) + " feasible of " +
                 std::to_string(quality.jobs) + " reference requests");
  report.Add("feasible_job_share",
             Ratio(static_cast<double>(quality.feasible),
                   static_cast<double>(quality.jobs)),
             "ratio");
  report.lines.push_back(
      "failed_job_share " +
      util::ShortestDouble(Ratio(static_cast<double>(failed),
                                 static_cast<double>(jobs.size()))) +
      " (" + std::to_string(failed) + "/" + std::to_string(jobs.size()) +
      ", not a JSON metric: it is 0 on a correct run; see failed/attempted)");
}

/// Job latencies per slice (explore and serve workloads).
std::vector<std::vector<double>> SliceLatencies(
    const std::vector<Slice>& slices) {
  std::vector<std::vector<double>> windows;
  for (const Slice& slice : slices) windows.push_back(slice.latencies);
  return windows;
}

/// Times `setup` once.
double TimeSetup(const std::function<void()>& setup) {
  const auto t0 = Clock::now();
  setup();
  return Seconds(t0, Clock::now());
}

/// Compares the default seed's logical digest with the committed one.
void CheckDigest(Report& report, const Options& options,
                 const std::string& logical, std::vector<Job>& reference) {
  const std::string digest = Hex(Fnv64(logical));
  report.lines.push_back("digest " + options.workload + " seed=" +
                         std::to_string(options.seed) + " " + digest);
  if (options.seed != kDefaultSeed || options.digests.empty()) return;
  std::ifstream in(options.digests);
  std::string expected, line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, hex;
    if (fields >> workload >> hex && workload == options.workload)
      expected = hex;
  }
  const bool ok = expected == digest;
  report.Check("default-seed digest", ok,
               ok ? digest : "expected '" + expected + "', got " + digest);
  if (!ok)
    for (Job& job : reference) job.failed = true;
}

// ---------------------------------------------------------------------------
// Hand-driven traced exploration (mirrors Explorer::StepOnce / Finish)
// ---------------------------------------------------------------------------

/// Counters the traced loop gathers outside of spans.
struct LayerCounters {
  std::size_t evaluate_calls = 0, memo_hits = 0;
  std::size_t surrogate_calls = 0, surrogate_hits = 0, deferred = 0;
  std::size_t kernel_runs_executed = 0, interned = 0, jobs = 0, steps = 0;
  double configure_ns = 0.0;
  std::size_t configure_calls = 0;
  RunCounts runs;
  std::vector<bool> job_surrogate;  ///< indexed by span job id
};

struct TracedRun {
  std::size_t steps = 0;
  double cumulative_reward = 0.0;
  std::size_t kernel_runs = 0;
  bool has_best = false;
  dse::Configuration best;
  instrument::Measurement best_m;
};

/// Moves `config` to where the environment's Step(action) goes (full action
/// space), so the loop can time the evaluation on its own.
void MoveConfig(dse::Configuration& config, std::size_t action,
                const dse::SpaceShape& shape) {
  switch (action) {
    case 0: dse::NextAdder(config, shape); break;
    case 1: dse::PrevAdder(config, shape); break;
    case 2: dse::NextMultiplier(config, shape); break;
    case 3: dse::PrevMultiplier(config, shape); break;
    default: config.ToggleVariable(action - 4); break;
  }
}

/// One exploration driven step by step over the public classes. Each step
/// evaluates the next configuration first (span dse.evaluator.evaluate),
/// then lets AxDseEnvironment::Step re-read it from the evaluator memo
/// (span dse.environment.step), so environment self time excludes the
/// evaluation except for that one memo lookup.
TracedRun ExploreSteps(const dse::ExplorationRequest& request,
                       const dse::ExplorerConfig& config,
                       const workloads::Kernel& base, Tracer& tracer,
                       LayerCounters& counters,
                       std::vector<dse::Configuration>& selections) {
  tracer.Begin("job.setup");
  TracingKernel kernel(base, tracer, counters.runs);
  dse::Evaluator evaluator(kernel);
  const dse::RewardConfig reward =
      dse::MakePaperRewardConfig(evaluator, request.thresholds);
  if (request.surrogate) evaluator.EnableSurrogate(reward.acc_threshold);
  dse::AxDseEnvironment env(evaluator, reward, config.action_space);
  std::unique_ptr<rl::Agent> agent =
      dse::MakeAgent(config.agent_kind, env.NumActions(), config.agent,
                     config.lambda, config.seed);
  agent->BeginEpisode();
  rl::StateId state = env.Reset(config.seed);
  tracer.End();

  TracedRun run;
  std::unordered_set<dse::Configuration, dse::Configuration::Hash> measured;
  measured.insert(env.CurrentConfig());
  dse::Configuration next = env.CurrentConfig();
  double best_objective = 0.0;
  while (true) {
    tracer.Begin("rl.select");
    const std::size_t action = agent->SelectAction(state);
    tracer.End();

    next = env.CurrentConfig();  // reuses next's storage
    MoveConfig(next, action, env.Shape());
    const std::size_t hits0 = evaluator.CacheHits();
    const std::size_t surrogate0 = evaluator.SurrogateHits();
    const std::size_t runs0 = evaluator.KernelRuns();
    tracer.Begin("dse.evaluator.evaluate");
    evaluator.Evaluate(next);
    tracer.End();
    ++counters.evaluate_calls;
    counters.memo_hits += evaluator.CacheHits() - hits0;
    if (request.surrogate) {
      ++counters.surrogate_calls;
      counters.surrogate_hits += evaluator.SurrogateHits() - surrogate0;
    }
    if (evaluator.KernelRuns() != runs0) measured.insert(next);

    tracer.Begin("dse.environment.step");
    const rl::StepResult sr = env.Step(action);
    tracer.End();
    if (!(env.CurrentConfig() == next))
      throw std::logic_error("TracedExplore: action mirror diverged");

    tracer.Begin("rl.observe");
    agent->Observe(state, action, sr.reward, sr.next_state, sr.terminated);
    tracer.End();

    run.cumulative_reward += sr.reward;
    ++run.steps;
    const instrument::Measurement& m = env.LastMeasurement();
    if (m.delta_acc <= reward.acc_threshold) {
      const double objective = dse::BaselineObjective(reward, m);
      if (!run.has_best || objective > best_objective) {
        run.has_best = true;
        run.best = env.CurrentConfig();
        run.best_m = m;
        best_objective = objective;
      }
    }
    state = sr.next_state;
    if (sr.terminated || sr.truncated ||
        run.cumulative_reward >= config.max_cumulative_reward ||
        run.steps >= config.max_steps)
      break;
  }

  {
    // Explorer::Finish's correctness valve: predicted endpoints get real runs.
    Scope finish(tracer, "dse.evaluator.ground_truth");
    if (evaluator.IsPredicted(env.CurrentConfig()))
      evaluator.GroundTruth(env.CurrentConfig());
    if (run.has_best && evaluator.IsPredicted(run.best))
      run.best_m = evaluator.GroundTruth(run.best);
  }
  run.kernel_runs = evaluator.DistinctEvaluations();
  counters.kernel_runs_executed += evaluator.KernelRuns();
  counters.interned += env.NumInternedStates();
  counters.deferred += evaluator.KernelRunsDeferred();
  counters.steps += run.steps;
  ++counters.jobs;
  selections.assign(measured.begin(), measured.end());
  return run;
}

/// One exploration under a "job" span (its locals die inside the span),
/// then ApproxContext::Configure replayed over the job's measured
/// selections outside every span.
TracedRun TracedExplore(const dse::ExplorationRequest& request,
                        std::uint32_t job, Tracer& tracer,
                        LayerCounters& counters) {
  dse::ExplorerConfig config = request.ToExplorerConfig();
  config.seed = request.seed;
  if (config.episodes != 1 || config.greedy_rollout_steps != 0 ||
      config.action_space != dse::ActionSpaceKind::kFull)
    throw std::logic_error("TracedExplore: unsupported request shape");
  tracer.SetJob(job);
  counters.job_surrogate.resize(job + 1, false);
  counters.job_surrogate[job] = request.surrogate;
  tracer.Begin("job");
  tracer.Begin("workloads.create");
  const std::unique_ptr<workloads::Kernel> base =
      workloads::KernelRegistry::Global().Create(request.kernel,
                                                 request.kernel_seed);
  tracer.End();
  std::vector<dse::Configuration> selections;
  const TracedRun run =
      ExploreSteps(request, config, *base, tracer, counters, selections);
  tracer.End();

  instrument::ApproxContext ctx = base->MakeContext();
  constexpr int kPasses = 5;
  const std::int64_t t0 = NowNs();
  for (int pass = 0; pass < kPasses; ++pass)
    for (const dse::Configuration& selection : selections)
      ctx.Configure(selection);
  counters.configure_ns += static_cast<double>(NowNs() - t0);
  counters.configure_calls += kPasses * selections.size();
  return run;
}

template <class Untraced>
bool SameAsUntraced(const TracedRun& traced, const Untraced& untraced) {
  return traced.steps == untraced.steps &&
         traced.cumulative_reward == untraced.cumulative_reward &&
         traced.kernel_runs == untraced.kernel_runs &&
         traced.has_best == untraced.has_best_feasible &&
         (!traced.has_best ||
          (traced.best == untraced.best_feasible &&
           MeasurementText(traced.best_m) ==
               MeasurementText(untraced.best_feasible_measurement)));
}

/// Per-layer metrics of the explore layers, from the traced loop's spans.
struct ExploreTrace {
  Tracer* tracer = nullptr;
  std::size_t first_span = 0;
  double wall_s = 0.0;
  LayerCounters counters;
};

/// Runs `requests` through TracedExplore, checking each against the
/// matching untraced result.
template <class UntracedOf>
ExploreTrace TraceRequests(const std::vector<dse::ExplorationRequest>& requests,
                           UntracedOf untraced_of, Tracer& tracer,
                           Report& report, std::vector<Job>& jobs) {
  ExploreTrace trace;
  trace.tracer = &tracer;
  trace.first_span = tracer.Spans().size();
  std::size_t mismatches = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Job job;
    const auto j0 = Clock::now();
    try {
      const TracedRun run = TracedExplore(
          requests[i], static_cast<std::uint32_t>(i), tracer, trace.counters);
      job.steps = run.steps;
      job.kernel_runs = run.kernel_runs;
      job.failed = !SameAsUntraced(run, untraced_of(i));
    } catch (const std::exception& e) {
      report.lines.push_back("traced job " + std::to_string(i) +
                             " threw: " + e.what());
      job.failed = true;
    }
    job.latency_s = Seconds(j0, Clock::now());
    mismatches += job.failed ? 1 : 0;
    jobs.push_back(job);
  }
  trace.wall_s = Seconds(t0, Clock::now());
  // Configure replays ran inside the loop but outside every span.
  trace.wall_s -= trace.counters.configure_ns * 1e-9;
  report.Check("traced == untraced (steps, reward, kernel_runs, best)",
               mismatches == 0,
               std::to_string(requests.size() - mismatches) + "/" +
                   std::to_string(requests.size()) + " equal");
  return trace;
}

/// Spans of the timed layers; the other spans ("job", "job.setup") are
/// the traced loop's own glue.
bool IsLayerSpan(const std::string& name) {
  for (const char* prefix : {"rl.", "dse.", "workloads."})
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

/// The share of the traced wall the layer spans may leave to glue. Most
/// glue is the recorder's own clock reads (about 40 ns each on a 4-core
/// Xeon VM) falling between spans; explore-revisit, whose layer calls take
/// 100-200 ns, leaves about 20% to it, the kernel-bound workloads under 10%.
constexpr double kCoverageTolerance = 0.25;

void AddExploreLayers(Report& report, const ExploreTrace& trace) {
  const LayerCounters& c = trace.counters;
  const auto all = trace.tracer->Totals(trace.first_span,
                                         [](std::uint32_t) { return true; });
  const auto off = trace.tracer->Totals(
      trace.first_span, [&](std::uint32_t j) { return !c.job_surrogate[j]; });
  const auto on = trace.tracer->Totals(
      trace.first_span, [&](std::uint32_t j) { return c.job_surrogate[j]; });
  const auto per = [](const std::map<std::string, SpanTotals>& t,
                      const std::string& name, bool self) {
    const auto it = t.find(name);
    if (it == t.end() || it->second.count == 0) return 0.0;
    return (self ? it->second.self_ns : it->second.total_ns) /
           static_cast<double>(it->second.count);
  };
  const double wall_ns = trace.wall_s * 1e9;
  const RunCounts& r = c.runs;
  report.Add("rl.select_ns", per(all, "rl.select", false), "ns");
  report.Add("rl.observe_ns", per(all, "rl.observe", false), "ns");
  report.Add("dse.environment.step_self_ns",
             per(all, "dse.environment.step", true), "ns");
  report.Add("dse.environment.interned_states",
             Ratio(static_cast<double>(c.interned),
                   static_cast<double>(c.jobs)),
             "count", "mean per job");
  report.Add("dse.evaluator.evaluate_self_ns",
             per(off, "dse.evaluator.evaluate", true), "ns",
             "surrogate-off jobs");
  report.Add("dse.evaluator.memo_hit_ratio",
             Ratio(static_cast<double>(c.memo_hits),
                   static_cast<double>(c.evaluate_calls)),
             "ratio", "base: dse.evaluator.evaluate_calls");
  report.Add("dse.evaluator.evaluate_calls",
             static_cast<double>(c.evaluate_calls), "count");
  report.Add("dse.evaluator.kernel_runs_executed",
             static_cast<double>(c.kernel_runs_executed), "count");
  report.Add("dse.surrogate.hit_ratio",
             Ratio(static_cast<double>(c.surrogate_hits),
                   static_cast<double>(c.surrogate_calls)),
             "ratio", "base: dse.surrogate.evaluate_calls");
  report.Add("dse.surrogate.evaluate_calls",
             static_cast<double>(c.surrogate_calls), "count");
  report.Add("dse.surrogate.runs_deferred", static_cast<double>(c.deferred),
             "count");
  report.Add("dse.surrogate.evaluate_self_ns",
             per(on, "dse.evaluator.evaluate", true), "ns",
             "surrogate-on jobs");
  report.Add("workloads.run_ns", per(all, "workloads.run", false), "ns");
  report.Add("workloads.ns_per_op",
             Ratio(r.ns[0] + r.ns[1], r.ops[0] + r.ops[1]), "ns",
             "run time over adds + muls");
  report.Add("workloads.ns_per_op.precise_mul", Ratio(r.ns[0], r.ops[0]),
             "ns", "runs without an approximate multiply");
  report.Add("workloads.ns_per_op.approx_mul", Ratio(r.ns[1], r.ops[1]), "ns",
             "runs with an approximate multiply");
  const auto run_it = all.find("workloads.run");
  report.Add("workloads.share",
             Ratio(run_it == all.end() ? 0.0 : run_it->second.self_ns,
                   wall_ns),
             "ratio", "of traced wall");
  report.Add("instrument.configure_ns",
             Ratio(c.configure_ns, static_cast<double>(c.configure_calls)),
             "ns",
             "replayed over " + std::to_string(c.configure_calls) + " calls");

  // The layer spans' self times must account for the traced wall. What
  // they leave over is glue: the step loop's own bookkeeping (action
  // mirror, best tracking, span recording), job set-up and tear-down outside
  // the layers, and the gaps between jobs.
  double layer_ns = 0.0;
  std::ostringstream detail;
  for (const auto& [name, totals] : all) {
    if (IsLayerSpan(name)) layer_ns += totals.self_ns;
    detail << name << "="
           << util::ShortestDouble(
                  std::round(1000.0 * totals.self_ns / wall_ns) / 1000.0)
           << " ";
  }
  const double coverage = Ratio(layer_ns, wall_ns);
  report.lines.push_back("self-time shares of traced wall: " + detail.str());
  report.Check("layer self times sum to traced wall within " +
                   util::ShortestDouble(kCoverageTolerance * 100.0) + "%",
               coverage >= 1.0 - kCoverageTolerance && coverage <= 1.0,
               "layer coverage " + util::ShortestDouble(coverage) +
                   ", glue " + util::ShortestDouble(1.0 - coverage));
  report.Add("trace.self_time_coverage", coverage, "ratio");
}

// ---------------------------------------------------------------------------
// Explore workloads
// ---------------------------------------------------------------------------

struct ExploreRound {
  std::vector<dse::RequestResult> results;  ///< empty RequestResult on error
  std::vector<Job> jobs;
  double wall_s = 0.0;
};

/// Runs `reqs` in order; `setup` (untimed here) runs before each job and
/// may replace `session`.
ExploreRound RunExploreRound(const std::unique_ptr<Session>& session,
                             const std::vector<dse::ExplorationRequest>& reqs,
                             const std::function<void()>& setup,
                             Report& report) {
  ExploreRound round;
  double setup_s = 0.0;
  const auto t0 = Clock::now();
  for (const dse::ExplorationRequest& request : reqs) {
    const auto s0 = Clock::now();
    setup();
    setup_s += Seconds(s0, Clock::now());
    Job job;
    const auto j0 = Clock::now();
    try {
      round.results.push_back(session->Explore(request));
      const dse::RequestResult& result = round.results.back();
      job.failed = result.runs.size() != 1;
      for (const dse::ExplorationResult& run : result.runs) {
        job.steps += run.steps;
        job.kernel_runs += run.kernel_runs;
      }
    } catch (const std::exception& e) {
      report.lines.push_back("job " + request.DisplayName() +
                             " threw: " + e.what());
      round.results.emplace_back();
      job.failed = true;
    }
    job.latency_s = Seconds(j0, Clock::now());
    round.jobs.push_back(job);
  }
  round.wall_s = Seconds(t0, Clock::now()) - setup_s;
  return round;
}

void RunExploreWorkload(const Options& options, Report& report,
                        Tracer& tracer) {
  const bool miss = options.workload == "explore-miss";
  const auto cycle_requests = [&](std::size_t cycle) {
    return miss ? ExploreMissRequests(options.seed, cycle)
                : ExploreRevisitRequests(options.seed, cycle);
  };
  // Every job is set up afresh (session plus its cycle's requests), so
  // set-up time is sampled all through the run rather than in one burst.
  std::unique_ptr<Session> session;
  std::vector<dse::ExplorationRequest> built;
  std::size_t cycles = 0;
  std::vector<double> setups;
  const auto setup = [&] {
    setups.push_back(TimeSetup([&] {
      session = std::make_unique<Session>(dse::EngineOptions{1});
      built = cycle_requests(cycles);
    }));
  };
  setup();
  const std::vector<dse::ExplorationRequest> requests = built;

  // Every cycle draws fresh seeds, so a run averages over many explorations.
  // Cycle 0 is the reference for the quality metrics, the committed digest
  // and the traced pass.
  std::vector<Job> jobs;
  std::vector<Slice> slices;
  ExploreRound cycle0;
  std::size_t pairs = 0, equal_pairs = 0;
  const Clock::time_point deadline = After(options.seconds);
  do {
    const std::vector<dse::ExplorationRequest> current =
        cycles == 0 ? requests : cycle_requests(cycles);
    ExploreRound round = RunExploreRound(session, current, setup, report);
    // explore-miss requests come in (surrogate off, surrogate on) pairs.
    for (std::size_t i = 0; miss && i + 1 < current.size(); i += 2, ++pairs) {
      const bool equal =
          !round.jobs[i].failed && !round.jobs[i + 1].failed &&
          RunText(round.results[i].runs[0], false) ==
              RunText(round.results[i + 1].runs[0], false);
      equal_pairs += equal ? 1 : 0;
      if (!equal) round.jobs[i + 1].failed = true;
    }
    if (cycles == 0) cycle0 = round;
    AddToSlices(slices, round.jobs, round.wall_s);
    jobs.insert(jobs.end(), round.jobs.begin(), round.jobs.end());
    ++cycles;
  } while (!options.trace && Clock::now() < deadline);
  report.lines.push_back(std::to_string(cycles) + " cycle(s) of " +
                         std::to_string(requests.size()) + " explorations");
  if (miss)
    report.Check("surrogate-on == surrogate-off", equal_pairs == pairs,
                 std::to_string(equal_pairs) + "/" + std::to_string(pairs) +
                     " pairs equal");

  std::string logical;
  Quality quality;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    char line[200];
    std::snprintf(line, sizeof line, "cycle 0: %-32s surrogate=%d %.4f s",
                  requests[i].kernel.ToString().c_str(),
                  requests[i].surrogate ? 1 : 0, cycle0.jobs[i].latency_s);
    if (miss) report.lines.push_back(line);
    if (cycle0.jobs[i].failed) {
      quality.Add(false, 0.0);
      continue;
    }
    const dse::ExplorationResult& run = cycle0.results[i].runs[0];
    logical += requests[i].ToString() + "\n" + RunText(run, true) + "\n";
    quality.Add(run.has_best_feasible,
                run.has_best_feasible
                    ? dse::BaselineObjective(cycle0.results[i].reward,
                                             run.best_feasible_measurement)
                    : 0.0);
  }
  std::vector<Job> cycle0_jobs(jobs.begin(), jobs.begin() + requests.size());
  CheckDigest(report, options, logical, cycle0_jobs);
  std::copy(cycle0_jobs.begin(), cycle0_jobs.end(), jobs.begin());

  if (!options.trace) {
    report.CountJobs(jobs);
    AddEndToEnd(report, setups, jobs, slices,
                LatencyOver(SliceLatencies(slices), "explorations"),
                quality, "explorations");
    return;
  }

  std::vector<Job> traced_jobs;
  const ExploreTrace trace = TraceRequests(
      requests,
      [&](std::size_t i) -> const dse::ExplorationResult& {
        static const dse::ExplorationResult kEmpty;
        return cycle0.jobs[i].failed ? kEmpty : cycle0.results[i].runs[0];
      },
      tracer, report, traced_jobs);
  report.CountJobs(jobs);
  report.CountJobs(traced_jobs);
  AddExploreLayers(report, trace);
  report.Add("trace.overhead_ratio",
             Ratio(Ratio(slices[0].steps, slices[0].wall_s),
                   trace.counters.steps / trace.wall_s),
             "ratio", "untraced over traced steps_per_s");
}

// ---------------------------------------------------------------------------
// Campaign workload
// ---------------------------------------------------------------------------

/// Worker accounting from the engine progress hook and the campaign chunk
/// hook (traced campaign only).
class CellClock {
 public:
  explicit CellClock(std::size_t workers) : workers_(workers) {}

  dse::CampaignObserver Observer(Tracer& tracer) {
    dse::CampaignObserver observer;
    observer.engine.interval = 1000;
    observer.engine.on_progress = [this, &tracer](const dse::JobProgress& p) {
      if (!p.finished) return;
      const std::int64_t now = NowNs();
      std::lock_guard<std::mutex> lock(mutex_);
      std::int64_t& last = last_finish_[std::this_thread::get_id()];
      const std::int64_t start = std::max(last, chunk_start_);
      last = now;
      tracer.Record("dse.engine.job", start, now, 0);
    };
    observer.on_chunk = [this, &tracer](const dse::CampaignChunkProgress&) {
      const std::int64_t now = NowNs();
      std::lock_guard<std::mutex> lock(mutex_);
      std::size_t seen = 0;
      for (const auto& [thread, last] : last_finish_) {
        if (last < chunk_start_) continue;
        ++seen;
        busy_ns_ += static_cast<double>(last - chunk_start_);
        idle_ns_ += static_cast<double>(now - last);
      }
      idle_ns_ += static_cast<double>(workers_ - std::min(seen, workers_)) *
                  static_cast<double>(now - chunk_start_);
      tracer.Record("dse.campaign.chunk", chunk_start_, now, 0);
      chunk_start_ = now;
    };
    return observer;
  }

  void Start() {
    std::lock_guard<std::mutex> lock(mutex_);
    chunk_start_ = NowNs();
    last_finish_.clear();
  }

  double busy_ns_ = 0.0, idle_ns_ = 0.0;

 private:
  std::size_t workers_;
  std::mutex mutex_;
  std::int64_t chunk_start_ = 0;
  std::map<std::thread::id, std::int64_t> last_finish_;
};

struct CampaignRun {
  dse::CampaignResult result;
  std::string masked_json;
  std::vector<Job> jobs;
  double wall_s = 0.0;
  bool ok = false;
};

/// The shared-mode cost counters engine.hpp documents as
/// scheduling-dependent; every other byte of the campaign JSON must repeat.
const std::vector<std::string> kSchedulingCounters = {
    "executed_runs", "saved_runs", "shared_hits"};

/// Runs one campaign; with `clock`, under its observer hooks.
CampaignRun RunCampaignOnce(const Session& session,
                            const dse::CampaignSpec& spec,
                            const std::string& directory, CellClock* clock,
                            Tracer& tracer, Report& report) {
  CampaignRun run;
  dse::CampaignOptions options;
  options.checkpoint_directory = directory;
  options.checkpoint_interval = 1000;
  const dse::CampaignObserver observer =
      clock ? clock->Observer(tracer) : dse::CampaignObserver{};
  const auto t0 = Clock::now();
  if (clock) clock->Start();
  try {
    run.result = dse::Campaign(session.Engine()).Run(spec, options, observer);
    run.ok = run.result.Complete() &&
             run.result.cells.size() == spec.NumCells();
  } catch (const std::exception& e) {
    report.lines.push_back(std::string("campaign threw: ") + e.what());
  }
  run.wall_s = Seconds(t0, Clock::now());
  if (run.ok)
    run.masked_json =
        MaskCounters(report::CampaignJson(run.result), kSchedulingCounters);
  for (std::size_t i = 0; i < spec.NumJobs(); ++i) {
    Job job;
    job.failed = !run.ok;
    if (run.ok) {
      job.steps = run.result.cells[i].runs[0].steps;
      job.kernel_runs = run.result.cells[i].runs[0].kernel_runs;
    }
    run.jobs.push_back(job);
  }
  return run;
}

/// Replays Explorer::Suspend -> Checkpoint::Serialize ->
/// AtomicWriteCheckpointFile every 1000 steps on `requests`.
void ReplayCheckpoints(const std::vector<dse::ExplorationRequest>& requests,
                       const std::string& directory, Report& report) {
  std::size_t snapshots = 0;
  double bytes = 0.0, serialize_ns = 0.0, write_ns = 0.0, wall_ns = 0.0;
  for (const dse::ExplorationRequest& request : requests) {
    const std::unique_ptr<workloads::Kernel> kernel =
        workloads::KernelRegistry::Global().Create(request.kernel,
                                                   request.kernel_seed);
    const std::int64_t t0 = NowNs();
    dse::Evaluator evaluator(*kernel);
    const dse::RewardConfig reward =
        dse::MakePaperRewardConfig(evaluator, request.thresholds);
    dse::ExplorerConfig config = request.ToExplorerConfig();
    config.seed = request.seed;
    dse::Explorer explorer(evaluator, reward, config);
    const std::string path =
        (fs::path(directory) /
         dse::JobCheckpointFileName(request.ToString(), config.seed))
            .string();
    while (true) {
      explorer.RunSteps(1000);
      if (explorer.Finished()) break;
      const std::int64_t s0 = NowNs();
      dse::Checkpoint snapshot = explorer.Suspend();
      snapshot.request = request.ToString();
      snapshot.seed = config.seed;
      const std::string text = snapshot.Serialize();
      const std::int64_t s1 = NowNs();
      dse::AtomicWriteCheckpointFile(path, text, "dsebench checkpoint replay");
      const std::int64_t s2 = NowNs();
      ++snapshots;
      bytes += static_cast<double>(text.size());
      serialize_ns += static_cast<double>(s1 - s0);
      write_ns += static_cast<double>(s2 - s1);
    }
    explorer.Finish();
    wall_ns += static_cast<double>(NowNs() - t0);
    std::error_code ec;
    fs::remove(path, ec);
  }
  const double n = static_cast<double>(snapshots);
  report.Add("dse.checkpoint.snapshots", n, "count");
  report.Add("dse.checkpoint.snapshot_bytes", Ratio(bytes, n), "bytes",
             "mean per snapshot");
  report.Add("dse.checkpoint.serialize_ms", Ratio(serialize_ns, n) * 1e-6,
             "ms", "Suspend + Serialize, mean per snapshot");
  report.Add("dse.checkpoint.write_ms", Ratio(write_ns, n) * 1e-6, "ms",
             "mean per snapshot");
  report.Add("dse.checkpoint.share", Ratio(serialize_ns + write_ns, wall_ns),
             "ratio", "computed: (serialize + write) / replay wall");
}

void RunCampaignWorkload(const Options& options, Report& report,
                         Tracer& tracer, const std::string& state_dir) {
  // One worker times the campaigns: see the header on why every workload
  // keeps one thread busy. The repeat check runs on kCheckWorkers, so
  // SharedEvaluationCache inserts race lookups there.
  constexpr std::size_t kWorkers = 1;
  constexpr std::size_t kCheckWorkers = 4;
  const std::string directory = state_dir + "/campaign";
  std::unique_ptr<Session> session;
  dse::CampaignSpec spec;
  std::size_t campaigns = 0;
  // Each campaign sets up afresh, so set-up time is sampled across the run.
  const auto setup = [&] {
    session = std::make_unique<Session>(dse::EngineOptions{kWorkers});
    spec = CampaignGridSpec(options.seed, campaigns);
    fs::remove_all(directory);
    fs::create_directories(directory);
  };
  std::vector<double> setups = {TimeSetup(setup)};

  // Every campaign draws fresh seeds. Throughput counts grid cells; latency
  // is that of whole campaigns, the unit a caller waits for.
  std::vector<Job> jobs;
  std::vector<Slice> slices;
  std::vector<std::vector<double>> campaign_s;  ///< per slice
  CampaignRun first;
  const Clock::time_point deadline = After(options.seconds);
  do {
    if (campaigns > 0) setups.push_back(TimeSetup(setup));
    CampaignRun run =
        RunCampaignOnce(*session, spec, directory, nullptr, tracer, report);
    if (campaigns == 0) first = run;
    const std::size_t opened = slices.size();
    AddToSlices(slices, run.jobs, run.wall_s);
    if (slices.size() != opened) campaign_s.emplace_back();
    campaign_s.back().push_back(run.wall_s);
    jobs.insert(jobs.end(), run.jobs.begin(), run.jobs.end());
    ++campaigns;
  } while (!options.trace && Clock::now() < deadline);
  spec = CampaignGridSpec(options.seed, 0);

  if (!options.trace) {
    // Untimed: the first campaign again on kCheckWorkers workers must match
    // it byte for byte, apart from the scheduling-dependent counters.
    fs::remove_all(directory);
    fs::create_directories(directory);
    const Session check_session(dse::EngineOptions{kCheckWorkers});
    CampaignRun check = RunCampaignOnce(check_session, spec, directory,
                                        nullptr, tracer, report);
    const bool equal = check.ok && check.masked_json == first.masked_json;
    if (!equal)
      for (Job& job : check.jobs) job.failed = true;
    jobs.insert(jobs.end(), check.jobs.begin(), check.jobs.end());
    report.Check("first campaign on " + std::to_string(kCheckWorkers) +
                     " workers == on " + std::to_string(kWorkers) +
                     " (ignoring executed_runs, saved_runs, shared_hits)",
                 equal, std::to_string(campaigns) + " timed campaigns");
  }

  Quality quality;
  if (first.ok)
    for (const dse::CampaignCell& cell : first.result.cells)
      for (const dse::CampaignSeedRun& run : cell.runs)
        quality.Add(run.has_best_feasible, run.objective);
  std::vector<Job> first_jobs(jobs.begin(),
                              jobs.begin() + static_cast<std::ptrdiff_t>(
                                                 spec.NumJobs()));
  CheckDigest(report, options, first.masked_json, first_jobs);
  std::copy(first_jobs.begin(), first_jobs.end(), jobs.begin());

  if (!options.trace) {
    report.CountJobs(jobs);
    AddEndToEnd(report, setups, jobs, slices,
                LatencyOver(campaign_s, "whole campaigns"), quality,
                "grid cells");
    return;
  }

  // Traced campaign: hook spans only; logical output must not move.
  CellClock traced_clock(kWorkers);
  const CampaignRun traced = RunCampaignOnce(*session, spec, directory,
                                             &traced_clock, tracer, report);
  report.Check("traced campaign == untraced (masked JSON)",
               traced.ok && traced.masked_json == first.masked_json, "");
  report.CountJobs(jobs);
  report.CountJobs(traced.jobs);
  report.Add("dse.engine.worker_busy_share",
             Ratio(traced_clock.busy_ns_, kWorkers * traced.wall_s * 1e9),
             "ratio", "summed job time over workers x wall");
  report.Add("dse.campaign.chunk_idle_share",
             Ratio(traced_clock.idle_ns_, kWorkers * traced.wall_s * 1e9),
             "ratio", "worker time idle at chunk barriers");
  double shared_hits = 0.0, shared_runs = 0.0;
  for (const dse::CampaignCell& cell : traced.result.cells) {
    if (cell.cache.mode != dse::CacheMode::kShared) continue;
    shared_hits += static_cast<double>(cell.cache.shared_hits);
    shared_runs += static_cast<double>(cell.cache.distinct_evaluations);
  }
  report.Add("instrument.shared_hit_ratio", Ratio(shared_hits, shared_runs),
             "ratio", "shared hits over kernel_runs on shared cells");
  std::size_t untraced_steps = 0, traced_steps = 0;
  for (std::size_t i = 0; i < spec.NumJobs(); ++i) {
    untraced_steps += jobs[i].steps;
    traced_steps += traced.jobs[i].steps;
  }
  report.Add("trace.overhead_ratio",
             Ratio(untraced_steps / first.wall_s,
                   traced_steps / traced.wall_s),
             "ratio", "untraced over hooked campaign steps_per_s");

  // Explore layers and checkpoint I/O, replayed on one cell per kernel (the
  // private q-learning cell) of the campaign's own grid.
  const std::vector<dse::ExplorationRequest> grid = spec.Expand();
  const std::size_t per_kernel = grid.size() / spec.kernels.size();
  std::vector<dse::ExplorationRequest> sample;
  std::vector<const dse::CampaignSeedRun*> sample_runs;
  for (std::size_t i = 0; i < grid.size(); i += per_kernel) {
    sample.push_back(grid[i]);
    sample_runs.push_back(first.ok ? &first.result.cells[i].runs[0] : nullptr);
  }
  std::vector<Job> replay_jobs;
  const ExploreTrace trace = TraceRequests(
      sample,
      [&](std::size_t i) -> const dse::CampaignSeedRun& {
        static const dse::CampaignSeedRun kEmpty;
        return sample_runs[i] ? *sample_runs[i] : kEmpty;
      },
      tracer, report, replay_jobs);
  report.CountJobs(replay_jobs);
  AddExploreLayers(report, trace);
  ReplayCheckpoints(sample, directory, report);
}

// ---------------------------------------------------------------------------
// Serve workload
// ---------------------------------------------------------------------------

struct ServeJob {
  std::size_t pool_index = 0;
  double latency_s = 0.0;
  bool settled_done = false;
  std::uint64_t result_hash = 0;
  std::size_t result_bytes = 0;
  // Traced loop only.
  double queue_wait_s = -1.0, run_s = -1.0, stats_rtt_s = -1.0;
};

std::string TrimNewlines(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
    text.pop_back();
  return text;
}

struct ServeFixture {
  std::string state_dir;
  std::unique_ptr<serve::Server> server;
  std::optional<serve::Client> client;

  void Stop() {
    client.reset();
    if (server) server->Stop();
    server.reset();
    std::error_code ec;
    fs::remove_all(state_dir, ec);
  }
};

/// The client loops Submit -> (Watch) -> WaitJob -> Results (-> Stats) once
/// over every request of `pool`.
std::vector<ServeJob> RunServeLoop(ServeFixture& fixture,
                                   const std::vector<dse::ExplorationRequest>&
                                       pool,
                                   bool traced, Tracer* tracer,
                                   Report& report) {
  serve::Client& c = *fixture.client;
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> events;
  if (traced)
    c.OnEvent([&events](const std::string& payload) {
      const std::int64_t now = NowNs();
      const std::size_t space = payload.find(' ');
      if (space == std::string::npos) return;
      const std::uint64_t id = std::stoull(payload.substr(0, space));
      const std::string detail = payload.substr(space + 1);
      auto& [running, settled] = events[id];
      if (detail.rfind("state running", 0) == 0 && running == 0)
        running = now;
      if (detail.rfind("state done", 0) == 0 ||
          detail.rfind("state failed", 0) == 0)
        settled = now;
    });
  std::vector<ServeJob> done;
  try {
    for (std::size_t k = 0; k < pool.size(); ++k) {
      ServeJob job;
      job.pool_index = k;
      const std::int64_t t0 = NowNs();
      const std::uint64_t id = c.Submit(pool[k]);
      if (traced) c.Watch(id);
      job.settled_done = c.WaitJob(id) == "done";
      const std::string result =
          job.settled_done ? TrimNewlines(c.Results(id)) : "";
      const std::int64_t t1 = NowNs();
      job.latency_s = static_cast<double>(t1 - t0) * 1e-9;
      job.result_hash = Fnv64(result);
      job.result_bytes = result.size();
      if (traced) {
        const auto [running, settled] = events[id];
        if (running > 0) job.queue_wait_s = (running - t0) * 1e-9;
        if (running > 0 && settled > running)
          job.run_s = (settled - running) * 1e-9;
        const std::int64_t s0 = NowNs();
        c.Stats();
        job.stats_rtt_s = (NowNs() - s0) * 1e-9;
        tracer->Record("serve.job", t0, t1, static_cast<std::uint32_t>(id));
        if (running > 0)
          tracer->Record("serve.queue_wait", t0, running,
                         static_cast<std::uint32_t>(id));
      }
      done.push_back(job);
    }
  } catch (const std::exception& e) {
    report.lines.push_back(std::string("serve client failed: ") + e.what());
    ServeJob failed;
    failed.pool_index = SIZE_MAX;
    done.push_back(failed);
  }
  c.OnEvent({});  // the handler refers to this function's locals
  return done;
}

void RunServeWorkload(const Options& options, Report& report, Tracer& tracer,
                      const std::string& state_dir) {
  // The server restarts on a fresh state directory before every rotation
  // through the request pool, so set-up time is sampled all through the run.
  std::vector<dse::ExplorationRequest> pool;
  ServeFixture fixture;
  std::vector<double> setups;
  const auto restart = [&] {
    fixture.Stop();
    setups.push_back(TimeSetup([&] {
      pool = ServePool(options.seed);
      fixture.state_dir = state_dir + "/serve-" + std::to_string(setups.size());
      fs::create_directories(fixture.state_dir);
      serve::ServerOptions server_options;
      server_options.port = 0;
      server_options.state_dir = fixture.state_dir;
      server_options.job_workers = 2;
      server_options.engine_workers = 1;
      fixture.server = std::make_unique<serve::Server>(server_options);
      fixture.server->Start();
      fixture.client.emplace(
          serve::Client::Connect("127.0.0.1", fixture.server->Port()));
    }));
  };

  // Whole rotations until --seconds have passed (one in the traced run).
  std::vector<ServeJob> served;
  std::vector<std::size_t> rotation_end;
  std::vector<double> rotation_s;
  const Clock::time_point deadline = After(options.seconds);
  do {
    restart();
    const auto r0 = Clock::now();
    const std::vector<ServeJob> rotation =
        RunServeLoop(fixture, pool, false, nullptr, report);
    rotation_s.push_back(Seconds(r0, Clock::now()));
    served.insert(served.end(), rotation.begin(), rotation.end());
    rotation_end.push_back(served.size());
  } while (!options.trace && Clock::now() < deadline);
  std::vector<ServeJob> traced;
  double traced_wall_s = 0.0;
  if (options.trace) {
    const auto t1 = Clock::now();
    traced = RunServeLoop(fixture, pool, true, &tracer, report);
    traced_wall_s = Seconds(t1, Clock::now());
  }
  fixture.Stop();

  // Direct runs of every pool request: the reference result documents.
  Session session(dse::EngineOptions{1});
  std::vector<std::uint64_t> direct_hash;
  std::vector<double> direct_s;
  std::vector<dse::RequestResult> direct;
  std::string logical;
  Quality quality;
  for (const dse::ExplorationRequest& request : pool) {
    const auto d0 = Clock::now();
    const dse::BatchResult batch = session.ExploreBatch({request});
    direct_s.push_back(Seconds(d0, Clock::now()));
    const std::string json = TrimNewlines(report::BatchJson(batch));
    direct_hash.push_back(Fnv64(json));
    logical += json + "\n";
    direct.push_back(batch.results[0]);
    const dse::ExplorationResult& run = batch.results[0].runs[0];
    quality.Add(run.has_best_feasible,
                run.has_best_feasible
                    ? dse::BaselineObjective(batch.results[0].reward,
                                             run.best_feasible_measurement)
                    : 0.0);
  }

  const auto to_jobs = [&](const std::vector<ServeJob>& list) {
    std::vector<Job> jobs;
    for (const ServeJob& s : list) {
      Job job;
      job.latency_s = s.latency_s;
      job.failed = s.pool_index >= pool.size() || !s.settled_done ||
                   s.result_hash != direct_hash[s.pool_index];
      if (!job.failed) {
        // The document equals the direct run's, so its counters apply.
        job.steps = direct[s.pool_index].runs[0].steps;
        job.kernel_runs = direct[s.pool_index].runs[0].kernel_runs;
      }
      jobs.push_back(job);
    }
    return jobs;
  };
  std::vector<Job> jobs = to_jobs(served);
  std::vector<Job> traced_jobs = to_jobs(traced);
  std::size_t mismatches = 0;
  for (const std::vector<Job>* list : {&jobs, &traced_jobs})
    for (const Job& job : *list) mismatches += job.failed ? 1 : 0;
  const std::size_t total = jobs.size() + traced_jobs.size();
  report.Check("serve results == direct Session runs (byte for byte)",
               mismatches == 0,
               std::to_string(total - mismatches) + "/" +
                   std::to_string(total) + " equal");
  // The default-seed digest covers the direct documents, which every served
  // document was just compared against.
  CheckDigest(report, options, logical, jobs);

  if (!options.trace) {
    report.CountJobs(jobs);
    // A slice is one rotation (4-7 s), so every slice's tail is the same
    // percentile of the same 64-job mix whatever the machine's speed.
    std::vector<Slice> slices;
    for (std::size_t r = 0, begin = 0; r < rotation_end.size(); ++r) {
      slices.emplace_back().Add(
          std::vector<Job>(jobs.begin() + begin,
                           jobs.begin() + rotation_end[r]),
          rotation_s[r]);
      begin = rotation_end[r];
    }
    AddEndToEnd(report, setups, jobs, slices,
                LatencyOver(SliceLatencies(slices), "served jobs"), quality,
                "served jobs");
    return;
  }
  report.CountJobs(jobs);
  report.CountJobs(traced_jobs);

  std::vector<double> queue_wait, run_ms, overhead, stats_rtt;
  double result_bytes = 0.0;
  for (const ServeJob& s : traced) {
    if (s.queue_wait_s >= 0.0) queue_wait.push_back(s.queue_wait_s * 1e3);
    if (s.run_s >= 0.0) run_ms.push_back(s.run_s * 1e3);
    if (s.stats_rtt_s >= 0.0) stats_rtt.push_back(s.stats_rtt_s * 1e6);
    result_bytes += static_cast<double>(s.result_bytes);
  }
  for (const ServeJob& s : served)
    if (s.pool_index < pool.size())
      overhead.push_back((s.latency_s - direct_s[s.pool_index]) * 1e3);
  report.Add("serve.queue_wait_ms", Median(queue_wait), "ms",
             "submit -> running event, median");
  report.Add("serve.run_ms", Median(run_ms), "ms",
             "running -> done event, median");
  report.Add("serve.overhead_ms", Median(overhead), "ms",
             "untraced latency minus direct run, median");
  report.Add("serve.stats_rtt_us", Median(stats_rtt), "us", "median");
  report.Add("serve.result_bytes",
             Ratio(result_bytes, static_cast<double>(traced.size())), "bytes",
             "mean per result document");
  std::size_t untraced_steps = 0, traced_steps = 0;
  for (const Job& job : jobs) untraced_steps += job.steps;
  for (const Job& job : traced_jobs) traced_steps += job.steps;
  report.Add("trace.overhead_ratio",
             Ratio(untraced_steps / rotation_s[0],
                   traced_steps / traced_wall_s),
             "ratio", "untraced over watched loop steps_per_s");

  std::vector<Job> replay_jobs;
  const ExploreTrace trace = TraceRequests(
      pool,
      [&](std::size_t i) -> const dse::ExplorationResult& {
        return direct[i].runs[0];
      },
      tracer, report, replay_jobs);
  report.CountJobs(replay_jobs);
  AddExploreLayers(report, trace);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// A reported metric: name, unit, and (per-layer only) the end-to-end
/// metric and workload a change in it should move.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* moves = "";
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"steps_per_s", "1/s"},
    {"evaluations_per_s", "1/s"},
    {"jobs_per_s", "1/s"},
    {"job_latency_p50_s", "s"},
    {"job_latency_tail_s", "s"},
    {"peak_rss_mb", "MB"},
    {"best_objective_mean", "objective"},
    {"feasible_job_share", "ratio"},
};

constexpr const char* kRevisitSteps =
    "steps_per_s on explore-revisit";
constexpr const char* kMissSteps =
    "steps_per_s on explore-miss";
constexpr const char* kEvaluatorSteps =
    "steps_per_s on explore-revisit (memo path) and explore-miss (miss path)";
constexpr const char* kKernelWork =
    "steps_per_s, evaluations_per_s on explore-miss; "
    "no move on explore-revisit";
constexpr const char* kCampaignSteps =
    "steps_per_s on campaign-grid";
constexpr const char* kServeLatency =
    "job_latency_p50_s, jobs_per_s on serve-closed-loop";
constexpr const char* kTracing =
    "none: cost and coverage of the tracing itself";

/// Every per-layer metric; a layer a workload never touches reports 0.
const std::vector<MetricSpec> kPerLayer = {
    {"rl.select_ns", "ns", kRevisitSteps},
    {"rl.observe_ns", "ns", kRevisitSteps},
    {"dse.environment.step_self_ns", "ns", kRevisitSteps},
    {"dse.environment.interned_states", "count", kRevisitSteps},
    {"dse.evaluator.evaluate_self_ns", "ns", kEvaluatorSteps},
    {"dse.evaluator.memo_hit_ratio", "ratio", kEvaluatorSteps},
    {"dse.evaluator.evaluate_calls", "count", kEvaluatorSteps},
    {"dse.evaluator.kernel_runs_executed", "count", kEvaluatorSteps},
    {"dse.surrogate.hit_ratio", "ratio", kMissSteps},
    {"dse.surrogate.evaluate_calls", "count", kMissSteps},
    {"dse.surrogate.runs_deferred", "count", kMissSteps},
    {"dse.surrogate.evaluate_self_ns", "ns", kMissSteps},
    {"workloads.run_ns", "ns", kKernelWork},
    {"workloads.ns_per_op", "ns", kKernelWork},
    {"workloads.ns_per_op.precise_mul", "ns", kKernelWork},
    {"workloads.ns_per_op.approx_mul", "ns", kKernelWork},
    {"workloads.share", "ratio", kKernelWork},
    {"instrument.configure_ns", "ns", kMissSteps},
    {"instrument.shared_hit_ratio", "ratio", kCampaignSteps},
    {"dse.engine.worker_busy_share", "ratio", kCampaignSteps},
    {"dse.campaign.chunk_idle_share", "ratio", kCampaignSteps},
    {"dse.checkpoint.snapshots", "count", kCampaignSteps},
    {"dse.checkpoint.snapshot_bytes", "bytes", kCampaignSteps},
    {"dse.checkpoint.serialize_ms", "ms", kCampaignSteps},
    {"dse.checkpoint.write_ms", "ms", kCampaignSteps},
    {"dse.checkpoint.share", "ratio", kCampaignSteps},
    {"serve.queue_wait_ms", "ms", kServeLatency},
    {"serve.run_ms", "ms", kServeLatency},
    {"serve.overhead_ms", "ms", kServeLatency},
    {"serve.stats_rtt_us", "us", kServeLatency},
    {"serve.result_bytes", "bytes", kServeLatency},
    {"trace.overhead_ratio", "ratio", kTracing},
    {"trace.self_time_coverage", "ratio", kTracing},
};

/// Orders the report's metrics as `specs`, adding zeros for missing ones
/// and flagging unit mismatches or unexpected names.
std::vector<Metric> Arrange(const Report& report,
                            const std::vector<MetricSpec>& specs,
                            std::vector<std::string>& problems) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    Metric metric{spec.name, 0.0, spec.unit, "layer not used by this workload"};
    for (const Metric& m : report.metrics)
      if (m.name == spec.name) metric = m;
    if (*spec.moves != '\0')
      metric.note += std::string(metric.note.empty() ? "" : "; ") +
                     "moves " + spec.moves;
    if (metric.unit != spec.unit)
      problems.push_back("metric " + metric.name + " has unit " + metric.unit);
    out.push_back(metric);
  }
  for (const Metric& m : report.metrics) {
    const bool known = std::any_of(specs.begin(), specs.end(),
                                   [&](const MetricSpec& s) {
                                     return m.name == s.name;
                                   });
    if (!known) problems.push_back("unexpected metric " + m.name);
  }
  return out;
}

}  // namespace
}  // namespace dsebench

int main(int argc, char** argv) {
  using namespace dsebench;
  Options options;
  try {
    options = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dse_bench: %s\n", e.what());
    return 2;
  }

  const std::string state_dir = options.state_dir + "/" + options.workload +
                                "-" + std::to_string(getpid());
  Report report;
  Tracer tracer;
  try {
    fs::create_directories(state_dir);
    if (options.workload == "explore-miss" ||
        options.workload == "explore-revisit")
      RunExploreWorkload(options, report, tracer);
    else if (options.workload == "campaign-grid")
      RunCampaignWorkload(options, report, tracer, state_dir);
    else
      RunServeWorkload(options, report, tracer, state_dir);
  } catch (const std::exception& e) {
    report.Check("workload ran to completion", false, e.what());
  }
  std::error_code ec;
  fs::remove_all(state_dir, ec);
  if (options.trace && !options.trace_out.empty())
    report.Check("spans written to " + options.trace_out,
                 tracer.Write(options.trace_out),
                 std::to_string(tracer.Spans().size()) + " spans");

  std::vector<std::string> problems;
  const std::vector<Metric> metrics =
      Arrange(report, options.trace ? kPerLayer : kEndToEnd, problems);
  for (const std::string& problem : problems) report.Check(problem, false, "");

  std::printf("workload %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : report.lines)
    std::printf("  %s\n", line.c_str());
  for (const Metric& m : metrics)
    std::printf("  %-36s %-24s %-9s %s\n", m.name.c_str(),
                axdse::util::ShortestDouble(m.value).c_str(), m.unit.c_str(),
                m.note.c_str());

  const bool correct = report.Correct();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted) +
          ", \"failed\": " + std::to_string(report.failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            axdse::util::ShortestDouble(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
