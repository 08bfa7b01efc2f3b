#include "common/test_support.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "instrument/approx_context.hpp"
#include "instrument/multi_approx_context.hpp"
#include "util/number_format.hpp"
#include "workloads/registry.hpp"

namespace axdse::testsupport {

namespace fs = std::filesystem;

std::string FreshTempPath(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("axdse-" + tag);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

ScopedTempDir::ScopedTempDir(const std::string& tag)
    : path_(FreshTempPath(tag)) {}

ScopedTempDir::~ScopedTempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

ExplorerHarness MakeExplorerHarness(
    const std::string& name, std::size_t size,
    const std::map<std::string, std::string>& extra,
    std::uint64_t kernel_seed) {
  ExplorerHarness h;
  workloads::KernelParams params;
  params.size = size;
  params.seed = kernel_seed;
  params.extra = extra;
  h.kernel = workloads::KernelRegistry::Global().Create(name, params);
  h.evaluator = std::make_unique<dse::Evaluator>(*h.kernel);
  h.reward = dse::MakePaperRewardConfig(*h.evaluator);
  return h;
}

dse::ExplorerConfig SmallExplorerConfig(dse::AgentKind kind,
                                        std::uint64_t seed,
                                        std::size_t max_steps,
                                        std::size_t episodes) {
  dse::ExplorerConfig config;
  config.max_steps = max_steps;
  config.max_cumulative_reward = 1e18;
  config.episodes = episodes;
  config.agent_kind = kind;
  config.agent.alpha = 0.2;
  config.agent.gamma = 0.9;
  config.agent.epsilon = rl::EpsilonSchedule::Linear(1.0, 0.05, 40);
  config.seed = seed;
  config.record_trace = true;
  return config;
}

void WriteMeasurement(std::ostream& out, const instrument::Measurement& m) {
  using util::ShortestDouble;
  out << ShortestDouble(m.delta_acc) << "," << ShortestDouble(m.delta_power_mw)
      << "," << ShortestDouble(m.delta_time_ns) << ","
      << ShortestDouble(m.approx_power_mw) << ","
      << ShortestDouble(m.approx_time_ns) << "," << m.counts.precise_adds
      << "," << m.counts.approx_adds << "," << m.counts.precise_muls << ","
      << m.counts.approx_muls;
}

dse::ExplorationRequest QuickMatmulRequest(std::size_t steps,
                                           std::size_t seeds,
                                           std::uint64_t seed) {
  return dse::RequestBuilder("matmul")
      .Size(5)
      .MaxSteps(steps)
      .Seeds(seeds)
      .Seed(seed)
      .Build();
}

std::string PayloadField(const std::string& payload, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = payload.find(" " + needle);
  if (pos == std::string::npos) return {};
  pos += 1 + needle.size();
  const std::size_t end = payload.find(' ', pos);
  return payload.substr(pos, end == std::string::npos ? std::string::npos
                                                      : end - pos);
}

instrument::ApproxSelection RandomSelection(const axc::OperatorSet& set,
                                            std::size_t num_vars,
                                            util::Rng& rng) {
  instrument::ApproxSelection sel(num_vars);
  sel.SetAdderIndex(
      static_cast<std::uint32_t>(rng.UniformBelow(set.adders.size())));
  sel.SetMultiplierIndex(
      static_cast<std::uint32_t>(rng.UniformBelow(set.multipliers.size())));
  for (std::size_t v = 0; v < num_vars; ++v)
    if (rng.UniformBelow(2) == 1) sel.SetVariable(v, true);
  return sel;
}

std::vector<instrument::ApproxSelection> RandomLaneBatch(
    const axc::OperatorSet& set, std::size_t num_vars, std::size_t lanes,
    util::Rng& rng) {
  std::vector<instrument::ApproxSelection> selections;
  selections.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    if (l > 0 && rng.UniformBelow(4) == 0)
      selections.push_back(selections[rng.UniformBelow(l)]);
    else
      selections.push_back(RandomSelection(set, num_vars, rng));
  }
  return selections;
}

axc::OperatorSet WithAsymmetricOperators(axc::OperatorSet set) {
  axc::AdderSpec adder;
  adder.name = "test asymmetric adder";
  adder.type_code = "ASYM";
  adder.bits = 16;
  adder.model = std::make_shared<AsymmetricAdder>();
  set.adders.push_back(std::move(adder));
  axc::MultiplierSpec multiplier;
  multiplier.name = "test asymmetric multiplier";
  multiplier.type_code = "ASYM";
  multiplier.bits = 32;
  multiplier.model = std::make_shared<AsymmetricMultiplier>();
  set.multipliers.push_back(std::move(multiplier));
  return set;
}

instrument::ApproxSelection RandomAsymmetricSelection(
    const axc::OperatorSet& set, std::size_t num_vars, util::Rng& rng) {
  instrument::ApproxSelection sel = RandomSelection(set, num_vars, rng);
  if (rng.UniformBelow(2) == 1)
    sel.SetAdderIndex(static_cast<std::uint32_t>(set.adders.size() - 1));
  if (rng.UniformBelow(2) == 1)
    sel.SetMultiplierIndex(
        static_cast<std::uint32_t>(set.multipliers.size() - 1));
  return sel;
}

void ExpectSameCounts(const energy::OpCounts& got,
                      const energy::OpCounts& want, const std::string& what) {
  EXPECT_EQ(got.precise_adds, want.precise_adds) << what;
  EXPECT_EQ(got.approx_adds, want.approx_adds) << what;
  EXPECT_EQ(got.precise_muls, want.precise_muls) << what;
  EXPECT_EQ(got.approx_muls, want.approx_muls) << what;
}

void CheckLanesAgainstScalar(const workloads::Kernel& kernel, int cases,
                             std::uint64_t seed) {
  CheckLanesAgainstScalar(kernel, cases, seed, kernel.Operators());
}

void CheckLanesAgainstScalar(const workloads::Kernel& kernel, int cases,
                             std::uint64_t seed,
                             const axc::OperatorSet& operators) {
  using instrument::MultiApproxContext;
  util::Rng rng(seed);
  MultiApproxContext multi(operators, kernel.NumVariables());
  instrument::ApproxContext scalar(operators, kernel.NumVariables());
  for (int c = 0; c < cases; ++c) {
    for (const std::size_t lanes :
         {std::size_t{1}, std::size_t{2}, std::size_t{5},
          MultiApproxContext::kMaxLanes}) {
      const std::vector<instrument::ApproxSelection> selections =
          RandomLaneBatch(operators, kernel.NumVariables(), lanes, rng);
      multi.Configure(selections);
      const std::vector<double> got = kernel.RunLanes(multi);
      ASSERT_EQ(got.size() % lanes, 0u) << kernel.Name();
      const std::size_t out_size = got.size() / lanes;
      for (std::size_t l = 0; l < lanes; ++l) {
        scalar.Configure(selections[l]);
        const std::vector<double> want = kernel.Run(scalar);
        ASSERT_EQ(want.size(), out_size) << kernel.Name();
        for (std::size_t i = 0; i < out_size; ++i)
          ASSERT_EQ(got[l * out_size + i], want[i])
              << kernel.Name() << " lane=" << l << "/" << lanes
              << " out=" << i << " " << selections[l].ToString();
        ExpectSameCounts(multi.Counts(l), scalar.Counts(),
                         kernel.Name() + " lane " + std::to_string(l) + "/" +
                             std::to_string(lanes) + " " +
                             selections[l].ToString());
      }
    }
  }
}

}  // namespace axdse::testsupport
