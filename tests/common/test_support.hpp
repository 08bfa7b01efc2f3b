#pragma once
// tests/common — shared test-support library, linked into every test
// binary (see the axdse_test_support target in CMakeLists.txt). Hosts the
// fixtures several suites had grown independently:
//
//   * temp-dir plumbing: FreshTempPath + the ScopedTempDir RAII wrapper
//   * the Explorer harness (kernel + evaluator + paper reward) and the
//     small deterministic ExplorerConfig the resume tests are built on
//   * canonical Measurement serialization for byte-identity payloads
//   * request builders for quick daemon/engine jobs
//   * "key=value" field extraction for serve protocol payloads
//   * random selections/lane batches, OpCounts comparison, and the
//     RunLanes-vs-Run per-lane check the equivalence suites share
//   * operand-order-sensitive test operators (AsymmetricAdder /
//     AsymmetricMultiplier) that make a swapped operand visible
//
// Everything here is test-only: the library links gtest and must never be
// referenced from src/.

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "axc/adders.hpp"
#include "axc/catalog.hpp"
#include "axc/multipliers.hpp"
#include "dse/evaluator.hpp"
#include "dse/explorer.hpp"
#include "dse/request.hpp"
#include "dse/reward.hpp"
#include "instrument/approx_selection.hpp"
#include "instrument/measurement.hpp"
#include "util/rng.hpp"
#include "workloads/kernel.hpp"

namespace axdse::testsupport {

/// Fresh scratch path under the system temp directory ("<temp>/axdse-<tag>"),
/// wiped of any leftovers from a crashed earlier run but NOT created — the
/// code under test owns directory creation. The caller owns cleanup; prefer
/// ScopedTempDir unless the path must outlive the current scope.
std::string FreshTempPath(const std::string& tag);

/// RAII scratch directory: a FreshTempPath that removes itself (and
/// everything beneath it) on destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag);
  ~ScopedTempDir();
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& Str() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Kernel + evaluator + paper reward bundle for explorer-level tests.
struct ExplorerHarness {
  std::unique_ptr<workloads::Kernel> kernel;
  std::unique_ptr<dse::Evaluator> evaluator;
  dse::RewardConfig reward;
};

/// Builds the harness for a registry kernel. `kernel_seed` defaults to the
/// historical fixture seed so payload goldens stay stable.
ExplorerHarness MakeExplorerHarness(
    const std::string& name, std::size_t size,
    const std::map<std::string, std::string>& extra = {},
    std::uint64_t kernel_seed = 7);

/// Small deterministic exploration config (50 steps, linear epsilon decay)
/// used by the checkpoint/resume byte-identity suites.
dse::ExplorerConfig SmallExplorerConfig(dse::AgentKind kind,
                                        std::uint64_t seed,
                                        std::size_t max_steps = 50,
                                        std::size_t episodes = 1);

/// Canonical comma-separated serialization of one Measurement (deltas,
/// approx costs, operation counts) for byte-identity payload strings.
void WriteMeasurement(std::ostream& out, const instrument::Measurement& m);

/// Small matmul exploration request for daemon/engine smoke jobs: finishes
/// in milliseconds, deterministic across worker counts.
dse::ExplorationRequest QuickMatmulRequest(std::size_t steps = 200,
                                           std::size_t seeds = 1,
                                           std::uint64_t seed = 7);

/// The "key=value" field of a STATUS/STATS-style payload, or "" when absent.
std::string PayloadField(const std::string& payload, const std::string& key);

/// Random selection over `num_vars` variables: uniform adder and multiplier
/// indices of `set`, each variable selected with probability 1/2.
instrument::ApproxSelection RandomSelection(const axc::OperatorSet& set,
                                            std::size_t num_vars,
                                            util::Rng& rng);

/// `lanes` selections mixing fresh RandomSelections with repeats of earlier
/// lanes, so lane runs see both fully split and partly collapsed dedup
/// partitions.
std::vector<instrument::ApproxSelection> RandomLaneBatch(
    const axc::OperatorSet& set, std::size_t num_vars, std::size_t lanes,
    util::Rng& rng);

/// Test-only adder outside the built-in families (kVirtual descriptor)
/// whose result depends on operand order: Add(a, b) = a + b + (a >> 4), so
/// the first operand weighs 1/16 more and a swap changes the sum by a
/// sixteenth of the operands' difference — large enough to survive the
/// rescaling shifts after a chain. Every catalog adder is
/// operand-symmetric, so without it no test could see a swapped
/// accumulation.
class AsymmetricAdder final : public axc::Adder {
 public:
  int OperandBits() const noexcept override { return 16; }
  std::string Describe() const override { return "Asymmetric(a+b+(a>>4))"; }
  std::uint64_t Add(std::uint64_t a, std::uint64_t b) const noexcept override {
    return a + b + (a >> 4);
  }
};

/// Multiplier counterpart: Multiply(a, b) = a * (b + (b & 255)), at most
/// twice the exact product, and a swap changes it by
/// a * (b & 255) - b * (a & 255). Every catalog multiplier is
/// operand-symmetric.
class AsymmetricMultiplier final : public axc::Multiplier {
 public:
  int OperandBits() const noexcept override { return 32; }
  std::string Describe() const override {
    return "Asymmetric(a*(b+(b&255)))";
  }
  std::uint64_t Multiply(std::uint64_t a,
                         std::uint64_t b) const noexcept override {
    return a * (b + (b & 255));
  }
};

/// `set` with one AsymmetricAdder and one AsymmetricMultiplier appended as
/// its last adder and multiplier.
axc::OperatorSet WithAsymmetricOperators(axc::OperatorSet set);

/// A RandomSelection over a WithAsymmetricOperators set whose adder and
/// multiplier are each the asymmetric one with probability 1/2.
instrument::ApproxSelection RandomAsymmetricSelection(
    const axc::OperatorSet& set, std::size_t num_vars, util::Rng& rng);

/// EXPECTs the four OpCounts fields equal; `what` labels failures.
void ExpectSameCounts(const energy::OpCounts& got,
                      const energy::OpCounts& want, const std::string& what);

/// `cases` rounds of RandomLaneBatch at widths 1, 2, 5 and kMaxLanes: each
/// lane of kernel.RunLanes must equal kernel.Run under that lane's
/// selection, in outputs and in OpCounts. Both contexts are bound to
/// `operators` (the kernel's own set unless given).
void CheckLanesAgainstScalar(const workloads::Kernel& kernel, int cases,
                             std::uint64_t seed,
                             const axc::OperatorSet& operators);
void CheckLanesAgainstScalar(const workloads::Kernel& kernel, int cases,
                             std::uint64_t seed);

}  // namespace axdse::testsupport
