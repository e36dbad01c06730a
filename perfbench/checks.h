// Correctness checks for the benchmark's outputs.
//
// Every check is a pure function of the answer under test and an oracle
// computed apart from the timed path; it returns one message per
// violation (empty = pass). The self-test plants wrong answers and
// asserts each check rejects them.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hec/config/cluster_config.h"
#include "hec/config/evaluate.h"
#include "hec/config/robust_evaluate.h"
#include "hec/hw/node_spec.h"
#include "hec/pareto/frontier.h"

namespace perfbench {

using Errors = std::vector<std::string>;
using Frontier = std::vector<hec::TimeEnergyPoint>;

/// One CLI answer as printed: the query plus the recommended
/// configuration's table row per side (nodes = 0 when a side is unused)
/// and the printed service time and energy.
struct QueryAnswer {
  std::string workload;
  double deadline_ms = 0.0;
  std::optional<double> budget_w;
  int arm_nodes = 0, arm_cores = 1;
  double arm_ghz = 0.0, arm_share = 0.0;
  int amd_nodes = 0, amd_cores = 1;
  double amd_ghz = 0.0, amd_share = 0.0;
  double printed_t_ms = 0.0;
  double printed_energy_j = 0.0;
};

/// Oracle for one paper workload's queries: its models, job size and
/// the minimum-energy curves of the naive reference paths, unbudgeted
/// (sweep_frontier_reference) and under the power budget (the
/// budget-filtered enumerate + evaluate loop).
struct QueryOracle {
  const hec::NodeSpec* arm = nullptr;
  const hec::NodeSpec* amd = nullptr;
  const hec::ConfigEvaluator* evaluator = nullptr;
  double units = 0.0;
  const hec::EnergyDeadlineCurve* nominal = nullptr;
  const hec::EnergyDeadlineCurve* budgeted = nullptr;
  double budget_w = 0.0;
};

/// Maps the printed row back to a configuration: the clock is matched
/// to the node's P-state grid, whose steps are unique at one decimal.
std::optional<hec::ClusterConfig> parse_config(const QueryAnswer& answer,
                                               const hec::NodeSpec& arm,
                                               const hec::NodeSpec& amd,
                                               Errors& errors);

/// Re-evaluates the answer and checks deadline, budget, printed figures,
/// work shares and minimality (within kParetoRelEps of the oracle, so
/// any member of the eps tie set passes). Returns the re-evaluated
/// energy through `energy_j` when the configuration parses.
Errors check_query(const QueryOracle& oracle, const QueryAnswer& answer,
                   double* energy_j = nullptr);

/// Minimum energy never rises as the deadline grows: `points` are
/// (deadline, energy) pairs of one workload under one budget setting.
Errors check_monotone(std::vector<std::pair<double, double>> points);

/// Time strictly ascends and energy strictly descends.
Errors check_frontier_order(const Frontier& frontier);

/// Every tag, re-evaluated by `eval`, reproduces its (time, energy)
/// bit for bit.
Errors check_frontier_tags(
    const Frontier& frontier,
    const std::function<std::pair<double, double>(std::size_t)>& eval);

/// No sampled (time, energy) point dominates a frontier point beyond
/// the frontier's eps rule.
Errors check_not_dominated(const Frontier& frontier,
                           const std::vector<hec::TimeEnergyPoint>& sample);

/// Bit-identical frontiers (times, energies, tags, order).
Errors check_identical(const Frontier& got, const Frontier& want,
                       const std::string& what);

/// Every frontier point's robust re-evaluation meets the miss-probability
/// budget and reproduces the point's expected time and energy.
Errors check_robust_points(
    const Frontier& frontier, double max_miss_prob,
    const std::function<hec::RobustOutcome(std::size_t)>& eval);

/// A zero-rate fault model reproduces the nominal outcome: no crashes,
/// no waste, the deadline verdict of the nominal time, and time and
/// energy within kZeroRateRelTol. RobustConfigEvaluator documents the
/// zero-rate trial as exact, but its simulation path sums in another
/// order and lands a few ulp away; the tolerance is the one the
/// library's own RobustEvaluate tests use, and zero_rate_rel_err
/// reports the distance so the traced run shows it.
inline constexpr double kZeroRateRelTol = 1e-12;
Errors check_zero_rate(const hec::RobustOutcome& robust,
                       const hec::ConfigOutcome& nominal,
                       double deadline_s);
double zero_rate_rel_err(const hec::RobustOutcome& robust,
                         const hec::ConfigOutcome& nominal);

}  // namespace perfbench
