#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "hec/config/budget.h"

namespace perfbench {
namespace {

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::optional<hec::NodeConfig> parse_side(const char* side, int nodes,
                                          int cores, double ghz,
                                          const hec::NodeSpec& spec,
                                          Errors& errors) {
  if (nodes == 0) return hec::NodeConfig{0, 1, spec.pstates.min_ghz()};
  std::optional<double> match;
  for (double f : spec.pstates.frequencies_ghz()) {
    if (std::abs(f - ghz) < 0.05) {
      if (match) {
        errors.push_back(std::string(side) + " clock " + fmt(ghz) +
                         " GHz is ambiguous on the P-state grid");
        return std::nullopt;
      }
      match = f;
    }
  }
  if (!match) {
    errors.push_back(std::string(side) + " clock " + fmt(ghz) +
                     " GHz is not a P-state");
    return std::nullopt;
  }
  if (nodes < 0 || cores < 1 || cores > spec.cores) {
    errors.push_back(std::string(side) + " row has " +
                     std::to_string(nodes) + " nodes x " +
                     std::to_string(cores) + " cores");
    return std::nullopt;
  }
  return hec::NodeConfig{nodes, cores, *match};
}

bool rel_close(double a, double b, double eps) {
  return std::abs(a - b) <= eps * std::max(std::abs(a), std::abs(b));
}

}  // namespace

std::optional<hec::ClusterConfig> parse_config(const QueryAnswer& answer,
                                               const hec::NodeSpec& arm,
                                               const hec::NodeSpec& amd,
                                               Errors& errors) {
  const auto a = parse_side("ARM", answer.arm_nodes, answer.arm_cores,
                            answer.arm_ghz, arm, errors);
  const auto b = parse_side("AMD", answer.amd_nodes, answer.amd_cores,
                            answer.amd_ghz, amd, errors);
  if (!a || !b) return std::nullopt;
  if (a->nodes == 0 && b->nodes == 0) {
    errors.push_back("answer uses no nodes");
    return std::nullopt;
  }
  return hec::ClusterConfig{*a, *b};
}

Errors check_query(const QueryOracle& oracle, const QueryAnswer& answer,
                   double* energy_j) {
  Errors errors;
  const std::string what = answer.workload + " @ " +
                           fmt(answer.deadline_ms) + " ms" +
                           (answer.budget_w ? " (budgeted)" : "") + ": ";
  const auto config = parse_config(answer, *oracle.arm, *oracle.amd, errors);
  if (!config) {
    for (auto& e : errors) e = what + e;
    return errors;
  }
  const hec::ConfigOutcome outcome =
      oracle.evaluator->evaluate(*config, oracle.units);
  if (energy_j != nullptr) *energy_j = outcome.energy_j;
  const double deadline_s = answer.deadline_ms * 1e-3;
  if (!(outcome.t_s <= deadline_s)) {
    errors.push_back(what + "time " + fmt(outcome.t_s) +
                     " s misses the deadline");
  }
  if (answer.budget_w) {
    const double peak =
        hec::config_peak_power_w(*oracle.arm, *oracle.amd, *config);
    if (!(peak <= *answer.budget_w)) {
      errors.push_back(what + "peak power " + fmt(peak) +
                       " W exceeds the budget");
    }
  }
  // The CLI prints time to 0.1 ms, energy to 0.01 J and shares to whole
  // units; the printed figures must be the re-evaluated ones, rounded.
  if (std::abs(answer.printed_t_ms - outcome.t_s * 1e3) > 0.05 + 1e-9) {
    errors.push_back(what + "printed time " + fmt(answer.printed_t_ms) +
                     " ms is not the configuration's " +
                     fmt(outcome.t_s * 1e3));
  }
  if (std::abs(answer.printed_energy_j - outcome.energy_j) > 0.005 + 1e-9) {
    errors.push_back(what + "printed energy " +
                     fmt(answer.printed_energy_j) +
                     " J is not the configuration's " +
                     fmt(outcome.energy_j));
  }
  if (std::abs(answer.arm_share + answer.amd_share - oracle.units) > 1.0) {
    errors.push_back(what + "work shares sum to " +
                     fmt(answer.arm_share + answer.amd_share) + ", not " +
                     fmt(oracle.units));
  }
  if (!rel_close(outcome.units_arm + outcome.units_amd, oracle.units,
                 1e-9)) {
    errors.push_back(what + "matched split covers " +
                     fmt(outcome.units_arm + outcome.units_amd) + " units");
  }
  const hec::EnergyDeadlineCurve& curve =
      answer.budget_w ? *oracle.budgeted : *oracle.nominal;
  const double e_min = curve.min_energy_j(deadline_s);
  if (!std::isfinite(e_min)) {
    errors.push_back(what + "oracle finds no feasible configuration");
  } else if (!rel_close(outcome.energy_j, e_min, hec::kParetoRelEps)) {
    errors.push_back(what + "energy " + fmt(outcome.energy_j) +
                     " J is not the minimum " + fmt(e_min) + " J");
  }
  return errors;
}

Errors check_monotone(std::vector<std::pair<double, double>> points) {
  Errors errors;
  std::sort(points.begin(), points.end());
  for (std::size_t i = 1; i < points.size(); ++i) {
    const auto& [d0, e0] = points[i - 1];
    const auto& [d1, e1] = points[i];
    if (e1 > e0 * (1.0 + hec::kParetoRelEps)) {
      errors.push_back("minimum energy rises from " + fmt(e0) + " J at " +
                       fmt(d0) + " ms to " + fmt(e1) + " J at " + fmt(d1) +
                       " ms");
    }
  }
  return errors;
}

Errors check_frontier_order(const Frontier& frontier) {
  Errors errors;
  if (frontier.empty()) errors.push_back("frontier is empty");
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    if (!(frontier[i].t_s > frontier[i - 1].t_s)) {
      errors.push_back("time does not ascend at frontier point " +
                       std::to_string(i));
    }
    if (!(frontier[i].energy_j < frontier[i - 1].energy_j)) {
      errors.push_back("energy does not descend at frontier point " +
                       std::to_string(i));
    }
  }
  return errors;
}

Errors check_frontier_tags(
    const Frontier& frontier,
    const std::function<std::pair<double, double>(std::size_t)>& eval) {
  Errors errors;
  for (const auto& p : frontier) {
    const auto [t, e] = eval(p.tag);
    if (t != p.t_s || e != p.energy_j) {
      errors.push_back("tag " + std::to_string(p.tag) + " re-evaluates to (" +
                       fmt(t) + ", " + fmt(e) + "), frontier says (" +
                       fmt(p.t_s) + ", " + fmt(p.energy_j) + ")");
    }
  }
  return errors;
}

Errors check_not_dominated(const Frontier& frontier,
                           const std::vector<hec::TimeEnergyPoint>& sample) {
  Errors errors;
  constexpr double eps = hec::kParetoRelEps;
  for (const auto& q : sample) {
    // Along the frontier energy falls as time grows, so among the points
    // no faster than q the first has the most energy: q dominates some
    // frontier point iff it dominates that one.
    const auto it = std::lower_bound(
        frontier.begin(), frontier.end(), q.t_s,
        [](const hec::TimeEnergyPoint& p, double t) { return p.t_s < t; });
    if (it == frontier.end()) continue;
    const bool dominates =
        (q.t_s <= it->t_s && q.energy_j < it->energy_j * (1.0 - eps)) ||
        (q.t_s < it->t_s * (1.0 - eps) && q.energy_j <= it->energy_j);
    if (dominates) {
      errors.push_back("configuration " + std::to_string(q.tag) + " (" +
                       fmt(q.t_s) + " s, " + fmt(q.energy_j) +
                       " J) dominates frontier point " +
                       std::to_string(it->tag));
    }
  }
  return errors;
}

Errors check_identical(const Frontier& got, const Frontier& want,
                       const std::string& what) {
  if (got == want) return {};
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  return {what + ": frontiers differ at point " + std::to_string(i) + " of " +
          std::to_string(got.size()) + " vs " + std::to_string(want.size())};
}

Errors check_robust_points(
    const Frontier& frontier, double max_miss_prob,
    const std::function<hec::RobustOutcome(std::size_t)>& eval) {
  Errors errors;
  for (const auto& p : frontier) {
    const hec::RobustOutcome r = eval(p.tag);
    if (!(r.miss_prob <= max_miss_prob)) {
      errors.push_back("robust tag " + std::to_string(p.tag) +
                       " misses with probability " + fmt(r.miss_prob));
    }
    if (r.mean_t_s != p.t_s || r.mean_energy_j != p.energy_j) {
      errors.push_back("robust tag " + std::to_string(p.tag) +
                       " re-evaluates to (" + fmt(r.mean_t_s) + ", " +
                       fmt(r.mean_energy_j) + ")");
    }
  }
  return errors;
}

Errors check_zero_rate(const hec::RobustOutcome& robust,
                       const hec::ConfigOutcome& nominal,
                       double deadline_s) {
  Errors errors;
  const double want_miss = nominal.t_s > deadline_s ? 1.0 : 0.0;
  if (!rel_close(robust.mean_t_s, nominal.t_s, kZeroRateRelTol) ||
      !rel_close(robust.mean_energy_j, nominal.energy_j, kZeroRateRelTol) ||
      robust.miss_prob != want_miss || robust.mean_crashes != 0.0 ||
      robust.mean_wasted_j != 0.0) {
    errors.push_back("zero-rate fault model gives (" + fmt(robust.mean_t_s) +
                     " s, " + fmt(robust.mean_energy_j) + " J, miss " +
                     fmt(robust.miss_prob) + "), nominal is (" +
                     fmt(nominal.t_s) + " s, " + fmt(nominal.energy_j) +
                     " J)");
  }
  return errors;
}

double zero_rate_rel_err(const hec::RobustOutcome& robust,
                         const hec::ConfigOutcome& nominal) {
  return std::max(std::abs(robust.mean_t_s - nominal.t_s) / nominal.t_s,
                  std::abs(robust.mean_energy_j - nominal.energy_j) /
                      nominal.energy_j);
}

}  // namespace perfbench
