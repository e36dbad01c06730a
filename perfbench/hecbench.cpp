// hecbench — the in-process half of the benchmark.
//
//   hecbench plan
//       Per paper workload: the fastest configuration's time, the end of
//       the sweet region and the fastest time under the 1 kW budget on
//       the 53x53 space (the ranges the query stream draws deadlines
//       from).
//   hecbench check-queries FILE
//       Checks CLI answers (one per line, see read_answers) against the
//       naive oracle paths.
//   hecbench layers-query FILE TRACE_OUT
//       Traced replay of the CLI's layers for the queries in FILE.
//   hecbench layers-shard WORKLOAD SHARDS WORKER_BIN STATE_DIR
//                                 TRACE_OUT
//       Traced sharded sweeps over both transports (forked pipe workers,
//       and WORKER_BIN processes dialing in over loopback TCP) plus the
//       journal's per-commit cost.
//   hecbench frontier|robust SEED SECONDS TRACE RUN_DIR
//       The in-process workloads, timed for SECONDS.
//   hecbench selftest
//       Plants wrong answers and asserts every check rejects them.
//
// Every subcommand prints one JSON object as its last stdout line.
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "hec/bench/json.h"
#include "hec/config/budget.h"
#include "hec/config/deployment_table.h"
#include "hec/config/enumerate.h"
#include "hec/config/evaluate.h"
#include "hec/config/multi_space.h"
#include "hec/config/robust_evaluate.h"
#include "hec/hw/catalog.h"
#include "hec/model/characterize.h"
#include "hec/parallel/thread_pool.h"
#include "hec/pareto/frontier.h"
#include "hec/pareto/streaming.h"
#include "hec/pareto/sweet_region.h"
#include "hec/resilience/resumable.h"
#include "hec/shard/shard.h"
#include "hec/shard/transport.h"
#include "hec/sweep/bounds.h"
#include "hec/sweep/kernel.h"
#include "hec/sweep/sweep.h"
#include "hec/util/env.h"
#include "hec/workloads/workload.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

namespace json = hec::bench::json;
namespace fs = std::filesystem;

const std::int64_t g_start_ns = now_ns();
// Results of timed calls whose values are not otherwise used land here,
// so the optimiser cannot drop the calls.
volatile double g_sink = 0.0;

constexpr hec::EnumerationLimits kLimits{53, 53};
constexpr double kBudgetW = 1000.0;  // Figs. 6/7 power budget

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The pct-th percentile by nearest rank.
double nearest_rank(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

constexpr double kTailPercentile = 90.0;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::size_t pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::string metric_suffix(const std::string& workload) {
  std::string s = workload;
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// One paper workload's characterised node-type models. Held by pointer
/// so evaluators can keep references across container growth.
struct Models {
  hec::Workload workload;
  hec::NodeSpec arm = hec::arm_cortex_a9();
  hec::NodeSpec amd = hec::amd_opteron_k10();
  std::unique_ptr<hec::NodeTypeModel> arm_model;
  std::unique_ptr<hec::NodeTypeModel> amd_model;
};

std::unique_ptr<hec::NodeTypeModel> characterize(const hec::NodeSpec& spec,
                                                 const hec::Workload& w,
                                                 Trace& trace) {
  Trace::Scope span(trace, "model.characterize");
  hec::WorkloadInputs inputs = [&] {
    Trace::Scope s(trace, "model.characterize_workload");
    return hec::characterize_workload(spec, w.demand_for(spec.isa));
  }();
  hec::PowerParams power = [&] {
    Trace::Scope s(trace, "model.characterize_power");
    return hec::characterize_power(spec);
  }();
  Trace::Scope s(trace, "model.build_node_model");
  return std::make_unique<hec::NodeTypeModel>(spec, std::move(inputs),
                                              std::move(power));
}

std::unique_ptr<Models> make_models(const hec::Workload& w, Trace& trace) {
  auto m = std::make_unique<Models>();
  m->workload = w;
  m->arm_model = characterize(m->arm, w, trace);
  m->amd_model = characterize(m->amd, w, trace);
  return m;
}

json::Value metric(double value, const char* unit) {
  json::Value v;
  v["value"] = value;
  v["unit"] = unit;
  return v;
}

void append_errors(Errors& all, const Errors& more) {
  all.insert(all.end(), more.begin(), more.end());
}

json::Value errors_json(const Errors& errors) {
  json::Value list = json::Value::Array{};
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    list.array().push_back(errors[i]);
  }
  return list;
}

void write_trace(const Trace& trace, const std::string& path) {
  if (!trace.enabled || path.empty()) return;
  std::ofstream out(path);
  trace.write_jsonl(out);
}

// ---------------------------------------------------------------- plan

std::vector<hec::TimeEnergyPoint> budget_points(const Models& m) {
  const hec::ConfigEvaluator evaluator(*m.arm_model, *m.amd_model);
  const double units = m.workload.analysis_units;
  std::vector<hec::TimeEnergyPoint> points;
  std::size_t i = 0;
  for (const auto& c : hec::enumerate_configs(m.arm, m.amd, kLimits)) {
    if (hec::config_peak_power_w(m.arm, m.amd, c) <= kBudgetW) {
      const auto o = evaluator.evaluate(c, units);
      points.push_back({o.t_s, o.energy_j, i});
    }
    ++i;
  }
  return points;
}

int cmd_plan() {
  Trace trace;
  json::Value out;
  json::Value list = json::Value::Array{};
  for (const hec::Workload& w : hec::all_workloads()) {
    const auto m = make_models(w, trace);
    const hec::SweepResult sweep = hec::sweep_frontier(
        *m->arm_model, *m->amd_model, kLimits, w.analysis_units);
    const hec::ConfigSpaceLayout layout(m->arm, m->amd, kLimits);
    const auto sweet = hec::find_sweet_region(
        sweep.frontier,
        [&](std::size_t tag) { return layout.config(tag).heterogeneous(); });
    const auto& f = sweep.frontier;
    const std::size_t sweet_end =
        sweet ? sweet->end : std::max<std::size_t>(1, f.size() / 4);
    const hec::EnergyDeadlineCurve budget_curve(
        hec::pareto_frontier(budget_points(*m)));
    json::Value row;
    row["name"] = w.name;
    row["t_fast_ms"] = f.front().t_s * 1e3;
    row["t_sweet_end_ms"] = f[sweet_end - 1].t_s * 1e3;
    row["sweet_points"] = static_cast<double>(sweet ? sweet->size() : 0);
    row["t_fast_budget_ms"] = budget_curve.min_time_s() * 1e3;
    list.array().push_back(row);
  }
  out["workloads"] = list;
  std::cout << out.dump(false) << "\n";
  return 0;
}

// ------------------------------------------------------- query checks

/// Answer file: one query per line,
///   workload deadline_ms budget_w|- arm_nodes arm_cores arm_ghz arm_share
///   amd_nodes amd_cores amd_ghz amd_share time_ms energy_j
std::vector<QueryAnswer> read_answers(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<QueryAnswer> answers;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    QueryAnswer a;
    std::string deadline, budget;
    row >> a.workload >> deadline >> budget >> a.arm_nodes >> a.arm_cores >>
        a.arm_ghz >> a.arm_share >> a.amd_nodes >> a.amd_cores >> a.amd_ghz >>
        a.amd_share >> a.printed_t_ms >> a.printed_energy_j;
    if (!row) throw std::runtime_error("malformed answer line: " + line);
    a.deadline_ms = std::strtod(deadline.c_str(), nullptr);
    if (budget != "-") a.budget_w = std::strtod(budget.c_str(), nullptr);
    answers.push_back(a);
  }
  return answers;
}

/// Oracle curves for one workload, built on the naive reference paths.
struct OracleData {
  std::unique_ptr<Models> models;
  std::unique_ptr<hec::ConfigEvaluator> evaluator;
  std::unique_ptr<hec::EnergyDeadlineCurve> nominal;
  std::unique_ptr<hec::EnergyDeadlineCurve> budgeted;
  QueryOracle oracle() const {
    return {&models->arm,
            &models->amd,
            evaluator.get(),
            models->workload.analysis_units,
            nominal.get(),
            budgeted.get(),
            kBudgetW};
  }
};

OracleData build_oracle(const hec::Workload& w, bool with_budget,
                        const hec::EnumerationLimits& limits) {
  Trace trace;
  OracleData d;
  d.models = make_models(w, trace);
  d.evaluator = std::make_unique<hec::ConfigEvaluator>(*d.models->arm_model,
                                                       *d.models->amd_model);
  d.nominal = std::make_unique<hec::EnergyDeadlineCurve>(
      hec::sweep_frontier_reference(*d.models->arm_model,
                                    *d.models->amd_model, limits,
                                    w.analysis_units)
          .frontier);
  if (with_budget) {
    d.budgeted = std::make_unique<hec::EnergyDeadlineCurve>(
        hec::pareto_frontier(budget_points(*d.models)));
  }
  return d;
}

int cmd_check_queries(const std::string& path) {
  const std::vector<QueryAnswer> answers = read_answers(path);
  std::map<std::string, OracleData> oracles;
  Errors errors;
  std::map<std::pair<std::string, bool>,
           std::vector<std::pair<double, double>>>
      by_group;
  for (const QueryAnswer& a : answers) {
    auto it = oracles.find(a.workload);
    if (it == oracles.end()) {
      bool budget = false;
      for (const auto& b : answers) {
        budget = budget || (b.workload == a.workload && b.budget_w);
      }
      it = oracles
               .emplace(a.workload, build_oracle(hec::find_workload(a.workload),
                                                 budget, kLimits))
               .first;
    }
    double energy = 0.0;
    const Errors e = check_query(it->second.oracle(), a, &energy);
    append_errors(errors, e);
    if (e.empty()) {
      by_group[{a.workload, a.budget_w.has_value()}].push_back(
          {a.deadline_ms, energy});
    }
  }
  for (const auto& [group, points] : by_group) {
    for (const auto& e : check_monotone(points)) {
      errors.push_back(group.first + (group.second ? " (budgeted)" : "") +
                       ": " + e);
    }
  }
  json::Value out;
  out["ok"] = errors.empty();
  out["checked"] = static_cast<double>(answers.size());
  out["errors"] = errors_json(errors);
  std::cout << out.dump(false) << "\n";
  return 0;
}

// -------------------------------------------------- query layer replay

int cmd_layers_query(const std::string& path, const std::string& trace_out) {
  const std::vector<QueryAnswer> answers = read_answers(path);
  std::vector<std::string> names;
  for (const auto& a : answers) {
    if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
      names.push_back(a.workload);
    }
  }
  Trace trace;
  trace.enabled = true;
  std::size_t evaluated = 0;
  std::size_t selects = 0;
  constexpr int kSelectRepeats = 1000;
  for (const std::string& name : names) {
    trace.next_request();
    const hec::Workload w = hec::find_workload(name);
    const auto m = make_models(w, trace);
    const hec::ConfigEvaluator evaluator(*m->arm_model, *m->amd_model);
    // The CLI's default path: materialise, then evaluate every point.
    const std::vector<hec::ClusterConfig> configs = [&] {
      Trace::Scope s(trace, "config.enumerate");
      return hec::enumerate_configs(m->arm, m->amd, kLimits);
    }();
    double sink = 0.0;
    {
      Trace::Scope s(trace, "config.evaluate");
      for (const auto& c : configs) {
        sink += evaluator.evaluate(c, w.analysis_units).energy_j;
      }
    }
    evaluated += configs.size();
    const hec::EnergyDeadlineCurve curve(
        hec::sweep_frontier(*m->arm_model, *m->amd_model, kLimits,
                            w.analysis_units)
            .frontier);
    for (const auto& a : answers) {
      if (a.workload != name) continue;
      Trace::Scope s(trace, "pareto.select");
      for (int r = 0; r < kSelectRepeats; ++r) {
        const auto best = curve.best_for_deadline(
            (a.deadline_ms + 1e-9 * r) * 1e-3);
        sink += best ? best->energy_j : 0.0;
      }
      selects += kSelectRepeats;
    }
    g_sink = sink;
  }
  const double n = static_cast<double>(names.size());
  json::Value metrics;
  metrics["model.characterize_ms"] =
      metric(trace.total_ms("model.characterize") / n, "ms");
  metrics["config.enumerate_ms"] =
      metric(trace.total_ms("config.enumerate") / n, "ms");
  metrics["config.evaluate_ns_per_config"] =
      metric(trace.total_ms("config.evaluate") * 1e6 /
                 static_cast<double>(evaluated),
             "ns");
  metrics["pareto.select_us"] =
      metric(trace.total_ms("pareto.select") * 1e3 /
                 static_cast<double>(std::max<std::size_t>(selects, 1)),
             "us");
  write_trace(trace, trace_out);
  json::Value out;
  out["metrics"] = metrics;
  std::cout << out.dump(false) << "\n";
  return 0;
}

// -------------------------------------------------- shard layer replay

std::vector<pid_t> spawn_workers(const std::string& worker_bin,
                                 const std::string& workload,
                                 std::uint16_t port, std::size_t count,
                                 const std::string& state_prefix) {
  std::vector<pid_t> pids;
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<std::string> args = {
        worker_bin, workload, "--connect",
        "127.0.0.1:" + std::to_string(port), "--max-arm", "53", "--max-amd",
        "53", "--threads", "1", "--state-dir",
        state_prefix + std::to_string(k)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, worker_bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + worker_bin);
    pids.push_back(pid);
  }
  return pids;
}

bool reap(const std::vector<pid_t>& pids) {
  bool ok = true;
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  return ok;
}

int cmd_layers_shard(const std::string& workload, std::size_t shards,
                     const std::string& worker_bin,
                     const std::string& state_dir,
                     const std::string& trace_out) {
  Trace trace;
  trace.enabled = true;
  const auto m = make_models(hec::find_workload(workload), trace);
  const double units = m->workload.analysis_units;
  const hec::SweepResult serial =
      hec::sweep_frontier(*m->arm_model, *m->amd_model, kLimits, units);
  Errors errors;
  constexpr int kRepeats = 3;
  std::vector<double> pipe_ms, tcp_ms, commit_ms;
  std::array<double, 4> counts{};
  const auto count = [&](const hec::shard::ShardedSweepResult& r) {
    counts[0] += static_cast<double>(r.spawns);
    counts[1] += static_cast<double>(r.reassignments);
    counts[2] += static_cast<double>(r.steals);
    counts[3] += static_cast<double>(r.retries);
  };
  for (int r = 0; r < kRepeats; ++r) {
    trace.next_request();
    hec::shard::ShardedSweepOptions pipe;
    pipe.workers = shards;
    pipe.state_dir = state_dir + "/pipe" + std::to_string(r);
    std::int64_t t0 = now_ns();
    hec::shard::ShardedSweepResult res = [&] {
      Trace::Scope s(trace, "shard.sweep.pipe");
      return hec::shard::sharded_sweep_frontier(
          *m->arm_model, *m->amd_model, kLimits, units, pipe);
    }();
    pipe_ms.push_back(seconds_since(t0) * 1e3);
    count(res);
    append_errors(errors,
                  check_identical(res.frontier, serial.frontier, "pipe shards"));

    hec::shard::ShardedSweepOptions tcp = pipe;
    tcp.state_dir = state_dir + "/tcp" + std::to_string(r);
    hec::shard::Listener listener(
        hec::util::parse_endpoint("127.0.0.1:0", "listen", true));
    tcp.listener = &listener;
    t0 = now_ns();
    const auto pids = spawn_workers(worker_bin, workload, listener.port(),
                                    shards, tcp.state_dir + "-w");
    res = [&] {
      Trace::Scope s(trace, "shard.sweep.tcp");
      return hec::shard::sharded_sweep_frontier(
          *m->arm_model, *m->amd_model, kLimits, units, tcp);
    }();
    tcp_ms.push_back(seconds_since(t0) * 1e3);
    count(res);
    if (!reap(pids)) errors.push_back("a TCP worker exited with an error");
    append_errors(errors,
                  check_identical(res.frontier, serial.frontier, "tcp shards"));

    // Journal cost: the resumable engine with a commit at every epoch
    // against the same engine without a journal.
    const std::string journal = state_dir + "/journal" + std::to_string(r);
    fs::remove(journal);
    t0 = now_ns();
    const auto plain = [&] {
      Trace::Scope s(trace, "resilience.unjournaled");
      return hec::resilience::resumable_sweep_frontier(
          *m->arm_model, *m->amd_model, kLimits, units, {}, {});
    }();
    const double plain_ms = seconds_since(t0) * 1e3;
    hec::resilience::ResilienceOptions journaled;
    journaled.journal_path = journal;
    journaled.checkpoint_interval_s = 0.0;
    t0 = now_ns();
    const auto with_journal = [&] {
      Trace::Scope s(trace, "resilience.journaled");
      return hec::resilience::resumable_sweep_frontier(
          *m->arm_model, *m->amd_model, kLimits, units, {}, journaled);
    }();
    const double journal_ms = seconds_since(t0) * 1e3;
    commit_ms.push_back((journal_ms - plain_ms) /
                        static_cast<double>(
                            std::max<std::size_t>(with_journal.checkpoints, 1)));
    append_errors(errors, check_identical(plain.frontier, serial.frontier,
                                          "resumable sweep"));
    append_errors(errors, check_identical(with_journal.frontier,
                                          serial.frontier, "journaled sweep"));
  }
  json::Value metrics;
  metrics["shard.sweep_ms"] = metric(median(pipe_ms), "ms");
  metrics["shard.sweep_ms.tcp"] = metric(median(tcp_ms), "ms");
  metrics["shard.transport_overhead_ms"] =
      metric(median(tcp_ms) - median(pipe_ms), "ms");
  metrics["resilience.checkpoint_ms_per_commit"] =
      metric(median(commit_ms), "ms");
  // Retried or wasted work, per sweep over both transports: a healthy
  // run holds spawns at the shard count and the rest at zero.
  const double sweeps = 2.0 * kRepeats;
  metrics["shard.spawns"] = metric(counts[0] / sweeps, "count");
  metrics["shard.reassignments"] = metric(counts[1] / sweeps, "count");
  metrics["shard.steals"] = metric(counts[2] / sweeps, "count");
  metrics["shard.retries"] = metric(counts[3] / sweeps, "count");
  write_trace(trace, trace_out);
  json::Value out;
  out["ok"] = errors.empty();
  out["errors"] = errors_json(errors);
  out["metrics"] = metrics;
  std::cout << out.dump(false) << "\n";
  return 0;
}

// ------------------------------------------------------------ frontier

struct SweepTiming {
  double pool_s = 0.0, single_s = 0.0;
  std::size_t pool_configs = 0, single_configs = 0;
};

int cmd_frontier(std::uint64_t seed, double seconds, bool traced,
                 const std::string& run_dir) {
  Trace trace;
  trace.enabled = traced;
  std::vector<std::unique_ptr<Models>> models;
  for (const hec::Workload& w : hec::all_workloads()) {
    trace.next_request();
    models.push_back(make_models(w, trace));
  }
  // Three-tier space of the ext_three_tier experiment (EP on A9, A15
  // and K10), widened to about a million configurations.
  const hec::Workload ep = hec::workload_ep();
  const std::vector<hec::NodeSpec> tier_specs = {
      hec::arm_cortex_a9(), hec::arm_cortex_a15(), hec::amd_opteron_k10()};
  std::vector<std::unique_ptr<hec::NodeTypeModel>> tier_models;
  for (const auto& spec : tier_specs) {
    tier_models.push_back(characterize(spec, ep, trace));
  }
  const std::vector<const hec::NodeTypeModel*> tiers = {
      tier_models[0].get(), tier_models[1].get(), tier_models[2].get()};
  const std::vector<int> tier_limits = {6, 6, 6};
  const hec::MemoizedMultiEvaluator tier_decoder(tiers, tier_limits);
  const hec::MultiEvaluator tier_evaluator(tiers);
  hec::ThreadPool pool(pool_threads());
  const double setup_s = seconds_since(g_start_ns);

  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(models.size());
  std::iota(order.begin(), order.end(), 0);
  Errors errors;
  std::vector<double> pool_rate, single_rate, round_rate, op_ms,
      round_traced_s, round_untraced_s;
  std::map<std::string, hec::SweepStats> stats_pool, stats_single;
  std::map<std::string, std::size_t> frontier_points;
  std::size_t attempted = 0;
  std::size_t rounds = 0;
  const std::int64_t loop_start = now_ns();
  while (rounds < 3 || seconds_since(loop_start) < seconds) {
    // In a traced run every other round records spans, so the traced and
    // untraced rounds of one process give the tracing overhead.
    const bool span_round = traced && rounds % 2 == 1;
    trace.enabled = span_round;
    std::shuffle(order.begin(), order.end(), rng);
    SweepTiming round;
    for (std::size_t i : order) {
      const Models& m = *models[i];
      const double units = m.workload.analysis_units;
      hec::SweepOptions popts;
      popts.pool = &pool;
      hec::SweepOptions sopts;
      sopts.parallel = false;
      trace.next_request();
      std::int64_t t0 = now_ns();
      const hec::SweepResult rp = [&] {
        Trace::Scope s(trace, "sweep.sweep_frontier");
        return hec::sweep_frontier(*m.arm_model, *m.amd_model, kLimits,
                                   units, popts);
      }();
      op_ms.push_back(seconds_since(t0) * 1e3);
      round.pool_s += op_ms.back() * 1e-3;
      t0 = now_ns();
      const hec::SweepResult rs = [&] {
        Trace::Scope s(trace, "sweep.sweep_frontier_1t");
        return hec::sweep_frontier(*m.arm_model, *m.amd_model, kLimits,
                                   units, sopts);
      }();
      op_ms.push_back(seconds_since(t0) * 1e3);
      round.single_s += op_ms.back() * 1e-3;
      round.pool_configs += rp.stats.configs;
      round.single_configs += rs.stats.configs;
      attempted += 2;
      // Checks, outside the timed calls.
      append_errors(errors, check_identical(rp.frontier, rs.frontier,
                                            m.workload.name + " 1t vs pool"));
      append_errors(errors, check_frontier_order(rp.frontier));
      if (rounds == 0) {
        const hec::ConfigSpaceLayout layout(m.arm, m.amd, kLimits);
        const hec::ConfigEvaluator evaluator(*m.arm_model, *m.amd_model);
        append_errors(errors,
                      check_frontier_tags(rp.frontier, [&](std::size_t tag) {
                        const auto o =
                            evaluator.evaluate(layout.config(tag), units);
                        return std::pair{o.t_s, o.energy_j};
                      }));
        stats_pool[m.workload.name] = rp.stats;
        stats_single[m.workload.name] = rs.stats;
        frontier_points[m.workload.name] = rp.frontier.size();
      }
    }
    {
      hec::SweepOptions popts;
      popts.pool = &pool;
      hec::SweepOptions sopts;
      sopts.parallel = false;
      trace.next_request();
      std::int64_t t0 = now_ns();
      const hec::SweepResult rp = [&] {
        Trace::Scope s(trace, "sweep.sweep_multi_frontier");
        return hec::sweep_multi_frontier(tiers, tier_limits,
                                         ep.analysis_units, popts);
      }();
      op_ms.push_back(seconds_since(t0) * 1e3);
      round.pool_s += op_ms.back() * 1e-3;
      t0 = now_ns();
      const hec::SweepResult rs = [&] {
        Trace::Scope s(trace, "sweep.sweep_multi_frontier_1t");
        return hec::sweep_multi_frontier(tiers, tier_limits,
                                         ep.analysis_units, sopts);
      }();
      op_ms.push_back(seconds_since(t0) * 1e3);
      round.single_s += op_ms.back() * 1e-3;
      round.pool_configs += rp.stats.configs;
      round.single_configs += rs.stats.configs;
      attempted += 2;
      append_errors(errors,
                    check_identical(rp.frontier, rs.frontier, "3-tier"));
      append_errors(errors, check_frontier_order(rp.frontier));
      if (rounds == 0) {
        append_errors(errors,
                      check_frontier_tags(rp.frontier, [&](std::size_t tag) {
                        const auto o = tier_evaluator.evaluate(
                            tier_decoder.config_at(tag), ep.analysis_units);
                        return std::pair{o.t_s, o.energy_j};
                      }));
        stats_pool["3tier"] = rp.stats;
        stats_single["3tier"] = rs.stats;
      }
    }
    pool_rate.push_back(static_cast<double>(round.pool_configs) /
                        round.pool_s);
    single_rate.push_back(static_cast<double>(round.single_configs) /
                          round.single_s);
    round_rate.push_back(
        static_cast<double>(round.pool_configs + round.single_configs) /
        (round.pool_s + round.single_s));
    (span_round ? round_traced_s : round_untraced_s)
        .push_back(round.pool_s + round.single_s);
    ++rounds;
  }
  const double rss_mb = peak_rss_mb();
  trace.enabled = traced;

  // Once per run: bit-identity with the naive reference, and a seeded
  // random sample of the space evaluated directly dominates no point.
  for (const auto& mp : models) {
    const Models& m = *mp;
    const double units = m.workload.analysis_units;
    hec::SweepOptions popts;
    popts.pool = &pool;
    const hec::SweepResult fast = hec::sweep_frontier(
        *m.arm_model, *m.amd_model, kLimits, units, popts);
    const hec::SweepResult ref = hec::sweep_frontier_reference(
        *m.arm_model, *m.amd_model, kLimits, units, popts);
    append_errors(errors, check_identical(fast.frontier, ref.frontier,
                                          m.workload.name + " vs reference"));
    const hec::ConfigSpaceLayout layout(m.arm, m.amd, kLimits);
    const hec::ConfigEvaluator evaluator(*m.arm_model, *m.amd_model);
    std::uniform_int_distribution<std::size_t> pick(0, layout.size() - 1);
    std::vector<hec::TimeEnergyPoint> sample;
    for (int k = 0; k < 20000; ++k) {
      const std::size_t idx = pick(rng);
      const auto o = evaluator.evaluate(layout.config(idx), units);
      sample.push_back({o.t_s, o.energy_j, idx});
    }
    append_errors(errors, check_not_dominated(fast.frontier, sample));
  }
  {
    hec::SweepOptions popts;
    popts.pool = &pool;
    const auto fast = hec::sweep_multi_frontier(tiers, tier_limits,
                                                ep.analysis_units, popts);
    const auto ref = hec::sweep_multi_frontier_reference(
        tiers, tier_limits, ep.analysis_units, popts);
    append_errors(errors,
                  check_identical(fast.frontier, ref.frontier,
                                  "3-tier vs reference"));
  }

  json::Value metrics;
  const double rate_pool = median(pool_rate);
  const double rate_single = median(single_rate);
  if (!traced) {
    metrics["setup_s"] = metric(setup_s, "s");
    metrics["op_ms"] = metric(median(op_ms), "ms");
    metrics["configs_per_s"] = metric(median(round_rate), "1/s");
    metrics["peak_rss_mb"] = metric(rss_mb, "MB");
  } else {
    // Per-layer pass: the engine's stages through their public
    // functions, on one thread, per paper workload.
    trace.enabled = true;
    std::size_t configs = 0, points = 0;
    for (const auto& mp : models) {
      const Models& m = *mp;
      const double units = m.workload.analysis_units;
      trace.next_request();
      const auto memo = [&] {
        Trace::Scope s(trace, "config.deployment_tables");
        return std::make_unique<hec::MemoizedConfigEvaluator>(
            *m.arm_model, *m.amd_model, kLimits);
      }();
      {
        Trace::Scope s(trace, "sweep.bound_table");
        const auto bounds =
            hec::BlockBoundTable::for_two_type(*memo, units, 32);
        if (bounds.chunks() == 0) errors.push_back("empty bound table");
      }
      const hec::TwoTypeSweepKernel kernel(*memo, units,
                                           {.prune = false, .simd = true});
      hec::ParetoAccumulator kernel_acc;
      {
        Trace::Scope s(trace, "sweep.kernel");
        kernel.consume(0, memo->size(), kernel_acc);
      }
      configs += memo->size();
      // The accumulator alone, fed the space's points in index order and
      // refreshed per engine block; four contiguous partials feed merge.
      std::vector<hec::TimeEnergyPoint> all(memo->size());
      for (std::size_t i = 0; i < all.size(); ++i) {
        const auto o = memo->evaluate_at(i, units);
        all[i] = {o.t_s, o.energy_j, i};
      }
      std::vector<std::vector<hec::TimeEnergyPoint>> partials;
      {
        Trace::Scope s(trace, "pareto.accumulate");
        const std::size_t part = (all.size() + 3) / 4;
        for (std::size_t first = 0; first < all.size(); first += part) {
          hec::ParetoAccumulator acc;
          const std::size_t last = std::min(all.size(), first + part);
          for (std::size_t i = first; i < last; ++i) {
            acc.add(all[i]);
            if ((i + 1) % 4096 == 0) acc.refresh();
          }
          partials.push_back(acc.take());
        }
      }
      points += all.size();
      std::vector<hec::TimeEnergyPoint> merged;
      {
        Trace::Scope s(trace, "pareto.merge");
        merged = hec::merge_frontiers(partials);
      }
      append_errors(errors,
                    check_identical(merged, kernel_acc.take(),
                                    m.workload.name + " merge vs kernel"));
    }
    {
      trace.next_request();
      const hec::MemoizedMultiEvaluator memo(tiers, tier_limits);
      Trace::Scope s(trace, "sweep.bound_table_multi");
      const auto bounds =
          hec::BlockBoundTable::for_multi(memo, ep.analysis_units, 32);
      if (bounds.chunks() == 0) errors.push_back("empty multi bound table");
    }
    const double n = static_cast<double>(models.size());
    metrics["model.characterize_ms"] =
        metric(trace.total_ms("model.characterize") /
                   static_cast<double>(trace.count("model.characterize")) * 2,
               "ms");
    metrics["config.deployment_tables_ms"] =
        metric(trace.total_ms("config.deployment_tables") / n, "ms");
    metrics["sweep.bound_table_ms"] =
        metric(trace.total_ms("sweep.bound_table") / n, "ms");
    metrics["sweep.bound_table_ms.3tier"] =
        metric(trace.total_ms("sweep.bound_table_multi"), "ms");
    metrics["sweep.kernel_ns_per_config"] =
        metric(trace.total_ms("sweep.kernel") * 1e6 /
                   static_cast<double>(configs),
               "ns");
    metrics["pareto.accumulate_ns_per_point"] =
        metric(trace.total_ms("pareto.accumulate") * 1e6 /
                   static_cast<double>(points),
               "ns");
    metrics["pareto.merge_ms"] =
        metric(trace.total_ms("pareto.merge") / n, "ms");
    double fp = 0.0;
    for (const auto& [name, count] : frontier_points) {
      fp += static_cast<double>(count);
    }
    metrics["pareto.frontier_points"] = metric(fp / n, "count");
    hec::SweepStats tot_pool, tot_single;
    for (const auto& [name, s] : stats_pool) {
      tot_pool.evaluated += s.evaluated;
      tot_pool.pruned += s.pruned;
      if (name == "3tier") continue;
      metrics["sweep.pruned_frac." + metric_suffix(name)] =
          metric(static_cast<double>(s.pruned) /
                     static_cast<double>(s.configs),
                 "ratio");
    }
    for (const auto& [name, s] : stats_single) {
      tot_single.evaluated += s.evaluated;
      tot_single.pruned += s.pruned;
      if (name == "3tier") continue;
      metrics["sweep.pruned_frac_1t." + metric_suffix(name)] =
          metric(static_cast<double>(s.pruned) /
                     static_cast<double>(s.configs),
                 "ratio");
    }
    const auto frac = [](const hec::SweepStats& s) {
      return static_cast<double>(s.pruned) /
             static_cast<double>(s.pruned + s.evaluated);
    };
    metrics["sweep.evaluated"] =
        metric(static_cast<double>(tot_pool.evaluated), "count");
    metrics["sweep.pruned"] =
        metric(static_cast<double>(tot_pool.pruned), "count");
    metrics["sweep.pruned_frac"] = metric(frac(tot_pool), "ratio");
    metrics["sweep.evaluated_1t"] =
        metric(static_cast<double>(tot_single.evaluated), "count");
    metrics["sweep.pruned_1t"] =
        metric(static_cast<double>(tot_single.pruned), "count");
    metrics["sweep.pruned_frac_1t"] = metric(frac(tot_single), "ratio");
    metrics["parallel.scaling_x"] = metric(rate_pool / rate_single, "x");
    metrics["sweep_configs_per_s"] = metric(rate_pool, "1/s");
    metrics["sweep_configs_per_s_1t"] = metric(rate_single, "1/s");
    metrics["op_tail_ms"] = metric(nearest_rank(op_ms, kTailPercentile), "ms");
    metrics["obs.trace_overhead_pct"] =
        metric(100.0 * (median(round_traced_s) / median(round_untraced_s) -
                        1.0),
               "%");
    write_trace(trace, run_dir + "/trace-frontier-" + std::to_string(seed) +
                           ".jsonl");
  }
  json::Value out;
  out["correct"] = errors.empty();
  out["attempted"] = static_cast<double>(attempted);
  out["failed"] = 0.0;
  out["errors"] = errors_json(errors);
  out["metrics"] = metrics;
  std::cout << out.dump(false) << "\n";
  return 0;
}

// -------------------------------------------------------------- robust

/// Fault regime of ext_faults, scaled to the workload: MTTF 25x and the
/// straggler window 1x a mid-frontier job time, 15% stragglers at 2x,
/// 10% thermal caps at 0.75f, checkpoints every fifth of that time.
hec::FaultConfig fault_regime(double t_ref) {
  hec::FaultConfig faults;
  faults.mttf_s = 25.0 * t_ref;
  faults.straggler_prob = 0.15;
  faults.straggler_slowdown = 2.0;
  faults.straggler_window_s = t_ref;
  faults.thermal_cap_prob = 0.10;
  faults.thermal_cap_factor = 0.75;
  faults.checkpoint_interval_s = t_ref / 5.0;
  faults.checkpoint_cost_s = 0.01 * t_ref;
  faults.restart_overhead_s = 0.02 * t_ref;
  return faults;
}

constexpr hec::EnumerationLimits kRobustLimits{4, 4};
constexpr double kMaxMissProb = 0.05;
constexpr int kRobustTrials = 16;

struct RobustCase {
  const Models* models = nullptr;
  std::unique_ptr<hec::RobustConfigEvaluator> evaluator;
  double deadline_s = 0.0;
  hec::SweepResult first;  // round 0's result; later rounds must match
};

int cmd_robust(std::uint64_t seed, double seconds, bool traced,
               const std::string& run_dir) {
  Trace trace;
  trace.enabled = traced;
  std::mt19937_64 rng(seed);
  std::vector<std::unique_ptr<Models>> models;
  std::vector<RobustCase> cases;
  for (const hec::Workload& w : hec::all_workloads()) {
    trace.next_request();
    models.push_back(make_models(w, trace));
    const Models& m = *models.back();
    const auto nominal = hec::sweep_frontier(
        *m.arm_model, *m.amd_model, kRobustLimits, w.analysis_units);
    const double t_ref = nominal.frontier[nominal.frontier.size() / 2].t_s;
    hec::MonteCarloOptions mc;
    mc.trials = kRobustTrials;
    mc.base_seed = rng();
    RobustCase c;
    c.models = &m;
    c.evaluator = std::make_unique<hec::RobustConfigEvaluator>(
        *m.arm_model, *m.amd_model, fault_regime(t_ref), mc);
    c.deadline_s = t_ref * std::uniform_real_distribution<>(2.0, 4.0)(rng);
    cases.push_back(std::move(c));
  }
  hec::ThreadPool pool(pool_threads());
  const double setup_s = seconds_since(g_start_ns);

  std::vector<std::size_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0);
  Errors errors;
  std::vector<double> rate, op_ms, round_traced_s, round_untraced_s;
  std::size_t attempted = 0, rounds = 0;
  const std::int64_t loop_start = now_ns();
  while (rounds < 3 || seconds_since(loop_start) < seconds) {
    const bool span_round = traced && rounds % 2 == 1;
    trace.enabled = span_round;
    std::shuffle(order.begin(), order.end(), rng);
    double round_s = 0.0;
    std::size_t round_configs = 0;
    for (std::size_t i : order) {
      RobustCase& c = cases[i];
      const double units = c.models->workload.analysis_units;
      hec::SweepOptions opts;
      opts.pool = &pool;
      opts.prune = false;
      trace.next_request();
      const std::int64_t t0 = now_ns();
      hec::SweepResult r = [&] {
        Trace::Scope s(trace, "sweep.sweep_robust_frontier");
        return hec::sweep_robust_frontier(*c.evaluator, kRobustLimits, units,
                                          c.deadline_s, kMaxMissProb, opts);
      }();
      op_ms.push_back(seconds_since(t0) * 1e3);
      round_s += op_ms.back() * 1e-3;
      round_configs += r.stats.configs;
      ++attempted;
      if (rounds == 0) {
        c.first = std::move(r);
      } else {
        append_errors(errors,
                      check_identical(r.frontier, c.first.frontier,
                                      c.models->workload.name +
                                          " robust round vs round 0"));
      }
    }
    rate.push_back(static_cast<double>(round_configs) / round_s);
    (span_round ? round_traced_s : round_untraced_s).push_back(round_s);
    ++rounds;
  }
  const double rss_mb = peak_rss_mb();
  trace.enabled = traced;

  // Once per run: the miss budget and bitwise re-evaluation of every
  // point, identity with the naive reference, and a zero-rate fault
  // model reproducing the nominal prediction on a seeded sample.
  std::size_t frontier_points = 0;
  double zero_rate_err = 0.0;
  for (RobustCase& c : cases) {
    const Models& m = *c.models;
    const double units = m.workload.analysis_units;
    const hec::ConfigSpaceLayout layout(m.arm, m.amd, kRobustLimits);
    frontier_points += c.first.frontier.size();
    if (c.first.frontier.empty()) {
      errors.push_back(m.workload.name + ": robust frontier is empty");
    }
    append_errors(errors, check_frontier_order(c.first.frontier));
    append_errors(errors, check_robust_points(
                              c.first.frontier, kMaxMissProb,
                              [&](std::size_t tag) {
                                return c.evaluator->evaluate(
                                    layout.config(tag), units, c.deadline_s);
                              }));
    hec::SweepOptions opts;
    opts.pool = &pool;
    opts.prune = false;
    const auto ref = hec::sweep_robust_frontier_reference(
        *c.evaluator, kRobustLimits, units, c.deadline_s, kMaxMissProb, opts);
    append_errors(errors, check_identical(c.first.frontier, ref.frontier,
                                          m.workload.name +
                                              " robust vs reference"));
    const hec::RobustConfigEvaluator zero(*m.arm_model, *m.amd_model,
                                          hec::FaultConfig{},
                                          c.evaluator->monte_carlo());
    const hec::ConfigEvaluator nominal(*m.arm_model, *m.amd_model);
    std::uniform_int_distribution<std::size_t> pick(0, layout.size() - 1);
    for (int k = 0; k < 32; ++k) {
      const hec::ClusterConfig config = layout.config(pick(rng));
      const auto zr = zero.evaluate(config, units, c.deadline_s);
      const auto nr = nominal.evaluate(config, units);
      append_errors(errors, check_zero_rate(zr, nr, c.deadline_s));
      zero_rate_err = std::max(zero_rate_err, zero_rate_rel_err(zr, nr));
    }
  }

  json::Value metrics;
  if (!traced) {
    metrics["setup_s"] = metric(setup_s, "s");
    metrics["op_ms"] = metric(median(op_ms), "ms");
    metrics["configs_per_s"] = metric(median(rate), "1/s");
    metrics["peak_rss_mb"] = metric(rss_mb, "MB");
  } else {
    trace.enabled = true;
    // One-thread robust sweeps (scaling) and the per-config Monte Carlo
    // evaluation on its own, over a seeded sample of each space.
    double single_s = 0.0;
    std::size_t single_configs = 0, sampled = 0;
    for (RobustCase& c : cases) {
      const Models& m = *c.models;
      const double units = m.workload.analysis_units;
      hec::SweepOptions opts;
      opts.parallel = false;
      opts.prune = false;
      trace.next_request();
      const std::int64_t t0 = now_ns();
      const auto r = [&] {
        Trace::Scope s(trace, "sweep.sweep_robust_frontier_1t");
        return hec::sweep_robust_frontier(*c.evaluator, kRobustLimits, units,
                                          c.deadline_s, kMaxMissProb, opts);
      }();
      single_s += seconds_since(t0);
      single_configs += r.stats.configs;
      append_errors(errors, check_identical(r.frontier, c.first.frontier,
                                            m.workload.name +
                                                " robust 1t vs pool"));
      const hec::ConfigSpaceLayout layout(m.arm, m.amd, kRobustLimits);
      std::uniform_int_distribution<std::size_t> pick(0, layout.size() - 1);
      double sink = 0.0;
      Trace::Scope s(trace, "config.robust_evaluate");
      for (int k = 0; k < 64; ++k) {
        sink += c.evaluator
                    ->evaluate(layout.config(pick(rng)), units, c.deadline_s,
                               /*parallel=*/false)
                    .mean_energy_j;
      }
      sampled += 64;
      g_sink = sink;
    }
    const double rate_single = static_cast<double>(single_configs) / single_s;
    metrics["model.characterize_ms"] =
        metric(trace.total_ms("model.characterize") /
                   static_cast<double>(trace.count("model.characterize")) * 2,
               "ms");
    metrics["config.robust_evaluate_us_per_config"] =
        metric(trace.total_ms("config.robust_evaluate") * 1e3 /
                   static_cast<double>(sampled),
               "us");
    metrics["robust_configs_per_s"] = metric(median(rate), "1/s");
    metrics["parallel.scaling_x.robust"] =
        metric(median(rate) / rate_single, "x");
    metrics["op_tail_ms"] = metric(nearest_rank(op_ms, kTailPercentile), "ms");
    metrics["fault.zero_rate_max_rel_err"] =
        metric(zero_rate_err, "ratio");
    metrics["pareto.frontier_points.robust"] = metric(
        static_cast<double>(frontier_points) /
            static_cast<double>(cases.size()),
        "count");
    metrics["obs.trace_overhead_pct"] =
        metric(100.0 * (median(round_traced_s) / median(round_untraced_s) -
                        1.0),
               "%");
    write_trace(trace, run_dir + "/trace-robust-" + std::to_string(seed) +
                           ".jsonl");
  }
  json::Value out;
  out["correct"] = errors.empty();
  out["attempted"] = static_cast<double>(attempted);
  out["failed"] = 0.0;
  out["errors"] = errors_json(errors);
  out["metrics"] = metrics;
  std::cout << out.dump(false) << "\n";
  return 0;
}

// ------------------------------------------------------------ selftest

int cmd_selftest() {
  int planted = 0, caught = 0;
  bool false_rejects = false;
  const auto expect_reject = [&](const char* what, const Errors& errors) {
    ++planted;
    if (!errors.empty()) {
      ++caught;
    } else {
      std::cerr << "selftest: planted " << what << " was NOT rejected\n";
    }
  };
  const auto expect_pass = [&](const char* what, const Errors& errors) {
    if (!errors.empty()) {
      std::cerr << "selftest: correct " << what << " rejected: "
                << errors.front() << "\n";
      false_rejects = true;
    }
  };

  // Query checks on a small space: the oracle's own answer passes; a
  // non-minimal configuration, a budget overrun, a deadline miss, wrong
  // work shares and a rising energy curve are each rejected.
  const hec::EnumerationLimits small{8, 8};
  const OracleData od =
      build_oracle(hec::workload_ep(), /*with_budget=*/true, small);
  QueryOracle oracle = od.oracle();
  const hec::ConfigSpaceLayout layout(od.models->arm, od.models->amd, small);
  const auto& frontier = od.nominal->points();
  const std::size_t mid = frontier.size() / 2;
  const double deadline_ms = frontier[mid].t_s * 1e3 * 1.0000001;
  const auto answer_for = [&](std::size_t tag, double d_ms,
                              std::optional<double> budget) {
    const hec::ClusterConfig c = layout.config(tag);
    const auto o = od.evaluator->evaluate(c, oracle.units);
    QueryAnswer a;
    a.workload = "EP";
    a.deadline_ms = d_ms;
    a.budget_w = budget;
    a.arm_nodes = c.arm.nodes;
    a.arm_cores = c.arm.cores;
    a.arm_ghz = std::round(c.arm.f_ghz * 10.0) / 10.0;
    a.arm_share = std::round(o.units_arm);
    a.amd_nodes = c.amd.nodes;
    a.amd_cores = c.amd.cores;
    a.amd_ghz = std::round(c.amd.f_ghz * 10.0) / 10.0;
    a.amd_share = std::round(o.units_amd);
    a.printed_t_ms = std::round(o.t_s * 1e4) / 10.0;
    a.printed_energy_j = std::round(o.energy_j * 100.0) / 100.0;
    return a;
  };
  const QueryAnswer good = answer_for(frontier[mid].tag, deadline_ms, {});
  expect_pass("query answer", check_query(oracle, good));
  expect_reject("non-minimal configuration",
                check_query(oracle,
                            answer_for(frontier[mid - 1].tag, deadline_ms, {})));
  QueryAnswer missed = good;
  missed.deadline_ms = frontier[mid].t_s * 1e3 * 0.999;
  expect_reject("deadline miss", check_query(oracle, missed));
  QueryAnswer over = good;
  over.budget_w = hec::config_peak_power_w(od.models->arm, od.models->amd,
                                           layout.config(frontier[mid].tag)) -
                  1.0;
  expect_reject("budget overrun", check_query(oracle, over));
  QueryAnswer shares = good;
  shares.arm_share += 1000.0;
  expect_reject("work shares", check_query(oracle, shares));
  QueryAnswer clock = good;
  clock.arm_ghz += 0.3;
  clock.amd_ghz += 0.3;
  expect_reject("printed configuration", check_query(oracle, clock));
  expect_reject("rising energy", check_monotone({{100.0, 5.0}, {200.0, 6.0}}));

  // Frontier checks on the same space.
  const auto eval_tag = [&](std::size_t tag) {
    const auto o = od.evaluator->evaluate(layout.config(tag), oracle.units);
    return std::pair{o.t_s, o.energy_j};
  };
  const Frontier& f = frontier;
  expect_pass("frontier order", check_frontier_order(f));
  expect_pass("frontier tags", check_frontier_tags(f, eval_tag));
  expect_pass("frontier sample", check_not_dominated(f, f));
  Frontier dominated = f;
  dominated[mid].energy_j *= 1.01;  // a point the true one dominates
  expect_reject("dominated frontier point",
                check_not_dominated(dominated, {f[mid]}));
  expect_reject("dominated frontier point (tags)",
                check_frontier_tags(dominated, eval_tag));
  Frontier swapped = f;
  std::swap(swapped[1], swapped[2]);
  expect_reject("unordered frontier", check_frontier_order(swapped));
  Frontier nudged = f;
  nudged[0].energy_j = std::nextafter(nudged[0].energy_j, 1e300);
  expect_reject("one-ulp frontier difference",
                check_identical(nudged, f, "nudged"));

  // Robust checks on a tiny space.
  const hec::EnumerationLimits tiny{2, 2};
  const Models& m = *od.models;
  const auto tiny_nominal =
      hec::sweep_frontier(*m.arm_model, *m.amd_model, tiny, oracle.units);
  const double t_ref =
      tiny_nominal.frontier[tiny_nominal.frontier.size() / 2].t_s;
  hec::MonteCarloOptions mc;
  mc.trials = 8;
  const hec::RobustConfigEvaluator robust(*m.arm_model, *m.amd_model,
                                          fault_regime(t_ref), mc);
  const double deadline_s = 3.0 * t_ref;
  const hec::ConfigSpaceLayout tiny_layout(m.arm, m.amd, tiny);
  const auto rf = hec::sweep_robust_frontier(robust, tiny, oracle.units,
                                             deadline_s, kMaxMissProb);
  const auto reval = [&](std::size_t tag) {
    return robust.evaluate(tiny_layout.config(tag), oracle.units,
                           deadline_s);
  };
  if (rf.frontier.empty()) {
    std::cerr << "selftest: the robust frontier of the test space is empty\n";
    return 1;
  }
  expect_pass("robust frontier",
              check_robust_points(rf.frontier, kMaxMissProb, reval));
  // Plant a configuration that misses the budget as a frontier point.
  Frontier risky = rf.frontier;
  for (std::size_t i = 0; i < tiny_layout.size(); ++i) {
    const auto r = reval(i);
    if (r.miss_prob > kMaxMissProb) {
      risky.push_back({r.mean_t_s, r.mean_energy_j, i});
      break;
    }
  }
  expect_reject("miss-budget overrun",
                check_robust_points(risky, kMaxMissProb, reval));
  Frontier rnudged = rf.frontier;
  rnudged.back().t_s = std::nextafter(rnudged.back().t_s, 1e300);
  expect_reject("robust vs reference",
                check_identical(rnudged, rf.frontier, "robust"));
  const hec::RobustConfigEvaluator zero(*m.arm_model, *m.amd_model,
                                        hec::FaultConfig{}, mc);
  const hec::ClusterConfig some = tiny_layout.config(0);
  const auto zr = zero.evaluate(some, oracle.units, deadline_s);
  auto nominal = od.evaluator->evaluate(some, oracle.units);
  expect_pass("zero-rate model", check_zero_rate(zr, nominal, deadline_s));
  nominal.energy_j *= 1.0 + 1e-9;
  expect_reject("zero-rate mismatch", check_zero_rate(zr, nominal, deadline_s));

  json::Value out;
  out["ok"] = !false_rejects && planted > 0 && caught == planted;
  out["planted"] = static_cast<double>(planted);
  out["rejected"] = static_cast<double>(caught);
  std::cout << out.dump(false) << "\n";
  return out["ok"].as_bool() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: hecbench plan | check-queries FILE | "
               "layers-query FILE TRACE_OUT | layers-shard WORKLOAD SHARDS "
               "WORKER_BIN STATE_DIR TRACE_OUT | frontier|robust SEED SECONDS "
               "TRACE RUN_DIR | "
               "selftest\n";
  return 64;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "plan" && argc == 2) return cmd_plan();
    if (cmd == "check-queries" && argc == 3) return cmd_check_queries(argv[2]);
    if (cmd == "layers-query" && argc == 4) {
      return cmd_layers_query(argv[2], argv[3]);
    }
    if (cmd == "layers-shard" && argc == 7) {
      return cmd_layers_shard(argv[2], std::stoul(argv[3]), argv[4], argv[5],
                              argv[6]);
    }
    if ((cmd == "frontier" || cmd == "robust") && argc == 6) {
      const std::uint64_t seed = std::stoull(argv[2]);
      const double seconds = std::stod(argv[3]);
      const bool traced = std::string(argv[4]) == "1";
      return cmd == "frontier" ? cmd_frontier(seed, seconds, traced, argv[5])
                               : cmd_robust(seed, seconds, traced, argv[5]);
    }
    if (cmd == "selftest" && argc == 2) return cmd_selftest();
  } catch (const std::exception& e) {
    std::cerr << "hecbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
