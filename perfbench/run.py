#!/usr/bin/env python3
"""hecsim benchmark: one command, three workloads.

    python3 perfbench/run.py --workload query|frontier|robust \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the
libraries, hecsim_cli, hecsim_worker and hecbench into
.bench_build (or $CARGO_TARGET_DIR); later runs only check the build is
current. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json when --trace 0 and every
per-layer metric when --trace 1, on every workload. Progress and check
failures go to stderr.

    python3 perfbench/run.py --self-test
        plants wrong answers and asserts every correctness check rejects
        them (exit 0 when all are rejected).
    python3 perfbench/run.py --agreement --seed N
        prints, for the first round of seed N's query stream, the default
        and sharded answers side by side (the table in README.md).

See perfbench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import statistics
import sys
import time

PAPER_WORKLOADS = ["EP", "memcached", "x264", "blackscholes", "Julius",
                   "RSA-2048"]
SPACE_ARGS = ["--max-arm", "53", "--max-amd", "53"]
BUDGET_W = "1000"          # Figs. 6/7 power budget
MIN_ROUNDS = 9             # >= 108 samples, so p90 has >= 10 beyond it
TAIL_PERCENTILE = 90
SPACE_CONFIGS = 1013254    # configurations in the 53x53 space
FLOOR_SAMPLES = 20         # hecsim_cli --version runs for the floor

ROW_RE = re.compile(r"^(ARM|AMD)\b.*?\s(\d+)\s+(\d+)\s+([0-9.]+)\s+(\d+)\s*$")
TIME_RE = re.compile(r"^Service time\s*:\s*([0-9.]+) ms")
ENERGY_RE = re.compile(r"^Job energy\s*:\s*([0-9.]+) J")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


# ------------------------------------------------------------- build

def build(root):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))
            and os.path.isdir(os.path.join(root, "tools"))):
        fail("run from the root of a hecsim source checkout "
             "(CMakeLists.txt, src/ and tools/ not found)")
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "hecsim_cli", "hecsim_worker", "hecbench"])
    for argv in steps:
        rc, _, _ = spawn(argv, stdout_to=2)
        if rc != 0:
            fail("build step failed: " + " ".join(argv), 1)
    return {
        "cli": os.path.join(build_dir, "hecsim", "tools", "hecsim_cli"),
        "worker": os.path.join(build_dir, "hecsim", "tools",
                               "hecsim_worker"),
        "bench": os.path.join(build_dir, "hecbench"),
    }


# ------------------------------------------------------- processes

def spawn(argv, stdout_to=None, quiet=True):
    """Runs argv to completion. Returns (exit code, stdout text or None,
    rusage). stdout_to=None captures stdout; 2 forwards it to our stderr.
    quiet discards the child's stderr; otherwise it shares ours."""
    if stdout_to == 2:
        pid = os.posix_spawnp(argv[0], argv, os.environ,
                              file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
        _, status, usage = os.wait4(pid, 0)
        return os.waitstatus_to_exitcode(status), None, usage
    r, w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, w, 1)]
    if quiet:
        actions.append((os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0))
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    os.close(w)
    with os.fdopen(r, "r") as out:
        text = out.read()
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), text, usage


def bench_json(binary, *args):
    rc, out, _ = spawn([binary] + [str(a) for a in args], quiet=False)
    lines = (out or "").strip().splitlines()
    if not lines:
        fail("hecbench %s printed nothing (exit %d)" % (args[0], rc),
             1)
    return rc, json.loads(lines[-1])


# ---------------------------------------------------------- queries

def deadline_range(row, budgeted):
    """Deadlines run from the fastest configuration to the end of the
    sweet region; budgeted ones from the fastest configuration within the
    budget, to twice that where it lies beyond the sweet region."""
    lo, hi = row["t_fast_ms"], row["t_sweet_end_ms"]
    if budgeted:
        lo = max(lo, row["t_fast_budget_ms"])
        hi = max(hi, 2.0 * lo)
    return lo * 1.001, hi


def make_round(plan, rng):
    """One round: every paper workload once without a budget and once
    under the 1 kW budget, in seeded order, each with a seeded deadline.
    The seed does not pick which queries are budgeted: query cost differs
    up to 3x between workloads and budget settings, so a seeded subset
    moved the median between seeds by more than any bound could hold."""
    queries = [(w, b) for w in PAPER_WORKLOADS for b in (False, True)]
    rng.shuffle(queries)
    out = []
    for w, budget in queries:
        lo, hi = deadline_range(plan[w], budget)
        out.append({"workload": w, "deadline": "%.6g" % rng.uniform(lo, hi),
                    "budget": BUDGET_W if budget else None})
    return out


def parse_answer(text):
    """The recommended configuration as printed: per-side rows, service
    time and energy."""
    sides = {"ARM": (0, 1, 0.0, 0), "AMD": (0, 1, 0.0, 0)}
    t_ms = e_j = None
    for line in text.splitlines():
        m = ROW_RE.match(line)
        if m:
            sides[m.group(1)] = (int(m.group(2)), int(m.group(3)),
                                 float(m.group(4)), int(m.group(5)))
        m = TIME_RE.match(line)
        if m:
            t_ms = float(m.group(1))
        m = ENERGY_RE.match(line)
        if m:
            e_j = float(m.group(1))
    if t_ms is None or e_j is None or (sides["ARM"][0] == 0
                                       and sides["AMD"][0] == 0):
        return None
    return {"arm": sides["ARM"], "amd": sides["AMD"], "t_ms": t_ms,
            "e_j": e_j}


def answer_line(q, a):
    side = lambda s: "%d %d %s %d" % (s[0], s[1], s[2], s[3])
    return "%s %s %s %s %s %s %s\n" % (
        q["workload"], q["deadline"], q["budget"] or "-", side(a["arm"]),
        side(a["amd"]), a["t_ms"], a["e_j"])


def run_query(bins, q, sharded, state):
    """One CLI query as a client sees it: wall time from process start to
    exit, on the default path or (sharded) across forked pipe workers.
    Returns (wall ms, peak RSS KiB of the processes doing the work,
    answer or None)."""
    argv = [bins["cli"], q["workload"], q["deadline"]] + SPACE_ARGS
    if sharded:
        shards = max(1, min(4, os.cpu_count() or 1))
        argv += ["--shards", str(shards), "--journal", state]
    elif q["budget"]:
        argv += ["--budget", q["budget"]]
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, out_w, 1),
               (os.POSIX_SPAWN_DUP2, err_w, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    os.close(out_w)
    os.close(err_w)
    with os.fdopen(out_r, "r") as out:
        text = out.read()
    _, status, usage = os.wait4(pid, 0)
    wall_ms = (time.perf_counter() - t0) * 1e3
    with os.fdopen(err_r, "r") as err:
        err_text = err.read()
    if sharded:
        shutil.rmtree(state + ".shards", ignore_errors=True)
        if os.path.exists(state):
            os.remove(state)
    rc = os.waitstatus_to_exitcode(status)
    answer = parse_answer(text) if rc == 0 else None
    if answer is None:
        log("query %s failed (exit %d): %s" % (" ".join(argv[1:]), rc,
                                               err_text.strip()[-300:]))
    return wall_ms, usage.ru_maxrss, answer


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def load_plan(bins):
    _, plan_doc = bench_json(bins["bench"], "plan")
    return {row["name"]: row for row in plan_doc["workloads"]}


def check_answers(bins, answers, answers_path):
    with open(answers_path, "w") as f:
        f.writelines(answers)
    _, check = bench_json(bins["bench"], "check-queries", answers_path)
    for e in check["errors"]:
        log("check: " + e)
    return bool(check["ok"])


def cli_layers(args, bins, run_dir, plan, answers_path):
    """The CLI's layers, replayed in process on the queries in
    answers_path, the shard and resilience layers on the stream's first
    workload, and the CLI's process floor. Returns (ok, metrics)."""
    metrics = {}
    floor = []
    for _ in range(FLOOR_SAMPLES):
        t = time.perf_counter()
        spawn([bins["cli"], "--version"])
        floor.append((time.perf_counter() - t) * 1e3)
    metrics["cli.process_floor_ms"] = {
        "value": statistics.median(floor), "unit": "ms"}
    trace_base = os.path.join(os.path.dirname(run_dir),
                              "trace-%s-%d" % (args.workload, args.seed))
    _, layers = bench_json(bins["bench"], "layers-query", answers_path,
                           trace_base + "-layers.jsonl")
    metrics.update(layers["metrics"])
    state = os.path.join(run_dir, "layers")
    os.makedirs(state, exist_ok=True)
    _, shard_layers = bench_json(
        bins["bench"], "layers-shard",
        make_round(plan, random.Random(args.seed))[0]["workload"],
        max(1, min(4, os.cpu_count() or 1)), bins["worker"], state,
        trace_base + "-shard.jsonl")
    for e in shard_layers["errors"]:
        log("check: " + e)
    metrics.update(shard_layers["metrics"])
    return bool(shard_layers["ok"]), metrics


def query_workload(args, bins, run_dir):
    plan = load_plan(bins)
    rng = random.Random(args.seed)
    answers, spans = [], []
    walls, round_rates = [], []
    traced_walls, untraced_walls = {}, {}  # by (workload, budget)
    rss_kib, attempted, failed, n = 0, 0, 0, 0

    def one(q, record):
        nonlocal rss_kib, n
        n += 1
        start = time.perf_counter()
        wall, rss, ans = run_query(bins, q, False,
                                   os.path.join(run_dir, "q%d" % n))
        if record is not None:
            record.append(("cli.query", start, time.perf_counter(), n))
        rss_kib = max(rss_kib, rss)
        if ans is not None:
            answers.append(answer_line(q, ans))
        return wall, ans

    # Set-up: one untimed warm-up query per paper workload.
    t0 = time.perf_counter()
    for w in PAPER_WORKLOADS:
        lo, hi = deadline_range(plan[w], False)
        one({"workload": w, "deadline": "%.6g" % ((lo + hi) / 2),
             "budget": None}, None)
    setup_s = time.perf_counter() - t0

    loop_start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - loop_start < \
            args.seconds:
        # Traced runs record spans on every other round; the two halves
        # give the tracing overhead.
        span_round = args.trace and rounds % 2 == 1
        round_wall, round_ok = 0.0, 0
        for q in make_round(plan, rng):
            wall, ans = one(q, spans if span_round else None)
            attempted += 1
            if ans is None:
                failed += 1
                continue
            walls.append(wall)
            round_wall += wall
            round_ok += 1
            (traced_walls if span_round else untraced_walls).setdefault(
                (q["workload"], q["budget"]), []).append(wall)
        if round_ok:
            round_rates.append(round_ok * SPACE_CONFIGS
                               / (round_wall * 1e-3))
        rounds += 1

    ok = check_answers(bins, answers, os.path.join(run_dir, "answers.txt"))
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["op_ms"] = {"value": statistics.median(walls), "unit": "ms"}
        metrics["configs_per_s"] = {
            "value": statistics.median(round_rates), "unit": "1/s"}
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MB"}
        log("op_ms over %d queries" % len(walls))
    else:
        metrics["op_tail_ms"] = {
            "value": nearest_rank(walls, TAIL_PERCENTILE), "unit": "ms"}
        metrics["query_ms"] = {"value": statistics.median(walls),
                               "unit": "ms"}
        # Rounds differ in their queries, so compare like with like: the
        # median over query kinds of traced / untraced median wall time.
        ratios = [statistics.median(traced_walls[k])
                  / statistics.median(untraced_walls[k])
                  for k in traced_walls if k in untraced_walls]
        metrics["obs.trace_overhead_pct"] = {
            "value": 100.0 * (statistics.median(ratios) - 1.0), "unit": "%"}
        layers_ok, layers = cli_layers(args, bins, run_dir, plan,
                                       os.path.join(run_dir, "answers.txt"))
        ok = ok and layers_ok
        metrics.update(layers)
        trace_path = os.path.join(os.path.dirname(run_dir),
                                  "trace-query-%d.jsonl" % args.seed)
        with open(trace_path, "w") as f:
            for i, (name, s, e, req) in enumerate(spans):
                f.write(json.dumps({"id": i, "name": name,
                                    "start_ns": int(s * 1e9),
                                    "end_ns": int(e * 1e9), "parent": -1,
                                    "request": req}) + "\n")
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def query_probe(args, bins, run_dir):
    """The query layers for a traced run of another workload: one round of
    the seed's query stream through the CLI, checked, then replayed."""
    plan = load_plan(bins)
    answers, walls = [], []
    ok = True
    for i, q in enumerate(make_round(plan, random.Random(args.seed))):
        wall, _, ans = run_query(bins, q, False,
                                 os.path.join(run_dir, "p%d" % i))
        if ans is None:
            ok = False
            continue
        walls.append(wall)
        answers.append(answer_line(q, ans))
    answers_path = os.path.join(run_dir, "probe-answers.txt")
    ok = check_answers(bins, answers, answers_path) and ok
    layers_ok, metrics = cli_layers(args, bins, run_dir, plan, answers_path)
    metrics["query_ms"] = {"value": statistics.median(walls), "unit": "ms"}
    return ok and layers_ok, metrics


def in_process_workload(args, bins, run_dir, workload=None, seconds=None):
    workload = workload or args.workload
    seconds = args.seconds if seconds is None else seconds
    rc, doc = bench_json(bins["bench"], workload, args.seed, seconds,
                         1 if args.trace else 0, os.path.dirname(run_dir))
    if rc != 0:
        fail("hecbench %s exited %d" % (workload, rc), 1)
    for e in doc.get("errors", []):
        log("check: " + e)
    return {"correct": bool(doc["correct"]),
            "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": doc["metrics"]}


def add_layer_probes(args, bins, run_dir, result):
    """A traced run reports the whole layer table on every workload. The
    workload's own traced loop gives op_tail_ms, obs.trace_overhead_pct
    and the layers it drives; one short pass of each other workload's
    layer probe fills in the rest (the workload's own figures win where
    both give one). Probe operations are not counted in attempted."""
    metrics = result["metrics"]
    for other in WORKLOADS:
        if other == args.workload:
            continue
        if other == "query":
            ok, probe = query_probe(args, bins, run_dir)
        else:
            doc = in_process_workload(args, bins, run_dir, other, 0)
            ok, probe = doc["correct"], doc["metrics"]
        result["correct"] = result["correct"] and ok
        for name, value in probe.items():
            metrics.setdefault(name, value)


def check_manifest(root, result, trace):
    """Every metric of BENCHMARK.json's list for this mode, and no other."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    wanted = manifest["per_layer" if trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (
                 sorted(set(names) - set(got)), sorted(set(got) - set(names)),
                 sorted(k for k in names if k in got and got[k] != names[k])),
             1)


# --------------------------------------------------------- extras

def self_test(bins):
    canned = """Recommended configuration:
Side             Nodes  Cores  Clock [GHz]  Work share
ARM Cortex-A9       27      4          1.1    49999990
AMD Opteron K10      2      6          2.1          10

Service time : 94.7 ms
Job energy   : 7.42 J (for 50000000 work units)
"""
    parsed = parse_answer(canned)
    ok = parsed == {"arm": (27, 4, 1.1, 49999990), "amd": (2, 6, 2.1, 10),
                    "t_ms": 94.7, "e_j": 7.42}
    ok = ok and parse_answer("Service time : 1.0 ms\n") is None
    if not ok:
        log("self-test: CLI answer parser is wrong")
    rc, doc = bench_json(bins["bench"], "selftest")
    log("self-test: %d of %d planted wrong answers rejected"
        % (doc["rejected"], doc["planted"]))
    return 0 if ok and rc == 0 and doc["ok"] else 1


def agreement(args, bins, run_dir):
    """Default vs sharded (pipe) answer for each query of the first round
    of the seed's stream; budgeted queries have no sharded twin (the
    sharded path rejects --budget)."""
    plan = load_plan(bins)
    print("| # | workload | deadline ms | budget | default | sharded | agree |")
    print("|---|---|---|---|---|---|---|")
    describe = lambda a: " + ".join(
        "%s %d×%d@%.1f" % (side.upper(), a[side][0], a[side][1], a[side][2])
        for side in ("arm", "amd") if a[side][0] > 0)
    for i, q in enumerate(make_round(plan, random.Random(args.seed)), 1):
        _, _, default = run_query(bins, q, False,
                                  os.path.join(run_dir, "a%d" % i))
        if q["budget"]:
            print("| %d | %s | %s | %s W | %s | – | n/a |" % (
                i, q["workload"], q["deadline"], q["budget"],
                describe(default)))
            continue
        _, _, sharded = run_query(bins, q, True,
                                  os.path.join(run_dir, "s%d" % i))
        print("| %d | %s | %s | – | %s | %s | %s |" % (
            i, q["workload"], q["deadline"], describe(default),
            describe(sharded),
            "yes" if default["arm"] == sharded["arm"]
            and default["amd"] == sharded["amd"] else "no"))
    return 0


WORKLOADS = ["query", "frontier", "robust"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--agreement", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.self_test or args.agreement):
        p.error("--workload is required")

    root = os.getcwd()
    bins = build(root)
    base = os.path.join(root, ".bench_run")
    run_dir = os.path.join(base, "%s-%d-%d" % (args.workload or "extra",
                                               args.seed, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.self_test:
            return self_test(bins)
        if args.agreement:
            return agreement(args, bins, run_dir)
        if args.workload == "query":
            result = query_workload(args, bins, run_dir)
        else:
            result = in_process_workload(args, bins, run_dir)
        if args.trace:
            add_layer_probes(args, bins, run_dir, result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    check_manifest(root, result, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
