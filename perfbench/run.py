"""Benchmark of the myga simulator, driven through ``myga.cli.execute``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep [--seed N]

Run from the repository root.  Every measurement runs in a fresh
single-threaded child process (``child.py``), one after another.  With
``--trace 0`` the last line of standard output is the end-to-end result;
with ``--trace 1`` it is the per-layer result of a traced run, timed
against an untraced run of the same length.  Metric names and units come
from ``BENCHMARK.json``; ``perfbench/README.md`` defines each metric.
``--sweep`` is not gated: it times the ``stochastic_gap`` horizon sweep
and prints the log-log slope of run time against T.
"""

import os

# Before numpy is imported here or in a child: one BLAS/OpenMP thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

SETUP_SAMPLES = 3       # at least this many set-up processes, the measuring one included,
SETUP_SECONDS = 2.0     # and more until this long is spent on the others
DEADLINE_S = 170.0
SWEEP_HORIZONS = (1000, 10_000, 30_000)

sys.path[:0] = [HERE, SRC]
from workloads import WORKLOADS, prepare, seed_list  # noqa: E402

ALL = frozenset(WORKLOADS)
SOLVER = frozenset({"gap_wide_grid", "minority_lattice"})
REPLAY = frozenset({"replay_csv_exp4"})

# Per-round self time (µs/round) of the named spans, and the workloads on
# which they must be hit.  Everywhere else they read 0.
PER_ROUND_US = {
    "environments.generate_us": (("environments.generate",), ALL),
    "simplex.validate_us": (("simplex.require_distribution",), SOLVER),
    "simplex.mix_sort_pivot_us": (("simplex.weighted_average", "simplex.sort_descending",
                                   "simplex.pivot_index"), ALL),
    "simplex.sample_us": (("simplex.sample_index",), ALL),
    "policy.weights_us": (("policy.weights",), SOLVER),
    "policy.advise_self_us": (("policy.advise",), SOLVER),
    "policy.update_us": (("policy.update",), SOLVER),
    "policy.sample_us": (("policy.sample",), SOLVER),
    "fixed_point.solve_us": (("fixed_point.solve",), SOLVER),
    "fixed_point.residual_us": (("fixed_point.residual",), SOLVER),
    "truncation.truncate_us": (("truncation.truncate",), SOLVER),
    "truncation.table_us": (("truncation.table",), SOLVER),
    "baselines.advise_us": (("baselines.advise",), REPLAY),
    "baselines.update_us": (("baselines.update",), REPLAY),
    "baselines.sample_us": (("baselines.sample",), REPLAY),
    "audit.observe_us": (("audit.observe",), ALL),
    "cli.loop_self_us": (("cli.execute",), ALL),
}
# Counts read from RoundTrace fields after each traced MygaPolicy.advise.
ROUND_COUNTS = {
    "policy.grid_size": "grid_size",
    "policy.minority_arms_mean": "minority_arms_mean",
    "fixed_point.iterations_per_round": "iterations_per_round",
    "fixed_point.work_ratio": "work_ratio",
    "fixed_point.residual_max": "residual_max",
}


class BenchError(Exception):
    """The bench could not measure; no result is printed."""


def _child(mode: str, job: dict, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, CHILD, mode], input=json.dumps(job),
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child still running after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _gate(runs: list[dict], seeds: tuple[int, ...]) -> tuple[int, int, list[str]]:
    """Seed runs attempted and failed, with the reasons for each failure.

    A seed run fails if its execute raised, it has an audit violation, a
    residual over 1e-9, bound_pass false, CSV that disagrees with the
    returned result, or a regret that differs from the same seed's regret
    in another run of this bench invocation, traced or not.
    """
    attempted = failed = 0
    problems = []
    first_regret: dict[str, float] = {}
    for index, run in enumerate(runs):
        attempted += len(seeds)
        if run["error"] is not None:
            failed += len(seeds)
            problems.append(f"run {index}: {run['error']}")
            continue
        for seed in map(str, seeds):
            entry = run["seeds"].get(seed)
            if entry is None:
                failed += 1
                problems.append(f"run {index} seed {seed}: no result")
                continue
            reasons = list(entry["problems"])
            regret = first_regret.setdefault(seed, entry["regret"])
            if entry["regret"] != regret:
                reasons.append(f"R_T {entry['regret']!r} differs from {regret!r} in an earlier run")
            if reasons:
                failed += 1
                problems.extend(f"run {index} seed {seed}: {r}" for r in reasons)
    return attempted, failed, problems


def _seed_mean(runs: list[dict], key: str) -> float | None:
    """Mean over seeds of the first call that returned; None if none did."""
    for run in runs:
        if run["error"] is None and run["seeds"]:
            values = [entry[key] for entry in run["seeds"].values()]
            return sum(values) / len(values)
    return None


def _rounds(config: dict) -> int:
    return config["horizon"] * len(config["seeds"])


def end_to_end(config: dict, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    job = {"src": SRC, "config": config, "seconds": seconds}
    measured = _child("measure", job, deadline)
    setups = [measured["setup_s"]]
    begin = time.monotonic()
    while len(setups) < SETUP_SAMPLES or time.monotonic() - begin < SETUP_SECONDS:
        setups.append(_child("setup", job, deadline)["setup_s"])
    runs = measured["runs"]
    setup_s = statistics.median(setups)
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    for run in runs:
        print(f"execute: {run['exec_s']:.4f} s (loop {run['loop_s']:.4f} s, "
              f"output {run['output_s']:.4f} s)")
    ok = [r["exec_s"] for r in runs if r["error"] is None]
    # Not in BENCHMARK.json: whole calls follow the machine's speed, which
    # drifts by up to 30% within minutes, so ten runs spread past any bound.
    print(f"wall_s = {_format(setup_s + min(ok) if ok else None)} s "
          f"(setup_s plus the fastest of {len(ok)} whole execute calls)")
    round_s = measured["round_s"]
    values = {
        "rounds_per_s": (None if round_s is None else 1.0 / round_s,
                         measured["round_s_missing"]),
        "setup_s": (setup_s, None),
        "peak_rss_mb": (measured["peak_rss_mb"], None),
        "play_loss_mean": (_seed_mean(runs, "play_loss"), None),
    }
    return values, runs


def _per_layer(workload: str, config: dict, traced: dict, untraced: dict) -> dict:
    """Per-layer values; None with a reason where a span or field is missing."""
    ok_runs = [r for r in traced["runs"] if r["error"] is None]
    rounds = _rounds(config) * max(1, len(ok_runs))
    calls, own, total = traced["calls"], traced["self"], traced["total"]
    missing = traced["missing"]
    values: dict[str, tuple] = {}

    def spans_value(spans, expected, compute, hit=calls):
        gone = [missing[s] for s in spans if s in missing]
        if gone:
            return None, f"{', '.join(gone)} not found"
        if workload in expected and not any(hit[s] for s in spans):
            return None, f"{', '.join(spans)} never called"
        return compute(), None

    for name, (spans, expected) in PER_ROUND_US.items():
        values[name] = spans_value(spans, expected,
                                   lambda s=spans: sum(own[x] for x in s) / rounds * 1e6)
    # The replay is parsed during set-up, before the timed runs.
    values["environments.replay_load_s"] = spans_value(
        ("environments.load_replay",), REPLAY,
        lambda: traced["setup_total"]["environments.load_replay"],
        hit=traced["setup_calls"])
    values["simplex.validate_calls_per_round"] = spans_value(
        ("simplex.require_distribution",), SOLVER,
        lambda: calls["simplex.require_distribution"] / rounds)
    values["audit.finalize_us"] = spans_value(
        ("audit.finalize",), ALL,
        lambda: own["audit.finalize"] / max(1, calls["audit.finalize"]) * 1e6)
    values["cli.emit_csv_s"] = spans_value(
        ("cli.emit_csv",), REPLAY,
        lambda: total["cli.emit_csv"] / max(1, calls["cli.emit_csv"]))
    values["cli.csv_bytes"] = (ok_runs[-1]["csv_bytes"] if ok_runs else 0, None)
    values["audit.violations"] = (sum(e["violations"] for r in ok_runs
                                      for e in r["seeds"].values()), None)

    counts = traced["counts"]
    for name, key in ROUND_COUNTS.items():
        if "policy.advise" in missing:
            values[name] = (None, f"{missing['policy.advise']} not found")
        elif workload in SOLVER and not counts["rounds"]:
            values[name] = (None, "policy.advise never called")
        elif counts["rounds"] and key not in counts:
            values[name] = (None, f"{', '.join(traced['missing_fields'])} not found")
        else:
            values[name] = (counts.get(key, 0.0), None)

    if traced["round_s"] is None or untraced["round_s"] is None:
        values["trace_overhead_frac"] = (None, traced["round_s_missing"]
                                         or untraced["round_s_missing"])
    else:
        values["trace_overhead_frac"] = (traced["round_s"] / untraced["round_s"] - 1.0, None)
    return values


def layer_run(workload: str, config: dict, seconds: float, seed: int,
              deadline: float) -> tuple[dict, list[dict]]:
    job = {"src": SRC, "config": config, "seconds": seconds / 2}
    untraced = _child("measure", job, deadline)
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{workload}_seed{seed}_spans.npz")
    traced = _child("trace", dict(job, spans_path=spans_path), deadline)
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return _per_layer(workload, config, traced, untraced), untraced["runs"] + traced["runs"]


def _machine() -> str:
    import numpy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} machine={platform.machine()}")


def _format(value) -> str:
    return "MISSING" if value is None else f"{value:.6g}"


def bench(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} seeds={seed_list(args.workload, args.seed)}")
    print(f"machine: {_machine()}")
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        config = prepare(args.workload, args.seed, workdir)
        if args.trace:
            raw, runs = layer_run(args.workload, config, args.seconds, args.seed, deadline)
        else:
            raw, runs = end_to_end(config, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = _gate(runs, config["seeds"])
    regret_mean = _seed_mean(runs, "regret")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"regret_mean = {regret_mean!r} (mean R_T over seeds {config['seeds']})")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} seed runs)")

    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        if name not in raw:
            raise BenchError(f"BENCHMARK.json lists {name!r}, which the bench does not compute")
        value, why = raw[name]
        metrics[name] = {"value": value, "unit": unit}
        if why is not None:
            metrics[name]["missing"] = why
        print(f"{name} = {_format(value)} {unit}" + (f"  ({why})" if why else ""))
    extra = set(raw) - set(metrics)
    if extra:
        raise BenchError(f"computed metrics missing from BENCHMARK.json: {sorted(extra)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def sweep(seed: int) -> int:
    """Time whole runs over T; per-round cost growing with T shows as slope 2."""
    from myga import build_threshold_grid, schedule_parameters
    print(f"machine: {_machine()}")
    rows = []
    for horizon in SWEEP_HORIZONS:
        config = dict(policy="myga", env="stochastic_gap", num_arms=2, num_experts=4,
                      horizon=horizon, l_star=float(horizon), seeds=[seed])
        _, gamma = schedule_parameters(2, 4, horizon, float(horizon))
        grid = build_threshold_grid(gamma, 2 * horizon).size
        job = {"src": SRC, "config": config, "seconds": 0}
        run = _child("measure", job, time.monotonic() + 3600)["runs"][0]
        if run["error"] is not None:
            raise BenchError(f"T={horizon}: {run['error']}")
        rows.append({"horizon": horizon, "grid": grid, "run_s": run["loop_s"],
                     "us_per_round": run["loop_s"] / horizon * 1e6})
        print(f"T={horizon} grid={grid} run_s={run['loop_s']:.3f} "
              f"us_per_round={rows[-1]['us_per_round']:.1f}")
    xs = [math.log(r["horizon"]) for r in rows]
    ys = [math.log(r["run_s"]) for r in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    print(f"log-log slope of run time against T: {slope:.3f}")
    print(json.dumps({"sweep": rows, "slope": slope}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "myga", "cli.py")):
        print(f"perfbench: no myga sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.sweep:
            return sweep(args.seed)
        if args.workload is None:
            parser.error("--workload is required unless --sweep is given")
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
