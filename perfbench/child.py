"""One measurement in a fresh single-threaded process.

Usage: ``python3 child.py MODE`` with a JSON job on standard input; the
last line of standard output is a JSON result.  Modes:

* ``setup``: time from process start, before numpy and myga are
  imported, to the end of the first round's ``generate`` call.  This is
  import, configuration, policy construction and, on a replay, the lazy
  parse.  The run is then abandoned.
* ``measure``: the same set-up, untimed, then whole ``execute`` calls
  until the job's seconds are spent.  Only round starts and CSV output
  are timed, with the tracer's spans.
* ``trace``: as ``measure``, with every layer boundary traced.
"""

import time

PROCESS_START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

RESIDUAL_TOL = 1e-9
STAMPED = frozenset({"environments.generate", "cli.emit_csv"})
PHASES = 4          # parts of the loop, each timed by its own fastest window
WINDOW_S = 0.005


class _FirstRound(BaseException):
    """Abandons a run after its first round is generated.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


def _stop_after_first_round() -> None:
    """Make the next ``generate`` call, after returning, abandon the run."""
    import myga.cli as cli
    inner = cli.generate

    def first(*args, **kwargs):
        inner(*args, **kwargs)
        cli.generate = inner
        raise _FirstRound

    cli.generate = first


def _set_up(config) -> float:
    """Run a configuration up to its first round; return the elapsed time."""
    import myga.cli as cli
    _stop_after_first_round()
    try:
        cli.execute(config)
    except _FirstRound:
        return time.perf_counter() - PROCESS_START
    raise RuntimeError("execute returned without generating a round")


def _csv_failures(config, result) -> list[str]:
    """Check the CSV files an ``execute`` wrote against its returned result."""
    from myga.cli import ROUND_HEADER, SUMMARY_HEADER
    problems = []
    seeds = sorted(config.seeds)
    residual_col = ROUND_HEADER.split(",").index("residual")
    lines, worst = 1, 0.0
    with open(f"{config.out}_rounds.csv") as fh:   # streamed: keeps peak RSS the program's
        if fh.readline().rstrip("\n") != ROUND_HEADER:
            problems.append("rounds CSV header differs")
        for line in fh:
            lines += 1
            worst = max(worst, float(line.split(",", residual_col + 1)[residual_col]))
    expected = 1 + config.horizon * len(seeds)
    if lines != expected:
        problems.append(f"rounds CSV has {lines} lines, expected {expected}")
    if worst > RESIDUAL_TOL:
        problems.append(f"rounds CSV residual {worst!r} exceeds {RESIDUAL_TOL}")
    with open(f"{config.out}_summary.csv") as fh:
        summary = fh.read().splitlines()
    if summary[0] != SUMMARY_HEADER:
        problems.append("summary CSV header differs")
    written = {int(line.split(",")[0]): line.split(",")[1] for line in summary[1:]}
    for seed_result in result.seed_results:
        if written.get(seed_result.seed) != repr(seed_result.report.regret):
            problems.append(f"summary R_T for seed {seed_result.seed} "
                            f"disagrees with the returned {seed_result.report.regret!r}")
    return problems


def _run_once(config, spans) -> tuple[dict, "np.ndarray"]:
    """One whole ``execute``: timings and, per seed, regret and failures; round stamps."""
    import myga.cli as cli
    gc.collect()   # every call starts with the same collector state
    mark = len(spans.span_start)
    begin = time.perf_counter()
    try:
        result = cli.execute(config)
    except Exception as exc:  # a raising run is a failed run, not a bench crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = None
    end = time.perf_counter()
    stamps, _ = spans.intervals("environments.generate", mark)
    out_start, out_end = spans.intervals("cli.emit_csv", mark)
    output_s = float((out_end - out_start).sum())
    run = {"exec_s": end - begin, "loop_s": end - begin - output_s, "output_s": output_s,
           "error": error, "seeds": {}, "csv_bytes": 0}
    if result is None:
        return run, stamps
    for r in result.seed_results:
        problems = [f"audit: {v.rule} at t={v.t} margin {v.margin!r}" for v in r.violations]
        if not r.bound_pass:
            problems.append(f"bound_pass false: R_T {r.report.regret!r}")
        run["seeds"][str(r.seed)] = {"regret": r.report.regret,
                                     "play_loss": r.report.total_play_loss,
                                     "violations": len(r.violations),
                                     "problems": problems}
    shared = _csv_failures(config, result) if config.out is not None else []
    for entry in run["seeds"].values():
        entry["problems"] += shared
    run["csv_bytes"] = _csv_bytes(config)
    return run, stamps


def _csv_bytes(config) -> int:
    if config.out is None:
        return 0
    return sum(os.path.getsize(f"{config.out}_{part}.csv") for part in ("rounds", "summary"))


def _window_times(stamps, size: int):
    """Per part of the loop, seconds per round of its fastest window of ``size`` rounds."""
    parts = np.array_split(np.arange(stamps.size), PHASES)
    return np.array([(stamps[p[size:]] - stamps[p[:-size]]).min() / size for p in parts])


def _repeat(config, seconds: float, spans, keep_spans: bool) -> dict:
    """Whole ``execute`` calls until ``seconds`` are spent, at least one.

    Also the time per round at the machine's undisturbed speed.  The
    rounds of a call, in play order, are split into PHASES equal parts.
    Each part's cost per round is that of its fastest window of
    consecutive rounds, over all calls; a window lasts about WINDOW_S in
    the first call.  The parts are weighted by their round counts, so a
    cheap part of the loop cannot stand for a costly one.  This needs one
    ``generate`` stamp per round; otherwise it is None, with the reason.
    """
    rounds = config.horizon * len(config.seeds)
    runs, fastest, size, missing = [], None, 0, None
    begin = time.perf_counter()
    while not runs or time.perf_counter() - begin < seconds:
        run, stamps = _run_once(config, spans)
        if not keep_spans:
            spans.clear()   # the bench's own memory stays the same over calls
        runs.append(run)
        if run["error"] is not None or missing is not None:
            continue
        if stamps.size != rounds:
            missing = (f"myga.cli.generate stamped {stamps.size} of {rounds} rounds "
                       "in an execute call")
            continue
        size = size or max(1, min(round(WINDOW_S * rounds / (stamps[-1] - stamps[0])),
                                  rounds // PHASES - 1))
        times = _window_times(stamps, size)
        fastest = times if fastest is None else np.minimum(fastest, times)
    if missing is None and fastest is None:
        missing = "every execute call raised"
    if missing is not None:
        return {"runs": runs, "round_s": None, "round_s_missing": missing}
    weights = [part.size for part in np.array_split(np.arange(rounds), PHASES)]
    return {"runs": runs, "round_s": float(fastest @ weights) / rounds, "round_s_missing": None}


def _round_counts(config, runs: list[dict], rounds: list[tuple]) -> dict:
    """Solver counts from the traced RoundTrace fields; gates each seed's residual.

    Rounds arrive in play order: per run, seeds ascending, rounds 1..T.
    """
    from tracer import TRACE_FIELDS
    columns = dict(zip(TRACE_FIELDS, zip(*rounds))) if rounds else {}
    seeds = sorted(config.seeds)
    residual = columns.get("residual", ())
    for chunk in range(len(residual) // config.horizon):
        run_index, seed_index = divmod(chunk, len(seeds))
        part = residual[chunk * config.horizon:(chunk + 1) * config.horizon]
        entry = runs[run_index]["seeds"].get(str(seeds[seed_index]))
        worst = max((r for r in part if r is not None), default=0.0)
        if entry is not None and worst > RESIDUAL_TOL:
            entry["problems"].append(f"residual {worst!r} exceeds {RESIDUAL_TOL}")
    if not rounds:
        return {"rounds": 0}
    pivot, grid = columns["pivot"], columns["thresholds"]
    counts = {"rounds": len(rounds)}
    if None not in grid:
        counts["grid_size"] = sum(grid) / len(grid)
    if None not in pivot:
        minority = [config.num_arms - k for k in pivot]
        counts["minority_arms_mean"] = sum(minority) / len(minority)
        if None not in grid and None not in columns["iterations"]:
            work = sum(m * g for m, g in zip(minority, grid))
            counts["iterations_per_round"] = sum(columns["iterations"]) / len(rounds)
            counts["work_ratio"] = sum(columns["iterations"]) / work if work else 0.0
    if None not in residual:
        counts["residual_max"] = max(residual)
    return counts


def _measure(config, seconds: float) -> dict:
    """Untraced: only round starts and CSV output are timed."""
    from tracer import Tracer
    setup_s = _set_up(config)
    spans = Tracer(only=STAMPED)
    spans.install()
    return dict(_repeat(config, seconds, spans, keep_spans=False), setup_s=setup_s)


def _trace(config, seconds: float, spans_path: str) -> dict:
    from tracer import Tracer
    spans = Tracer()
    spans.install()
    _set_up(config)
    setup_total, _, setup_calls = spans.totals()
    spans.clear()
    out = _repeat(config, seconds, spans, keep_spans=True)
    total, own, calls = spans.totals()
    counts = _round_counts(config, out["runs"], spans.rounds)
    spans.save(spans_path)
    return dict(out, total=total, self=own, calls=calls,
                setup_total=setup_total, setup_calls=setup_calls,
                counts=counts, missing=spans.missing,
                missing_fields=sorted(spans.missing_fields))


def main() -> int:
    mode = sys.argv[1]
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from myga.cli import ExperimentConfig
    kwargs = dict(job["config"])
    kwargs["seeds"] = tuple(kwargs["seeds"])
    config = ExperimentConfig(**kwargs)
    if mode == "setup":
        out = {"setup_s": _set_up(config)}
    elif mode == "measure":
        out = _measure(config, job["seconds"])
    elif mode == "trace":
        out = _trace(config, job["seconds"], job["spans_path"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
