"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces module attributes that the program looks up at call
time (``myga.policy._solve``, ``myga.cli.generate``, a class's method)
with wrappers that record one span per call: name, parent span, start
and end.  Spans stay in memory until the run ends.  A layer's self time
is its spans' durations minus the time their direct child spans cover.

An attribute that no longer exists is recorded as missing, so the metrics
that depend on it can be reported as missing by name instead of as zero.
An untraced measurement installs only the spans it needs to cut each
``execute`` call into rounds: round starts and CSV output.
"""

from __future__ import annotations

import importlib
import time

# (span name, module, attribute path).  Each is looked up by the program at
# call time: a module global, a ``module.attribute`` access or a method.
TARGETS = (
    ("cli.execute", "myga.cli", "execute"),
    ("cli.emit_csv", "myga.cli", "emit_csv"),
    ("environments.generate", "myga.cli", "generate"),
    ("environments.load_replay", "myga.environments", "load_replay"),
    ("simplex.require_distribution", "myga.simplex", "require_distribution"),
    ("simplex.weighted_average", "myga.simplex", "weighted_average"),
    ("simplex.sort_descending", "myga.simplex", "sort_descending"),
    ("simplex.pivot_index", "myga.simplex", "pivot_index"),
    ("simplex.sample_index", "myga.simplex", "sample_index"),
    ("policy.weights", "myga.policy", "WeightState.weights"),
    ("policy.advise", "myga.policy", "MygaPolicy.advise"),
    ("policy.update", "myga.policy", "MygaPolicy.update"),
    ("policy.sample", "myga.policy", "MygaPolicy.sample"),
    ("fixed_point.solve", "myga.policy", "_solve"),
    ("fixed_point.residual", "myga.fixed_point", "mixture_residual"),
    ("truncation.truncate", "myga.policy", "truncate"),
    ("truncation.table", "myga.policy", "truncated_mass_table"),
    ("baselines.advise", "myga.baselines", "Exp4Policy.advise"),
    ("baselines.update", "myga.baselines", "Exp4Policy.update"),
    ("baselines.sample", "myga.baselines", "Exp4Policy.sample"),
    ("audit.observe", "myga.audit", "Auditor.observe_round"),
    ("audit.finalize", "myga.audit", "Auditor.finalize"),
)

# RoundTrace fields read after every traced ``MygaPolicy.advise``.
TRACE_FIELDS = ("pivot", "iterations", "residual", "thresholds")


def _resolve(module_name: str, path: str):
    """Return (owner, attribute name) for a dotted path, or None if absent."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, only: frozenset[str] | None = None):
        self.names = [name for name, _, _ in TARGETS]
        self.only = only
        self.missing: dict[str, str] = {}
        self.missing_fields: set[str] = set()
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.rounds: list[tuple] = []   # one TRACE_FIELDS tuple per traced advise
        self._stack: list[int] = []

    def clear(self) -> None:
        """Drop every recorded span and round; the wrappers stay installed."""
        for store in (self.span_name, self.span_parent, self.span_start,
                      self.span_end, self.rounds):
            store.clear()

    def install(self) -> None:
        for name_id, (name, module_name, path) in enumerate(TARGETS):
            if self.only is not None and name not in self.only:
                continue
            found = _resolve(module_name, path)
            if found is None:
                self.missing[name] = f"{module_name}.{path}"
                continue
            owner, attr = found
            capture = self._capture_trace if name == "policy.advise" else None
            setattr(owner, attr, self._wrap(getattr(owner, attr), name_id, capture))

    def _wrap(self, fn, name_id: int, capture):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()
            if capture is not None:
                capture(out)
            return out

        return traced

    def _capture_trace(self, out) -> None:
        trace = out[1]
        row = []
        for field in TRACE_FIELDS:
            if not hasattr(trace, field):
                self.missing_fields.add(f"RoundTrace.{field}")
                row.append(None)
            elif field == "thresholds":
                row.append(len(trace.thresholds))
            else:
                row.append(getattr(trace, field))
        self.rounds.append(tuple(row))

    def intervals(self, name: str, since: int):
        """(start, end) arrays of the spans called ``name`` recorded from index ``since``."""
        import numpy as np
        picked = np.flatnonzero(np.asarray(self.span_name[since:]) == self.names.index(name))
        return (np.asarray(self.span_start[since:])[picked],
                np.asarray(self.span_end[since:])[picked])

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total time, total self time (seconds) and call count."""
        import numpy as np
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        covered = np.zeros(duration.size)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        size = len(self.names)
        total = np.bincount(names, weights=duration, minlength=size)
        own = np.bincount(names, weights=duration - covered, minlength=size)
        calls = np.bincount(names, minlength=size)
        return ({n: float(total[i]) for i, n in enumerate(self.names)},
                {n: float(own[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def save(self, path: str) -> None:
        """Write every recorded span: name index, parent span index, start, end."""
        import numpy as np
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.asarray(self.span_name, dtype=np.int32),
                            parent=np.asarray(self.span_parent, dtype=np.int64),
                            start=np.asarray(self.span_start),
                            end=np.asarray(self.span_end))
