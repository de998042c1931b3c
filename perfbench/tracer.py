"""Span tracing of hetsim from outside the package, and the layer metrics it yields.

``install`` replaces public functions at the name each caller looks up
(``hetsim.simulator.sample_ppp`` is what ``run_replication`` calls, so that
is the name wrapped). Every wrapped call records a span: name, start, end
and the enclosing span of the same process. Spans stay in memory and are
written once, when the process ends: the sweep process flushes after the
CLI returns, and each forked pool worker flushes from a multiprocessing
finalizer when the pool shuts it down.

``derive`` reads every span file of one or more traced passes and turns
them into per-layer metrics. Self time is a span's duration minus the part
of it its children cover; the children of ``estimate`` include the
replication spans that pool workers ran during it (perf_counter is
system-wide, so worker and parent clocks agree).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

REPLICATION_WORK = ("simulator.run_replication", "simulator.replication_rng")


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names: list[str] = []
        self._reset("main")
        multiprocessing.util.register_after_fork(self, Tracer._enter_worker)

    def _reset(self, role: str) -> None:
        self.role = role
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.stack: list[int] = []
        self.values: dict[str, float] = defaultdict(float)

    def _enter_worker(self) -> None:
        # a forked pool worker starts with the parent's spans; drop them and
        # flush this worker's own spans when it exits
        self._reset("worker")
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def wrap(self, name: str, targets, observe=None) -> None:
        """Replace ``getattr(owner, attr)`` for every (owner, attr) in targets.

        ``observe(values, result, duration_ns)`` may add counts to
        ``self.values`` after each call.
        """
        owner, attr = targets[0]
        fn = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            i = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_end.append(0)
            self.stack.append(i)
            self.span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[i] = perf_counter_ns()
                self.stack.pop()
            if observe is not None:
                observe(self.values, result, self.span_end[i] - self.span_start[i])
            return result

        functools.update_wrapper(traced, fn)
        for owner, attr in targets:
            setattr(owner, attr, traced)

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        np.savez(
            self.out_dir / f"spans-{self.role}-{os.getpid()}.npz",
            names=np.array(json.dumps(self.names)),
            values=np.array(json.dumps(self.values)),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int64),
            start=np.array(self.span_start, dtype=np.int64),
            end=np.array(self.span_end, dtype=np.int64),
        )


def install(tracer: Tracer) -> None:
    """Wrap the public functions whose spans the layer metrics are derived from."""
    import hetsim.analytics as analytics
    import hetsim.caching as caching
    import hetsim.cli as cli
    import hetsim.config as config
    import hetsim.simulator as simulator

    rho = analytics.rho
    seen_misses = [rho.cache_info().misses]

    def rho_miss(values, result, duration_ns):
        misses = rho.cache_info().misses
        if misses != seen_misses[0]:
            seen_misses[0] = misses
            values["rho_misses"] += 1
            values["rho_miss_ns"] += duration_ns

    def points(values, result, duration_ns):
        values["points"] += len(result)

    def attempts(values, result, duration_ns):
        values["attempts"] += result[0]
        values["outages"] += bool(result[1])

    def hits(values, result, duration_ns):
        values["hits"] += bool(result)

    def rows(values, result, duration_ns):
        values["rows"] += result.count("\n") - 1

    w = tracer.wrap
    w("cli.run_sweep", [(cli, "run_sweep")])
    w("simulator.estimate", [(cli, "estimate")])
    w("analytics.avg_delay_macro", [(cli, "avg_delay_macro")])
    w("analytics.avg_delay_small", [(cli, "avg_delay_small")])
    w("analytics.b1", [(analytics, "b1")])
    w("analytics.rho", [(analytics, "rho")], observe=rho_miss)
    w("config.delay_params", [(config.ExperimentConfig, "delay_params")])
    w("config.format_rows", [(config, "format_rows"), (cli, "format_rows")], observe=rows)
    w("simulator.replication_rng", [(simulator, "replication_rng")])
    w("simulator.run_replication", [(simulator, "run_replication")])
    w("geometry.sample_ppp", [(simulator, "sample_ppp")], observe=points)
    w("geometry.nearest", [(simulator, "nearest")])
    w("simulator.downlink_delay", [(simulator, "downlink_delay")], observe=attempts)
    w("popularity.effective_eta", [(simulator, "effective_eta")])
    w("popularity.sample_request", [(simulator, "sample_request")])
    w("caching.is_hit", [(simulator, "is_hit")], observe=hits)
    w(
        "caching.require_valid",
        [(caching, "require_valid"), (simulator, "require_valid"), (analytics, "require_valid")],
    )


def _union_ns(start: np.ndarray, end: np.ndarray) -> int:
    """Length of the union of intervals."""
    if start.size == 0:
        return 0
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    reach = np.concatenate(([s[0]], np.maximum.accumulate(e)[:-1]))
    return int(np.clip(e - np.maximum(s, reach), 0, None).sum())


def derive(span_dirs: list[Path], workers: int, cells: int) -> dict[str, float]:
    """Per-layer metrics from the span files of ``len(span_dirs)`` identical passes."""
    passes = len(span_dirs)
    calls = defaultdict(int)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    values = defaultdict(float)
    worker_start, worker_end = [], []
    estimates = []  # (start, end, starts and ends of its same-process children)
    for path in (p for d in span_dirs for p in sorted(Path(d).glob("spans-*.npz"))):
        with np.load(path) as f:
            names = json.loads(str(f["names"]))
            for key, v in json.loads(str(f["values"])).items():
                values[key] += v
            name, parent, start, end = f["name"], f["parent"], f["start"], f["end"]
        dur = end - start
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        for i, label in enumerate(names):
            mask = name == i
            calls[label] += int(mask.sum())
            total[label] += int(dur[mask].sum())
            self_ns[label] += int((dur[mask] - child_ns[mask]).sum())
        work = np.isin(name, [names.index(n) for n in REPLICATION_WORK])
        if path.name.startswith("spans-worker"):
            worker_start.append(start[work & ~has_parent])
            worker_end.append(end[work & ~has_parent])
        else:
            est = names.index("simulator.estimate")
            for i in np.flatnonzero(name == est):
                kids = parent == i
                estimates.append((start[i], end[i], start[kids], end[kids]))
    w_start = np.concatenate(worker_start) if worker_start else np.empty(0, np.int64)
    w_end = np.concatenate(worker_end) if worker_end else np.empty(0, np.int64)
    est_self = est_total = 0
    for s, e, kid_s, kid_e in estimates:
        inside = (w_start >= s) & (w_start <= e)
        covered = _union_ns(np.concatenate((kid_s, w_start[inside])), np.concatenate((kid_e, w_end[inside])))
        est_self += (e - s) - covered
        est_total += e - s

    def per_call_us(label):
        return total[label] / calls[label] / 1e3 if calls[label] else 0.0

    reps = calls["simulator.run_replication"]
    out = {}
    for label in ("geometry.sample_ppp", "geometry.nearest", "simulator.downlink_delay", "caching.is_hit"):
        out[f"{label}.calls"] = calls[label] / passes
        out[f"{label}.us_per_call"] = per_call_us(label)
    out["geometry.points_per_rep"] = values["points"] / reps if reps else 0.0
    downlinks = calls["simulator.downlink_delay"]
    out["simulator.attempts_per_rep"] = values["attempts"] / downlinks if downlinks else 0.0
    out["simulator.outage_frac"] = values["outages"] / downlinks if downlinks else 0.0
    for label in (
        "simulator.replication_rng",
        "popularity.effective_eta",
        "popularity.sample_request",
        "analytics.avg_delay_macro",
        "analytics.avg_delay_small",
        "analytics.b1",
        "config.delay_params",
    ):
        out[f"{label}.us_per_call"] = per_call_us(label)
    out["simulator.run_replication.self_us"] = self_ns["simulator.run_replication"] / reps / 1e3 if reps else 0.0
    out["caching.require_valid.calls_per_cell"] = calls["caching.require_valid"] / passes / cells
    hit_calls = calls["caching.is_hit"]
    out["caching.hit_frac"] = values["hits"] / hit_calls if hit_calls else 0.0
    n_est = len(estimates)
    out["simulator.estimate.self_ms_per_cell"] = est_self / n_est / 1e6 if n_est else 0.0
    busy = sum(total[label] for label in REPLICATION_WORK)
    out["simulator.worker_busy_frac"] = busy / (workers * est_total) if est_total else 0.0
    out["analytics.rho.misses"] = values["rho_misses"] / passes
    out["analytics.rho.us_per_miss"] = values["rho_miss_ns"] / values["rho_misses"] / 1e3 if values["rho_misses"] else 0.0
    out["config.format_rows.us_per_row"] = total["config.format_rows"] / values["rows"] / 1e3 if values["rows"] else 0.0
    out["cli.run_sweep.self_ms"] = self_ns["cli.run_sweep"] / passes / 1e6
    return out
