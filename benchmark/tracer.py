"""Span tracer that wraps ssckit's public functions from outside the package.

Installing the tracer rebinds each wrapped function's name in every
``ssckit`` module namespace that binds it (``ssc.controllable_subspace``,
``cli.controllable_subspace`` and ``krylov.controllable_subspace`` all point
at one wrapper), so calls between modules go through the wrapper. The job
itself is the root span (layer ``cli``). Each wrapper records a span with its
parent; a span's self time is its duration minus its direct children, so the
self times of all spans of a job add up to the job's time.

Scalar- and block-level helpers are not wrapped: they run per matrix entry or
per edge, where the wrapper would cost more than the call. Their time counts
toward the span that calls them.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("netio", "graphs", "ssc", "linalg", "krylov", "partitions", "render")

NOT_WRAPPED = frozenset({
    "linalg.as_fraction", "linalg.format_fraction", "linalg.fraction_to_json",
    "linalg.zeros", "linalg.identity", "linalg.copy_matrix", "linalg.is_zero_matrix",
    "graphs.block_from", "graphs.block_zeros", "graphs.block_identity",
    "graphs.block_add", "graphs.block_neg", "graphs.block_transpose",
    "graphs.block_is_zero", "graphs.degree", "graphs.cell_degree",
    "render.block_to_json", "render.format_block", "render.partition_to_text",
})

ROOT = "cli.main"


class Tracer:
    """Per-function call counts, inclusive and self time, and a few counters.

    Spans of the first traced run of each job are kept in memory (``spans``)
    and written out by the caller when the run ends; later runs of the same
    job only update the totals, so memory stays bounded by the deck.
    """

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.calls: list[int] = [0]
        self.incl: list[float] = [0.0]
        self.self_time: list[float] = [0.0]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.keep = False
        self._stack: list[list] = []
        self._next_id = 0
        self._job = -1
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] | None = None
        self._probes = {
            "netio.parse_network": self._probe_parse,
            "ssc.ep_constraint_system": self._probe_ep_system,
            "linalg.rank": self._probe_rank,
            "render.dumps": self._probe_dumps,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every public function of each layer; returns the wrapped names."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "ssckit" or name.startswith("ssckit."))}
        if self._wrappers is None:
            self._wrappers = {}
            for layer in LAYERS:
                mod = modules.get(f"ssckit.{layer}")
                if mod is None:
                    continue
                for attr, fn in vars(mod).items():
                    qual = f"{layer}.{attr}"
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__ or qual in NOT_WRAPPED
                            or inspect.isgeneratorfunction(fn)):
                        continue
                    self._wrappers[id(fn)] = self._wrap(fn, qual)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return sorted(self.names[1:])

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _fid(self, qual: str) -> int:
        try:
            return self.names.index(qual)
        except ValueError:
            self.names.append(qual)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_time.append(0.0)
            return len(self.names) - 1

    def _wrap(self, fn, qual: str):
        fid = self._fid(qual)
        probe = self._probes.get(qual)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1]
            frame = [tracer._next_id, fid, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                parent[2] += dur
                tracer.calls[fid] += 1
                tracer.incl[fid] += dur
                tracer.self_time[fid] += dur - frame[2]
                if tracer.keep:
                    tracer.spans.append((tracer._job, frame[0], parent[0], qual, t0, t1))
            if probe is not None:
                probe(args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counters -----------------------------------------------------------

    def _count(self, name: str, amount: float = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _probe_parse(self, args, kwargs, result, parent):
        text = args[0] if args else kwargs.get("text", "")
        self._count("netio.bytes_in", len(text.encode("utf-8")))

    def _probe_ep_system(self, args, kwargs, result, parent):
        partition = args[1] if len(args) > 1 else kwargs.get("partition")
        if partition is not None:
            self._count("ssc.candidates")
            if result.feasible:
                self._count("ssc.feasible")

    def _probe_rank(self, args, kwargs, result, parent):
        m = args[0] if args else kwargs.get("m")
        self._count("linalg.rank_cells", len(m) * len(m[0]) if m and m[0] else 0)
        if self.names[parent[1]] == "krylov.controllable_subspace":
            self._count("krylov.rank_calls_in_span")

    def _probe_dumps(self, args, kwargs, result, parent):
        self._count("render.bytes_out", len(result.encode("utf-8")))

    # -- jobs ---------------------------------------------------------------

    def run_job(self, job_index: int, keep: bool, call):
        """Run ``call()`` as a root span; returns (result, seconds)."""
        self._job = job_index
        self.keep = keep
        root = [self._next_id, 0, 0.0]
        self._next_id += 1
        self._stack.append(root)
        t0 = perf_counter()
        try:
            result = call()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            dur = t1 - t0
            self.calls[0] += 1
            self.incl[0] += dur
            self.self_time[0] += dur - root[2]
            if keep:
                self.spans.append((job_index, root[0], None, ROOT, t0, t1))
            self.keep = False
        return result, dur

    def totals(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[i], "incl_s": self.incl[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
        }


def layer_metrics(totals: dict, counters: dict, jobs: int, wrapped: set[str]) -> tuple[dict, list[str]]:
    """Per-job layer metrics from tracer totals; returns (metrics, absent names).

    A metric whose function is not wrapped (it no longer exists, or is not
    public) is reported absent rather than as zero.
    """
    per_job = 1.0 / max(jobs, 1)
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def fn_metric(name, fn, field, unit):
        if fn not in wrapped:
            absent.append(name)
            return
        entry = totals.get(fn, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        metrics[name] = (entry[field] * per_job, unit)

    def counter(name, fn, unit="count/job"):
        if fn not in wrapped:
            absent.append(name)
            return
        metrics[name] = (counters.get(name, 0) * per_job, unit)

    metrics["cli.self_s"] = (totals[ROOT]["self_s"] * per_job, "s/job")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(t["self_s"] for fn, t in totals.items() if fn.startswith(layer + ".")) * per_job,
            "s/job",
        )

    for name, fn, field, unit in (
        ("netio.parse_s", "netio.parse_network", "incl_s", "s/job"),
        ("netio.parse_calls", "netio.parse_network", "calls", "count/job"),
        ("graphs.build_laplacian_s", "graphs.build_laplacian", "incl_s", "s/job"),
        ("graphs.build_laplacian_calls", "graphs.build_laplacian", "calls", "count/job"),
        ("ssc.enumerate_self_s", "ssc.enumerate_feasible_eps", "self_s", "s/job"),
        ("ssc.ep_system_s", "ssc.ep_constraint_system", "incl_s", "s/job"),
        ("ssc.sample_weights_s", "ssc.sample_weights", "incl_s", "s/job"),
        ("ssc.sample_calls", "ssc.sample_weights", "calls", "count/job"),
        ("ssc.estimate_self_s", "ssc.estimate_ssc_dimension", "self_s", "s/job"),
        ("linalg.solve_affine_s", "linalg.solve_affine", "incl_s", "s/job"),
        ("linalg.solve_affine_calls", "linalg.solve_affine", "calls", "count/job"),
        ("linalg.rank_s", "linalg.rank", "incl_s", "s/job"),
        ("linalg.rank_calls", "linalg.rank", "calls", "count/job"),
        ("linalg.mat_mul_s", "linalg.mat_mul", "incl_s", "s/job"),
        ("linalg.independent_columns_s", "linalg.independent_columns", "incl_s", "s/job"),
        ("krylov.controllable_subspace_s", "krylov.controllable_subspace", "incl_s", "s/job"),
        ("krylov.controllable_subspace_calls", "krylov.controllable_subspace", "calls", "count/job"),
        ("krylov.observability_matrix_s", "krylov.observability_matrix", "incl_s", "s/job"),
        ("partitions.coarsest_ep_s", "partitions.coarsest_ep", "incl_s", "s/job"),
        ("partitions.quotient_s", "partitions.quotient", "incl_s", "s/job"),
        ("partitions.verify_equitable_s", "partitions.verify_equitable", "incl_s", "s/job"),
        ("partitions.verify_equitable_calls", "partitions.verify_equitable", "calls", "count/job"),
        ("render.dumps_s", "render.dumps", "incl_s", "s/job"),
    ):
        fn_metric(name, fn, field, unit)

    counter("netio.bytes_in", "netio.parse_network", "B/job")
    counter("render.bytes_out", "render.dumps", "B/job")
    counter("ssc.candidates", "ssc.ep_constraint_system")
    counter("ssc.feasible", "ssc.ep_constraint_system")
    counter("linalg.rank_cells", "linalg.rank")
    if "ssc.candidates" in metrics:
        cand = counters.get("ssc.candidates", 0)
        # ratio of feasible to candidates; its base is ssc.candidates (0 -> 0)
        metrics["ssc.feasible_ratio"] = (counters.get("ssc.feasible", 0) / cand if cand else 0.0, "ratio")
    else:
        absent.append("ssc.feasible_ratio")
    if {"krylov.controllable_subspace", "linalg.rank"} <= wrapped:
        spans = totals.get("krylov.controllable_subspace", {"calls": 0})["calls"]
        metrics["krylov.rounds"] = (
            (counters.get("krylov.rank_calls_in_span", 0) - spans) * per_job, "count/job")
    else:
        absent.append("krylov.rounds")
    return metrics, absent
