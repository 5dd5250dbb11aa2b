"""Spans around the library's public functions, recorded from outside the library.

Each function is wrapped at the name its caller looks up: names bound by
``from ... import`` in ``qhjqes.cli`` and ``qhjqes.qmf`` get their own
wrapper, the rest are wrapped as module attributes. ``Tracer.installed``
restores every wrapped name on exit. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
from time import perf_counter

def _first_arg_id(args, kwargs, result):
    return id(args[0])


def _evaluator_state_id(args, kwargs, result):
    return id(args[0].state)


def _grid_points(args, kwargs, result):
    return len(args[0])


def _final_grid_points(args, kwargs, result):
    return result.grid.n_interior


def _public_functions(module):
    return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]


def wrap_plan():
    """(owner module, attribute, layer, span name, info extractor) for every traced name."""
    # ``qhjqes.qmf`` the attribute is the function the package re-exports; take the module.
    cli, engine, oracle, qmf, series, spectra = (
        importlib.import_module(f"qhjqes.{name}") for name in ("cli", "engine", "oracle", "qmf", "series", "spectra")
    )

    signature = inspect.signature(series.contour_integral)

    def contour_nodes(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n_points"]

    plan = [(engine, n, "engine", f"engine.{n}", None) for n in _public_functions(engine)]
    plan += [(spectra, n, "spectra", f"spectra.{n}", None) for n in _public_functions(spectra)]
    plan += [
        (oracle, "refine", "oracle", "oracle.refine", _final_grid_points),
        (oracle, "discretize", "oracle", "oracle.discretize", None),
        (oracle, "low_spectrum", "oracle", "oracle.low_spectrum", _grid_points),
        (cli, "zero_census", "qmf", "qmf.zero_census", _first_arg_id),
        (cli, "pole_reports", "qmf", "qmf.pole_reports", _first_arg_id),
        (cli, "residue_at_zero", "qmf", "qmf.residue_at_zero", _evaluator_state_id),
        (cli, "infinity_order_check", "qmf", "qmf.infinity_order_check", None),
        (cli, "build_qmf", "qmf", "qmf.qmf", None),
        (qmf, "residue_at_zero", "qmf", "qmf.residue_at_zero", _evaluator_state_id),
        (qmf, "poly_roots", "series", "series.poly_roots", None),
        (qmf, "contour_integral", "series", "series.contour_integral", contour_nodes),
    ]
    return plan


class Tracer:
    """Spans held as columns: span i is (name[i], layer[i], start[i], ...).

    Lists of numbers and strings are not traversed by the garbage collector,
    so holding many spans does not slow the ops being traced.
    """

    COLUMNS = ("name", "layer", "start", "end", "parent", "op", "exception", "info")

    def __init__(self):
        self.name: list[str] = []
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float | None] = []
        self.parent: list[int | None] = []
        self.op: list[int] = []
        self.exception: list[str | None] = []
        self.info: list[int | None] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str, op: int) -> int:
        index = len(self.name)
        self.name.append(name)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else None)
        self.op.append(op)
        self.exception.append(None)
        self.info.append(None)
        self.end.append(None)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _call(self, index: int, fn, args, kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.exception[index] = type(exc).__name__
            raise
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()

    def root(self, name: str, layer: str, op: int, fn, *args):
        """Call ``fn(*args)`` inside a top-level span of op ``op``."""
        return self._call(self._open(name, layer, op), fn, args, {})

    def wrap(self, fn, name: str, layer: str, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # called outside any op: not part of the run
                return fn(*args, **kwargs)
            index = self._open(name, layer, self.op[self._stack[-1]])
            result = self._call(index, fn, args, kwargs)
            if info is not None:
                self.info[index] = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in ``wrap_plan()``; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, layer, name, info in wrap_plan():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, layer, info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            if any(getattr(owner, attr) is not original for owner, attr, original in saved):
                raise RuntimeError("a traced name was not restored")

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for parent, s, e in zip(self.parent, self.start, self.end):
            if parent is not None:
                own[parent] -= e - s
        return own

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for row in zip(*(getattr(self, c) for c in self.COLUMNS)):
                fh.write(json.dumps(dict(zip(self.COLUMNS, row))) + "\n")


# Layer each failing report check is charged to, by check-name fragment.
_CHECK_LAYER = (
    ("oracle", "oracle"),
    ("eigen_identity", "spectra"),
    ("recursion", "spectra"),
    ("algebraic", "spectra"),
    ("ledger", "engine"),
    ("condition", "engine"),
)


def failure_layer(tracer: Tracer, root: int, failed_check: str | None) -> str:
    """Layer charged with a failed op: the check that failed, else the raising call."""
    if failed_check is not None:
        for fragment, layer in _CHECK_LAYER:
            if fragment in failed_check:
                return layer
        return "qmf"
    # The outermost library span under the op's root that raised.
    for index in range(root + 1, len(tracer.name)):
        if tracer.parent[index] == root and tracer.exception[index] is not None:
            return "qmf" if tracer.layer[index] == "series" else tracer.layer[index]
    return "cli"


def layer_metrics(tracer: Tracer, n_ops: int, failures: dict, residue_margin: float, residual: float) -> dict:
    """Per-layer metrics, each per traced op unless its unit says otherwise."""
    busy = {layer: 0.0 for layer in ("cli", "engine", "spectra", "oracle", "qmf", "series")}
    calls: dict[str, int] = {}
    info_sum: dict[str, int] = {}
    states = set()
    for name, layer, op, info, own in zip(tracer.name, tracer.layer, tracer.op, tracer.info, tracer.self_times()):
        busy[layer] += own
        calls[name] = calls.get(name, 0) + 1
        if info is not None:
            if name in ("qmf.zero_census", "qmf.pole_reports", "qmf.residue_at_zero"):
                states.add((op, info))
            else:
                info_sum[name] = info_sum.get(name, 0) + info
    per_op = lambda x: x / n_ops  # noqa: E731
    points = info_sum.get("oracle.low_spectrum", 0)
    roots = calls.get("series.poly_roots", 0)
    return {
        "oracle.busy_s": (per_op(busy["oracle"]), "s/op"),
        "oracle.refine_calls": (per_op(calls.get("oracle.refine", 0)), "count/op"),
        "oracle.eigensolves": (per_op(calls.get("oracle.low_spectrum", 0)), "count/op"),
        "oracle.points_solved": (per_op(points), "count/op"),
        "oracle.useful_share": (info_sum.get("oracle.refine", 0) / points if points else 0.0, "ratio"),
        "oracle.failures": (per_op(failures.get("oracle", 0)), "count/op"),
        "qmf.busy_s": (per_op(busy["qmf"]), "s/op"),
        "qmf.census_calls": (per_op(calls.get("qmf.zero_census", 0)), "count/op"),
        "qmf.residue_calls": (per_op(calls.get("qmf.residue_at_zero", 0)), "count/op"),
        "qmf.residue_margin_worst": (residue_margin, "ratio"),
        "qmf.failures": (per_op(failures.get("qmf", 0)), "count/op"),
        "series.busy_s": (per_op(busy["series"]), "s/op"),
        "series.root_solves": (per_op(roots), "count/op"),
        "series.root_solves_per_state": (roots / len(states) if states else 0.0, "count/state"),
        "series.contour_calls": (per_op(calls.get("series.contour_integral", 0)), "count/op"),
        "series.contour_nodes": (per_op(info_sum.get("series.contour_integral", 0)), "count/op"),
        "engine.busy_s": (per_op(busy["engine"]), "s/op"),
        "engine.ledger_calls": (per_op(calls.get("engine.quantization_ledger", 0)), "count/op"),
        "cli.busy_s": (per_op(busy["cli"]), "s/op"),
        "spectra.busy_s": (per_op(busy["spectra"]), "s/op"),
        "spectra.states_calls": (per_op(calls.get("spectra.algebraic_states", 0)), "count/op"),
        "spectra.residual_worst": (residual, "abs"),
        "spectra.failures": (per_op(failures.get("spectra", 0)), "count/op"),
    }
