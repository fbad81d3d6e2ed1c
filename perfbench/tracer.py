"""Spans around the public functions of each ndmonogamy module, from outside.

:class:`Tracer` replaces every binding of a wrapped function (in each
``ndmonogamy`` module that imported it, and on the owning class for
methods) with a wrapper that records a span: name, start, end, parent
span and operation id.  Spans stay in memory until :meth:`Tracer.dump`.
Self time of a span is its duration minus the durations of its direct
children.  :meth:`Tracer.install` raises :class:`LookupError` naming any
wrapped module, function or method the program does not have, so a
layer that is no longer measured never reads as a layer that got free.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

MODULES = ("scenario", "classical", "nodisturbance", "quantum", "region", "verify", "cli")

#: (layer, module, attribute path, counter) for each wrapped public function.
#: A counter is (metric suffix, function of (args, kwargs, result) -> count).
SPANS = (
    ("scenario.behavior", "scenario", "Behavior.__post_init__", None),
    ("scenario.correlator", "scenario", "correlator", None),
    ("scenario.witness", "scenario", "kcbs_value", None),
    ("scenario.witness", "scenario", "chsh_value", None),
    ("scenario.nd_check", "scenario", "check_no_disturbance", None),
    ("scenario.json", "scenario", "Behavior.to_json", None),
    ("scenario.json", "scenario", "Behavior.from_json", None),
    ("classical.bound", "classical", "classical_bound", None),
    ("nodisturbance.lp", "nodisturbance", "nd_optimum", None),
    ("nodisturbance.sampler", "nodisturbance", "sample_behavior_matrix", ("rows", lambda a, k, r: len(r))),
    ("nodisturbance.fine_join", "nodisturbance", "fine_join_c1", None),
    ("nodisturbance.fine_join", "nodisturbance", "fine_join_c2", None),
    ("nodisturbance.joint_correlator", "nodisturbance", "JointDistribution.correlator", None),
    ("nodisturbance.certificate", "nodisturbance", "monogamy_certificate", None),
    ("quantum.born", "quantum", "behavior_from_state", None),
    ("quantum.eigensystem", "quantum", "eigensystem", None),
    ("quantum.expectation", "quantum", "expectation", ("states", lambda a, k, r: r.size)),
    ("region.boundary", "region", "sample_boundary", ("points", lambda a, k, r: len(r))),
    ("region.touching", "region", "touching_point", None),
    ("region.sweep", "region", "region_membership_sweep", ("states", lambda a, k, r: r.samples)),
    ("cli", "cli", "main", None),
)

#: verify check function -> the check's name in the verify summary
VERIFY_CHECKS = {
    "check_classical_bounds": "classical-bounds",
    "check_nd_lp_bounds": "nd-lp-bounds",
    "check_fine_recovery": "fine-marginal-recovery",
    "check_nd_monogamy": "nd-monogamy-sweep",
    "check_kcbs_spectrum": "kcbs-spectrum",
    "check_chsh_block_structure": "chsh-block-structure",
    "check_bell_block_eigensystem": "bell-block-eigensystem",
    "check_behavior_operator_consistency": "behavior-operator-consistency",
    "check_region_constants": "region-constants",
    "check_closed_form_agreement": "closed-form-agreement",
    "check_boundary_stationarity": "boundary-stationarity",
    "check_touching_point": "touching-point",
    "check_boundary_states": "boundary-states",
    "check_region_membership": "region-membership",
}

LP_ITERATIONS = "nodisturbance.lp.iterations"
OUT_BYTES = "cli.out_bytes"


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    metrics: dict[str, str] = {}
    for layer, _, _, counter in SPANS:
        if layer == "cli":
            metrics["cli.self_s"] = "s"
            metrics[OUT_BYTES] = "bytes"
            continue
        metrics[f"{layer}.calls"] = "count"
        metrics[f"{layer}.self_s"] = "s"
        if counter:
            metrics[f"{layer}.{counter[0]}"] = "count"
        if layer == "nodisturbance.lp":
            metrics[LP_ITERATIONS] = "count"
    for check in VERIFY_CHECKS.values():
        metrics[f"verify.{check}.wall_s"] = "s"
    for module in MODULES:
        metrics[f"{module}.raised"] = "count"
    return metrics


def _module(module: str):
    """``ndmonogamy.<module>``, imported."""
    try:
        return importlib.import_module(f"ndmonogamy.{module}")
    except ModuleNotFoundError:
        raise LookupError(f"ndmonogamy.{module} is traced but the program does not have it") from None


def _lookup(module: str, path: str) -> tuple[object, object]:
    """(owner, raw attribute) of ``ndmonogamy.<module>.<path>``, as stored on the owner."""
    owner = _module(module)
    try:
        *owners, attr = path.split(".")
        for name in owners:
            owner = vars(owner)[name]
        return owner, vars(owner)[attr]
    except KeyError:
        raise LookupError(f"ndmonogamy.{module}.{path} is traced but the program does not have it") from None


class Tracer:
    """In-memory spans and per-operation totals for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op = -1
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._per_op: list[tuple[Counter, Counter, Counter]] = []
        self._reset()

    def _reset(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()  # "<layer>.self_s" and "<layer>.wall_s"
        self.counts: Counter = Counter()

    # -- operations ----------------------------------------------------------

    def start_op(self, op: int) -> None:
        self.op = op
        self._reset()

    def end_op(self, out_bytes: int, scale: float = 1.0) -> None:
        """Close the operation; its times are reported multiplied by ``scale``."""
        self.counts[OUT_BYTES] += out_bytes
        seconds = Counter({name: value * scale for name, value in self.seconds.items()})
        self._per_op.append((self.calls, seconds, self.counts))
        self.op = -1
        self._reset()

    # -- spans ---------------------------------------------------------------

    def call(self, layer: str, module: str, fn, args, kwargs, counter=None):
        """Call ``fn`` inside a span named ``layer``."""
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counts[f"{module}.raised"] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.calls[layer] += 1
            self.seconds[f"{layer}.self_s"] += duration - frame[1]
            self.seconds[f"{layer}.wall_s"] += duration
            self.spans.append((frame[0], parent, self.op, layer, start, end))
        if counter:
            self.counts[f"{layer}.{counter[0]}"] += counter[1](args, kwargs, result)
        return result

    def _wrap(self, layer, module, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, module, fn, args, kwargs, counter)

        return wrapper

    def _count_lp_iterations(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[LP_ITERATIONS] += int(getattr(result, "nit", 0))
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every ndmonogamy module."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ndmonogamy" or name.startswith("ndmonogamy.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap the public functions listed in :data:`SPANS` and the verify checks.

        Raises :class:`LookupError` (after undoing any wrapping) when one of
        them, or ``nodisturbance.linprog``, cannot be found.
        """
        try:
            # Load every module before patching, so each one's bindings are rebound.
            for module in MODULES:
                _module(module)
            for layer, module, path, counter in SPANS:
                owner_name, _, attr = path.rpartition(".")
                owner, raw = _lookup(module, path)
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(layer, module, raw.__func__, counter)))
                elif owner_name:
                    self._set(owner, attr, self._wrap(layer, module, raw, counter))
                else:
                    self._replace_function(raw, self._wrap(layer, module, raw, counter))
            for func_name, check in VERIFY_CHECKS.items():
                _, fn = _lookup("verify", func_name)
                self._replace_function(fn, self._wrap(f"verify.{check}", "verify", fn))
            nd, linprog = _lookup("nodisturbance", "linprog")
            self._set(nd, "linprog", self._count_lp_iterations(linprog))
        except LookupError:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Per-operation metrics: counts of the first operation, median times."""
        if not self._per_op:
            raise ValueError("no traced operation finished")
        first_calls, _, first_counts = self._per_op[0]
        values = {}
        for name in per_layer_metrics():
            if name.endswith(".calls"):
                values[name] = first_calls[name[: -len(".calls")]]
            elif name.endswith("_s"):
                values[name] = statistics.median(seconds[name] for _, seconds, _ in self._per_op)
            else:
                values[name] = first_counts[name]
        return values

    def dump(self, path: Path, header: dict) -> None:
        """Write the header, per-operation totals and every span, gzipped JSON."""
        payload = dict(header)
        payload["per_op"] = [
            {"calls": dict(c), "seconds": dict(s), "counts": dict(n)} for c, s, n in self._per_op
        ]
        payload["span_fields"] = ["id", "parent", "op", "name", "start", "end"]
        payload["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
