"""In-memory span tracer that wraps specdec's public entry points from outside.

While installed, each wrapped function or method records one span
(name, start, end, parent span, decode id) and passes its arguments and
return value through unchanged, so every check inside the package still
runs. Work counts are taken at the same boundaries. Spans are kept in
flat arrays and written out once, after the run.

A span's *self* time is its duration minus the time covered by its
direct children; a layer's self time is the sum over its spans. Entry
points that do not exist (renamed or removed) are skipped, and the
metrics that depend on them read 0.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

from specdec import costs, engine, experiments, model, synthetic
from specdec import state as state_mod

PHASES = ("prefill", "draft", "intermediate_verify", "target_verify")
LAYERS = ("engine", "model", "synthetic", "state", "costs", "experiments")


def _range_args(args, kwargs) -> tuple[int, int]:
    """(layers, positions) of a forward_range(state, l0, l1, p0, p1) call."""
    names = ("state", "start_layer", "end_layer", "start_pos", "end_pos")
    bound = dict(zip(names, args[1:]))
    bound.update(kwargs)
    return bound["end_layer"] - bound["start_layer"] + 1, bound["end_pos"] - bound["start_pos"]


class Tracer:
    """Records spans of one traced pass. Install with `with tracer.installed():`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.decode_ids = array("i")
        self.counts: Counter = Counter()
        self.max_abs = 0.0
        self._open: list[int] = []
        self._decode = -1
        self._decodes = 0
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, root=False, before=None, after=None):
        """`name` is a span name or a function (args, kwargs) -> span name id."""
        pick = name if callable(name) else None
        fixed = None if pick else self._id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            ctx = before(args, kwargs) if before else None
            index = len(tracer.starts)
            tracer.name_ids.append(fixed if pick is None else pick(args, kwargs))
            tracer.parents.append(tracer._open[-1] if tracer._open else -1)
            opened = root and tracer._decode < 0
            if opened:
                tracer._decode = tracer._decodes
                tracer._decodes += 1
            tracer.decode_ids.append(tracer._decode)
            tracer.ends.append(0.0)
            tracer._open.append(index)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = time.perf_counter()
                tracer._open.pop()
                if opened:
                    tracer._decode = -1
            if after:
                after(ctx, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own gate) record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- installation ---------------------------------------------------

    def _patch_function(self, module, attr: str, name, **hooks) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrap(original, name, **hooks)
        # Rebind every specdec module that imported the function by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "specdec" and not mod_name.startswith("specdec."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name, **hooks) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, **hooks))

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        for attr in ("vanilla_decode", "selfspec_decode", "hierarchical_decode"):
            self._patch_function(engine, attr, f"engine.{attr}", root=True, after=self._on_decode)
        session = engine.DecodeSession
        self._patch_method(session, "prefill", "engine.prefill")
        self._patch_method(session, "generate_next", "engine.draft")
        intermediate = self._id("engine.intermediate_verify")
        target = self._id("engine.target_verify")

        def verify_name(args, kwargs):
            phase = kwargs["phase"] if "phase" in kwargs else args[3]
            return target if phase == "target_verify" else intermediate

        self._patch_method(session, "leading_substring_verify", verify_name)
        self._patch_method(session, "finalize", "engine.finalize")

        for layer, cls in (("model", model.ToyTransformer), ("synthetic", synthetic.SyntheticBackend)):
            self._patch_method(
                cls, "forward_range", f"{layer}.forward_range", after=self._counter(layer)
            )
            self._patch_method(cls, "exit_distribution", f"{layer}.exit_distribution")
            self._patch_method(cls, "reference_state", f"{layer}.reference_state")

        self._patch_method(
            state_mod.LayeredState,
            "prune_all",
            "state.prune_all",
            before=lambda args, kwargs: sum(args[0].fills()),
            after=self._on_prune,
        )
        self._patch_function(
            state_mod, "consistency_check", "state.consistency_check", after=self._on_check
        )
        self._patch_method(costs.CostLedger, "record_pass", "costs.record_pass")
        self._patch_function(engine, "replay_ledger", "costs.replay_ledger")
        for attr in ("run_points", "run_point", "emit_report"):
            self._patch_function(experiments, attr, f"experiments.{attr}")

    # -- counts at the boundaries ---------------------------------------

    def _counter(self, layer: str) -> Callable:
        counts = self.counts

        def after(ctx, args, kwargs, result) -> None:
            layers, positions = _range_args(args, kwargs)
            counts[f"{layer}.positions"] += positions
            counts[f"{layer}.layer_passes"] += layers
            counts[f"{layer}.pos_layers"] += layers * positions

        return after

    def _on_prune(self, before, args, kwargs, result) -> None:
        self.counts["state.pruned_entries"] += before - sum(args[0].fills())

    def _on_check(self, ctx, args, kwargs, reports) -> None:
        for report in reports:
            self.max_abs = max(self.max_abs, report.max_abs_discrepancy)

    def _on_decode(self, ctx, args, kwargs, result) -> None:
        if self._decode >= 0:  # nested inside another traced decode
            return
        counts = self.counts
        counts["decodes"] += 1
        stats = result.stats
        counts["checked_intermediate"] += stats.checked_intermediate
        counts["accepted_intermediate"] += stats.accepted_intermediate
        counts["checked_target"] += stats.checked_target
        counts["accepted_target"] += stats.accepted_target
        counts["presented_target"] += stats.presented_target
        counts["flushed"] += stats.flushed
        counts["rounds"] += sum(
            1 for event in result.trace.events if type(event).__name__ == "TargetVerify"
        )
        for phase, cost in result.ledger.phases.items():
            counts[f"{phase}.seq_units"] += cost.sequential_depth_units
            counts[f"{phase}.pos_layer_units"] += cost.position_layer_units

    # -- results --------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.name_ids, dtype=np.int32) if self.name_ids else np.zeros(0, int)
        starts = np.frombuffer(self.starts, dtype=np.float64) if self.starts else np.zeros(0)
        ends = np.frombuffer(self.ends, dtype=np.float64) if self.ends else np.zeros(0)
        parents = np.frombuffer(self.parents, dtype=np.int32) if self.parents else np.zeros(0, int)
        return names, ends - starts, parents

    def span_totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive seconds and calls per span name, and self seconds per layer."""
        names, durations, parents = self._arrays()
        child = np.zeros(len(durations))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        self_time = durations - child
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            inclusive[name] = float(durations[mask].sum())
            calls[name] = int(mask.sum())
            layer_self[name.split(".", 1)[0]] += float(self_time[mask].sum())
        return inclusive, calls, layer_self

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced pass, as name -> (value, unit)."""
        inclusive, calls, layer_self = self.span_totals()
        counts = self.counts

        def secs(name: str) -> float:
            return inclusive.get(name, 0.0)

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}
        m["model.forward_range_s"] = (secs("model.forward_range"), "s")
        m["model.forward_range_calls"] = (calls.get("model.forward_range", 0), "count")
        m["model.positions_per_call"] = (
            ratio(counts["model.positions"], calls.get("model.forward_range", 0)),
            "positions",
        )
        m["model.us_per_pos_layer"] = (
            ratio(secs("model.forward_range"), counts["model.pos_layers"], 1e6),
            "us",
        )
        m["model.exit_distribution_s"] = (secs("model.exit_distribution"), "s")
        m["model.exit_distribution_calls"] = (calls.get("model.exit_distribution", 0), "count")
        m["model.reference_state_s"] = (secs("model.reference_state"), "s")
        m["synthetic.forward_range_s"] = (secs("synthetic.forward_range"), "s")
        m["synthetic.forward_range_calls"] = (calls.get("synthetic.forward_range", 0), "count")
        m["synthetic.us_per_layer_pass"] = (
            ratio(secs("synthetic.forward_range"), counts["synthetic.layer_passes"], 1e6),
            "us",
        )
        m["synthetic.exit_distribution_s"] = (secs("synthetic.exit_distribution"), "s")
        m["synthetic.exit_distribution_calls"] = (
            calls.get("synthetic.exit_distribution", 0),
            "count",
        )
        m["state.prune_all_s"] = (secs("state.prune_all"), "s")
        m["state.prune_all_calls"] = (calls.get("state.prune_all", 0), "count")
        m["state.pruned_entries"] = (counts["state.pruned_entries"], "count")
        m["state.consistency_check_s"] = (secs("state.consistency_check"), "s")
        m["state.consistency_max_abs"] = (self.max_abs, "abs")
        for phase in PHASES:
            m[f"engine.{phase}_s"] = (secs(f"engine.{phase}"), "s")
        m["engine.finalize_s"] = (secs("engine.finalize"), "s")
        m["engine.rounds"] = (counts["rounds"], "count")
        m["engine.acc_rate_intermediate"] = (
            ratio(counts["accepted_intermediate"], counts["checked_intermediate"]),
            "ratio",
        )
        m["engine.acc_rate_target"] = (
            ratio(counts["accepted_target"], counts["checked_target"]),
            "ratio",
        )
        m["engine.flushed_share"] = (ratio(counts["flushed"], counts["presented_target"]), "ratio")
        for phase in PHASES:
            m[f"costs.{phase}.seq_units"] = (counts[f"{phase}.seq_units"], "layers")
            m[f"costs.{phase}.pos_layer_units"] = (counts[f"{phase}.pos_layer_units"], "pos-layers")
        m["experiments.run_point_s"] = (secs("experiments.run_point"), "s")
        m["experiments.points"] = (calls.get("experiments.run_point", 0), "count")
        m["experiments.emit_report_s"] = (secs("experiments.emit_report"), "s")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        return m

    def write(self, path: Path) -> Path:
        """All spans as gzipped JSON lines: a header, then [name, start, end, parent, decode]."""
        names, _, _ = self._arrays()
        with gzip.open(path, "wt", encoding="utf-8") as out:
            header = {"names": self.names, "fields": ["name", "start", "end", "parent", "decode"]}
            out.write(json.dumps(header) + "\n")
            for i in range(len(names)):
                out.write(
                    f"[{self.name_ids[i]},{self.starts[i]!r},{self.ends[i]!r},"
                    f"{self.parents[i]},{self.decode_ids[i]}]\n"
                )
        return path
