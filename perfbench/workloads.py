"""Workload definitions and the measured decode passes of the benchmark.

A *pass* is a fixed, seed-determined amount of work: every prompt of the
workload decoded once with vanilla, selfspec and hierarchical decoding
at the default placement. A run repeats passes until its time is up.
Every decode is bracketed by the reference task of `reference.py`; its
time counts as its measured seconds over the mean of the two reference
times next to it, converted back to seconds at REFERENCE_SECONDS per
reference task, and a decode keeps the median of these over its repeats.

A sweep workload also runs its grid through `experiments.run_points`
and `emit_report`, once in the first plain and the first traced pass.
One such unit takes seconds, so its wall time is recorded as a note
rather than folded into the throughput metrics.

Only public names of the `specdec` package are called, and always
through their module attribute at call time, so the tracer in
`tracing.py` can wrap them from outside.

Every decode is gated outside its timed bracket: speculative tokens
must equal vanilla's for the same prompt, the live ledger must equal
`replay_ledger` of the trace, and on a checking workload every
verification boundary must recompute to exactly 0.0. Exceptions are
caught and counted. A failed unit contributes no timing sample.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from specdec import costs, engine, experiments
from specdec import state as state_mod

from reference import REFERENCE_SECONDS, reference_seconds

STRATEGIES = ("vanilla", "selfspec", "hierarchical")
DRAFT_LEN = 2
ACCEPT_WINDOW = 4

_TOY_16 = {
    "type": "toy",
    "n_layers": 16,
    "d_model": 64,
    "n_heads": 4,
    "vocab_size": 256,
    "max_seq_len": 256,
}


@dataclass(frozen=True)
class Workload:
    name: str
    backend: dict
    prompts: dict
    max_new_tokens: int
    # consistency_check at every hierarchical verification boundary (`specdec check`).
    check: bool = False
    # (draft layers, intermediate layers) whose product is swept through run_points
    # next to vanilla, selfspec and the default placement; empty means no sweep.
    grid: tuple[tuple[int, ...], tuple[int, ...]] | tuple = ()
    # Fixed toy weights: the run seed then picks only the prompts. Across seeds the
    # weights, not the prompts, moved the proxy ratios most (13% vs 4% spread).
    model_seed: int | None = None

    def write_config(self, seed: int, out_dir: Path) -> dict:
        """Write the run's inputs to out_dir and return the experiment config.

        The config is what a `specdec compare`/`sweep` user would write; with
        a fixed model seed the prompts go to a text file it names.
        """
        prompts = dict(self.prompts)
        config_seed = seed
        if self.model_seed is not None:
            path = out_dir / "prompts.txt"
            path.write_text(prompt_text(seed, **self.prompts), encoding="utf-8")
            prompts = {"text_path": str(path), "max_len": self.prompts["max_len"]}
            config_seed = self.model_seed
        strategies = [{"name": "selfspec"}, {"name": "hierarchical"}]
        if self.grid:
            strategies.append(
                {
                    "name": "hierarchical",
                    "draft_layer": list(self.grid[0]),
                    "intermediate_layer": list(self.grid[1]),
                }
            )
        raw = {
            "seed": config_seed,
            "backend": dict(self.backend),
            "prompts": prompts,
            "decode": {"max_new_tokens": self.max_new_tokens},
            "strategies": strategies,
        }
        (out_dir / "config.json").write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
        return raw


def prompt_text(seed: int, count: int, min_len: int, max_len: int) -> str:
    """`count` lines of printable ASCII; each byte is one prompt token."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(count):
        length = int(rng.integers(min_len, max_len + 1))
        lines.append("".join(chr(int(c)) for c in rng.integers(33, 127, size=length)))
    return "\n".join(lines) + "\n"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        # Narrow 1-3 position model.forward_range calls; no synthetic backend.
        Workload(
            name="toy-decode",
            backend=_TOY_16,
            prompts={"count": 8, "min_len": 32, "max_len": 32},
            max_new_tokens=32,
            model_seed=0,
        ),
        # The `specdec check` path: wide monolithic recomputes (reference_state).
        Workload(
            name="toy-check",
            backend=_TOY_16,
            prompts={"count": 24, "min_len": 8, "max_len": 8},
            max_new_tokens=12,
            check=True,
            model_seed=0,
        ),
        # No tensors, low acceptance: bookkeeping and pruning; no toy model.
        Workload(
            name="synth-sweep",
            backend={"type": "synthetic", "preset": "llama70b-sharegpt"},
            prompts={"count": 50, "min_len": 4, "max_len": 12},
            max_new_tokens=64,
            grid=((5, 10), (20, 40)),
        ),
    )
}

# Same shapes at a size that runs in well under a second; used by the smoke test.
TINY = {
    "toy-decode": Workload(
        name="toy-decode",
        backend={**_TOY_16, "n_layers": 8, "d_model": 16, "n_heads": 2, "vocab_size": 32},
        prompts={"count": 3, "min_len": 6, "max_len": 6},
        max_new_tokens=10,
        model_seed=0,
    ),
    "toy-check": Workload(
        name="toy-check",
        backend={**_TOY_16, "n_layers": 8, "d_model": 16, "n_heads": 2, "vocab_size": 32},
        prompts={"count": 2, "min_len": 3, "max_len": 5},
        max_new_tokens=6,
        check=True,
        model_seed=0,
    ),
    "synth-sweep": Workload(
        name="synth-sweep",
        backend={"type": "synthetic", "preset": "llama70b-sharegpt", "n_layers": 24},
        prompts={"count": 4, "min_len": 3, "max_len": 6},
        max_new_tokens=8,
        grid=((2, 3), (6, 12)),
    ),
}


@dataclass
class Samples:
    """Timing samples of one kind of pass (plain or traced).

    A decode sample is (seconds, reference seconds before, reference seconds after).
    """

    decode_s: dict[tuple[str, int], list[tuple[float, float, float]]] = field(
        default_factory=dict
    )
    sweep_s: list[float] = field(default_factory=list)


class Runner:
    """Owns one workload at one seed: inputs, passes, gate and tallies."""

    def __init__(
        self,
        workload: Workload,
        raw_config: dict,
        out_dir: Path,
        wrap_backend: Callable | None = None,
    ) -> None:
        self.workload = workload
        self.config = experiments.ExperimentConfig.from_dict(raw_config)
        backend = experiments.build_backend(self.config.backend, self.config.seed)
        self.n_layers = backend.n_layers
        self.prompts = experiments.build_prompts(self.config, backend.vocab_size)
        self.points = experiments.expand_grid(self.config, self.n_layers) if workload.grid else []
        self.out_dir = out_dir
        # Test hook: the backend given to speculative decodes (vanilla stays unwrapped).
        self.wrap_backend = wrap_backend
        self.attempted = 0
        self.failed = 0
        self.tokens: dict[tuple[str, int], int] = {}
        self.vanilla_tokens: dict[int, list[int]] = {}
        self.first_ledgers: dict[tuple[str, int], costs.CostLedger] = {}
        self.first_rows: list[dict] | None = None
        self.first_report: bytes | None = None
        self.boundaries = 0
        self.reference_s: list[float] = []
        self._last_reference: float | None = None
        self.max_discrepancy = 0.0
        self.pause_trace: Callable = contextlib.nullcontext

    # -- failures ------------------------------------------------------

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        print(f"FAILED {self.workload.name}: {message}", file=sys.stderr)

    # -- one pass ------------------------------------------------------

    def run_pass(self, samples: Samples, stop: Callable[[], bool], sweep: bool) -> bool:
        """Run the pass's units in order; return False if `stop` cut it short."""
        backend = experiments.build_backend(self.config.backend, self.config.seed)
        spec_backend = self.wrap_backend(backend) if self.wrap_backend else backend
        self._last_reference = None
        for index, prompt in enumerate(self.prompts):
            for strategy in STRATEGIES:
                if stop():
                    return False
                chosen = backend if strategy == "vanilla" else spec_backend
                self._timed_decode(samples, strategy, index, prompt, chosen)
        if sweep and self.points:
            self._timed_sweep(samples)
        return True

    def _decode(self, strategy: str, backend, prompt: list[int], worst: list[float]):
        n = backend.n_layers
        draft, intermediate = engine.default_layer_placement(n)
        budget = self.workload.max_new_tokens
        if strategy == "vanilla":
            return engine.vanilla_decode(backend, prompt, budget), (n,)
        if strategy == "selfspec":
            result = engine.selfspec_decode(
                backend, prompt, draft_layer=draft, draft_len=DRAFT_LEN, max_new_tokens=budget
            )
            return result, (draft, n)
        config = engine.HierarchicalConfig(
            draft_layer=draft,
            intermediate_layer=intermediate,
            full_layer=n,
            draft_len=DRAFT_LEN,
            accept_window=ACCEPT_WINDOW,
            max_new_tokens=budget,
        )
        hook = None
        if self.workload.check:

            def hook(session) -> None:
                reports = state_mod.consistency_check(session.state, backend, session.state.tokens)
                worst.append(max(r.max_abs_discrepancy for r in reports))

        result = engine.hierarchical_decode(backend, prompt, config, boundary_hook=hook)
        return result, (draft, intermediate, n)

    def _timed_decode(self, samples: Samples, strategy: str, index: int, prompt, backend) -> None:
        self.attempted += 1
        worst: list[float] = []
        before = self._last_reference or self.measure_reference()
        try:
            start = time.perf_counter()
            result, exits = self._decode(strategy, backend, prompt, worst)
            elapsed = time.perf_counter() - start
        except Exception:  # a failed decode is counted, never fatal to the run
            self._last_reference = None
            self.fail(f"{strategy} decode of prompt {index} raised\n{traceback.format_exc()}")
            return
        after = self._last_reference = self.measure_reference()
        with self.pause_trace():
            problem = self._gate(strategy, index, prompt, result, exits, worst)
        if problem:
            self.fail(f"{strategy} decode of prompt {index}: {problem}")
            return
        key = (strategy, index)
        samples.decode_s.setdefault(key, []).append((elapsed, before, after))
        self.tokens[key] = len(result.tokens)
        if key not in self.first_ledgers:
            self.first_ledgers[key] = result.ledger

    def _gate(self, strategy, index, prompt, result, exits, worst) -> str | None:
        tokens = list(result.tokens)
        if strategy == "vanilla" and index not in self.vanilla_tokens:
            self.vanilla_tokens[index] = tokens
        elif tokens != self.vanilla_tokens.get(index):
            return "tokens differ from vanilla's for the same prompt"
        if result.ledger != engine.replay_ledger(result.trace, len(prompt), exits):
            return "live ledger differs from replay_ledger(trace)"
        if self.workload.check and strategy == "hierarchical":
            self.boundaries += len(worst)
            if not worst:
                return "no verification boundary was checked"
            self.max_discrepancy = max(self.max_discrepancy, max(worst))
            if any(w != 0.0 for w in worst):
                return f"consistency_check reported {max(worst)!r}, not 0.0"
        return None

    def _timed_sweep(self, samples: Samples) -> None:
        decodes = len(self.points) * len(self.prompts)
        self.attempted += decodes
        # A CLI invocation starts with a cold backend and window cache; run_point
        # would otherwise reuse the one built by the previous pass.
        cache = getattr(experiments, "_BACKENDS", None)
        if isinstance(cache, dict):
            cache.clear()
        report = self.out_dir / "sweep-jobs1.csv"
        try:
            start = time.perf_counter()
            rows = experiments.run_points(self.config, self.points, jobs=1)
            experiments.emit_report(rows, report)
            elapsed = time.perf_counter() - start
        except Exception:
            self.fail(f"sweep raised\n{traceback.format_exc()}", decodes)
            return
        with self.pause_trace():
            problem = self._gate_sweep(rows, report.read_bytes())
        if problem:
            self.fail(f"sweep: {problem}", decodes)
            return
        samples.sweep_s.append(elapsed)

    def _gate_sweep(self, rows: list[dict], report: bytes) -> str | None:
        baseline = rows[0]["committed_tokens"]
        if any(row["committed_tokens"] != baseline for row in rows):
            return "a strategy committed a different number of tokens than vanilla"
        if self.first_report is None:
            self.first_rows, self.first_report = rows, report
            for strategy in ("selfspec", "hierarchical"):
                direct = self.direct_rel_throughput(strategy)
                if direct is not None and direct != self.row_rel_throughput(strategy):
                    return f"{strategy} report row disagrees with the direct decodes"
        elif report != self.first_report:
            return "report bytes changed between passes"
        return None

    def check_jobs(self) -> None:
        """Reports must be byte-identical at jobs=1 and jobs=2 (outside timing)."""
        if not self.points or self.first_report is None:
            return
        self.attempted += 1
        report = self.out_dir / "sweep-jobs2.csv"
        try:
            rows = experiments.run_points(self.config, self.points, jobs=2)
            experiments.emit_report(rows, report)
        except Exception:
            self.fail(f"jobs=2 sweep raised\n{traceback.format_exc()}")
            return
        if report.read_bytes() != self.first_report:
            self.fail("report at jobs=2 differs from jobs=1")

    def measure_reference(self) -> float:
        seconds = reference_seconds()
        self.reference_s.append(seconds)
        return seconds

    # -- results -------------------------------------------------------

    def unit_seconds(self, samples: Samples, key: tuple[str, int]) -> float:
        """Median over repeats of the decode's time in reference tasks, as seconds."""
        return REFERENCE_SECONDS * statistics.median(
            seconds / ((before + after) / 2) for seconds, before, after in samples.decode_s[key]
        )

    def direct_rel_throughput(self, strategy: str) -> float | None:
        """Proxy throughput over vanilla from the first pass's direct decodes."""
        n = len(self.prompts)
        keys = [(strategy, i) for i in range(n)] + [("vanilla", i) for i in range(n)]
        if any(key not in self.first_ledgers for key in keys):
            return None
        merged = {}
        for name in (strategy, "vanilla"):
            ledger = costs.CostLedger()
            for i in range(n):
                ledger.merge(self.first_ledgers[(name, i)])
            merged[name] = ledger
        return costs.relative_throughput(
            sum(self.tokens[(strategy, i)] for i in range(n)),
            merged[strategy],
            sum(self.tokens[("vanilla", i)] for i in range(n)),
            merged["vanilla"],
        )

    def row_rel_throughput(self, strategy: str) -> float | None:
        """rel_throughput of the default-placement row in the sweep report."""
        draft, intermediate = engine.default_layer_placement(self.n_layers)
        for row in self.first_rows or ():
            if row["strategy"] == strategy and row["L_d"] == draft and row["N_d"] == DRAFT_LEN:
                if strategy == "selfspec" or (
                    row["L_i"] == intermediate and row["N_i"] == ACCEPT_WINDOW
                ):
                    return row["rel_throughput"]
        return None

    def rel_throughput(self, strategy: str) -> float | None:
        if self.points:
            return self.row_rel_throughput(strategy)
        return self.direct_rel_throughput(strategy)

    def throughput(self, samples: Samples, strategies=STRATEGIES, raw=False) -> float | None:
        """Committed tokens per second over every decode's time.

        `raw` uses the fastest repeat as measured, without the reference scaling.
        """
        tokens = 0
        seconds = 0.0
        for key, repeats in samples.decode_s.items():
            if key[0] in strategies:
                tokens += self.tokens[key]
                seconds += min(r[0] for r in repeats) if raw else self.unit_seconds(samples, key)
        return tokens / seconds if seconds > 0 else None

    def hier_latencies_ms(self, samples: Samples) -> list[float]:
        return sorted(
            1000.0 * self.unit_seconds(samples, key)
            for key in samples.decode_s
            if key[0] == "hierarchical"
        )


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or fewer
    no percentile qualifies and the maximum is returned with what lies beyond it (0).
    """
    n = len(sorted_values)
    index = n - 11 if n > 10 else n - 1
    return sorted_values[index], 100.0 * (index + 1) / n, n - 1 - index
