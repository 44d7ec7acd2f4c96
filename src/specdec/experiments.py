"""Declarative experiment runner behind the CLI.

A config describes one backend, one prompt corpus, and a list of strategy
grids. Its strategies are checked once, when the config is loaded: each
entry names a strategy of `STRATEGY_FIELDS` and gives only that
strategy's grid fields. Every report is such a grid: `sweep` runs the
config's own, while `compare` and `ablate` run fixed ones. Each grid
point decodes the whole corpus, aggregates its cost ledger, and becomes
one result row; vanilla full-depth decoding over the same corpus is
always computed and serves as the throughput baseline. Rows are emitted
in sorted parameter order so output bytes never depend on scheduling.
"""
from __future__ import annotations

import itertools
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from .costs import WALL_DEPTH_PAIRS, CostLedger, relative_throughput, verification_wall_ratio
from .engine import (
    GREEDY,
    AcceptancePolicy,
    DecodeStats,
    HierarchicalConfig,
    default_layer_placement,
    hierarchical_decode,
    selfspec_decode,
    vanilla_decode,
)
from .errors import ConfigError, UndefinedRatioError
from .model import ModelConfig, ToyTransformer
from .prompts import prompts_from_text, random_prompts
from .synthetic import SyntheticBackend, SyntheticModelSpec, calibrate_preset

logger = logging.getLogger("specdec")

RESULT_COLUMNS = (
    "strategy",
    "L_d",
    "L_i",
    "L_f",
    "N_d",
    "N_i",
    "prompts",
    "committed_tokens",
    "seq_units",
    "pos_layer_units",
    "acc_rate_intermediate",
    "acc_rate_target",
    "flushed",
    "rel_throughput",
)

WALL_COLUMNS = ("draft_model", "draft_layers", "target_model", "target_layers", "wall_ratio")

_FLOAT_COLUMNS = {"acc_rate_intermediate", "acc_rate_target", "rel_throughput", "wall_ratio"}


# The grid fields of each strategy: its exit layers, shallowest first, then
# its burst lengths. Vanilla has none; its full-depth row is the baseline.
STRATEGY_FIELDS = {
    "vanilla": (),
    "selfspec": ("draft_layer", "draft_len"),
    "hierarchical": ("draft_layer", "intermediate_layer", "draft_len", "accept_window"),
}
_LAYER_FIELDS = {"draft_layer": "L_d", "intermediate_layer": "L_i"}  # field -> column


@dataclass(frozen=True)
class GridPoint:
    strategy: str
    draft_layer: int | None = None
    intermediate_layer: int | None = None
    draft_len: int | None = None
    accept_window: int | None = None

    def sort_key(self) -> tuple:
        return (
            list(STRATEGY_FIELDS).index(self.strategy),
            self.draft_layer or 0,
            self.intermediate_layer or 0,
            self.draft_len or 0,
            self.accept_window or 0,
        )


def config_int(value: Any, name: str, minimum: int | None = None) -> int:
    """`int(value)`, or a ConfigError that names the field it came from.

    Integer strings and integral floats convert; bools and floats with a
    fractional part are rejected rather than truncated, and so is a value
    below `minimum` when one is given.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {number}")
    return number


def config_object(value: Any, name: str) -> dict:
    """`value` if it is a JSON object, or a ConfigError that names the field."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    backend: dict
    prompt_spec: dict
    strategies: tuple[dict, ...]
    max_new_tokens: int
    seed: int
    policy: AcceptancePolicy = GREEDY

    @classmethod
    def from_dict(cls, raw: dict, seed_override: int | None = None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        backend = raw.get("backend")
        if not isinstance(backend, dict) or "type" not in backend:
            raise ConfigError("config needs a backend object with a type")
        if backend["type"] not in ("synthetic", "toy"):
            raise ConfigError(f"unknown backend type {backend['type']!r}")
        prompt_spec = config_object(
            raw.get("prompts", {"count": 50, "min_len": 4, "max_len": 12}), "prompts"
        )
        strategies = raw.get("strategies") or [{"name": "hierarchical"}]
        if not isinstance(strategies, list):
            raise ConfigError(f"strategies must be a list of objects, got {strategies!r}")
        decode = config_object(raw.get("decode", {}), "decode")
        max_new = config_int(
            decode.get("max_new_tokens", 32), "decode.max_new_tokens", minimum=1
        )
        seed = config_int(
            raw.get("seed", 0) if seed_override is None else seed_override, "seed", minimum=0
        )
        policy_raw = config_object(decode.get("policy", {"mode": "greedy"}), "decode.policy")
        policy = AcceptancePolicy(
            mode=policy_raw.get("mode", "greedy"),
            k=config_int(policy_raw.get("k", 1), "decode.policy.k"),
        )
        return cls(
            backend=backend,
            prompt_spec=prompt_spec,
            strategies=tuple(
                _parse_strategy(entry, f"strategies[{index}]")
                for index, entry in enumerate(strategies)
            ),
            max_new_tokens=max_new,
            seed=seed,
            policy=policy,
        )


def _parse_strategy(entry: Any, where: str) -> dict:
    """One strategies entry: its name and each grid field as int values or "all"."""
    config_object(entry, where)
    name = entry.get("name")
    if name not in STRATEGY_FIELDS:
        raise ConfigError(
            f"{where}.name must be one of {', '.join(STRATEGY_FIELDS)}, got {name!r}"
        )
    parsed: dict[str, Any] = {"name": name}
    for key, value in entry.items():
        if key == "name":
            continue
        field = f"{where}.{key}"
        if key not in STRATEGY_FIELDS[name]:
            raise ConfigError(
                f"{field} is not a grid field of {name}; "
                f"its fields are {', '.join(STRATEGY_FIELDS[name]) or 'none'}"
            )
        if value == "all":
            parsed[key] = value
            continue
        minimum = None if key in _LAYER_FIELDS else 1
        values = value if isinstance(value, list) else [value]
        parsed[key] = tuple(config_int(v, field, minimum) for v in values)
    return parsed


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    return ExperimentConfig.from_dict(raw, seed_override)


def build_backend(spec: dict, seed: int):
    def number(key: str, default: Any = None) -> int:
        return config_int(spec.get(key, default), f"backend.{key}")

    if spec["type"] == "synthetic":
        if "preset" in spec:
            model = calibrate_preset(
                spec["preset"],
                n_layers=None if spec.get("n_layers") is None else number("n_layers"),
                vocab_size=number("vocab_size", 256),
                seed=seed,
                context_window=number("context_window", 4),
            )
        else:
            profile = spec.get("profile")
            if not isinstance(profile, dict):
                raise ConfigError(
                    "backend.profile must map layers to agreement rates (or set backend.preset)"
                )
            try:
                profile = {int(k): float(v) for k, v in profile.items()}
            except (TypeError, ValueError):
                raise ConfigError("backend.profile must map integer layers to numbers") from None
            model = SyntheticModelSpec(
                n_layers=number("n_layers"),
                vocab_size=number("vocab_size", 256),
                seed=seed,
                agreement_profile=profile,
                context_window=number("context_window", 4),
                max_seq_len=number("max_seq_len", 4096),
            )
        return SyntheticBackend(model)
    config = ModelConfig(
        n_layers=number("n_layers"),
        d_model=number("d_model", 32),
        n_heads=number("n_heads", 4),
        vocab_size=number("vocab_size", 64),
        max_seq_len=number("max_seq_len", 256),
        seed=seed,
    )
    return ToyTransformer(config)


def build_prompts(config: ExperimentConfig, vocab_size: int) -> list[list[int]]:
    spec = config.prompt_spec
    if "text_path" in spec:
        if not isinstance(spec["text_path"], str):
            raise ConfigError(f"prompts.text_path must be a string, got {spec['text_path']!r}")
        return prompts_from_text(
            spec["text_path"],
            vocab_size,
            max_len=config_int(spec.get("max_len", 64), "prompts.max_len"),
        )
    return random_prompts(
        count=config_int(spec.get("count", 50), "prompts.count"),
        vocab_size=vocab_size,
        min_len=config_int(spec.get("min_len", 4), "prompts.min_len"),
        max_len=config_int(spec.get("max_len", 12), "prompts.max_len"),
        seed=config.seed,
    )


def expand_grid(config: ExperimentConfig, n_layers: int) -> list[GridPoint]:
    """Cartesian strategy grids; invalid points are skipped with a logged reason.

    A missing field takes its default (the default layer placement, N_d 2,
    N_i 4). For an exit layer, "all" spans every layer that the field can
    hold under 1 <= L_d < L_i < L_f; for a burst length it is the default.
    The skip reason is logged once per strategy and invalid layer
    combination, however many burst lengths the grid pairs it with.
    """
    defaults = dict(
        zip(_LAYER_FIELDS, default_layer_placement(n_layers)), draft_len=2, accept_window=4
    )
    points = {GridPoint(strategy="vanilla")}
    skipped = set()
    for strategy in config.strategies:
        name = strategy["name"]
        fields = STRATEGY_FIELDS[name]
        layers = [field for field in fields if field in _LAYER_FIELDS]
        axes = []
        for field in fields:
            values = strategy.get(field, (defaults[field],))
            if values == "all":
                if field in layers:
                    k = layers.index(field)
                    values = range(1 + k, n_layers - len(layers) + 1 + k)
                else:
                    values = (defaults[field],)
            axes.append(values)
        for combo in itertools.product(*axes):
            params = dict(zip(fields, combo))
            exits = [0] + [params[field] for field in layers] + [n_layers]
            if not all(lo < hi for lo, hi in zip(exits, exits[1:])):
                if (name, *exits) not in skipped:
                    skipped.add((name, *exits))
                    logger.warning(
                        "skip %s point (%s): needs 1 <= %s < %s",
                        name,
                        ", ".join(f"{_LAYER_FIELDS[field]}={params[field]}" for field in layers),
                        " < ".join(_LAYER_FIELDS[field] for field in layers),
                        n_layers,
                    )
                continue
            points.add(GridPoint(strategy=name, **params))
    return sorted(points, key=GridPoint.sort_key)


@dataclass
class PointAggregate:
    """One grid point over the whole corpus: summed tokens, ledger and stats."""

    point: GridPoint
    tokens: int
    ledger: CostLedger
    stats: DecodeStats


def run_point(
    backend_spec: dict,
    seed: int,
    prompts: Sequence[Sequence[int]],
    point: GridPoint,
    max_new_tokens: int,
    policy: AcceptancePolicy,
    boundary_hook=None,
) -> PointAggregate:
    backend = _backend_cache(backend_spec, seed)
    aggregate = PointAggregate(point, 0, CostLedger(), DecodeStats())
    for prompt in prompts:
        if point.strategy == "vanilla":
            result = vanilla_decode(backend, prompt, max_new_tokens)
        elif point.strategy == "selfspec":
            result = selfspec_decode(
                backend,
                prompt,
                draft_layer=point.draft_layer,
                draft_len=point.draft_len,
                max_new_tokens=max_new_tokens,
                policy=policy,
                boundary_hook=boundary_hook,
            )
        else:
            config = HierarchicalConfig(
                draft_layer=point.draft_layer,
                intermediate_layer=point.intermediate_layer,
                full_layer=backend.n_layers,
                draft_len=point.draft_len,
                accept_window=point.accept_window,
                max_new_tokens=max_new_tokens,
                policy=policy,
            )
            result = hierarchical_decode(backend, prompt, config, boundary_hook=boundary_hook)
        aggregate.tokens += len(result.tokens)
        aggregate.ledger.merge(result.ledger)
        aggregate.stats += result.stats
    return aggregate


_BACKENDS: dict[tuple[str, int], Any] = {}


def _backend_cache(spec: dict, seed: int):
    """The backend for (spec, seed), built once per process."""
    key = (json.dumps(spec, sort_keys=True), seed)
    if key not in _BACKENDS:
        _BACKENDS[key] = build_backend(spec, seed)
    return _BACKENDS[key]


def _worker(payload: tuple) -> PointAggregate:
    backend_spec, seed, prompts, point, max_new, policy = payload
    return run_point(backend_spec, seed, prompts, point, max_new, policy)


def resolve_jobs(requested: int) -> int:
    """Worker count: SPECDEC_JOBS when set, else the --jobs value; at least 1."""
    env = os.environ.get("SPECDEC_JOBS")
    if env:
        return config_int(env, "SPECDEC_JOBS", minimum=1)
    return config_int(requested, "--jobs", minimum=1)


def run_points(
    config: ExperimentConfig, points: Sequence[GridPoint], jobs: int = 1
) -> list[dict]:
    """Execute grid points and assemble sorted result rows."""
    backend = _backend_cache(config.backend, config.seed)
    prompts = build_prompts(config, backend.vocab_size)
    payloads = [
        (config.backend, config.seed, prompts, point, config.max_new_tokens, config.policy)
        for point in points
    ]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            aggregates = list(pool.map(_worker, payloads, chunksize=1))
    else:
        aggregates = [_worker(p) for p in payloads]
    by_point = {agg.point: agg for agg in aggregates}
    baseline = by_point[GridPoint(strategy="vanilla")]
    rows = []
    for point in sorted(points, key=GridPoint.sort_key):
        agg = by_point[point]
        rows.append(_row_from_aggregate(agg, baseline, len(prompts), backend.n_layers))
    return rows


def _row_from_aggregate(
    agg: PointAggregate, baseline: PointAggregate, n_prompts: int, n_layers: int
) -> dict:
    point = agg.point
    try:
        rel = relative_throughput(agg.tokens, agg.ledger, baseline.tokens, baseline.ledger)
    except UndefinedRatioError:
        rel = None
    return {
        "strategy": point.strategy,
        "L_d": point.draft_layer,
        "L_i": point.intermediate_layer,
        "L_f": n_layers,
        "N_d": point.draft_len,
        "N_i": point.accept_window,
        "prompts": n_prompts,
        "committed_tokens": agg.tokens,
        "seq_units": agg.ledger.sequential_units(),
        "pos_layer_units": agg.ledger.position_layer_units(),
        "acc_rate_intermediate": agg.stats.acceptance_rate_intermediate,
        "acc_rate_target": agg.stats.acceptance_rate_target,
        "flushed": agg.stats.flushed,
        "rel_throughput": rel,
    }


# -- entry points ------------------------------------------------------


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    backend = _backend_cache(config.backend, config.seed)
    points = expand_grid(config, backend.n_layers)
    return run_points(config, points, jobs)


def run_ablation(
    config: ExperimentConfig, parameter: str, values: Sequence[int], jobs: int = 1
) -> list[dict]:
    """Vary draft_len (N_d) or accept_window (N_i) with everything else at defaults."""
    field = {"N_d": "draft_len", "N_i": "accept_window"}.get(parameter)
    if field is None:
        raise ConfigError("ablation parameter must be N_d or N_i")
    if not values:
        return []
    strategy = {"name": "hierarchical", field: tuple(values)}
    return run_sweep(replace(config, strategies=(strategy,)), jobs)


def run_compare(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Vanilla vs selfspec vs hierarchical at the default placement."""
    strategies = ({"name": "selfspec"}, {"name": "hierarchical"})
    return run_sweep(replace(config, strategies=strategies), jobs)


def run_wall(extra_pairs: Sequence[tuple[str, int, str, int]] = ()) -> list[dict]:
    rows = []
    for draft_name, draft_layers, target_name, target_layers in (
        tuple(WALL_DEPTH_PAIRS) + tuple(extra_pairs)
    ):
        rows.append(
            {
                "draft_model": draft_name,
                "draft_layers": draft_layers,
                "target_model": target_name,
                "target_layers": target_layers,
                "wall_ratio": verification_wall_ratio(draft_layers, target_layers),
            }
        )
    rows.sort(key=lambda r: (r["target_layers"], r["draft_layers"], r["draft_model"]))
    return rows


# -- report emission ----------------------------------------------------


def _format_cell(column: str, value) -> str:
    if value is None:
        return ""
    if column in _FLOAT_COLUMNS:
        return f"{value:.6f}"
    return str(value)


def emit_report(
    rows: Sequence[dict],
    out_path: str | Path,
    fmt: str = "csv",
    columns: Sequence[str] = RESULT_COLUMNS,
) -> Path:
    """Write rows as CSV or JSON lines with a stable column order."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_format_cell(col, row.get(col)) for col in columns))
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "jsonl":
        lines = []
        for row in rows:
            clean = {
                col: (round(row[col], 10) if isinstance(row.get(col), float) else row.get(col))
                for col in columns
            }
            lines.append(json.dumps(clean, sort_keys=True))
        out_path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return out_path


def emit_matrix(rows: Sequence[dict], out_path: str | Path, n_layers: int) -> Path:
    """Reshape hierarchical sweep rows into an (L_d x L_i) throughput matrix.

    Cells without a corresponding valid grid point are NaN. Rows are
    draft layers 1..n_layers-2 top to bottom; columns are intermediate
    layers 2..n_layers-1 left to right.
    """
    cells: dict[tuple[int, int], float] = {}
    for row in rows:
        if row["strategy"] != "hierarchical" or row.get("rel_throughput") is None:
            continue
        cells[(row["L_d"], row["L_i"])] = row["rel_throughput"]
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "# relative throughput matrix; rows: L_d 1..%d, cols: L_i 2..%d"
        % (n_layers - 2, n_layers - 1)
    ]
    for draft in range(1, n_layers - 1):
        cols = []
        for inter in range(2, n_layers):
            value = cells.get((draft, inter))
            cols.append("NaN" if value is None else f"{value:.6f}")
        lines.append(" ".join(cols))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_path
