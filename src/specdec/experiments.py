"""Declarative experiment runner behind the CLI.

A config describes one backend, one prompt corpus, and a list of strategy
grids. The whole config is checked once, when it is loaded: an unknown key
is an error, and each strategy entry gives only its own grid fields. Every
report is such a grid: `sweep` runs the config's own, while `compare` and
`ablate` run fixed ones. A grid point is a strategy's exits and burst
lengths; it decodes the whole corpus, aggregates its cost ledger, and
becomes one result row. Vanilla full-depth decoding over the same corpus
is always computed and serves as the throughput baseline. Rows are emitted
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
    DEFAULT_BURSTS,
    GREEDY,
    AcceptancePolicy,
    DecodeStats,
    default_layer_placement,
    speculative_decode,
    vanilla_decode,
)
from .errors import ConfigError, UndefinedRatioError
from .model import ModelConfig, ToyTransformer
from .prompts import prompts_from_text, random_prompts
from .state import consistency_check
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


# The grid fields of each strategy: its exit layers below the full depth, shallowest
# first, then one burst length for each. Vanilla has none; its row is the baseline.
STRATEGY_FIELDS = {
    "vanilla": (),
    "selfspec": ("draft_layer", "draft_len"),
    "hierarchical": ("draft_layer", "intermediate_layer", "draft_len", "accept_window"),
}
# Each grid field's report column; exit layers are the "L_" columns. The
# order matches the default layer placement followed by DEFAULT_BURSTS.
FIELD_COLUMNS = {
    "draft_layer": "L_d",
    "intermediate_layer": "L_i",
    "draft_len": "N_d",
    "accept_window": "N_i",
}

# The keys each backend kind and prompt source reads; a synthetic backend is a
# preset or a profile, and prompts come from a text file or a seeded generator.
_BACKEND_KEYS = {
    "toy": ("type", "n_layers", "d_model", "n_heads", "vocab_size", "max_seq_len"),
    "preset": ("type", "preset", "n_layers", "vocab_size", "context_window"),
    "profile": ("type", "profile", "n_layers", "vocab_size", "context_window", "max_seq_len"),
}
_PROMPT_KEYS = {"text": ("text_path", "max_len"), "random": ("count", "min_len", "max_len")}


@dataclass(frozen=True)
class GridPoint:
    """A strategy's exit layers, the last at full depth, and one burst
    length per level below it; vanilla has one exit and no bursts."""

    strategy: str
    exits: tuple[int, ...]
    bursts: tuple[int, ...]

    def sort_key(self) -> tuple:
        return (list(STRATEGY_FIELDS).index(self.strategy), self.exits, self.bursts)


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


def config_object(value: Any, name: str, keys: Sequence[str] | None = None) -> dict:
    """`value` if it is a JSON object with no key outside `keys` (when
    given), or a ConfigError that names the field. The root's name is ""."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name or 'config root'} must be an object, got {value!r}")
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        field = f"{name}.{unknown[0]}" if name else unknown[0]
        raise ConfigError(f"unknown field {field}; known fields are {', '.join(keys)}")
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
        config_object(raw, "", ("seed", "backend", "prompts", "decode", "strategies"))
        backend = raw.get("backend")
        if not isinstance(backend, dict) or "type" not in backend:
            raise ConfigError("config needs a backend object with a type")
        if backend["type"] not in ("synthetic", "toy"):
            raise ConfigError(f"unknown backend type {backend['type']!r}")
        kind = "toy" if backend["type"] == "toy" else "preset" if "preset" in backend else "profile"
        config_object(backend, "backend", _BACKEND_KEYS[kind])
        prompt_spec = config_object(
            raw.get("prompts", {"count": 50, "min_len": 4, "max_len": 12}), "prompts"
        )
        source = "text" if "text_path" in prompt_spec else "random"
        config_object(prompt_spec, "prompts", _PROMPT_KEYS[source])
        strategies = raw.get("strategies") or [{"name": "hierarchical"}]
        if not isinstance(strategies, list):
            raise ConfigError(f"strategies must be a list of objects, got {strategies!r}")
        decode = config_object(raw.get("decode", {}), "decode", ("max_new_tokens", "policy"))
        max_new = config_int(
            decode.get("max_new_tokens", 32), "decode.max_new_tokens", minimum=1
        )
        seed = config_int(
            raw.get("seed", 0) if seed_override is None else seed_override, "seed", minimum=0
        )
        policy_raw = config_object(decode.get("policy", {}), "decode.policy", ("mode", "k"))
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
    name = config_object(entry, where).get("name")
    if name not in STRATEGY_FIELDS:
        raise ConfigError(
            f"{where}.name must be one of {', '.join(STRATEGY_FIELDS)}, got {name!r}"
        )
    parsed: dict[str, Any] = {"name": name}
    for key, value in config_object(entry, where, ("name", *STRATEGY_FIELDS[name])).items():
        if key == "name":
            continue
        field = f"{where}.{key}"
        if value == "all":
            parsed[key] = value
            continue
        minimum = None if FIELD_COLUMNS[key].startswith("L_") else 1
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

    A missing field takes its default (the default layer placement and
    DEFAULT_BURSTS). For an exit layer, "all" spans every layer that the
    field can hold under 1 <= L_d < L_i < L_f; for a burst length it is
    the default. The skip reason is logged once per strategy and invalid
    layer combination, however many burst lengths the grid pairs it with.
    """
    defaults = dict(zip(FIELD_COLUMNS, default_layer_placement(n_layers) + DEFAULT_BURSTS))
    points = set()
    skipped = set()
    for strategy in ({"name": "vanilla"}, *config.strategies):
        name = strategy["name"]
        fields = STRATEGY_FIELDS[name]
        depth = len(fields) // 2  # exit layers below the full depth
        axes = []
        for k, field in enumerate(fields):
            values = strategy.get(field, (defaults[field],))
            if values == "all":
                values = range(1 + k, n_layers - depth + 1 + k) if k < depth else (defaults[field],)
            axes.append(values)
        for combo in itertools.product(*axes):
            exits = (*combo[:depth], n_layers)
            if all(lo < hi for lo, hi in zip((0, *exits), exits)):
                points.add(GridPoint(name, exits, combo[depth:]))
            elif (name, exits) not in skipped:
                skipped.add((name, exits))
                columns = [FIELD_COLUMNS[field] for field in fields[:depth]]
                logger.warning(
                    "skip %s point (%s): needs 1 <= %s < %s",
                    name,
                    ", ".join(f"{column}={layer}" for column, layer in zip(columns, exits)),
                    " < ".join(columns),
                    n_layers,
                )
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
        else:
            result = speculative_decode(
                backend, prompt, point.exits, point.bursts, max_new_tokens,
                policy=policy, boundary_hook=boundary_hook,
            )
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
    return run_point(*payload)


def _check_worker(payload: tuple) -> tuple[int, float]:
    """Run one grid point with consistency_check at every top-exit
    verification; return the boundaries checked and the worst discrepancy."""
    backend = _backend_cache(payload[0], payload[1])
    worst: list[float] = []  # one entry per boundary

    def hook(session) -> None:
        reports = consistency_check(session.state, backend, session.state.tokens)
        worst.append(max(report.max_abs_discrepancy for report in reports))

    run_point(*payload, boundary_hook=hook)
    return len(worst), max(worst, default=0.0)


def resolve_jobs(requested: int) -> int:
    """Worker count: SPECDEC_JOBS when set, else the --jobs value; at least 1."""
    env = os.environ.get("SPECDEC_JOBS")
    if env:
        return config_int(env, "SPECDEC_JOBS", minimum=1)
    return config_int(requested, "--jobs", minimum=1)


def _map_points(
    worker, config: ExperimentConfig, prompts: list, points: Sequence[GridPoint], jobs: int
) -> list:
    """`worker` over each point's payload, in point order, in up to `jobs` processes."""
    payloads = [
        (config.backend, config.seed, prompts, point, config.max_new_tokens, config.policy)
        for point in points
    ]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, payloads, chunksize=1))
    return [worker(p) for p in payloads]


def run_points(
    config: ExperimentConfig, points: Sequence[GridPoint], jobs: int = 1
) -> list[dict]:
    """Execute grid points and assemble sorted result rows."""
    backend = _backend_cache(config.backend, config.seed)
    prompts = build_prompts(config, backend.vocab_size)
    by_point = {agg.point: agg for agg in _map_points(_worker, config, prompts, points, jobs)}
    baseline = by_point[GridPoint("vanilla", (backend.n_layers,), ())]
    return [
        _row_from_aggregate(by_point[point], baseline, len(prompts))
        for point in sorted(points, key=GridPoint.sort_key)
    ]


def _row_from_aggregate(agg: PointAggregate, baseline: PointAggregate, n_prompts: int) -> dict:
    point = agg.point
    try:
        rel = relative_throughput(agg.tokens, agg.ledger, baseline.tokens, baseline.ledger)
    except UndefinedRatioError:
        rel = None
    fields = dict(zip(STRATEGY_FIELDS[point.strategy], point.exits[:-1] + point.bursts))
    return {
        "strategy": point.strategy,
        **{column: fields.get(field) for field, column in FIELD_COLUMNS.items()},
        "L_f": point.exits[-1],
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
    bursts = {column: field for field, column in FIELD_COLUMNS.items() if column.startswith("N_")}
    if parameter not in bursts:
        raise ConfigError(f"ablation parameter must be one of {', '.join(bursts)}")
    if not values:
        return []
    strategy = {"name": "hierarchical", bursts[parameter]: tuple(values)}
    return run_sweep(replace(config, strategies=(strategy,)), jobs)


def run_check(config: ExperimentConfig, jobs: int = 1) -> tuple[int, int, int, float]:
    """Recompute the state at every top-exit verification of each
    speculative grid point. Returns the boundaries checked, the prompts,
    the points and the worst discrepancy, which is 0.0 on a sound state."""
    backend = _backend_cache(config.backend, config.seed)
    points = [p for p in expand_grid(config, backend.n_layers) if p.strategy != "vanilla"]
    if not points:
        raise ConfigError(f"strategies have no speculative point for {backend.n_layers} layers")
    prompts = build_prompts(config, backend.vocab_size)
    checked = _map_points(_check_worker, config, prompts, points, jobs)
    return sum(b for b, _ in checked), len(prompts), len(points), max(w for _, w in checked)


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
