"""Declarative experiment runner behind the CLI.

A config describes one backend, one prompt corpus, and a list of strategy
grids. `ExperimentConfig.from_dict` is the only reader of the raw config.
It checks every section once, when the config is loaded, against one table
of fields, rules and defaults, and builds the backend's model spec, so an
unknown key or a bad value is an error that names its field, and the
builders downstream read only checked values. Each strategy entry gives
only its own grid fields. Every report is such a grid: `sweep` runs the
config's own, while `compare` and `ablate` run fixed ones. A grid point
is a strategy's exits and burst lengths; it decodes the whole corpus,
aggregates its cost ledger, and becomes one result row. Vanilla
full-depth decoding over the same corpus is always computed and serves
as the throughput baseline. Rows are emitted in sorted parameter order
so output bytes never depend on scheduling.
"""
from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from .costs import CostLedger, relative_throughput
from .engine import (
    DEFAULT_BURSTS,
    DecodeStats,
    default_layer_placement,
    speculative_decode,
)
from .errors import ConfigError, UndefinedRatioError
from .model import ModelConfig, ToyTransformer
from .prompts import prompts_from_text, random_prompts
from .state import consistency_check
from .synthetic import PRESET_NAMES, SyntheticBackend, SyntheticModelSpec, calibrate_preset

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

_FLOAT_COLUMNS = {"acc_rate_intermediate", "acc_rate_target", "rel_throughput"}


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

_REQUIRED = object()
# Each config section kind's fields as (default, rule); a _REQUIRED field has no
# default. A rule is an integer field's minimum, the tuple of allowed values,
# `str`, or `dict` for an object. A backend is a toy model, a synthetic preset
# (whose depth is the preset's own unless n_layers is given) or a synthetic
# profile, and prompts come from a text file or a seeded generator.
SECTION_FIELDS = {
    "toy": {
        "n_layers": (_REQUIRED, 3), "d_model": (32, 1), "n_heads": (4, 1),
        "vocab_size": (64, 4), "max_seq_len": (256, 1),
    },
    "preset": {
        "preset": (_REQUIRED, PRESET_NAMES), "n_layers": (None, 3), "vocab_size": (256, 4),
        "context_window": (4, 1),
    },
    "profile": {
        "profile": (_REQUIRED, dict), "n_layers": (_REQUIRED, 3), "vocab_size": (256, 4),
        "context_window": (4, 1), "max_seq_len": (4096, 1),
    },
    "text": {"text_path": (_REQUIRED, str), "max_len": (64, 1)},
    "random": {"count": (50, 1), "min_len": (4, 1), "max_len": (12, 1)},
    "decode": {"max_new_tokens": (32, 1)},
}


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
    backend: ModelConfig | SyntheticModelSpec
    prompt_spec: dict
    strategies: tuple[dict, ...]
    max_new_tokens: int
    seed: int

    @classmethod
    def from_dict(cls, raw: dict, seed_override: int | None = None) -> "ExperimentConfig":
        config_object(raw, "", ("seed", "backend", "prompts", "decode", "strategies"))
        seed = config_int(
            raw.get("seed", 0) if seed_override is None else seed_override, "seed", minimum=0
        )
        if seed >= 2**64:
            raise ConfigError(f"seed must be < 2**64, got {seed}")
        prompts = config_object(raw.get("prompts", {}), "prompts")
        prompt_spec = _section(prompts, "prompts", "text" if "text_path" in prompts else "random")
        if prompt_spec.get("min_len", 1) > prompt_spec["max_len"]:
            raise ConfigError(f"prompts.min_len must be <= prompts.max_len, got {prompt_spec}")
        decode = _section(raw.get("decode", {}), "decode", "decode")
        strategies = raw.get("strategies", [{"name": "hierarchical"}])
        if not isinstance(strategies, list) or not strategies:
            raise ConfigError(f"strategies must be a non-empty list of objects, got {strategies!r}")
        backend = _model_spec(raw.get("backend"), seed)
        if "text_path" not in prompt_spec and backend.vocab_size > 2**63:
            # random prompt tokens are drawn as int64
            raise ConfigError(
                f"backend.vocab_size must be <= 2**63 for random prompts, got {backend.vocab_size}"
            )
        return cls(
            backend=backend,
            prompt_spec=prompt_spec,
            strategies=tuple(
                _parse_strategy(entry, f"strategies[{index}]")
                for index, entry in enumerate(strategies)
            ),
            max_new_tokens=decode["max_new_tokens"],
            seed=seed,
        )


def _section(raw: Any, where: str, kind: str, extra: tuple[str, ...] = ()) -> dict:
    """The fields of a `kind` section at `where`, each given one checked by
    its rule and each missing one set to its default; `extra` keys may appear."""
    fields = SECTION_FIELDS[kind]
    given = config_object(raw, where, (*extra, *fields))
    parsed = {}
    for key, (default, rule) in fields.items():
        field, value = f"{where}.{key}", given.get(key, default)
        if key not in given:
            if default is _REQUIRED:
                raise ConfigError(f"{field} is required for a {kind} {where}")
        elif isinstance(rule, int):
            value = config_int(value, field, rule)
        elif rule is dict:
            config_object(value, field)
        elif rule is str and not isinstance(value, str):
            raise ConfigError(f"{field} must be a string, got {value!r}")
        elif isinstance(rule, tuple) and value not in rule:
            raise ConfigError(f"{field} must be one of {', '.join(rule)}, got {value!r}")
        parsed[key] = value
    return parsed


def _model_spec(raw: Any, seed: int) -> ModelConfig | SyntheticModelSpec:
    """The checked model spec of the backend section, built with `seed`."""
    backend = config_object(raw, "backend")
    if backend.get("type") not in ("toy", "synthetic"):
        raise ConfigError(f"backend.type must be toy or synthetic, got {backend.get('type')!r}")
    kind = "toy" if backend["type"] == "toy" else "preset" if "preset" in backend else "profile"
    fields = _section(backend, "backend", kind, extra=("type",))
    if kind == "toy":
        if fields["d_model"] % fields["n_heads"]:
            raise ConfigError(f"backend.d_model must be a multiple of backend.n_heads: {fields}")
        return ModelConfig(**fields, seed=seed)
    if kind == "preset":
        try:  # each field is checked by now, all but the preset's least depth
            return calibrate_preset(fields.pop("preset"), **fields, seed=seed)
        except ConfigError as exc:
            raise ConfigError(f"backend.n_layers: {exc}") from None
    try:
        profile = {int(layer): float(alpha) for layer, alpha in fields.pop("profile").items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"backend.profile must map integer layers to numbers: {exc}") from None
    try:
        return SyntheticModelSpec(**fields, seed=seed, agreement_profile=profile)
    except ConfigError as exc:
        raise ConfigError(f"backend.profile must rate layers 1..backend.n_layers: {exc}") from None


def _parse_strategy(entry: Any, where: str) -> dict:
    """One strategies entry: its name and each grid field as int values or "all"."""
    name = config_object(entry, where).get("name")
    if not isinstance(name, str) or name not in STRATEGY_FIELDS:
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
        if not values:
            raise ConfigError(f"{field} must hold at least one value")
        parsed[key] = tuple(config_int(v, field, minimum) for v in values)
    return parsed


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config {path} cannot be read: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    config = ExperimentConfig.from_dict(raw, seed_override)
    spec = config.prompt_spec
    if "text_path" in spec:  # a relative path names a file beside the config
        spec = dict(spec, text_path=str(Path(path).parent / spec["text_path"]))
    return replace(config, prompt_spec=spec)


def build_backend(spec: ModelConfig | SyntheticModelSpec, seed: int):
    """The backend of a checked model spec, drawn from `seed`."""
    spec = replace(spec, seed=seed)
    return ToyTransformer(spec) if isinstance(spec, ModelConfig) else SyntheticBackend(spec)


def build_prompts(config: ExperimentConfig, vocab_size: int) -> list[list[int]]:
    """The prompt corpus of the config's checked prompt fields."""
    spec = config.prompt_spec
    if "text_path" not in spec:
        return random_prompts(**spec, vocab_size=vocab_size, seed=config.seed)
    try:
        return prompts_from_text(spec["text_path"], vocab_size, spec["max_len"])
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"prompts.text_path cannot be read: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"prompts.text_path: {exc}") from None


def _corpus(config: ExperimentConfig) -> list[list[int]]:
    """The config's prompts, once each is known to leave room for the budget."""
    prompts = build_prompts(config, config.backend.vocab_size)
    longest, limit = max(map(len, prompts)), config.backend.max_seq_len
    if longest + config.max_new_tokens > limit:
        raise ConfigError(
            f"decode.max_new_tokens {config.max_new_tokens} plus the longest prompt of "
            f"{longest} tokens exceeds the model's max_seq_len {limit}"
        )
    return prompts


def expand_grid(config: ExperimentConfig, n_layers: int) -> list[GridPoint]:
    """Cartesian strategy grids; invalid points are skipped with a logged reason.

    A missing field takes its default (the default layer placement and
    DEFAULT_BURSTS). For an exit layer, "all" spans every layer that the
    field can hold under 1 <= L_d < L_i < L_f; for a burst length it is
    the default. The skip reason is logged once per strategy and invalid
    layer combination, however many burst lengths the grid pairs it with,
    when no exit layer of the entry is "all". Otherwise a combination drawn
    from "all" was never asked for, so the reason is logged once per named
    exit-layer value that no combination can use.
    """
    defaults = dict(zip(FIELD_COLUMNS, default_layer_placement(n_layers) + DEFAULT_BURSTS))
    points = set()
    skipped = set()
    for strategy in ({"name": "vanilla"}, *config.strategies):
        name = strategy["name"]
        fields = STRATEGY_FIELDS[name]
        depth = len(fields) // 2  # exit layers below the full depth
        columns = [FIELD_COLUMNS[field] for field in fields[:depth]]
        named = all(strategy.get(field) != "all" for field in fields[:depth])
        axes = []
        for k, field in enumerate(fields):
            values = strategy.get(field, (defaults[field],))
            if values == "all":
                values = range(1 + k, n_layers - depth + 1 + k) if k < depth else (defaults[field],)
            axes.append(values)
        used = set()  # (exit index, layer) of every exit layer some point holds
        for combo in itertools.product(*axes):
            exits = (*combo[:depth], n_layers)
            if all(lo < hi for lo, hi in zip((0, *exits), exits)):
                points.add(GridPoint(name, exits, combo[depth:]))
                used.update(enumerate(exits[:depth]))
            elif named and (name, exits) not in skipped:
                skipped.add((name, exits))
                logger.warning(
                    "skip %s point (%s): needs 1 <= %s < %s",
                    name,
                    ", ".join(f"{column}={layer}" for column, layer in zip(columns, exits)),
                    " < ".join(columns),
                    n_layers,
                )
        if not named:
            unused = {
                (k, layer)
                for k, field in enumerate(fields[:depth])
                if strategy.get(field, "all") != "all"
                for layer in strategy[field]
            } - used
            for k, layer in sorted(unused):
                logger.warning(
                    "skip %s %s=%s: no point satisfies 1 <= %s < %s",
                    name, columns[k], layer, " < ".join(columns), n_layers,
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
    backend_spec: ModelConfig | SyntheticModelSpec,
    prompts: Sequence[Sequence[int]],
    point: GridPoint,
    max_new_tokens: int,
    boundary_hook=None,
) -> PointAggregate:
    backend = _backend_cache(backend_spec)
    aggregate = PointAggregate(point, 0, CostLedger(), DecodeStats())
    for prompt in prompts:
        result = speculative_decode(
            backend, prompt, point.exits, point.bursts, max_new_tokens,
            boundary_hook=boundary_hook,
        )
        aggregate.tokens += len(result.tokens)
        aggregate.ledger.merge(result.ledger)
        aggregate.stats += result.stats
    return aggregate


_BACKENDS: dict[ModelConfig | SyntheticModelSpec, Any] = {}


def _backend_cache(spec: ModelConfig | SyntheticModelSpec):
    """The backend of a model spec, built once per process."""
    if spec not in _BACKENDS:
        _BACKENDS[spec] = build_backend(spec, spec.seed)
    return _BACKENDS[spec]


def _worker(payload: tuple) -> PointAggregate:
    return run_point(*payload)


def _check_worker(payload: tuple) -> tuple[int, float]:
    """Run one grid point with consistency_check at every top-exit
    verification; return the boundaries checked and the worst discrepancy."""
    backend = _backend_cache(payload[0])
    worst: list[float] = []  # one entry per boundary

    def hook(session) -> None:
        reports = consistency_check(session.state, backend, session.state.tokens)
        worst.append(max(report.max_abs_discrepancy for report in reports))

    run_point(*payload, boundary_hook=hook)
    return len(worst), max(worst, default=0.0)


def _map_points(
    worker, config: ExperimentConfig, prompts: list, points: Sequence[GridPoint], jobs: int
) -> list:
    """`worker` over each point's payload, in point order, in up to `jobs` processes."""
    payloads = [(config.backend, prompts, point, config.max_new_tokens) for point in points]
    if jobs > 1 and len(payloads) > 1:
        # Imported here: its multiprocessing imports cost every import of specdec ~14 ms.
        from concurrent.futures import ProcessPoolExecutor

        # Under fork a pool starts all its workers at once: no more than there are points.
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            return list(pool.map(worker, payloads, chunksize=1))
    return [worker(p) for p in payloads]


def run_points(
    config: ExperimentConfig, points: Sequence[GridPoint], jobs: int = 1
) -> list[dict]:
    """Execute grid points and assemble sorted result rows."""
    prompts = _corpus(config)
    by_point = {agg.point: agg for agg in _map_points(_worker, config, prompts, points, jobs)}
    baseline = by_point[GridPoint("vanilla", (config.backend.n_layers,), ())]
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
    return run_points(config, expand_grid(config, config.backend.n_layers), jobs)


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
    n_layers = config.backend.n_layers
    points = [p for p in expand_grid(config, n_layers) if p.strategy != "vanilla"]
    if not points:
        raise ConfigError(f"strategies have no speculative point for {n_layers} layers")
    prompts = _corpus(config)
    checked = _map_points(_check_worker, config, prompts, points, jobs)
    return sum(b for b, _ in checked), len(prompts), len(points), max(w for _, w in checked)


def run_compare(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Vanilla vs selfspec vs hierarchical at the default placement."""
    strategies = ({"name": "selfspec"}, {"name": "hierarchical"})
    return run_sweep(replace(config, strategies=strategies), jobs)


# -- report emission ----------------------------------------------------


def _format_cell(column: str, value) -> str:
    if value is None:
        return ""
    if column in _FLOAT_COLUMNS:
        return f"{value:.6f}"
    return str(value)


def emit_report(rows: Sequence[dict], out_path: str | Path, fmt: str = "csv") -> Path:
    """Write result rows as CSV or JSON lines in RESULT_COLUMNS order."""
    columns = RESULT_COLUMNS
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
