"""Declarative experiment runner behind the CLI.

A config describes one backend, one prompt corpus, and a list of strategy
grids. `ExperimentConfig.from_dict` is the only reader of the raw config.
It checks every section once, when the config is loaded, against one table
of fields, rules and defaults, and builds the backend's model spec, so an
unknown key or a bad value is an error that names its field, and the
builders downstream read only checked values. A strategy entry gives only
its own alias's fields, which `STRATEGY_FIELDS` parses into exit-layer and
burst-length axes. Every report is such a grid: `sweep` runs the config's
own, while `compare` runs a fixed one. A grid point is the exits and burst
lengths of one `speculative_decode` call, and its exit count names its
strategy; it decodes the whole corpus, sums the tokens, cost ledgers and
stats, and becomes one result row. Vanilla full-depth decoding over the
same corpus is always computed and serves as the throughput baseline. Rows
are emitted in sorted parameter order so output bytes never depend on
scheduling.
"""
from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .costs import CostLedger, relative_throughput
from .engine import (
    DEFAULT_BURSTS,
    DecodeStats,
    default_layer_placement,
    speculative_decode,
)
from .errors import ConfigError
from .prompts import prompts_from_text, random_prompts
from .state import LayerReport, _layer_reports, consistency_check
from .synthetic import PRESET_NAMES, SyntheticBackend, SyntheticModelSpec, calibrate_preset

if TYPE_CHECKING:  # pragma: no cover
    from .model import ModelConfig

logger = logging.getLogger("specdec")

# The report columns of the exit layers below the full depth and of the burst
# lengths, one per level, shallowest first.
EXIT_COLUMNS = ("L_d", "L_i")
BURST_COLUMNS = ("N_d", "N_i")
RESULT_COLUMNS = (
    "strategy", *EXIT_COLUMNS, "L_f", *BURST_COLUMNS, "prompts", "committed_tokens",
    "seq_units", "pos_layer_units", "acc_rate_intermediate", "acc_rate_target", "flushed",
    "rel_throughput",
)

_FLOAT_COLUMNS = {"acc_rate_intermediate", "acc_rate_target", "rel_throughput"}


# The config fields of each strategy's two axes: its exit layers below the full
# depth, then one burst length per level, both shallowest first. Vanilla has none;
# its row is the baseline.
STRATEGY_FIELDS = {
    "vanilla": ((), ()),
    "selfspec": (("draft_layer",), ("draft_len",)),
    "hierarchical": (("draft_layer", "intermediate_layer"), ("draft_len", "accept_window")),
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

# A random prompt is a list of Python ints drawn at about 2 M tokens/s, whatever the
# backend's max_seq_len: 2**20 tokens take about half a second and some 40 MB.
MAX_RANDOM_PROMPT_LEN = 2**20


@dataclass(frozen=True)
class GridPoint:
    """The arguments of one `speculative_decode` call: exit layers, the last
    at full depth, and one burst length per level below it. Vanilla has one
    exit and no bursts."""

    exits: tuple[int, ...]
    bursts: tuple[int, ...]

    @property
    def strategy(self) -> str:
        """The strategy of this many exits, in `STRATEGY_FIELDS` order."""
        return list(STRATEGY_FIELDS)[len(self.exits) - 1]

    def sort_key(self) -> tuple:
        return (len(self.exits), self.exits, self.bursts)


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
        if "text_path" not in prompt_spec:
            # Random tokens replay numpy's int64 `integers` draws: same bound.
            if backend.vocab_size > 2**63:
                raise ConfigError(
                    f"backend.vocab_size must be <= 2**63 for random prompts, "
                    f"got {backend.vocab_size}"
                )
            if prompt_spec["max_len"] > MAX_RANDOM_PROMPT_LEN:
                raise ConfigError(
                    f"prompts.max_len must be <= {MAX_RANDOM_PROMPT_LEN} for random prompts, "
                    f"got {prompt_spec['max_len']}"
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
        from .model import ModelConfig  # loads numpy, which a synthetic run never needs

        return ModelConfig(**fields, seed=seed)
    if kind == "preset":
        try:  # each field is checked by now, all but the preset's least depth
            return calibrate_preset(fields.pop("preset"), **fields, seed=seed)
        except ConfigError as exc:
            raise ConfigError(f"backend.n_layers: {exc}") from None
    profile: dict[int, float] = {}
    for key, alpha in fields.pop("profile").items():
        layer = config_int(key, "backend.profile layer")
        if layer in profile:
            raise ConfigError(f"backend.profile names layer {layer} twice, again as {key!r}")
        if type(alpha) not in (int, float):  # type, not isinstance: a bool is an int
            raise ConfigError(f"backend.profile layer {key} must map to a number, got {alpha!r}")
        profile[layer] = float(alpha)
    try:
        return SyntheticModelSpec(**fields, seed=seed, agreement_profile=profile)
    except ConfigError as exc:
        raise ConfigError(f"backend.profile must rate layers 1..backend.n_layers: {exc}") from None


def _parse_strategy(entry: Any, where: str) -> dict:
    """One strategies entry as its name, its exit-layer axes and its burst-length
    axes, each in `STRATEGY_FIELDS` order. An axis holds a tuple of ints, or None
    for the default; an exit axis may also hold "all". A burst length is >= 1."""
    name = config_object(entry, where).get("name")
    if not isinstance(name, str) or name not in STRATEGY_FIELDS:
        raise ConfigError(
            f"{where}.name must be one of {', '.join(STRATEGY_FIELDS)}, got {name!r}"
        )
    exit_fields, burst_fields = STRATEGY_FIELDS[name]
    raw = config_object(entry, where, ("name", *exit_fields, *burst_fields))
    given = {}
    for key, value in raw.items():  # in the entry's order: its first bad field is named
        if key == "name" or value == "all":
            continue
        field = f"{where}.{key}"
        values = value if isinstance(value, list) else [value]
        if not values:
            raise ConfigError(f"{field} must hold at least one value")
        given[key] = tuple(config_int(v, field, None if key in exit_fields else 1) for v in values)
    return {
        "name": name,
        "exits": ["all" if raw.get(key) == "all" else given.get(key) for key in exit_fields],
        "bursts": [given.get(key) for key in burst_fields],  # a burst's "all" is its default
    }


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj: dict[str, Any] = {}
        for key, value in pairs:
            if key in obj:  # json would keep the last value silently
                raise ConfigError(f"--config {path} names the key {key!r} twice in one object")
            obj[key] = value
        return obj

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config {path} parse error at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, too long an int, too deep
        raise ConfigError(f"--config {path} cannot be read: {exc}") from None
    config = ExperimentConfig.from_dict(raw, seed_override)
    spec = config.prompt_spec
    if "text_path" in spec:  # a relative path names a file beside the config
        spec = dict(spec, text_path=str(Path(path).parent / spec["text_path"]))
    return replace(config, prompt_spec=spec)


def build_backend(spec: ModelConfig | SyntheticModelSpec, seed: int):
    """The backend of a checked model spec, drawn from `seed`."""
    spec = replace(spec, seed=seed)
    if isinstance(spec, SyntheticModelSpec):
        return SyntheticBackend(spec)
    from .model import ToyTransformer

    try:
        return ToyTransformer(spec)
    except MemoryError:  # numpy's, for weights too large to allocate
        fields = ("n_layers", "d_model", "vocab_size", "max_seq_len")
        sizes = ", ".join(f"backend.{field} {getattr(spec, field)}" for field in fields)
        raise ConfigError(f"backend too large for memory: {sizes}") from None


def build_prompts(config: ExperimentConfig, vocab_size: int) -> list[list[int]]:
    """The prompt corpus of the config's checked prompt fields. A random prompt
    drawn longer than the backend's max_seq_len is an error before its tokens are drawn."""
    spec = config.prompt_spec
    if "text_path" not in spec:
        return random_prompts(
            **spec, vocab_size=vocab_size, seed=config.seed, max_seq_len=config.backend.max_seq_len
        )
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

    Axis k of an entry that leaves it out takes the default layer placement's
    k-th layer for an exit, DEFAULT_BURSTS[k] for a burst. For an exit layer,
    "all" spans every layer that the axis can hold under 1 <= L_d < L_i < L_f.
    So an entry that lists only a burst length, such as {"name":
    "hierarchical", "draft_len": [1, 3]}, varies that burst with every other
    axis at its default. The skip reason is logged once per strategy and
    invalid layer combination, however many burst lengths the grid pairs it
    with, when no exit axis of the entry is "all". Otherwise a combination
    drawn from "all" was never asked for, so the reason is logged once per
    named exit layer that no combination can use.
    """
    placement = default_layer_placement(n_layers)
    points = set()
    skipped = set()
    for strategy in (_parse_strategy({"name": "vanilla"}, "vanilla"), *config.strategies):
        name, exit_axes = strategy["name"], strategy["exits"]
        depth = len(exit_axes)  # exit layers below the full depth
        columns = EXIT_COLUMNS[:depth]
        named = "all" not in exit_axes
        axes = [
            range(1 + k, n_layers - depth + 1 + k) if values == "all" else values or (placement[k],)
            for k, values in enumerate(exit_axes)
        ] + [values or (DEFAULT_BURSTS[k],) for k, values in enumerate(strategy["bursts"])]
        used = set()  # (exit index, layer) of every exit layer some point holds
        for combo in itertools.product(*axes):
            exits = (*combo[:depth], n_layers)
            if all(lo < hi for lo, hi in zip((0, *exits), exits)):
                points.add(GridPoint(exits, combo[depth:]))
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
                for k, values in enumerate(exit_axes)
                if isinstance(values, tuple)
                for layer in values
            } - used
            for k, layer in sorted(unused):
                logger.warning(
                    "skip %s %s=%s: no point satisfies 1 <= %s < %s",
                    name, columns[k], layer, " < ".join(columns), n_layers,
                )
    return sorted(points, key=GridPoint.sort_key)


def run_point(
    backend_spec: ModelConfig | SyntheticModelSpec,
    prompts: Sequence[Sequence[int]],
    point: GridPoint,
    max_new_tokens: int,
    boundary_hook=None,
) -> tuple[int, CostLedger, DecodeStats]:
    """Decode every prompt at `point`; return the committed tokens, the
    cost ledger and the stats, each summed over the corpus."""
    backend = _backend_cache(backend_spec)
    tokens, ledger, stats = 0, CostLedger(), DecodeStats()
    for prompt in prompts:
        result = speculative_decode(
            backend, prompt, point.exits, point.bursts, max_new_tokens,
            boundary_hook=boundary_hook,
        )
        tokens += len(result.tokens)
        ledger.merge(result.ledger)
        stats += result.stats
    return tokens, ledger, stats


_BACKENDS: dict[ModelConfig | SyntheticModelSpec, Any] = {}


def _backend_cache(spec: ModelConfig | SyntheticModelSpec):
    """The backend of a model spec, built once per process."""
    if spec not in _BACKENDS:
        _BACKENDS[spec] = build_backend(spec, spec.seed)
    return _BACKENDS[spec]


def _check_worker(backend_spec, prompts, point, max_new_tokens) -> tuple[int, float]:
    """Decode every prompt at `point` with consistency_check at every top-exit
    verification, then compare each decode's final state, after finalize,
    with a fresh monolithic `reference_state`. Return the boundaries checked
    and the worst discrepancy of all those comparisons."""
    backend = _backend_cache(backend_spec)
    worst: list[float] = []  # one entry per boundary
    finals: list[float] = []  # one entry per decode with tensors

    def hook(session) -> None:
        worst.append(_worst(consistency_check(session.state, backend, session.state.tokens)))

    for prompt in prompts:
        state = speculative_decode(
            backend, prompt, point.exits, point.bursts, max_new_tokens, boundary_hook=hook
        ).state
        if state.kv_k:  # a state without tensors has nothing to compare
            reference = backend.reference_state(state.tokens, state.fills(), state.buffered_layers)
            finals.append(_worst(_layer_reports(state, reference)))
    return len(worst), max(worst + finals, default=0.0)


def _worst(reports: Sequence[LayerReport]) -> float:
    return max(report.max_abs_discrepancy for report in reports)


def _map_points(
    worker, config: ExperimentConfig, prompts: list, points: Sequence[GridPoint], jobs: int
) -> list:
    """`worker(backend spec, prompts, point, max_new_tokens)` of each point,
    in point order, in up to `jobs` processes."""
    repeat = itertools.repeat  # every point shares the other three arguments
    args = (repeat(config.backend), repeat(prompts), points, repeat(config.max_new_tokens))
    if jobs > 1 and len(points) > 1:
        # Imported here: its multiprocessing imports cost every import of specdec ~14 ms.
        from concurrent.futures import ProcessPoolExecutor

        # Under fork a pool starts all its workers at once: no more than there are points.
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            return list(pool.map(worker, *args, chunksize=1))
    return list(map(worker, *args))


def run_points(
    config: ExperimentConfig, points: Sequence[GridPoint], jobs: int = 1
) -> list[dict]:
    """Run each grid point over the corpus and return the result rows in
    sorted point order."""
    prompts = _corpus(config)
    points = sorted(points, key=GridPoint.sort_key)
    sums = _map_points(run_point, config, prompts, points, jobs)
    baseline = sums[points.index(GridPoint((config.backend.n_layers,), ()))]
    return [_row(point, sum_, baseline, len(prompts)) for point, sum_ in zip(points, sums)]


def _row(point: GridPoint, sums: tuple, baseline: tuple, n_prompts: int) -> dict:
    """The result row of a point from its and the baseline's `run_point` sums."""
    tokens, ledger, stats = sums
    return {
        "strategy": point.strategy,
        **dict(itertools.zip_longest(EXIT_COLUMNS, point.exits[:-1])),
        "L_f": point.exits[-1],
        **dict(itertools.zip_longest(BURST_COLUMNS, point.bursts)),
        "prompts": n_prompts,
        "committed_tokens": tokens,
        "seq_units": ledger.sequential_units(),
        "pos_layer_units": ledger.position_layer_units(),
        "acc_rate_intermediate": stats.acceptance_rate_intermediate,
        "acc_rate_target": stats.acceptance_rate_target,
        "flushed": stats.flushed,
        "rel_throughput": relative_throughput(tokens, ledger, *baseline[:2]),
    }


# -- entry points ------------------------------------------------------


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    return run_points(config, expand_grid(config, config.backend.n_layers), jobs)


def run_check(config: ExperimentConfig, jobs: int = 1) -> tuple[int, int, int, float]:
    """Recompute the state at every top-exit verification of each
    speculative grid point, and once more at each decode's end. Returns the
    boundaries checked, the prompts, the points and the worst discrepancy,
    which is 0.0 on a sound state."""
    n_layers = config.backend.n_layers
    points = [p for p in expand_grid(config, n_layers) if len(p.exits) > 1]
    if not points:
        raise ConfigError(f"strategies have no speculative point for {n_layers} layers")
    prompts = _corpus(config)
    checked = _map_points(_check_worker, config, prompts, points, jobs)
    return sum(b for b, _ in checked), len(prompts), len(points), max(w for _, w in checked)


def run_compare(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Vanilla vs selfspec vs hierarchical at the default placement."""
    strategies = tuple(
        _parse_strategy({"name": name}, "compare") for name in ("selfspec", "hierarchical")
    )
    return run_sweep(replace(config, strategies=strategies), jobs)


# -- report emission ----------------------------------------------------


def _format_cell(column: str, value) -> str:
    if value is None:
        return ""
    if column in _FLOAT_COLUMNS:
        return f"{value:.6f}"
    return str(value)


def _write_lines(out_path: str | Path, lines: Sequence[str]) -> Path:
    """Write each line with its newline, making the parent directories."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return out_path


def emit_report(rows: Sequence[dict], out_path: str | Path, fmt: str = "csv") -> Path:
    """Write result rows as CSV or JSON lines in RESULT_COLUMNS order."""
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown report format {fmt!r}")
    columns = RESULT_COLUMNS
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += (",".join(_format_cell(col, row.get(col)) for col in columns) for row in rows)
    else:
        lines = []
        for row in rows:
            clean = {
                col: (round(row[col], 10) if isinstance(row.get(col), float) else row.get(col))
                for col in columns
            }
            lines.append(json.dumps(clean, sort_keys=True))
    return _write_lines(out_path, lines)


def emit_matrix(rows: Sequence[dict], out_path: str | Path, n_layers: int) -> Path:
    """Reshape hierarchical sweep rows into (L_d x L_i) throughput matrices.

    Cells without a corresponding valid grid point are NaN. Rows are
    draft layers 1..n_layers-2 top to bottom; columns are intermediate
    layers 2..n_layers-1 left to right. A sweep over one burst pair writes
    one matrix; over several, one per (N_d, N_i) in sorted order, each
    under a `# N_d=... N_i=...` line.
    """
    cells: dict[tuple, dict[tuple[int, int], float]] = {}
    for row in rows:
        if row["strategy"] != "hierarchical":
            continue
        block = cells.setdefault((row["N_d"], row["N_i"]), {})
        block[(row["L_d"], row["L_i"])] = row["rel_throughput"]
    lines = [
        "# relative throughput matrix; rows: L_d 1..%d, cols: L_i 2..%d"
        % (n_layers - 2, n_layers - 1)
    ]
    for bursts in sorted(cells) or [None]:
        if len(cells) > 1:
            lines.append("# N_d=%s N_i=%s" % bursts)
        block = cells.get(bursts, {})
        for draft in range(1, n_layers - 1):
            cols = []
            for inter in range(2, n_layers):
                value = block.get((draft, inter))
                cols.append("NaN" if value is None else f"{value:.6f}")
            lines.append(" ".join(cols))
    return _write_lines(out_path, lines)
