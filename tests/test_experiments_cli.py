import concurrent.futures
import hashlib
import json
import re
import subprocess
import sys
import time

import pytest

from specdec import engine, experiments
from specdec.cli import main
from specdec.errors import AlignmentError, ConfigError
from specdec.state import LayerReport
from specdec.experiments import (
    MAX_RANDOM_PROMPT_LEN,
    ExperimentConfig,
    GridPoint,
    build_backend,
    config_int,
    expand_grid,
    emit_matrix,
    emit_report,
    load_config,
    run_check,
    run_compare,
    run_sweep,
)

from conftest import all_agree_backend

SWEEP_CONFIG = {
    "seed": 3,
    "backend": {"type": "synthetic", "preset": "quarter-depth-69", "n_layers": 32},
    "prompts": {"count": 4, "min_len": 3, "max_len": 6},
    "decode": {"max_new_tokens": 8},
    "strategies": [{"name": "hierarchical", "draft_layer": "all", "intermediate_layer": "all"}],
}

SMALL_CONFIG = {
    "seed": 5,
    "backend": {"type": "synthetic", "preset": "quarter-depth-69", "n_layers": 32},
    "prompts": {"count": 6, "min_len": 3, "max_len": 6},
    "decode": {"max_new_tokens": 10},
    "strategies": [
        {"name": "selfspec", "draft_layer": [2, 4]},
        {"name": "hierarchical"},
    ],
}


# A synthetic profile backend with no tensors, whose max_seq_len holds any prompt.
PROFILE_BACKEND = {
    "type": "synthetic", "n_layers": 3, "profile": {"1": 0.5, "2": 0.8, "3": 1.0},
    "max_seq_len": 10**13,
}


# A toy model whose max_seq_len of 16 cannot hold a 4- or 5-token prompt plus 14 new tokens.
TIGHT_TOY = {
    "backend": {"type": "toy", "n_layers": 4, "d_model": 8, "n_heads": 2, "max_seq_len": 16},
    "prompts": {"count": 3, "min_len": 4, "max_len": 5},
    "decode": {"max_new_tokens": 14},
    "strategies": [{"name": "selfspec"}],
}

# A valid profile for a 4-layer synthetic backend, which the profile cases spoil.
FULL_PROFILE = {"1": 0.5, "2": 0.6, "3": 0.7, "4": 1.0}

# case -> (config overrides, command, field the message names)
MALFORMED_INPUTS = {
    "synthetic-without-profile": (
        {"backend": {"type": "synthetic", "n_layers": 8}}, ["compare"], "backend.profile"
    ),
    "non-integer-n-layers": (
        {"backend": {"type": "toy", "n_layers": "x"}}, ["compare"], "backend.n_layers"
    ),
    "non-integer-max-new-tokens": (
        {"decode": {"max_new_tokens": "abc"}}, ["compare"], "decode.max_new_tokens"
    ),
    "fractional-d-model": (
        {"backend": {"type": "toy", "n_layers": 4, "d_model": 16.5}}, ["compare"],
        "backend.d_model",
    ),
    "bool-n-layers": (
        {"backend": {"type": "toy", "n_layers": True}}, ["compare"], "backend.n_layers"
    ),
    "zero-jobs-flag": ({}, ["compare", "--jobs", "0"], "--jobs"),
    "negative-jobs-flag": ({}, ["compare", "--jobs", "-3"], "--jobs"),
    "non-integer-grid-value": (
        {"strategies": [{"name": "hierarchical", "draft_layer": ["x"]}]}, ["sweep"],
        "strategies[0].draft_layer",
    ),
    "fractional-grid-value": (
        {"strategies": [{"name": "selfspec", "draft_layer": 2.5}]}, ["sweep"],
        "strategies[0].draft_layer",
    ),
    "null-grid-value": (
        {"strategies": [{"name": "selfspec", "draft_len": None}]}, ["sweep"],
        "strategies[0].draft_len",
    ),
    "strategy-not-an-object": ({"strategies": ["hierarchical"]}, ["sweep"], "strategies[0]"),
    "decode-not-an-object": ({"decode": 5}, ["compare"], "decode"),
    "policy-not-an-object": ({"decode": {"policy": "greedy"}}, ["compare"], "decode.policy"),
    "prompts-not-an-object": ({"prompts": [1, 2]}, ["compare"], "prompts"),
    "non-string-text-path": ({"prompts": {"text_path": 5}}, ["compare"], "prompts.text_path"),
    "negative-seed": ({"seed": -1}, ["compare"], "seed"),
    "unknown-strategy-compare": (
        {"strategies": [{"name": "hierarchcal"}]}, ["compare"], "strategies[0].name"
    ),
    "unknown-strategy-check": (
        {"strategies": [{"name": "hierarchcal"}]}, ["check"], "strategies[0].name"
    ),
    "unknown-grid-key": (
        {"strategies": [{"name": "hierarchical", "draft_layers": [1, 2]}]}, ["sweep"],
        "strategies[0].draft_layers",
    ),
    "zero-grid-draft-len": (
        {"strategies": [{"name": "hierarchical", "draft_len": [0, 2]}]}, ["sweep"],
        "strategies[0].draft_len",
    ),
    "zero-grid-accept-window": (
        {"strategies": [{"name": "hierarchical", "accept_window": [0, 2]}]}, ["sweep"],
        "strategies[0].accept_window",
    ),
    "non-integer-grid-accept-window": (
        {"strategies": [{"name": "hierarchical", "accept_window": [2, "x"]}]}, ["sweep"],
        "strategies[0].accept_window",
    ),
    "check-without-valid-point": (
        {
            "backend": {"type": "toy", "n_layers": 4, "d_model": 8, "n_heads": 2},
            "strategies": [{"name": "hierarchical"}],
        },
        ["check"], "strategies",
    ),
    "check-vanilla-only": ({"strategies": [{"name": "vanilla"}]}, ["check"], "strategies"),
    "check-zero-jobs-flag": ({}, ["check", "--jobs", "0"], "--jobs"),
    "over-long-out-name": ({}, ["compare", "--out", "a" * 300], "--out"),
    "over-long-out-name-below-a-missing-directory": (
        {}, ["compare", "--out", f"x/{'a' * 300}/y"], "--out"
    ),
    # numpy refuses so large an array before it allocates any of it.
    "toy-backend-too-large-for-memory": (
        {"backend": {"type": "toy", "n_layers": 4, "d_model": 8, "max_seq_len": 10**15}},
        ["compare"], "backend.max_seq_len",
    ),
    "unknown-root-key": ({"prompt": {"count": 2}}, ["compare"], "prompt"),
    "unknown-toy-backend-key": (
        {"backend": {"type": "toy", "n_layers": 4, "d_modle": 16}}, ["compare"],
        "backend.d_modle",
    ),
    "preset-backend-max-seq-len": (
        {"backend": {"type": "synthetic", "preset": "quarter-depth-69", "max_seq_len": 8}},
        ["compare"], "backend.max_seq_len",
    ),
    "unknown-profile-backend-key": (
        {"backend": {"type": "synthetic", "n_layers": 4, "profile": {"4": 1.0}, "seed": 1}},
        ["compare"], "backend.seed",
    ),
    "unknown-prompts-key": ({"prompts": {"cout": 3}}, ["compare"], "prompts.cout"),
    "text-prompts-with-count": (
        {"prompts": {"text_path": "prompts.txt", "count": 3}}, ["compare"], "prompts.count"
    ),
    "unknown-decode-key": (
        {"decode": {"max_new_token": 4}}, ["compare"], "decode.max_new_token"
    ),
    "policy-field": ({"decode": {"policy": {"mode": "greedy"}}}, ["compare"], "decode.policy"),
    "seed-beyond-64-bits": ({"seed": 2**64}, ["compare"], "seed"),
    # A random prompt is capped whatever the backend's max_seq_len.
    "max-len-beyond-random-cap": (
        {"backend": PROFILE_BACKEND, "prompts": {"min_len": 10**12, "max_len": 10**12}},
        ["compare"], "prompts.max_len",
    ),
    "seed-flag-beyond-64-bits": ({}, ["compare", "--seed", str(2**64)], "seed"),
    "empty-grid-list-sweep": (
        {"strategies": [{"name": "hierarchical", "draft_layer": []}]}, ["sweep"],
        "strategies[0].draft_layer",
    ),
    "empty-grid-list-check": (
        {"strategies": [{"name": "selfspec", "draft_len": []}]}, ["check"],
        "strategies[0].draft_len",
    ),
    "empty-strategies": ({"strategies": []}, ["sweep"], "strategies"),
    "zero-prompt-count": (
        {"prompts": {"count": 0, "min_len": 3, "max_len": 6}}, ["compare"], "prompts.count"
    ),
    "min-len-above-max-len": (
        {"prompts": {"count": 2, "min_len": 7, "max_len": 3}}, ["compare"],
        "prompts.min_len",
    ),
    "text-prompts-zero-max-len": (
        {"prompts": {"text_path": "prompts.txt", "max_len": 0}}, ["compare"],
        "prompts.max_len",
    ),
    "profile-missing-layers": (
        {"backend": {"type": "synthetic", "n_layers": 4, "profile": {"1": 0.5, "4": 1.0}}},
        ["compare"], "backend.profile",
    ),
    "bool-profile-alpha": (
        {"backend": {"type": "synthetic", "n_layers": 4, "profile": {**FULL_PROFILE, "4": True}}},
        ["compare"], "backend.profile",
    ),
    "string-profile-alpha": (
        {"backend": {"type": "synthetic", "n_layers": 4, "profile": {**FULL_PROFILE, "1": "0.5"}}},
        ["compare"], "backend.profile",
    ),
    "profile-layer-named-twice": (
        {"backend": {"type": "synthetic", "n_layers": 4, "profile": {**FULL_PROFILE, "01": 0.5}}},
        ["compare"], "backend.profile",
    ),
    "non-integer-profile-layer": (
        {"backend": {"type": "synthetic", "n_layers": 4, "profile": {**FULL_PROFILE, "a": 0.5}}},
        ["compare"], "backend.profile",
    ),
    "unknown-preset": (
        {"backend": {"type": "synthetic", "preset": "llama-70b"}}, ["compare"],
        "backend.preset",
    ),
    "unknown-backend-type": (
        {"backend": {"type": "warp-drive"}}, ["compare"], "backend.type"
    ),
    "two-layer-toy": (
        {"backend": {"type": "toy", "n_layers": 2}}, ["compare"], "backend.n_layers"
    ),
    "zero-context-window": (
        {"backend": {"type": "synthetic", "preset": "quarter-depth-69", "context_window": 0}},
        ["compare"], "backend.context_window",
    ),
    "missing-text-path-file": (
        {"prompts": {"text_path": "missing.txt"}}, ["compare"], "prompts.text_path"
    ),
    "blank-text-path-file": (
        {"prompts": {"text_path": "blank.txt"}}, ["compare"], "prompts.text_path"
    ),
    "budget-beyond-max-seq-len-compare": (TIGHT_TOY, ["compare"], "decode.max_new_tokens"),
    "budget-beyond-max-seq-len-check": (TIGHT_TOY, ["check"], "decode.max_new_tokens"),
    "random-prompts-over-vocab-beyond-63-bits": (
        {"backend": {"type": "synthetic", "preset": "quarter-depth-69", "vocab_size": 10**20}},
        ["compare"], "backend.vocab_size",
    ),
}

# case -> (config text that json.dumps does not write, command, what the message names)
MALFORMED_TEXTS = {
    "nested-beyond-recursion-limit": ("[" * 200000 + "]" * 200000, ["check"], "--config"),
    "integer-beyond-digit-limit": ('{"seed": 1' + "0" * 5000 + "}", ["check"], "--config"),
    # Without the check, json keeps the last value and the run exits 0.
    "key-named-twice": (
        json.dumps(SMALL_CONFIG)[:-1] + ', "decode": {"max_new_tokens": 8}}', ["compare"],
        "'decode' twice",
    ),
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# Each alias entry's grid as first recorded: the points that `expand_grid` gives at 12
# layers, the count and the sha256 of the points' repr at 80, and the one skip warning
# that each size logs, if any, with {n} the layer count.
ALIAS_GRIDS = {
    "selfspec-defaults": (
        {"name": "selfspec"},
        [((12,), ()), ((2, 12), (2,))],
        (2, "74e2a0ed5c5ba4914a3215feb71084dafd5eb2f1061b52ee551d89d6a4cec2a8"),
        None,
    ),
    "hierarchical-defaults": (
        {"name": "hierarchical"},
        [((12,), ()), ((2, 3, 12), (2, 4))],
        (2, "349d987fdaf8b49dbb349a5e2f806277257cf88097f18194f1eaa45536408d4a"),
        None,
    ),
    "selfspec-all-layers-two-bursts": (
        {"name": "selfspec", "draft_layer": "all", "draft_len": [1, 3]},
        [
            ((12,), ()), ((1, 12), (1,)), ((1, 12), (3,)), ((2, 12), (1,)),
            ((2, 12), (3,)), ((3, 12), (1,)), ((3, 12), (3,)), ((4, 12), (1,)),
            ((4, 12), (3,)), ((5, 12), (1,)), ((5, 12), (3,)), ((6, 12), (1,)),
            ((6, 12), (3,)), ((7, 12), (1,)), ((7, 12), (3,)), ((8, 12), (1,)),
            ((8, 12), (3,)), ((9, 12), (1,)), ((9, 12), (3,)), ((10, 12), (1,)),
            ((10, 12), (3,)), ((11, 12), (1,)), ((11, 12), (3,)),
        ],
        (159, "705f1a7af0c4b461e7b66650500bb1f6aa4ef276979dfff6d2218dc6e9baf3b3"),
        None,
    ),
    "hierarchical-all-layers": (
        {"name": "hierarchical", "draft_layer": "all", "intermediate_layer": "all"},
        [
            ((12,), ()),
            ((1, 2, 12), (2, 4)), ((1, 3, 12), (2, 4)), ((1, 4, 12), (2, 4)),
            ((1, 5, 12), (2, 4)), ((1, 6, 12), (2, 4)), ((1, 7, 12), (2, 4)),
            ((1, 8, 12), (2, 4)), ((1, 9, 12), (2, 4)), ((1, 10, 12), (2, 4)),
            ((1, 11, 12), (2, 4)), ((2, 3, 12), (2, 4)), ((2, 4, 12), (2, 4)),
            ((2, 5, 12), (2, 4)), ((2, 6, 12), (2, 4)), ((2, 7, 12), (2, 4)),
            ((2, 8, 12), (2, 4)), ((2, 9, 12), (2, 4)), ((2, 10, 12), (2, 4)),
            ((2, 11, 12), (2, 4)), ((3, 4, 12), (2, 4)), ((3, 5, 12), (2, 4)),
            ((3, 6, 12), (2, 4)), ((3, 7, 12), (2, 4)), ((3, 8, 12), (2, 4)),
            ((3, 9, 12), (2, 4)), ((3, 10, 12), (2, 4)), ((3, 11, 12), (2, 4)),
            ((4, 5, 12), (2, 4)), ((4, 6, 12), (2, 4)), ((4, 7, 12), (2, 4)),
            ((4, 8, 12), (2, 4)), ((4, 9, 12), (2, 4)), ((4, 10, 12), (2, 4)),
            ((4, 11, 12), (2, 4)), ((5, 6, 12), (2, 4)), ((5, 7, 12), (2, 4)),
            ((5, 8, 12), (2, 4)), ((5, 9, 12), (2, 4)), ((5, 10, 12), (2, 4)),
            ((5, 11, 12), (2, 4)), ((6, 7, 12), (2, 4)), ((6, 8, 12), (2, 4)),
            ((6, 9, 12), (2, 4)), ((6, 10, 12), (2, 4)), ((6, 11, 12), (2, 4)),
            ((7, 8, 12), (2, 4)), ((7, 9, 12), (2, 4)), ((7, 10, 12), (2, 4)),
            ((7, 11, 12), (2, 4)), ((8, 9, 12), (2, 4)), ((8, 10, 12), (2, 4)),
            ((8, 11, 12), (2, 4)), ((9, 10, 12), (2, 4)), ((9, 11, 12), (2, 4)),
            ((10, 11, 12), (2, 4)),
        ],
        (3082, "81a685a644cf3dc0ce3446d6d35e7d32b38494cc13736c61d8c0b3b360322210"),
        None,
    ),
    "hierarchical-named-layers-all-draft-len": (
        {
            "name": "hierarchical", "draft_layer": [2, 5], "intermediate_layer": [3, 9],
            "draft_len": "all", "accept_window": [2, 4],
        },
        [
            ((12,), ()), ((2, 3, 12), (2, 2)), ((2, 3, 12), (2, 4)), ((2, 9, 12), (2, 2)),
            ((2, 9, 12), (2, 4)), ((5, 9, 12), (2, 2)), ((5, 9, 12), (2, 4)),
        ],
        (7, "38042e6a07b58efcc724d9fc7a5f6ed22388447dfe48ad599adfbb7325541f8e"),
        "skip hierarchical point (L_d=5, L_i=3): needs 1 <= L_d < L_i < {n}",
    ),
}


class TestGridExpansion:
    def test_full_grid_has_465_hierarchical_cells(self):
        config = ExperimentConfig.from_dict(SWEEP_CONFIG)
        points = expand_grid(config, 32)
        hier = [p for p in points if p.strategy == "hierarchical"]
        assert len(hier) == 465
        assert len(points) == 466  # plus the vanilla baseline

    def test_selfspec_all_gives_47_choices_for_48_layers(self):
        raw = dict(SWEEP_CONFIG, strategies=[{"name": "selfspec", "draft_layer": "all"}])
        raw["backend"] = dict(raw["backend"], n_layers=48)
        config = ExperimentConfig.from_dict(raw)
        points = expand_grid(config, 48)
        selfspec = [p for p in points if p.strategy == "selfspec"]
        assert len(selfspec) == 47

    def test_invalid_points_skipped(self, caplog):
        raw = dict(
            SWEEP_CONFIG,
            strategies=[{"name": "hierarchical", "draft_layer": [5], "intermediate_layer": [3, 9]}],
        )
        config = ExperimentConfig.from_dict(raw)
        with caplog.at_level("WARNING", logger="specdec"):
            points = expand_grid(config, 32)
        hier = [p for p in points if p.strategy == "hierarchical"]
        assert len(hier) == 1
        assert any("skip hierarchical" in rec.message for rec in caplog.records)

    def test_skip_warning_once_per_layer_pair(self, caplog):
        raw = dict(
            SWEEP_CONFIG,
            strategies=[
                {
                    "name": "hierarchical",
                    "draft_layer": [5],
                    "intermediate_layer": [3, 9],
                    "draft_len": [1, 2],
                    "accept_window": [2, 4],
                }
            ],
        )
        config = ExperimentConfig.from_dict(raw)
        with caplog.at_level("WARNING", logger="specdec"):
            points = expand_grid(config, 32)
        assert len([p for p in points if p.strategy == "hierarchical"]) == 4
        assert [rec.message for rec in caplog.records] == [
            "skip hierarchical point (L_d=5, L_i=3): needs 1 <= L_d < L_i < 32"
        ]

    def test_no_skip_warning_for_layers_drawn_from_all(self, caplog):
        raw = dict(SWEEP_CONFIG, backend=dict(SWEEP_CONFIG["backend"], n_layers=16))
        config = ExperimentConfig.from_dict(raw)
        with caplog.at_level("WARNING", logger="specdec"):
            points = expand_grid(config, 16)
        assert len([p for p in points if p.strategy == "hierarchical"]) == 105
        assert caplog.records == []

    @pytest.mark.parametrize(
        "layers, expected, message",
        [
            ({"draft_layer": "all", "intermediate_layer": [1, 8]}, 7, "L_i=1"),
            ({"draft_layer": [4, 15], "intermediate_layer": "all"}, 11, "L_d=15"),
        ],
        ids=["intermediate", "draft"],
    )
    def test_skip_warning_for_a_named_layer_that_yields_no_point(
        self, caplog, layers, expected, message
    ):
        raw = dict(
            SWEEP_CONFIG,
            backend=dict(SWEEP_CONFIG["backend"], n_layers=16),
            strategies=[{"name": "hierarchical", **layers}],
        )
        config = ExperimentConfig.from_dict(raw)
        with caplog.at_level("WARNING", logger="specdec"):
            points = expand_grid(config, 16)
        assert len([p for p in points if p.strategy == "hierarchical"]) == expected
        assert [rec.message for rec in caplog.records] == [
            f"skip hierarchical {message}: no point satisfies 1 <= L_d < L_i < 16"
        ]

    @pytest.mark.parametrize(
        "entry, at_12, at_80, warning", ALIAS_GRIDS.values(), ids=list(ALIAS_GRIDS)
    )
    def test_each_alias_expands_to_its_recorded_grid(self, caplog, entry, at_12, at_80, warning):
        # "all" on a burst field is its default, as draft_len is in the last entry.
        config = ExperimentConfig.from_dict(dict(SWEEP_CONFIG, strategies=[entry]))
        for n_layers in (12, 80):
            caplog.clear()
            with caplog.at_level("WARNING", logger="specdec"):
                points = expand_grid(config, n_layers)
            assert points == sorted(points, key=GridPoint.sort_key)
            if n_layers == 12:
                assert points == [GridPoint(exits, bursts) for exits, bursts in at_12]
            else:
                digest = hashlib.sha256(repr(points).encode()).hexdigest()
                assert (len(points), digest) == at_80
            expected = [] if warning is None else [warning.format(n=n_layers)]
            assert [rec.message for rec in caplog.records] == expected


class TestRunAndEmit:
    def test_compare_rows_and_baseline_ratio(self, tmp_path):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        rows = run_compare(config)
        assert [r["strategy"] for r in rows] == ["vanilla", "selfspec", "hierarchical"]
        vanilla = rows[0]
        assert vanilla["rel_throughput"] == pytest.approx(1.0)
        out = emit_report(rows, tmp_path / "compare.csv")
        text = out.read_text()
        header = text.splitlines()[0]
        assert header == (
            "strategy,L_d,L_i,L_f,N_d,N_i,prompts,committed_tokens,seq_units,"
            "pos_layer_units,acc_rate_intermediate,acc_rate_target,flushed,rel_throughput"
        )
        assert text.splitlines()[1].endswith("1.000000")

    def test_reports_byte_identical_across_runs_and_jobs(self, tmp_path):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        paths = []
        for idx, jobs in enumerate((1, 1, 2)):
            rows = run_compare(config, jobs=jobs)
            paths.append(emit_report(rows, tmp_path / f"run{idx}.csv"))
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("run", [run_compare, run_check], ids=["compare", "check"])
    def test_budget_beyond_max_seq_len_fails_before_any_decode(self, monkeypatch, run):
        def decode(*args, **kwargs):
            raise AssertionError("a decode started before the budget was checked")

        monkeypatch.setattr(experiments, "speculative_decode", decode)
        config = ExperimentConfig.from_dict(dict(SMALL_CONFIG, **TIGHT_TOY))
        message = (
            "decode.max_new_tokens 14 plus the longest prompt of 5 tokens "
            "exceeds the model's max_seq_len 16"
        )
        with pytest.raises(ConfigError, match=re.escape(message)):
            run(config)

    def test_text_prompts_take_a_vocabulary_beyond_63_bits(self, tmp_path):
        # Only random prompts draw int64 tokens; byte tokens fit any vocabulary.
        path = tmp_path / "prompts.txt"
        path.write_text("one prompt\nanother\n", encoding="utf-8")
        backend = {"type": "synthetic", "preset": "quarter-depth-69", "vocab_size": 10**20}
        raw = dict(SMALL_CONFIG, backend=backend, prompts={"text_path": str(path)})
        rows = run_compare(ExperimentConfig.from_dict(raw))
        assert [r["committed_tokens"] for r in rows] == [20, 20, 20]

    def test_jsonl_emission(self, tmp_path):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        rows = run_compare(config)
        out = emit_report(rows, tmp_path / "compare.jsonl", fmt="jsonl")
        lines = out.read_text().splitlines()
        assert len(lines) == len(rows)
        parsed = json.loads(lines[0])
        assert parsed["strategy"] == "vanilla"
        assert parsed["rel_throughput"] == 1.0

    def test_ablation_rows(self):
        raw = dict(SMALL_CONFIG, strategies=[{"name": "hierarchical", "draft_len": [1, 2, 4]}])
        rows = run_sweep(ExperimentConfig.from_dict(raw))
        hier = [r for r in rows if r["strategy"] == "hierarchical"]
        assert [r["N_d"] for r in hier] == [1, 2, 4]
        assert all(r["N_i"] == 4 for r in hier)

    def test_ablation_repeated_value_gives_one_row(self):
        raw = dict(SMALL_CONFIG, strategies=[{"name": "hierarchical", "draft_len": [2, 2]}])
        rows = run_sweep(ExperimentConfig.from_dict(raw))
        assert [r["strategy"] for r in rows] == ["vanilla", "hierarchical"]

    def test_accept_window_rows(self):
        raw = dict(SMALL_CONFIG, strategies=[{"name": "hierarchical", "accept_window": [2, 8]}])
        rows = run_sweep(ExperimentConfig.from_dict(raw))
        hier = [r for r in rows if r["strategy"] == "hierarchical"]
        assert [r["N_i"] for r in hier] == [2, 8]
        assert all(r["N_d"] == 2 for r in hier)

    def test_compare_skips_invalid_default_placement_like_sweep(self, tmp_path, caplog):
        raw = {
            "seed": 1,
            "backend": {"type": "toy", "n_layers": 4, "d_model": 8, "n_heads": 2},
            "prompts": {"count": 2, "min_len": 2, "max_len": 4},
            "decode": {"max_new_tokens": 4},
        }
        config_path = write_config(tmp_path, raw)
        out_dir = tmp_path / "out"
        with caplog.at_level("WARNING", logger="specdec"):
            assert main(["compare", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert any("skip hierarchical" in rec.message for rec in caplog.records)
        rows = (out_dir / "compare.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["vanilla", "selfspec"]

    def test_sweep_builds_the_backend_once(self, monkeypatch):
        built = []

        def counting_build(spec, seed):
            built.append(seed)
            return build_backend(spec, seed)

        monkeypatch.setattr(experiments, "_BACKENDS", {})
        monkeypatch.setattr(experiments, "build_backend", counting_build)
        run_compare(ExperimentConfig.from_dict(SMALL_CONFIG))
        assert built == [SMALL_CONFIG["seed"]]

    def test_parallel_compare_builds_no_backend_in_the_parent(self, monkeypatch):
        built = []

        def recording_build(spec, seed):
            built.append(seed)  # a worker process appends to its own copy
            return build_backend(spec, seed)

        monkeypatch.setattr(experiments, "_BACKENDS", {})
        monkeypatch.setattr(experiments, "build_backend", recording_build)
        rows = run_compare(ExperimentConfig.from_dict(SMALL_CONFIG), jobs=2)
        assert [row["strategy"] for row in rows] == ["vanilla", "selfspec", "hierarchical"]
        assert built == []

    @pytest.mark.parametrize("jobs", [2, 4096])
    def test_pool_has_no_more_workers_than_points(self, monkeypatch, jobs):
        # Under fork a pool starts all its workers at once, so the three
        # points of compare get at most three, however many jobs are asked.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        want = run_compare(config, jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert run_compare(config, jobs=jobs) == want
        assert sizes == [min(jobs, 3)]

    def test_unknown_format_is_named_before_any_directory_is_made(self, tmp_path):
        with pytest.raises(ConfigError, match="^unknown report format 'xml'$"):
            emit_report([], tmp_path / "d" / "sub" / "rows.xml", fmt="xml")
        assert not (tmp_path / "d").exists()

    def test_matrix_reshape_with_nan_for_invalid(self, tmp_path):
        rows = [
            {"strategy": "hierarchical", "L_d": 1, "L_i": 2, "N_d": 2, "N_i": 4,
             "rel_throughput": 1.25},
            {"strategy": "hierarchical", "L_d": 2, "L_i": 4, "N_d": 2, "N_i": 4,
             "rel_throughput": 0.75},
            {"strategy": "vanilla", "L_d": None, "L_i": None, "rel_throughput": 1.0},
        ]
        out = emit_matrix(rows, tmp_path / "matrix.txt", n_layers=5)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        grid = [line.split() for line in lines[1:]]
        assert len(grid) == 3 and len(grid[0]) == 3  # L_d in 1..3, L_i in 2..4
        assert grid[0][0] == "1.250000"
        assert grid[1][2] == "0.750000"
        assert grid[2][0] == "NaN"  # L_i <= L_d cell never valid

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "backend": ???\n}\n', encoding="utf-8")
        message = f"--config {path} parse error at line 2: "
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            load_config(path)


class TestCli:
    def test_compare_roundtrip_and_exit_codes(self, tmp_path):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out_dir = tmp_path / "out"
        assert main(["compare", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "compare.csv").exists()

    def test_sweep_with_matrix(self, tmp_path):
        raw = dict(
            SMALL_CONFIG,
            strategies=[{"name": "hierarchical", "draft_layer": [2, 4], "intermediate_layer": [8]}],
        )
        config_path = write_config(tmp_path, raw)
        out_dir = tmp_path / "out"
        code = main(
            ["sweep", "--config", str(config_path), "--out", str(out_dir), "--matrix"]
        )
        assert code == 0
        assert (out_dir / "sweep.csv").exists()
        assert (out_dir / "matrix.txt").exists()

    def test_sweep_over_burst_list_writes_one_row_per_value(self, tmp_path):
        raw = dict(SMALL_CONFIG, strategies=[{"name": "hierarchical", "accept_window": [2, 4]}])
        config_path = write_config(tmp_path, raw)
        out_dir = tmp_path / "out"
        argv = ["sweep", "--config", str(config_path), "--out", str(out_dir), "--format", "jsonl"]
        assert main(argv) == 0
        rows = [json.loads(line) for line in (out_dir / "sweep.jsonl").read_text().splitlines()]
        assert [(r["strategy"], r["N_i"]) for r in rows] == [
            ("vanilla", None), ("hierarchical", 2), ("hierarchical", 4)
        ]

    def test_sweep_over_burst_pairs_writes_one_matrix_per_pair(self, tmp_path):
        # Keyed by (L_d, L_i) alone, cell (1, 2) kept only N_i=4's 1.106628.
        n_layers = 12
        strategy = {
            "name": "hierarchical", "draft_layer": "all", "intermediate_layer": "all",
            "accept_window": [2, 4],
        }
        raw = dict(
            SWEEP_CONFIG,
            backend=dict(SWEEP_CONFIG["backend"], n_layers=n_layers),
            strategies=[strategy],
        )
        out_dir = tmp_path / "out"
        argv = ["sweep", "--matrix", "--format", "jsonl", "--out", str(out_dir)]
        assert main(argv + ["--config", str(write_config(tmp_path, raw))]) == 0
        rows = [json.loads(line) for line in (out_dir / "sweep.jsonl").read_text().splitlines()]
        header, *lines = (out_dir / "matrix.txt").read_text().splitlines()
        assert header == "# relative throughput matrix; rows: L_d 1..10, cols: L_i 2..11"
        blocks = {}
        for at in range(0, len(lines), n_layers - 1):  # a pair's line, then its 10 rows
            pair, *grid = lines[at : at + n_layers - 1]
            blocks[pair] = [line.split() for line in grid]
        assert list(blocks) == ["# N_d=2 N_i=2", "# N_d=2 N_i=4"]
        assert [blocks[pair][0][0] for pair in blocks] == ["1.035040", "1.106628"]
        hierarchical = [row for row in rows if row["strategy"] == "hierarchical"]
        for row in hierarchical:
            grid = blocks[f"# N_d={row['N_d']} N_i={row['N_i']}"]
            assert grid[row["L_d"] - 1][row["L_i"] - 2] == f"{row['rel_throughput']:.6f}"
        cells = [cell for grid in blocks.values() for line in grid for cell in line]
        assert len(cells) - cells.count("NaN") == len(hierarchical) == 2 * 55

    def test_relative_text_path_is_read_beside_the_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "p.txt").write_text("beside the config\nsecond\n", encoding="utf-8")
        (tmp_path / "p.txt").write_text("in the working directory\n", encoding="utf-8")
        reports = {}
        for name, text_path in (("relative", "p.txt"), ("absolute", str(tmp_path / "cfg/p.txt"))):
            raw = dict(SMALL_CONFIG, prompts={"text_path": text_path})
            write_config(tmp_path / "cfg", raw, name)
            assert main(["compare", "--config", f"cfg/{name}", "--out", name]) == 0
            reports[name] = (tmp_path / name / "compare.csv").read_bytes()
        assert reports["relative"] == reports["absolute"]

    def test_seed_override_changes_output(self, tmp_path):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["compare", "--config", str(config_path), "--out", str(out_a)])
        main(["compare", "--config", str(config_path), "--out", str(out_b), "--seed", "99"])
        assert (out_a / "compare.csv").read_bytes() != (out_b / "compare.csv").read_bytes()

    def test_bad_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"backend": {"type": "warp-drive"}})
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("n_layers", range(3, 9))
    def test_quarter_depth_preset_below_9_layers_exits_2(self, tmp_path, capsys, n_layers):
        backend = {"type": "synthetic", "preset": "quarter-depth-69", "n_layers": n_layers}
        path = write_config(tmp_path, dict(SMALL_CONFIG, backend=backend))
        out_dir = tmp_path / "o"
        assert main(["compare", "--config", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "backend.n_layers: quarter-depth-69 preset needs at least 9 layers" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_malformed_input_exits_2_naming_the_field(self, tmp_path, monkeypatch, capsys, case):
        overrides, command, field = MALFORMED_INPUTS[case]
        monkeypatch.chdir(tmp_path)
        # A relative text_path names a file beside the config.
        (tmp_path / "prompts.txt").write_text("one prompt\nanother\n", encoding="utf-8")
        (tmp_path / "blank.txt").write_text("\n  \n\t\n", encoding="utf-8")
        config_path = write_config(tmp_path, dict(SMALL_CONFIG, **overrides))
        argv = command + ["--config", str(config_path)]
        if command[0] != "check" and "--out" not in command:  # check writes no report
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_TEXTS))
    def test_malformed_text_exits_2_naming_it(self, tmp_path, capsys, case):
        text, command, named = MALFORMED_TEXTS[case]
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        argv = command + ["--config", str(path)]
        if command[0] != "check":  # check writes no report
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--config" in err and named in err

    @pytest.mark.parametrize(
        "backend, max_len",
        [
            ({"type": "synthetic", "preset": "llama70b-sharegpt"}, 10**13),
            (PROFILE_BACKEND, 10**12),
            # At the cap; seed 0 first draws a length of 891945, past the preset's 4096,
            # so no prompt's tokens are drawn.
            ({"type": "synthetic", "preset": "llama70b-sharegpt"}, MAX_RANDOM_PROMPT_LEN),
        ],
        ids=["preset-beyond-cap", "profile-beyond-cap", "preset-at-cap"],
    )
    def test_oversized_prompt_length_exits_2_at_once(self, tmp_path, capsys, backend, max_len):
        raw = {"backend": backend, "prompts": {"count": 2, "min_len": 1, "max_len": max_len}}
        argv = ["compare", "--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "prompts.max_len" in capsys.readouterr().err

    @pytest.mark.parametrize("value, expected", [(3, 3), ("2", 2), (16.0, 16)])
    def test_integer_fields_accept_integer_values(self, value, expected):
        assert config_int(value, "field") == expected

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["compare", "--config", str(tmp_path / "nope.json"), "--out", "o"]) == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "binary"])
    def test_unreadable_config_exits_2_naming_the_flag(self, tmp_path, capsys, case):
        path = tmp_path / case
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\x00{")
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--out", "o"], ["--format", "csv"]], ids=["out", "format"])
    def test_check_rejects_report_flags(self, tmp_path, capsys, flag):
        # check writes no report, so it has no report flag to ignore.
        argv = ["check", "--config", str(write_config(tmp_path, SMALL_CONFIG)), *flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["compare"], ["sweep", "--matrix"]], ids=["compare", "sweep"]
    )
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_through_a_file_exits_2_before_decoding(
        self, tmp_path, monkeypatch, capsys, command, out
    ):
        def no_decode(*args, **kwargs):
            raise AssertionError("a grid ran before --out was checked")

        monkeypatch.setattr(experiments, "run_points", no_decode)
        (tmp_path / "file").write_text("", encoding="utf-8")
        argv = command + ["--out", str(tmp_path / out)]
        argv += ["--config", str(write_config(tmp_path, SMALL_CONFIG))]
        assert main(argv) == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["a" * 300, f"x/{'a' * 300}/y"], ids=["name", "nested"])
    def test_out_with_an_over_long_name_exits_2_before_decoding(
        self, tmp_path, monkeypatch, capsys, out
    ):
        def no_decode(*args, **kwargs):
            raise AssertionError("a grid ran before --out was checked")

        monkeypatch.setattr(experiments, "run_points", no_decode)
        monkeypatch.chdir(tmp_path)
        config_path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["compare", "--out", out, "--config", str(config_path)]) == 2
        assert "--out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [config_path.name]

    @pytest.mark.parametrize(
        "command, blocked",
        [(["compare"], "compare.csv"), (["sweep", "--matrix"], "matrix.txt")],
        ids=["report", "matrix"],
    )
    def test_failed_write_exits_2_naming_out(self, tmp_path, capsys, command, blocked):
        # A directory where the file would go fails the write itself.
        (tmp_path / "o" / blocked).mkdir(parents=True)
        argv = command + ["--out", str(tmp_path / "o")]
        argv += ["--config", str(write_config(tmp_path, SMALL_CONFIG))]
        assert main(argv) == 2
        assert "--out cannot be written" in capsys.readouterr().err

    @pytest.mark.parametrize("call", ["advance", "exit_distribution", "hidden_at"])
    def test_layer_outside_the_stack_exits_3(self, tmp_path, monkeypatch, capsys, call):
        # Every entry point rejects layer 0 with the same SpecdecError, so the
        # CLI reports it as a runtime error instead of a traceback.
        backend = all_agree_backend()
        state = backend.new_state()
        state.set_tokens([4, 5, 6, 7])
        backend.forward_range(state, 1, 8, 0, 3)
        calls = {
            "advance": lambda: state.advance(0, 8, 3, 4),
            "exit_distribution": lambda: backend.exit_distribution(state, 0, 2),
            "hidden_at": lambda: state.hidden_at(0, 2),
        }
        message = {
            "advance": r"invalid layer range \[0, 8\] for 8 layers",
            "exit_distribution": r"no exit at layer 0: layers are 1\.\.8",
            "hidden_at": r"no hidden buffer at layer 0",
        }[call]
        with pytest.raises(AlignmentError, match=message):
            calls[call]()
        monkeypatch.setattr(experiments, "run_points", lambda *args, **kwargs: calls[call]())
        argv = ["compare", "--config", str(write_config(tmp_path, SMALL_CONFIG))]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 3
        assert re.fullmatch(f"runtime error: {message}\n", capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["wall", "ablate"])
    def test_wall_subcommand(self, tmp_path, capsys, command):
        # Retired reports: the layer-quotient `wall`, and `ablate`, which a
        # sweep over a list-valued burst length replaces. Argparse rejects both.
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and command in err
        assert not (tmp_path / "out").exists()

    def test_check_subcommand_reports_clean_state(self, tmp_path):
        raw = {
            "seed": 2,
            "backend": {
                "type": "toy",
                "n_layers": 5,
                "d_model": 16,
                "n_heads": 4,
                "vocab_size": 16,
                "max_seq_len": 64,
            },
            "prompts": {"count": 2, "min_len": 3, "max_len": 5},
            "decode": {"max_new_tokens": 10},
        }
        config_path = write_config(tmp_path, raw)
        assert main(["check", "--config", str(config_path)]) == 0

    def test_check_runs_the_configs_selfspec_points(self, tmp_path, capsys):
        raw = {
            "seed": 1,
            "backend": {"type": "toy", "n_layers": 4, "d_model": 8, "n_heads": 2},
            "prompts": {"count": 2, "min_len": 2, "max_len": 4},
            "decode": {"max_new_tokens": 6},
            "strategies": [{"name": "selfspec", "draft_layer": [1, 2], "draft_len": [1, 3]}],
        }
        config_path = write_config(tmp_path, raw)
        assert main(["check", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "over 2 prompts at 4 grid points; max discrepancy 0.000e+00" in out

    def test_check_mismatch_exits_3(self, tmp_path, monkeypatch, capsys):
        # A recomputed state that differs anywhere fails the check.
        def gapped(state, backend, tokens):
            return [LayerReport(1, 0.5, 0)]

        monkeypatch.setattr(experiments, "consistency_check", gapped)
        raw = {
            "seed": 1,
            "backend": {"type": "toy", "n_layers": 5, "d_model": 8, "n_heads": 2},
            "prompts": {"count": 2, "min_len": 2, "max_len": 4},
            "decode": {"max_new_tokens": 6},
        }
        assert main(["check", "--config", str(write_config(tmp_path, raw))]) == 3
        captured = capsys.readouterr()
        assert "max discrepancy 5.000e-01" in captured.out
        assert captured.err == "state recompute mismatch detected\n"

    def test_check_compares_each_final_state(self, tmp_path, monkeypatch, capsys):
        # An entry corrupted while finalize runs comes after every boundary
        # check, so only the comparison of the decode's final state sees it.
        raw = {
            "seed": 1,
            "backend": {"type": "toy", "n_layers": 5, "d_model": 8, "n_heads": 2},
            "prompts": {"count": 2, "min_len": 2, "max_len": 4},
            "decode": {"max_new_tokens": 6},
        }
        config_path = str(write_config(tmp_path, raw))
        assert main(["check", "--config", config_path]) == 0
        clean = capsys.readouterr().out

        class CorruptsInFinalize:
            """Forwards to `backend`; a pass run while `finalizing` is set
            leaves one wrong K entry behind, at its last layer and position."""

            def __init__(self, backend):
                self.backend, self.finalizing, self.corrupted = backend, False, 0

            def __getattr__(self, name):
                return getattr(self.backend, name)

            def forward_range(self, state, start_layer, end_layer, start_pos, end_pos):
                x = self.backend.forward_range(state, start_layer, end_layer, start_pos, end_pos)
                if self.finalizing:
                    state.kv_k[end_layer - 1][end_pos - 1, 0] += 0.5
                    self.corrupted += 1
                return x

        spec = experiments.load_config(config_path).backend
        backend = CorruptsInFinalize(experiments._backend_cache(spec))
        finalize = engine.DecodeSession.finalize

        def flagged_finalize(session):
            session.backend.finalizing = True
            try:
                finalize(session)
            finally:
                session.backend.finalizing = False

        monkeypatch.setattr(experiments, "_backend_cache", lambda spec: backend)
        monkeypatch.setattr(engine.DecodeSession, "finalize", flagged_finalize)
        assert main(["check", "--config", config_path]) == 3
        assert backend.corrupted > 0
        captured = capsys.readouterr()
        line, worst = captured.out.rsplit("; max discrepancy ", 1)
        assert line == clean.rsplit("; max discrepancy ", 1)[0]  # the same boundaries
        assert float(worst) > 0.0
        assert captured.err == "state recompute mismatch detected\n"

    def test_check_line_is_the_same_across_jobs(self, tmp_path, monkeypatch, capsys):
        raw = {
            "seed": 1,
            "backend": {"type": "toy", "n_layers": 4, "d_model": 8, "n_heads": 2},
            "prompts": {"count": 2, "min_len": 2, "max_len": 4},
            "decode": {"max_new_tokens": 6},
            "strategies": [{"name": "selfspec", "draft_layer": [1, 2]}],
        }
        config_path = write_config(tmp_path, raw)
        lines = []
        for jobs in ("1", "2"):
            argv = ["check", "--config", str(config_path)]
            assert main(argv + ["--jobs", jobs]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert "over 2 prompts at 2 grid points; max discrepancy 0.000e+00" in lines[0]

    @pytest.mark.parametrize(
        "command",
        [
            ["compare"],
            ["check"],
            ["sweep", "--matrix"],
        ],
        ids=["compare", "check", "sweep-matrix"],
    )
    def test_console_entry_point(self, tmp_path, command):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        config = ["--config", str(config_path), "--jobs", "2"]
        out = [] if command == ["check"] else ["--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "specdec.cli", *command, *config, *out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
