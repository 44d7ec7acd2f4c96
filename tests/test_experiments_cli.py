import concurrent.futures
import json
import re
import subprocess
import sys

import pytest

from specdec import experiments
from specdec.cli import main
from specdec.errors import AlignmentError, ConfigError
from specdec.experiments import (
    ExperimentConfig,
    build_backend,
    config_int,
    expand_grid,
    emit_matrix,
    emit_report,
    load_config,
    run_ablation,
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


# A toy model whose max_seq_len of 16 cannot hold a 4- or 5-token prompt plus 14 new tokens.
TIGHT_TOY = {
    "backend": {"type": "toy", "n_layers": 4, "d_model": 8, "n_heads": 2, "max_seq_len": 16},
    "prompts": {"count": 3, "min_len": 4, "max_len": 5},
    "decode": {"max_new_tokens": 14},
    "strategies": [{"name": "selfspec"}],
}

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
    "non-integer-ablate-value": (
        {}, ["ablate", "--parameter", "N_d", "--values", "1,x"], "--values"
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
    "zero-ablate-value": (
        {}, ["ablate", "--parameter", "N_d", "--values", "0,2"], "--values"
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


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


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
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        rows = run_ablation(config, "N_d", [1, 2, 4])
        hier = [r for r in rows if r["strategy"] == "hierarchical"]
        assert [r["N_d"] for r in hier] == [1, 2, 4]
        assert all(r["N_i"] == 4 for r in hier)

    def test_ablation_repeated_value_gives_one_row(self):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        rows = run_ablation(config, "N_d", [2, 2])
        assert [r["strategy"] for r in rows] == ["vanilla", "hierarchical"]

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

            def map(self, fn, payloads, chunksize=1):
                return map(fn, payloads)

        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        want = run_compare(config, jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert run_compare(config, jobs=jobs) == want
        assert sizes == [min(jobs, 3)]

    def test_ablation_empty_range(self):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        assert run_ablation(config, "N_i", []) == []

    def test_matrix_reshape_with_nan_for_invalid(self, tmp_path):
        rows = [
            {"strategy": "hierarchical", "L_d": 1, "L_i": 2, "rel_throughput": 1.25},
            {"strategy": "hierarchical", "L_d": 2, "L_i": 4, "rel_throughput": 0.75},
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
        with pytest.raises(ConfigError, match="line 2"):
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

    def test_ablate_empty_values_exits_zero(self, tmp_path):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out_dir = tmp_path / "out"
        code = main(
            [
                "ablate",
                "--config",
                str(config_path),
                "--parameter",
                "N_i",
                "--values",
                "",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "ablate_N_i.csv").read_text().count("\n") == 1  # header only

    def test_bad_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"backend": {"type": "warp-drive"}})
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_malformed_input_exits_2_naming_the_field(self, tmp_path, monkeypatch, capsys, case):
        overrides, command, field = MALFORMED_INPUTS[case]
        monkeypatch.chdir(tmp_path)
        # A relative text_path names a file beside the config.
        (tmp_path / "prompts.txt").write_text("one prompt\nanother\n", encoding="utf-8")
        (tmp_path / "blank.txt").write_text("\n  \n\t\n", encoding="utf-8")
        config_path = write_config(tmp_path, dict(SMALL_CONFIG, **overrides))
        argv = command + ["--config", str(config_path)]
        if command[0] != "check":  # check writes no report
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert field in capsys.readouterr().err

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

    @pytest.mark.parametrize("call", ["advance", "exit_distribution", "filled"])
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
            "filled": lambda: state.filled(0),
        }
        message = {
            "advance": r"invalid layer range \[0, 8\] for 8 layers",
            "exit_distribution": r"no exit at layer 0: layers are 1\.\.8",
            "filled": r"no layer 0: layers are 1\.\.8",
        }[call]
        with pytest.raises(AlignmentError, match=message):
            calls[call]()
        monkeypatch.setattr(experiments, "run_points", lambda *args, **kwargs: calls[call]())
        argv = ["compare", "--config", str(write_config(tmp_path, SMALL_CONFIG))]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 3
        assert re.fullmatch(f"runtime error: {message}\n", capsys.readouterr().err)

    def test_wall_subcommand(self, tmp_path, capsys):
        # The layer-quotient `wall` report is retired: argparse rejects it.
        with pytest.raises(SystemExit) as exc:
            main(["wall", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "wall" in err
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
            ["ablate", "--parameter", "N_i", "--values", "2,4"],
        ],
        ids=["compare", "check", "sweep-matrix", "ablate"],
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
