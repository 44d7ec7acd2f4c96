import json
import subprocess
import sys

import pytest

from specdec.cli import main
from specdec.errors import ConfigError
from specdec.experiments import (
    ExperimentConfig,
    config_int,
    expand_grid,
    emit_matrix,
    emit_report,
    load_config,
    resolve_jobs,
    run_ablation,
    run_compare,
    run_sweep,
    run_wall,
)

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


# case -> (config overrides, command, SPECDEC_JOBS value, field the message names)
MALFORMED_INPUTS = {
    "synthetic-without-profile": (
        {"backend": {"type": "synthetic", "n_layers": 8}}, ["compare"], None, "backend.profile"
    ),
    "non-integer-n-layers": (
        {"backend": {"type": "toy", "n_layers": "x"}}, ["compare"], None, "backend.n_layers"
    ),
    "non-integer-max-new-tokens": (
        {"decode": {"max_new_tokens": "abc"}}, ["compare"], None, "decode.max_new_tokens"
    ),
    "non-integer-ablate-value": (
        {}, ["ablate", "--parameter", "N_d", "--values", "1,x"], None, "--values"
    ),
    "non-integer-jobs-env": ({}, ["compare"], "two", "SPECDEC_JOBS"),
    "fractional-d-model": (
        {"backend": {"type": "toy", "n_layers": 4, "d_model": 16.5}}, ["compare"], None,
        "backend.d_model",
    ),
    "bool-n-layers": (
        {"backend": {"type": "toy", "n_layers": True}}, ["compare"], None, "backend.n_layers"
    ),
    "zero-jobs-flag": ({}, ["compare", "--jobs", "0"], None, "--jobs"),
    "negative-jobs-flag": ({}, ["compare", "--jobs", "-3"], None, "--jobs"),
    "zero-jobs-env": ({}, ["compare"], "0", "SPECDEC_JOBS"),
    "non-integer-grid-value": (
        {"strategies": [{"name": "hierarchical", "draft_layer": ["x"]}]}, ["sweep"], None,
        "strategies[0].draft_layer",
    ),
    "fractional-grid-value": (
        {"strategies": [{"name": "selfspec", "draft_layer": 2.5}]}, ["sweep"], None,
        "strategies[0].draft_layer",
    ),
    "null-grid-value": (
        {"strategies": [{"name": "selfspec", "draft_len": None}]}, ["sweep"], None,
        "strategies[0].draft_len",
    ),
    "strategy-not-an-object": ({"strategies": ["hierarchical"]}, ["sweep"], None, "strategies[0]"),
    "decode-not-an-object": ({"decode": 5}, ["compare"], None, "decode"),
    "policy-not-an-object": ({"decode": {"policy": "greedy"}}, ["compare"], None, "decode.policy"),
    "prompts-not-an-object": ({"prompts": [1, 2]}, ["compare"], None, "prompts"),
    "non-string-text-path": ({"prompts": {"text_path": 5}}, ["compare"], None, "prompts.text_path"),
    "negative-seed": ({"seed": -1}, ["compare"], None, "seed"),
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

    def test_ablation_empty_range(self):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        assert run_ablation(config, "N_i", []) == []

    def test_wall_rows_cover_reference_pairs(self):
        rows = run_wall()
        assert len(rows) == 9
        ratios = [r["wall_ratio"] for r in rows]
        assert min(ratios) == 2.0
        assert max(ratios) == pytest.approx(126 / 16)

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
        overrides, command, jobs_env, field = MALFORMED_INPUTS[case]
        monkeypatch.delenv("SPECDEC_JOBS", raising=False)
        if jobs_env is not None:
            monkeypatch.setenv("SPECDEC_JOBS", jobs_env)
        config_path = write_config(tmp_path, dict(SMALL_CONFIG, **overrides))
        argv = command + ["--config", str(config_path), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("value, expected", [(3, 3), ("2", 2), (16.0, 16)])
    def test_integer_fields_accept_integer_values(self, value, expected):
        assert config_int(value, "field") == expected

    def test_integer_jobs_env_overrides_flag(self, monkeypatch):
        monkeypatch.setenv("SPECDEC_JOBS", "2")
        assert resolve_jobs(1) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["compare", "--config", str(tmp_path / "nope.json"), "--out", "o"]) == 2

    def test_capacity_problem_exits_3(self, tmp_path):
        raw = {
            "seed": 1,
            "backend": {"type": "toy", "n_layers": 4, "d_model": 8, "n_heads": 2, "max_seq_len": 8},
            "prompts": {"count": 1, "min_len": 6, "max_len": 6},
            "decode": {"max_new_tokens": 30},
        }
        config_path = write_config(tmp_path, raw)
        assert main(["compare", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 3

    def test_wall_subcommand(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["wall", "--out", str(out_dir)]) == 0
        lines = (out_dir / "wall.csv").read_text().splitlines()
        assert lines[0] == "draft_model,draft_layers,target_model,target_layers,wall_ratio"
        assert len(lines) == 10

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
        assert main(["check", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0

    def test_console_entry_point(self, tmp_path):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "specdec.cli",
                "compare",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
