"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is printed with its
unit, that the gate turns a wrong token into a counted failure, and that
the benchmark refuses to run without the package's sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import workloads  # noqa: E402
from specdec.backend import TokenDistribution  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FlipOneToken:
    """Backend proxy whose full-depth exit picks another token at one position."""

    def __init__(self, backend, position: int) -> None:
        self._backend = backend
        self._position = position

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def exit_distribution(self, state, layer, position):
        dist = self._backend.exit_distribution(state, layer, position)
        if layer != self._backend.n_layers or position != self._position:
            return dist
        logits = dist.logits.copy()
        logits[(dist.argmax() + 1) % len(logits)] = logits.max() + 1.0
        return TokenDistribution(logits, dist.position, dist.source_layer, dist.degenerate)


def _printed(result, capsys) -> dict[str, str]:
    run.print_result(result)
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == {
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }
    units = {}
    for line in lines[:-1]:
        name, *rest = line.split(" ")
        if len(rest) == 2:
            units[name] = rest[1]
    return units


@pytest.mark.parametrize("name", sorted(workloads.TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    result = run.measure(
        workloads.TINY[name], seed=3, seconds=0.05, trace=trace, out_dir=tmp_path, setup_repeats=1
    )
    assert result["correct"], result["notes"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = _printed(result, capsys)
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] == printed[metric["name"]]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, metric["name"]


def test_flipped_token_is_counted_as_failed(tmp_path):
    tiny = workloads.TINY["toy-decode"]
    position = tiny.prompts["min_len"]  # the second generated token
    result = run.measure(
        tiny,
        seed=3,
        seconds=0.05,
        trace=False,
        out_dir=tmp_path,
        wrap_backend=lambda backend: FlipOneToken(backend, position),
        setup_repeats=0,
    )
    assert result["notes"]["failed_share"] > 0
    assert not result["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-decode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
