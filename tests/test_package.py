import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specdec

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter, as a CLI user would: a synthetic compare, check and
# consistency check load no numpy, and building a toy backend does.
IMPORT_GUARD = """
import json, sys
import specdec.cli
from specdec import experiments
from specdec.state import consistency_check

config = experiments.ExperimentConfig.from_dict(json.loads(sys.argv[1]))
experiments.run_compare(config)
experiments.run_check(config)
backend = experiments.build_backend(config.backend, config.seed)
state = backend.new_state()
state.set_tokens([1, 2, 3])
backend.forward_range(state, 1, backend.n_layers, 0, 3)
assert all(r.max_abs_discrepancy == 0.0 for r in consistency_check(state, backend, [1, 2, 3]))
assert "numpy" not in sys.modules, "a synthetic run loaded numpy"
toy = {"backend": {"type": "toy", "n_layers": 3, "d_model": 8, "n_heads": 2}}
experiments.build_backend(experiments.ExperimentConfig.from_dict(toy).backend, 0)
assert "numpy" in sys.modules, "a toy backend was built without numpy"
"""
TINY_SYNTHETIC = {
    "backend": {"type": "synthetic", "preset": "llama70b-sharegpt", "n_layers": 24},
    "prompts": {"count": 2, "min_len": 3, "max_len": 5},
    "decode": {"max_new_tokens": 4},
}


def test_every_export_resolves():
    assert len(specdec.__all__) == len(set(specdec.__all__))
    missing = [name for name in specdec.__all__ if not hasattr(specdec, name)]
    assert missing == []


def test_retired_decode_wrappers_are_not_exported():
    # Every caller decodes through speculative_decode; the wrappers left in
    # specdec.engine serve only the benchmark harness. Greedy top-1 is the
    # only acceptance rule, so no policy type or constant is exported.
    retired = (
        "selfspec_decode", "hierarchical_decode", "HierarchicalConfig", "AcceptancePolicy", "GREEDY"
    )
    for name in retired:
        assert name not in specdec.__all__
        assert not hasattr(specdec, name)


def test_toy_exports_resolve_lazily():
    names = dir(specdec)
    assert "ModelConfig" in names and "ToyTransformer" in names
    assert specdec.ModelConfig.__module__ == "specdec.model"
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        specdec.NoSuchName


def test_synthetic_run_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, json.dumps(TINY_SYNTHETIC)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
