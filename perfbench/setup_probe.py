"""Time one cold set-up in a fresh interpreter: import, backend build, prompts.

    python3 perfbench/setup_probe.py '<experiment config as JSON>'

Prints one JSON line: the set-up seconds and the reference-task seconds
measured right after it. `run.py` starts it several times per run and
reports the median of the scaled set-up times as `setup_s`.
"""
import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import specdec.cli  # noqa: E402,F401  (a CLI user imports the whole package)
from specdec import experiments  # noqa: E402


def main() -> None:
    config = experiments.ExperimentConfig.from_dict(json.loads(sys.argv[1]))
    backend = experiments.build_backend(config.backend, config.seed)
    experiments.build_prompts(config, backend.vocab_size)
    seconds = time.perf_counter() - _START
    from reference import reference_seconds

    references = sorted(reference_seconds() for _ in range(3))
    print(json.dumps({"seconds": seconds, "reference_s": references[1]}))


if __name__ == "__main__":
    main()
