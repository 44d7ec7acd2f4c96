"""Benchmark of the specdec package: one workload at one seed per run.

Run from the repository root:

    python3 perfbench/run.py --workload toy-decode --seed 1 --seconds 30 --trace 0

`specdec` is imported from `src/` next to this directory, never from
site-packages. With `--trace 0` the run measures with tracing off and
reports every end-to-end metric; with `--trace 1` it alternates plain
and traced passes and reports every per-layer metric of the first
traced pass. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The result with its environment record, the sweep reports and
the spans are written to `.perfbench_out/`.
"""
from __future__ import annotations

import os

# One BLAS thread for this process and every child it starts; numpy reads
# these when it is first imported, so they are set before any import of it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("toy-decode", "toy-check", "synth-sweep")


class BenchmarkError(Exception):
    pass


def load_package() -> None:
    """Make `specdec` importable from this checkout's src/ and nowhere else."""
    init = SRC / "specdec" / "__init__.py"
    if not init.is_file():
        raise BenchmarkError(f"no specdec package at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import specdec

    if Path(specdec.__file__).resolve() != init.resolve():
        raise BenchmarkError(f"specdec was imported from {specdec.__file__}, not {init}")


def measure_setup(raw_config: dict, repeats: int) -> list[tuple[float, float]]:
    """Per fresh process: (seconds to import specdec, build the backend and make
    the prompts; reference seconds measured right after)."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(PROBE), json.dumps(raw_config)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["seconds"], probe["reference_s"]))
    return samples


def environment(seed: int) -> dict:
    import numpy

    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
            commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "specdec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value if value is not None else 0.0, "unit": unit}


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    wrap_backend=None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """One run: set-up, timed passes, gate, metrics. Returns the result object."""
    import tracing
    import workloads
    from reference import REFERENCE_SECONDS

    out_dir.mkdir(parents=True, exist_ok=True)
    raw_config = workload.write_config(seed, out_dir)
    setup = measure_setup(raw_config, setup_repeats)
    runner = workloads.Runner(workload, raw_config, out_dir, wrap_backend=wrap_backend)
    runner.reference_s.extend(reference for _, reference in setup)
    plain = workloads.Samples()
    traced = workloads.Samples()
    tracer = None
    deadline = time.perf_counter() + seconds

    def past_deadline() -> bool:
        return time.perf_counter() >= deadline

    # Passes alternate plain/traced when tracing; the first of each kind always completes.
    required = 2 if trace else 1
    index = 0
    while index < required or not past_deadline():
        stop = past_deadline if index >= required else (lambda: False)
        first_of_kind = index < required
        if trace and index % 2 == 1:
            pass_tracer = tracing.Tracer()
            runner.pause_trace = pass_tracer.paused
            with pass_tracer.installed():
                complete = runner.run_pass(traced, stop, sweep=first_of_kind)
            runner.pause_trace = contextlib.nullcontext
            tracer = tracer or pass_tracer
        else:
            complete = runner.run_pass(plain, stop, sweep=first_of_kind)
        index += 1
        if not complete:
            break
    passes = index
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check_jobs()

    notes: dict = {"workload": workload.name, "passes": passes, "prompts": len(runner.prompts)}
    metrics: dict = {}
    throughput = {s: runner.throughput(plain, (s,)) for s in workloads.STRATEGIES}
    if not trace:
        latencies = runner.hier_latencies_ms(plain)
        tail_ms, tail_pct, beyond = workloads.tail(latencies) if latencies else (None, 0.0, 0)
        metrics["tokens_per_s"] = _metric(runner.throughput(plain), "tokens/s")
        for strategy in workloads.STRATEGIES:
            metrics[f"{strategy}_tokens_per_s"] = _metric(throughput[strategy], "tokens/s")
        metrics["hier_decode_ms_p50"] = _metric(
            statistics.median(latencies) if latencies else None, "ms"
        )
        metrics["hier_decode_ms_tail"] = _metric(tail_ms, "ms")
        metrics["setup_s"] = _metric(
            statistics.median(s / r * REFERENCE_SECONDS for s, r in setup) if setup else None,
            "s",
        )
        metrics["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
        metrics["rel_throughput_selfspec"] = _metric(runner.rel_throughput("selfspec"), "ratio")
        metrics["rel_throughput_hierarchical"] = _metric(
            runner.rel_throughput("hierarchical"), "ratio"
        )
        notes["hier_decode_samples"] = len(latencies)
        notes["hier_decode_tail_percentile"] = tail_pct
        notes["hier_decode_tail_beyond"] = beyond
        notes["setup_s_measured"] = [s for s, _ in setup]
        notes["tokens_per_s_measured"] = runner.throughput(plain, raw=True)
    else:
        for name, (value, unit) in tracer.layer_metrics().items():
            metrics[name] = _metric(value, unit)
        vanilla = throughput["vanilla"]
        for strategy in ("selfspec", "hierarchical"):
            wall = throughput[strategy] / vanilla if throughput[strategy] and vanilla else None
            metrics[f"costs.wall_rel_throughput_{strategy}"] = _metric(wall, "ratio")
        plain_tps, traced_tps = runner.throughput(plain), runner.throughput(traced)
        overhead = 1.0 - traced_tps / plain_tps if plain_tps and traced_tps else None
        metrics["trace.overhead_share"] = _metric(overhead, "share")
        for strategy in ("selfspec", "hierarchical"):
            notes[f"proxy_rel_throughput_{strategy}"] = runner.rel_throughput(strategy)
        notes["spans"] = len(tracer.starts)
        notes["spans_file"] = tracer.write(out_dir / "spans.jsonl.gz").name
    if plain.sweep_s:
        notes["sweep_s_measured"] = plain.sweep_s[0]
    notes["fastest_reference_ms"] = 1000.0 * min(runner.reference_s)
    notes["failed_share"] = runner.failed / runner.attempted if runner.attempted else 1.0
    if workload.check:
        notes["checked_boundaries"] = runner.boundaries
        notes["max_discrepancy"] = runner.max_discrepancy
    return {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "notes": notes,
    }


def print_result(result: dict) -> None:
    """Every metric as `name value unit`, then the one-line JSON summary last."""
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print("notes " + json.dumps(result["notes"], sort_keys=True))
    print(
        f"failed_share {result['notes']['failed_share']!r} "
        f"({result['failed']} failed of {result['attempted']} attempted)"
    )
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        load_package()
        import workloads

        out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        env = environment(args.seed)
        result = measure(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    (out_dir / "result.json").write_text(
        json.dumps({"environment": env, **result}, indent=1, sort_keys=True) + "\n"
    )
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
