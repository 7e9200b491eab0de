"""Benchmark of the veldt command line pipeline, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pitchfork --seed 0 --seconds 30 --trace 0

The program under test is ``veldt.cli.run`` imported from ``./src``; nothing
under ``src/`` is changed.  One caller in one process runs scenarios back to
back (a closed loop), with BLAS pinned to one thread.  Every run's output is
checked against the workload's closed-form oracle, and two runs with the same
seed must write byte-identical ``report.json`` and CSVs.

``--trace 0`` reports the end-to-end metrics: ``scenario_s`` (median wall time
of one untraced ``cli.run``), ``setup_s`` (median time from starting a fresh
interpreter until ``import veldt.cli`` returns) and ``peak_rss_mb``.
``--trace 1`` rebinds the public functions of every module to timing wrappers
(see ``tracer.py``) and reports per-layer calls, self time and counters, plus
the tracing overhead against untraced runs of the same seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's provenance and samples, which are also written, with the
spans of traced runs, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import TIMED, Tracer  # noqa: E402
from workloads import WORKLOADS, output_files  # noqa: E402

COLD_STARTS = 11
MIN_SAMPLES = 3  # a same-seed pair for the determinism check plus one more seed
MIN_TRACED = 2  # traced runs whose call counts must repeat exactly

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = "import veldt.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


class SetupError(Exception):
    """The checkout cannot run the benchmark (no source tree, broken import)."""


# ---------------------------------------------------------------------------
# the program under test


def source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "veldt" / "__init__.py").is_file():
        raise SetupError(f"no veldt source tree under {src}; run from the root of a veldt checkout")
    return src


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    import veldt.cli

    where = Path(veldt.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SetupError(f"veldt was imported from {where}, not from {src}")
    return veldt.cli


def cold_import_seconds(src: Path) -> float:
    """Wall time from starting an interpreter until ``import veldt.cli`` returns."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE, env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SetupError(f"a fresh interpreter could not import veldt.cli (exit code {code})")
    return elapsed


def cli_seeds(seed: int):
    """The seeds handed to ``cli.run``, derived from the benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


# ---------------------------------------------------------------------------
# samples


class Sampler:
    """Runs one workload config through ``cli.run`` and judges every output."""

    def __init__(self, cli, workload: str, work_dir: Path):
        config, self.oracle = WORKLOADS[workload]
        self.cli = cli
        self.work_dir = work_dir
        self.config_path = work_dir / f"{workload}.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")
        self.samples = []
        self.reference = {}  # cli seed -> output bytes of its first run

    def run(self, cli_seed: int, tracer: Tracer | None = None) -> dict:
        out_dir = self.work_dir / f"sample-{len(self.samples)}"
        gc.collect()
        code, errors = None, []
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.run(self.config_path, out_dir, seed=cli_seed)
            else:
                code = tracer.call(len(self.samples), self.cli.run, self.config_path, out_dir, seed=cli_seed)
        except Exception:
            errors.append("cli.run raised: " + traceback.format_exc(limit=3).strip().replace("\n", " | "))
        wall = time.perf_counter() - start
        if code is not None and code != 0:
            errors.append(f"exit code {code}")
        if not errors:
            try:
                errors += self.oracle(out_dir)
                outputs = output_files(out_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors.append(f"unreadable output: {exc!r}")
            else:
                first = self.reference.setdefault(cli_seed, outputs)
                if outputs != first:
                    differing = sorted(n for n in set(outputs) | set(first) if outputs.get(n) != first.get(n))
                    errors.append(f"not byte-identical to the first run of seed {cli_seed}: {differing}")
        shutil.rmtree(out_dir, ignore_errors=True)
        sample = {"seed": cli_seed, "traced": tracer is not None, "wall_s": wall, "errors": errors}
        self.samples.append(sample)
        if errors:
            print(f"sample {len(self.samples) - 1} (seed {cli_seed}) failed: {errors}", file=sys.stderr)
        return sample


def measure_untraced(sampler: Sampler, src: Path, seed: int, seconds: float):
    """Closed loop for ``seconds``: scenario runs with seeds s0, s0, s1, s2, ...

    The ``COLD_STARTS`` cold starts are spread evenly over the same time, one
    whenever another share of ``seconds`` has passed, so that a drift in
    machine speed during the run reaches ``setup_s`` and ``scenario_s`` alike.
    """
    seeds = cli_seeds(seed)
    first = next(seeds)
    walls, setup = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(walls) >= MIN_SAMPLES and elapsed + statistics.median(walls) > seconds
        if len(setup) < COLD_STARTS and (done or elapsed >= len(setup) * seconds / COLD_STARTS):
            setup.append(cold_import_seconds(src))
        elif done:
            return walls, setup
        else:
            walls.append(sampler.run(first if len(walls) < 2 else next(seeds))["wall_s"])


def measure_traced(sampler: Sampler, seed: int, seconds: float, tracer: Tracer):
    """Alternate untraced and traced runs of one seed until ``seconds`` elapse."""
    cli_seed = next(cli_seeds(seed))
    plain, traced = [], []
    while True:
        if len(traced) >= MIN_TRACED and sum(plain) + sum(traced) + plain[-1] + traced[-1] > seconds:
            return plain, traced
        plain.append(sampler.run(cli_seed)["wall_s"])
        with tracer:
            sample = sampler.run(cli_seed, tracer)
        sample["run_id"] = len(sampler.samples) - 1
        traced.append(sample["wall_s"])


# ---------------------------------------------------------------------------
# per-layer metrics

LAYER_NAMES = [f"{mod}.{path}" for mod, path in TIMED]


def per_layer_metrics(tracer: Tracer, run_ids: list, plain: list, traced: list):
    """Medians of self time over the traced runs; counts must repeat exactly."""
    runs = [tracer.layer_stats(r) for r in run_ids]

    def counts(stats):
        return {name: {k: v for k, v in entry.items() if k != "self_s"} for name, entry in stats.items()}

    repeat_errors = [
        f"call counts of traced run {r} differ from traced run {run_ids[0]}"
        for r, stats in zip(run_ids[1:], runs[1:])
        if counts(stats) != counts(runs[0])
    ]
    base = runs[0]

    def self_s(name):
        return statistics.median(stats[name]["self_s"] for stats in runs)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (base[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["cli.run.self_s"] = (self_s("cli.run"), "s")
    hess = base["galerkin.assemble_hessian"]
    metrics["galerkin.assemble_hessian.gflops_computed"] = (
        ratio(hess.get("flops", 0), self_s("galerkin.assemble_hessian")) / 1e9,
        "GFLOP/s",
    )
    polish = base["functional.newton_polish"]
    metrics["functional.newton_polish.iterations"] = (polish.get("iterations", 0), "count")
    metrics["functional.newton_polish.converged_frac"] = (ratio(polish.get("converged", 0), polish["calls"]), "ratio")
    census = base["functional.multistart_census"]
    metrics["functional.multistart_census.census_yield"] = (
        ratio(census.get("points", 0), census.get("seeds", 0)),
        "ratio",
    )
    psi = base["reduction.solve_psi"]
    metrics["reduction.solve_psi.failures"] = (psi.get("failures", 0), "count")
    metrics["reduction.solve_psi.hessians_per_call"] = (ratio(psi["hessians"], psi["calls"]), "ratio")
    audit = base["bifurcation.morse_inequality_audit"]
    metrics["bifurcation.morse_inequality_audit.raises"] = (audit.get("raises", 0), "count")
    # each traced run follows an untraced run of the same seed; pairing them
    # cancels most of the drift in machine speed between pairs
    metrics["trace.overhead_s"] = (statistics.median(t - p for p, t in zip(plain, traced)), "s")
    return metrics, repeat_errors, runs


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(root: Path, src: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    files = sorted((src / "veldt").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_veldt_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})

    root = Path.cwd()
    try:
        src = source_dir(root)
        # not counted: checks that a fresh interpreter imports the program and
        # writes its bytecode caches, which a new checkout does not have yet
        cold_import_seconds(src)
        cli = import_cli(src)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out_root = HERE / "out"
    work_dir = out_root / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        sampler = Sampler(cli, args.workload, work_dir)
        spans = None
        if args.trace:
            tracer = Tracer()
            plain, traced = measure_traced(sampler, args.seed, args.seconds, tracer)
            run_ids = [s["run_id"] for s in sampler.samples if s["traced"]]
            layer, repeat_errors, layer_runs = per_layer_metrics(tracer, run_ids, plain, traced)
            if repeat_errors:
                sampler.samples[run_ids[-1]]["errors"] += repeat_errors
                print(f"perfbench: {repeat_errors}", file=sys.stderr)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
            spans = {"names": tracer.names, "fields": ["name", "start", "end", "parent", "run_id"], "spans": tracer.spans}
            extra = {"per_run_layers": layer_runs}
        else:
            walls, setup = measure_untraced(sampler, src, args.seed, args.seconds)
            metrics = {
                "scenario_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
            extra = {"setup_samples_s": setup}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for s in sampler.samples if s["errors"])
    result = {
        "correct": failed == 0,
        "attempted": len(sampler.samples),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(root, src, args.seed),
        "samples": sampler.samples,
        "scenario_samples": sum(1 for s in sampler.samples if not s["traced"]),
        "fail_frac": failed / len(sampler.samples),
        **extra,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_root / f"{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    if spans is not None:
        (out_root / f"{stem}-spans.json").write_text(json.dumps(spans, separators=(",", ":")) + "\n")
    print(json.dumps({k: detail[k] for k in ("workload", "scenario_samples", "fail_frac", "provenance")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
