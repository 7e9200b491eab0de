"""Byte-identity check of a parent revision's run outputs against the working tree.

Run from the root of a veldt checkout:

    python3 tools/same_outputs.py --parent HEAD~1 [config.json ...]

The parent revision is exported with ``paired_bench.export_parent`` into a
throwaway directory; the working tree runs from its own ``src/``.  Both sides
run every config document of the README, every benchmark workload config,
every config in ``tools/configs/`` (cases that no README block or workload
reaches: a bifurcation with an indefinite complement block, translation orbits
of a periodic bifurcation, a periodic ``morse`` run with a kernel tilt whose
degenerate census point is a translation orbit away from the base point, so
the run exits 2 without tilting, a ``reduce`` run on the coupled two-component P2
whose kernel has dimension 2, a ``bifurcate`` sweep of that system, whose random
extra starts and two-axis mirrored starts no P2 sweep reaches, a 2-D space on a non-square box, a ``spectrum``
run with both split audits on that coupled system, whose eigenspaces all have
dimension 2, a ``spectrum`` run of that system with Morse counts at two of
those double eigenvalues and between them, so the crossing-formula check
meets a multiplicity-2 collision, a ``validate`` run whose fitted ellipticity
envelope has tied samples, a P2 ``morse`` run at its second eigenvalue lam = 4,
whose kernel tilt starts from a base point of Morse index 1, a ``morse`` run
of a functional with an odd cubic term, whose census mirrors no minus seed,
since only an even functional has its critical points in ± pairs, a ``morse``
run of the coupled two-component P2 at its double eigenvalue lam = 1, whose
kernel tilt scans its annulus at nu = 2 and whose census mirrors the minus
seeds of a two-component system, a P2 ``morse`` run at lam = 20 and a
``morse`` run of the fourth-order well u''^2/2 + u^4/4 at lam = 40, two
censuses that only the primary-branch seeds complete) and each config path
given on the command line, at seeds 0 and 7, through ``python -m veldt.cli``
with BLAS on one thread.  For each run the script compares the exit code,
``report.json``, ``summary.txt`` and every CSV.  A differing ``report.json`` has each
differing entry printed by its JSON path, numbers with their relative
difference; a differing CSV has its first differing cell printed by row and
column header, the same way.  Before its last line the script prints the
line count of ``src/veldt`` on both sides, so that "less code" stands next
to "same outputs".  The script exits 1 when
any run differs and 0 when every output is byte-identical.  All outputs go to
the throwaway directory, which is removed at the end, also when a run fails.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from paired_bench import ROOT, export_parent  # noqa: E402

SEEDS = (0, 7)
CONFIGS = ROOT / "tools" / "configs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def readme_configs() -> dict:
    """Every JSON block of the README that names a scenario, by a label."""
    readme = (ROOT / "README.md").read_text()
    docs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)]
    return {f"readme-{i}-{doc['scenario']}": doc for i, doc in enumerate(d for d in docs if "scenario" in d)}


def workload_configs() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: config for name, (config, _) in module.WORKLOADS.items()}


def source_lines(package: Path) -> int:
    """The number of lines of every ``.py`` file under ``package``."""
    return sum(len(path.read_text().splitlines()) for path in package.rglob("*.py"))


def run_config(src: Path, config: Path, out: Path, seed: int) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, "-m", "veldt.cli", "--config", str(config), "--out", str(out), "--seed", str(seed)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True).returncode


def json_differences(a, b, where="report"):
    """(JSON path, parent value, change value) of every leaf where ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from json_differences(a.get(key), b.get(key), f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from json_differences(x, y, f"{where}[{i}]")
    elif a != b or type(a) is not type(b):
        yield where, a, b


def describe(where, a, b) -> str:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if numbers and max(abs(a), abs(b)) > 0:
        return f"    {where}: {a!r} -> {b!r} (relative {abs(a - b) / max(abs(a), abs(b)):.2e})"
    return f"    {where}: {a!r} -> {b!r}"


def _cell(text):
    """A CSV cell as a float when it reads as one, else as its text."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return text


def csv_difference(a: str, b: str) -> str:
    """The first cell where two CSV texts differ, by row (1 is the first after the header) and column header."""
    parent, change = (list(csv.reader(io.StringIO(text))) for text in (a, b))
    header = parent[0] if parent else []
    for r, (row_a, row_b) in enumerate(zip(parent, change)):
        for c, (x, y) in enumerate(itertools.zip_longest(row_a, row_b)):
            if x != y:
                column = header[c] if c < len(header) else f"#{c}"
                return describe(f"row {r}, {column}", _cell(x), _cell(y))
    return f"    {len(parent) - 1} -> {len(change) - 1} rows"


def compare(parent: Path, change: Path, code_parent: int, code_change: int) -> list:
    """Lines that describe every difference between two output directories; empty when identical."""
    lines = [] if code_parent == code_change else [f"  exit code {code_parent} -> {code_change}"]
    names = sorted({p.name for d in (parent, change) if d.is_dir() for p in d.iterdir()})
    for name in (n for n in names if n in ("report.json", "summary.txt") or n.endswith(".csv")):
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            lines.append(f"  {name} written only by the {'parent' if a.exists() else 'change'}")
        elif a.read_bytes() != b.read_bytes():
            lines.append(f"  {name} differs")
            if name == "report.json":
                diffs = json_differences(json.loads(a.read_text()), json.loads(b.read_text()))
                lines.extend(describe(*d) for d in diffs)
            elif name.endswith(".csv"):
                lines.append(csv_difference(a.read_text(), b.read_text()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare the working tree against")
    parser.add_argument("configs", nargs="*", type=Path, help="further config documents to run on both sides")
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    try:
        commit = export_parent(args.parent, scratch / "parent")
        print(f"parent {commit} against the working tree, seeds {', '.join(map(str, SEEDS))}")
        configs = {}
        for label, doc in {**readme_configs(), **workload_configs()}.items():
            configs[label] = scratch / f"{label}.json"
            configs[label].write_text(json.dumps(doc))
        for path in sorted(CONFIGS.glob("*.json")):
            configs[f"configs/{path.stem}"] = path
        for path in args.configs:
            configs[str(path)] = path.resolve()
        differing = 0
        for i, (label, config) in enumerate(configs.items()):
            for seed in SEEDS:
                outs = {side: scratch / "out" / side / f"{i}-seed{seed}" for side in ("parent", "change")}
                code_parent = run_config(scratch / "parent" / "src", config, outs["parent"], seed)
                code_change = run_config(ROOT / "src", config, outs["change"], seed)
                lines = compare(outs["parent"], outs["change"], code_parent, code_change)
                differing += bool(lines)
                print(f"{label} seed {seed}: exit {code_change}, {'differs' if lines else 'identical'}", flush=True)
                for line in lines:
                    print(line)
        parent_lines, change_lines = (source_lines(root / "src" / "veldt") for root in (scratch / "parent", ROOT))
        print(f"src/veldt lines: {parent_lines} at the parent, {change_lines} in the working tree")
        print(f"{differing} of {len(configs) * len(SEEDS)} runs differ")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
