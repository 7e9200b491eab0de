"""Paired benchmark runs of a parent revision against the working tree.

Run from the root of a veldt checkout:

    python3 tools/paired_bench.py --parent HEAD~1 --pairs 10 --seconds 8

The parent revision is exported with ``git archive`` into a throwaway
directory, and the working tree's ``src/`` and ``perfbench/`` are copied next
to it, so both sides run the same way from a directory of their own and
nothing under the checkout's ``perfbench/`` is written.  For each workload,
``perfbench/run.py --trace 0`` runs on both sides in alternating order (the
parent first in even pairs, the change first in odd ones), and each side runs
its own copy of the benchmark code.  The script prints, per workload and
end-to-end metric, each side's median and quartiles, the change's win count
(a tie counts for neither side), whether the medians differ by more than
the parent's interquartile range, and whether the change's median is worse
than the parent's by more than the metric's ``bound`` in ``BENCHMARK.json``,
taken as a share of the parent median: the regression a benchmark pipeline
that enforces those bounds would reject.  The throwaway directory is removed at the
end, also when a run fails.

An archive rather than a ``git worktree`` holds the parent: a worktree is
registered in the repository's ``.git``, so a run that is killed would leave
that registration behind.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "perfbench")  # what the benchmark reads from a checkout
SKIPPED = shutil.ignore_patterns("__pycache__", "out", "*.egg-info")


def export_parent(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest`` and return its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", f"--output={archive}", commit], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def copy_working_tree(dest: Path):
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name, ignore=SKIPPED)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``; its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} in {tree}: {result['failed']} of {result['attempted']} runs failed their oracle")
    return result["metrics"]


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), with the inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles and win counts of paired runs of one metric, with the two flags."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    return {
        "parent": {"median": p2, "q1": p1, "q3": p3},
        "change": {"median": c2, "q1": c1, "q3": c3},
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "median_gap_exceeds_parent_iqr": abs(c2 - p2) > p3 - p1,
        "worse_beyond_bound": sign * (c2 - p2) > bound * abs(p2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0, help="time to measure per run, the same on both sides")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", help="a workload to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--json", type=Path, help="also write every run's metrics and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}

    scratch = Path(tempfile.mkdtemp(prefix="paired-bench-"))
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        commit = export_parent(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        print(f"parent {commit} against the working tree: {args.pairs} pairs of {args.seconds:g} s runs, seed {args.seed}")
        runs: dict = {}
        summary: dict = {}
        for workload in workloads:
            runs[workload] = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[workload][side].append(run_once(trees[side], workload, args.seed, args.seconds))
            for name, (unit, better, bound) in metrics.items():
                parent = [r[name]["value"] for r in runs[workload]["parent"]]
                change = [r[name]["value"] for r in runs[workload]["change"]]
                s = summary.setdefault(workload, {})[name] = summarize(parent, change, better, bound)
                print(
                    f"{workload:14s} {name:12s} parent {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, "
                    f"{s['parent']['q3']:.4g}] change {s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
                    f"{s['change']['q3']:.4g}] {unit}, change wins {s['wins']}/{s['pairs']} "
                    f"(loses {s['losses']}), median gap {'exceeds' if s['median_gap_exceeds_parent_iqr'] else 'within'} "
                    f"the parent IQR, {'WORSE beyond' if s['worse_beyond_bound'] else 'within'} the {bound:.0%} bound",
                    flush=True,
                )
        if args.json:
            args.json.write_text(json.dumps({"parent": commit, "args": vars(args) | {"json": str(args.json)}, "runs": runs, "summary": summary}, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
