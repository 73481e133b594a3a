#!/usr/bin/env python3
"""Compare two trees on one benchmark workload over interleaved pairs of runs.

    python3 scripts/bench_pairs.py A B --workload <w> --pairs N

A and B are each a directory holding a checkout, or a commit, which is
extracted with `git archive` into a temporary directory as bench_history.py
does, so the working tree is neither read for the program nor written to.
Each pair runs the tree's own `perfbench/run.py --workload <w> --seed 0
--seconds 16 --trace 0` once in A and once in B, one process per run; A runs
first in even pairs and B in odd ones, so neither side always meets the
machine in the same state. For each end-to-end metric (every one is better
lower) it prints both sides' median and quartiles over their runs and the
number of pairs in which B reads lower, ties counting for neither side. B
meets the ten-pair rule on a metric when it reads lower in at least nine
tenths of the pairs and its median is below A's by more than the distance
between A's quartiles. A run that exits nonzero is reported with the last
line of its stderr, and its pair counts for neither side.
"""
import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_history import END_TO_END, SECONDS, extract, git, parse_run, summary


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", metavar="A", help="the baseline: a directory or a commit")
    ap.add_argument("b", metavar="B", help="the change: a directory or a commit")
    ap.add_argument("--workload", required=True, help="one workload of perfbench/workloads.json")
    ap.add_argument("--pairs", type=int, required=True, help="number of pairs, at least 2")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs: at least 2, so that each side has quartiles")
    return args


def resolve(spec: str, tmp: Path, label: str) -> Path:
    """The tree of ``spec``: the directory itself, or the commit extracted
    into ``tmp``/``label``."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    tree = tmp / label
    tree.mkdir()
    extract(git("rev-parse", "--verify", f"{spec}^{{commit}}"), tree)
    return tree


def run_once(tree: Path, workload: str) -> dict:
    """The metric lines of one run in ``tree``; {} when it exits nonzero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode:
        lines = proc.stderr.strip().splitlines()
        print(f"  {tree}: exit {proc.returncode}: {lines[-1] if lines else ''}", flush=True)
        return {}
    return parse_run(proc.stdout)[1]


def compare(a: list, b: list) -> dict:
    """Both sides' summaries of one metric over paired runs (None where a run
    failed), B's win count and whether B meets the ten-pair rule."""
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    base = summary([x for x in a if x is not None])
    change = summary([y for y in b if y is not None])
    wins = sum(y < x for x, y in pairs)
    gain = (wins >= 0.9 * len(a)
            and base["median"] - change["median"] > base["q3"] - base["q1"])
    return {"a": base, "b": change, "wins": wins, "pairs": len(a), "gain": gain}


def main(argv=None) -> int:
    args = parse_args(argv)
    runs = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: resolve(spec, Path(tmp), side)
                 for side, spec in (("A", args.a), ("B", args.b))}
        for k in range(args.pairs):
            for side in ("AB" if k % 2 == 0 else "BA"):
                runs[side].append(run_once(trees[side], args.workload))
            print(f"pair {k}: " + "; ".join(
                f"{side} " + ", ".join(f"{name} {runs[side][-1].get(name)}" for name in END_TO_END)
                for side in "AB"), flush=True)
    print(f"# {args.workload}, {args.pairs} pairs, A = {args.a}, B = {args.b}")
    print(f"{'metric':<10} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} B wins  gain")
    for name in END_TO_END:
        values = {side: [run.get(name) for run in runs[side]] for side in "AB"}
        if sum(v is not None for v in values["A"]) < 2 or sum(v is not None for v in values["B"]) < 2:
            print(f"{name:<10} fewer than 2 runs of a side read it")
            continue
        row = compare(values["A"], values["B"])
        cells = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]" for s in (row["a"], row["b"])]
        print(f"{name:<10} {cells[0]:<34} {cells[1]:<34} {row['wins']:>2}/{row['pairs']:<3} "
              f"{'yes' if row['gain'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
