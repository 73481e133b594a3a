#!/usr/bin/env python3
"""Benchmark commits and write one record per commit, bench/BENCH_<pr>.json.

    python3 scripts/bench_history.py <commit> <pr> [<commit> <pr> ...]

Each commit is extracted with `git archive` into a temporary directory, so the
checkout is neither read for the program nor written to. Its own, unchanged
`perfbench/run.py --workload <w> --seed 0 --seconds 16 --trace 0` then runs
3 times per workload, one process per run; both numbers are fixed so that
every record of the trajectory is comparable. The file holds the
commit, the tree ids of its src/ and perfbench/, the machine facts that
run.py prints, and per workload the median and quartiles of run_rel, setup_s
and peak_mb over the runs, with every run's value of those and of the
recorded rows (acc.*, parity_pass_frac, failed_frac) and its exit code. A
run that exits nonzero also keeps the last line of its stderr under "errors".
The pairs run in the order given, one commit at a time.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("run_rel", "setup_s", "peak_mb")
RUNS = 3
SECONDS = 16


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The machine facts and the metric lines (name -> value) of one run."""
    machine, metrics = {}, {}
    for line in stdout.splitlines():
        if line.startswith("# machine:"):
            machine = json.loads(line.split(":", 1)[1])
        elif line and not line.startswith(("#", "{")):
            name, value = line.split()[:2]
            metrics[name] = float(value)
    return machine, metrics


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def parse_pairs(tokens: list[str]) -> list[tuple[str, int]]:
    """The ``<commit> <pr>`` pairs of the command line."""
    if not tokens or len(tokens) % 2:
        raise ValueError("expected one or more <commit> <pr> pairs")
    return [(commit, int(pr)) for commit, pr in zip(tokens[::2], tokens[1::2])]


def extract(sha: str, tree: Path) -> None:
    """Write the files of commit ``sha`` into the directory ``tree``."""
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def bench_commit(commit: str, pr: int, out_dir: Path) -> None:
    sha = git("rev-parse", "--verify", f"{commit}^{{commit}}")
    record = {
        "pr": pr, "commit": sha,
        "src_tree": git("rev-parse", f"{sha}:src"),
        "perfbench_tree": git("rev-parse", f"{sha}:perfbench"),
        "command": f"perfbench/run.py --workload <w> --seed 0 --seconds {SECONDS} --trace 0",
        "runs": RUNS, "machine": None, "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        extract(sha, tree)
        workloads = json.loads((tree / "perfbench/workloads.json").read_text())
        for workload in workloads["workloads"]:
            runs, errors = [], []
            for k in range(RUNS):
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
                     "--seconds", str(SECONDS), "--trace", "0"],
                    cwd=tree, capture_output=True, text=True,
                )
                machine, metrics = parse_run(proc.stdout)
                metrics["exit_code"] = proc.returncode
                if proc.returncode:
                    lines = proc.stderr.strip().splitlines()
                    errors.append({"run": k, "stderr": lines[-1] if lines else ""})
                record["machine"] = record["machine"] or machine
                runs.append(metrics)
                print(f"PR {pr} {workload} run {k}: " + ", ".join(
                    f"{name} {metrics.get(name)}" for name in END_TO_END), flush=True)
            names = sorted({name for run in runs for name in run})
            record["workloads"][workload] = {
                **{name: summary([run[name] for run in runs])
                   for name in END_TO_END if all(name in run for run in runs)},
                "per_run": {name: [run.get(name) for run in runs] for name in names},
                **({"errors": errors} if errors else {}),
            }
    out = out_dir / f"BENCH_{pr}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pairs", nargs="+", metavar="<commit> <pr>")
    ap.add_argument("--out-dir", default=str(ROOT / "bench"))
    args = ap.parse_args(argv)
    try:
        pairs = parse_pairs(args.pairs)
    except ValueError as exc:
        ap.error(str(exc))
    for commit, pr in pairs:
        bench_commit(commit, pr, Path(args.out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
