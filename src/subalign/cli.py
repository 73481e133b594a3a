"""Command-line entry point.

Subcommands:
  synth    generate a synthetic source/target CSV pair
  run      execute an experiment config and write report files
  compare  summarize quantum-vs-classical parity from a report
  report   print a human-readable digest of a report

Hard errors (bad config, cap violations, I/O failures) exit nonzero; parity
failures inside a run are recorded in the report and do not affect the exit
status.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .datasets import save_csv
from .errors import SubalignError
from .harness import ExperimentConfig, RunReport


def _config_from_args(args) -> ExperimentConfig:
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    for item in args.set or []:
        if "=" not in item:
            raise SubalignError(f"--set expects key=value, got {item!r}")
        text += "\n" + item
    return harness.parse_config_text(text)


def _cmd_synth(args) -> int:
    config = _config_from_args(args)
    if config.dataset is None:
        raise SubalignError("synth requires a synthetic dataset spec, not CSV paths")
    from dataclasses import replace

    from .datasets import synth_shifted_gaussians

    spec = replace(config.dataset, seed=config.seeds[0])
    source, target = synth_shifted_gaussians(spec)
    out = Path(args.output or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(source, out / "source.csv")
    # target features only; the held-out labels go to a separate file so
    # adaptation runs cannot read them by accident
    features_only = replace(target, labels=None, labels_hidden=False)
    save_csv(features_only, out / "target.csv")
    with open(out / "target_labels.csv", "w", encoding="utf-8") as fh:
        fh.write("label\n")
        for y in target.hidden_labels():
            fh.write(f"{int(y)}\n")
    print(f"wrote source.csv ({source.n} points), target.csv ({target.n} points), "
          f"target_labels.csv under {out}")
    return 0


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    report = harness.run(config)
    n_fail = sum(1 for r in report.parity if not r["pass"])
    print(f"run complete: {len(report.accuracy)} accuracy rows, "
          f"{len(report.parity)} parity rows ({n_fail} failing), "
          f"outputs in {config.output_dir}")
    return 0


def _load_report(path: str) -> RunReport:
    return RunReport.from_json(Path(path).read_text(encoding="utf-8"))


def _cmd_compare(args) -> int:
    report = _load_report(args.report)
    rows = harness.compare_tracks(report)
    print(f"{'quantity':<32} {'kind':<12} {'value':>12}  pass")
    for row in rows:
        print(f"{row['quantity']:<32} {row['kind']:<12} {row['value']:>12.6g}  "
              f"{'yes' if row['all_pass'] else 'NO'}")
    return 0


def _cmd_report(args) -> int:
    report = _load_report(args.report)
    print(f"schema v{report.schema_version}; "
          f"{len(report.accuracy)} accuracy rows, {len(report.parity)} parity rows")
    if report.accuracy:
        print(f"\n{'seed':>6} {'track':<10} {'classifier':<10} {'accuracy':>9}")
        for row in report.accuracy:
            print(f"{row['seed']:>6} {row['track']:<10} {row['classifier']:<10} "
                  f"{row['accuracy']:>9.4f}")
    failing = [r for r in report.parity if not r["pass"]]
    if failing:
        print(f"\nfailing parity rows ({len(failing)}):")
        for row in failing:
            print(f"  {row['quantity']}: abs_err={row['abs_err']:.3g} "
                  f"> tol={row['tolerance']:.3g}")
    elif report.parity:
        print("\nall parity rows pass")
    total = sum(t["seconds"] for t in report.timings if t["stage"] == "total")
    print(f"\ntotal wall-clock: {total:.2f} s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subalign",
        description="Subspace-alignment domain adaptation: classical, kernel, "
                    "and simulated-quantum tracks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="flat dotted-key config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV pair")
    add_config_args(p_synth)
    p_synth.add_argument("--output", help="directory for the CSV files")
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="execute an experiment")
    add_config_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="summarize parity from a report")
    p_cmp.add_argument("--report", required=True, help="path to report JSON")
    p_cmp.set_defaults(func=_cmd_compare)

    p_rep = sub.add_parser("report", help="print a report digest")
    p_rep.add_argument("--report", required=True, help="path to report JSON")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SubalignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
