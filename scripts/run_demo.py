#!/usr/bin/env python3
"""End-to-end demo: synthesize a rotated-Gaussians pair, run the classical
and quantum tracks side by side, and print the accuracy/parity summary."""
import argparse
import sys
from pathlib import Path

# run from a plain checkout: the package lives in src/ next to this directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subalign import harness  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output-dir", default="runs/demo")
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--rotation", type=float, default=1.0472)
    args = ap.parse_args()

    cfg = harness.parse_config_text(
        f"""
dataset.D = 4
dataset.n_s = 12
dataset.n_t = 10
dataset.rotation = {args.rotation}
d = 2
track = both
classifier = nn
quantum.exact_theta = true
seeds = {args.seeds}
output_dir = {args.output_dir}
"""
    )
    report = harness.run(cfg)
    print(f"{'seed':>6} {'track':<10} {'accuracy':>9}")
    for row in report.accuracy:
        print(f"{row['seed']:>6} {row['track']:<10} {row['accuracy']:>9.4f}")
    print()
    for row in harness.compare_tracks(report):
        print(f"{row['quantity']:<28} {row['kind']:<12} {row['value']:.6g} "
              f"{'ok' if row['all_pass'] else 'FAIL'}")
    print(f"\nreport files under {cfg.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
