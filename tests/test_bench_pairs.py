"""Tooling guard on scripts/bench_pairs.py: its command line and its
ten-pair comparison, without running the benchmark."""
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # it imports bench_history beside it
    import bench_pairs

    return bench_pairs


def test_arguments(bench_pairs):
    args = bench_pairs.parse_args(["HEAD~1", "/tmp/tree", "--workload", "quantum-caps",
                                   "--pairs", "10"])
    assert (args.a, args.b, args.workload, args.pairs) == ("HEAD~1", "/tmp/tree", "quantum-caps", 10)


@pytest.mark.parametrize("argv", [
    ["A", "B", "--pairs", "10"],  # no workload
    ["A", "B", "--workload", "kernel-hard"],  # no pair count
    ["A", "--workload", "kernel-hard", "--pairs", "10"],  # one tree
    ["A", "B", "--workload", "kernel-hard", "--pairs", "1"],  # no quartiles
    ["A", "B", "--workload", "kernel-hard", "--pairs", "ten"],
])
def test_bad_arguments_exit_2(bench_pairs, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(argv)
    assert exc.value.code == 2 and "usage:" in capsys.readouterr().err


def test_ten_pair_rule(bench_pairs):
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    # lower in every pair, and the medians 1.2 and 0.7 differ by more than
    # the baseline's interquartile range 0.2
    row = bench_pairs.compare(base, [x - 0.5 for x in base])
    assert row["wins"] == 10 and row["gain"]
    assert row["a"]["median"] == pytest.approx(1.2)
    # nine wins of ten still meet the rule; a tie counts for neither side
    assert bench_pairs.compare(base, [x - 0.5 for x in base[:9]] + [1.4])["gain"]
    assert not bench_pairs.compare(base, [x - 0.5 for x in base[:8]] + [1.3, 1.4])["gain"]
    # every pair won, by less than the baseline's spread
    assert not bench_pairs.compare(base, [x - 0.1 for x in base])["gain"]
    # a failed run's pair counts for neither side
    row = bench_pairs.compare(base, [None] + [x - 0.5 for x in base[1:]])
    assert row["wins"] == 9 and row["gain"]
