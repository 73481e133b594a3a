"""Tooling guard on the benchmark's count readers: each reader in
perfbench/spans.py runs on a real return value of the function it wraps, so
a change to a return shape fails here instead of breaking a traced bench
run. perfbench/ is only read, never changed."""
import importlib.util
from pathlib import Path

import numpy as np

from subalign import classical_sa as csa
from subalign import quantum_sa as qsa
from subalign.datasets import Domain
from subalign.quantum_core import ShotPlan, _sort_tables, grover_min_find

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_readers_read_real_return_values():
    spans = _spans()
    readers = {attr: counts for _, attr, _, counts in spans.TARGETS if counts is not None}

    # the first target sits between two sources of different labels; the
    # second sits on a source
    args = (np.array([[-1.0, 1.0, 3.0]]), np.array([0, 1, 1]), np.array([[0.0, 3.0]]), ShotPlan())
    assert readers["q_nn_classify"](args, qsa.q_nn_classify(*args)) == {"ambiguous": 1}

    args = (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), np.zeros((2, 5)))
    assert readers["nn_classify"](args, csa.nn_classify(*args)) == {"pairs": 10}

    tables = _sort_tables(np.array([[3.0, 1.0, 2.0], [2.0, 2.0, 0.5]]))
    args = (tables, ShotPlan().rng("min_find"), 4)
    stats = grover_min_find(*args)
    queries = readers["grover_min_find"](args, stats)["oracle_queries"]
    assert queries == int(stats.target_queries.sum()) > 0

    dom = Domain(np.array([[1.0, -1.0], [0.2, -0.1]]), np.array([1, -1]))
    args = (dom, np.eye(2), 1.0)
    model = qsa.q_svm_train(*args)
    assert readers["q_svm_train"](args, model) == {"success_probability": model.success_probability}
    assert 0 < model.success_probability <= 1

    args = (np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    state = qsa.matrix_product_state(*args)
    assert readers["matrix_product_state"](args, state) == {"success_min": state.success_probability}
    assert 0 < state.success_probability <= 1
