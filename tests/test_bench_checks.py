"""Tooling guard on the benchmark's own checks: every workload in
perfbench/workloads.json, shrunk, quantum-caps in sampled mode and with
the quantum SVM alone, and kernel-hard with both classifiers must pass the
output check that perfbench/run.py applies to each `harness.run` report,
and the `run.py --scaling` table must run. A change that would
make the benchmark count a failed call, or break its scaling table, fails
here first.
perfbench/ is only read, never changed."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from subalign import classical_sa, datasets, harness, quantum_sa

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]
MODS = {"harness": harness, "datasets": datasets,
        "classical_sa": classical_sa, "quantum_sa": quantum_sa}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_output(tmp_path, monkeypatch, workload, extra=""):
    """Run ``workload`` with the config lines ``extra`` added, seeds 0-2,
    and return the problems the benchmark's output check finds in the
    report, against the reference that `run.py` builds for it."""
    reference = _load("reference")
    monkeypatch.setitem(sys.modules, "reference", reference)  # run.py imports it by name
    run = _load("run")
    text = run.config_text(workload, 0, str(tmp_path)) + extra
    cfg = harness.parse_config_text(text + "seeds=0,1,2\n", environ={})
    report = harness.run(cfg)
    return reference.check_report(report, cfg, run.build_reference(MODS, cfg))


@pytest.mark.parametrize("workload, extra", [
    *(pytest.param(w, "", id=w) for w in sorted(WORKLOADS)),
    pytest.param("quantum-caps", "track=quantum\nclassifier=svm\n", id="quantum-caps-quantum-svm"),
])
def test_shrunk_workload_passes_the_output_check(tmp_path, monkeypatch, workload, extra):
    """Each workload at D <= 16 and n_s = n_t = 300 (quantum-caps as it is),
    seeds 0-2, against the reference that `run.py` builds for it; and
    quantum-caps with the quantum SVM alone, which has no classical rows."""
    config = WORKLOADS[workload]["config"]
    if workload != "quantum-caps":
        extra = f"dataset.D={min(config['dataset.D'], 16)}\ndataset.n_s=300\ndataset.n_t=300\n"
    assert _check_output(tmp_path, monkeypatch, workload, extra) == []


def test_sampled_quantum_caps_passes_the_output_check(tmp_path, monkeypatch):
    """quantum-caps with finite-precision theta, which also samples every
    readout (1024 shots): the sampled qSVM and quantum NN paths, seeds 0-2."""
    assert _check_output(tmp_path, monkeypatch, "quantum-caps", "quantum.exact_theta=false\n") == []


def test_kernel_hard_with_svm_passes_the_output_check(tmp_path, monkeypatch):
    """kernel-hard shrunk to n_s = n_t = 300 with classifier=both: the
    source outlives the kernel fit for SVM training, the target does not."""
    extra = "dataset.n_s=300\ndataset.n_t=300\nclassifier=both\n"
    assert _check_output(tmp_path, monkeypatch, "kernel-hard", extra) == []


def test_scaling_table_runs(capsys):
    scaling = _load("scaling")
    scaling.SIZES_N, scaling.SIZES_D, scaling.SUBSPACE_D, scaling.REPEATS = (40,), (4,), 2, 1
    scaling.report(MODS, 0)
    rows = json.loads(capsys.readouterr().out.splitlines()[-1])["scaling"]
    assert {row["layer"] for row in rows} == {"nn_classify", "svm_train", "svm_classify"}
