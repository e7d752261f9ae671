import logging
import os
import subprocess
import sys

import pytest

import trijunction.fem
from trijunction.cli import main, Scenario, run_scenario, _discretization_tolerance
from trijunction import (disk_config, trilobe_config, bent_arm_config, save_config,
                         MeshError)


@pytest.fixture(scope="module")
def cfg_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfgs")
    save_config(disk_config(), str(d / "disk.cfg"))
    save_config(trilobe_config(), str(d / "trilobe.cfg"))
    save_config(bent_arm_config(), str(d / "bent.cfg"))
    with open(d / "bent.cfg", "a") as f:
        f.write("dirichlet_data = coordinate x\n")
    return d


def test_missing_config_exit_1(tmp_path):
    code = main(["--analysis", "criticality", "--config", "no/such/file.cfg",
                 "--out", str(tmp_path)])
    assert code == 1


def test_bad_mu_exit_1(tmp_path, cfg_files):
    code = main(["--analysis", "tubular", "--config", str(cfg_files / "disk.cfg"),
                 "--mu", "0.1,zzz", "--out", str(tmp_path)])
    assert code == 1


def test_solver_error_exit_2(tmp_path, cfg_files):
    # h too coarse for the arm-resolution precondition
    code = main(["--analysis", "criticality", "--config",
                 str(cfg_files / "disk.cfg"), "--h", "0.5", "--out", str(tmp_path)])
    assert code == 2


def test_assertion_failure_exit_3(tmp_path, cfg_files):
    # criticality analysis on a non-critical configuration
    code = main(["--analysis", "criticality", "--config",
                 str(cfg_files / "bent.cfg"), "--h", "0.06",
                 "--out", str(tmp_path)])
    assert code == 3


def test_criticality_scenario(tmp_path, cfg_files):
    out = tmp_path / "crit"
    code = main(["--analysis", "criticality", "--config",
                 str(cfg_files / "disk.cfg"), "--h", "0.06", "--out", str(out)])
    assert code == 0
    assert (out / "report.txt").exists()
    assert (out / "criticality.csv").exists()
    assert (out / "curve_arm1.csv").exists()


def test_identities_scenario(tmp_path):
    out = tmp_path / "ids"
    code = main(["--analysis", "identities", "--out", str(out)])
    assert code == 0
    lines = (out / "identities.csv").read_text().splitlines()
    assert len(lines) == 24  # header + 23 items


def test_stability_scenario_and_determinism(tmp_path, cfg_files):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    for out in (out1, out2):
        code = main(["--analysis", "stability", "--config",
                     str(cfg_files / "disk.cfg"), "--h", "0.06", "--n", "16",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
    for name in ("stability.csv", "stability_verdict.csv",
                 "eigenfunction_arm1.csv", "eigenfunction_arm2.csv",
                 "eigenfunction_arm3.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    verdict = (out1 / "stability_verdict.csv").read_text()
    assert "unstable" in verdict


def test_stability_trilobe_verdict(tmp_path, cfg_files):
    out = tmp_path / "s3"
    code = main(["--analysis", "stability", "--config",
                 str(cfg_files / "trilobe.cfg"), "--h", "0.06", "--n", "16",
                 "--out", str(out)])
    assert code == 0
    assert "strictly-stable" in (out / "stability_verdict.csv").read_text()


def test_tubular_scenario(tmp_path, cfg_files):
    out = tmp_path / "tub"
    code = main(["--analysis", "tubular", "--config",
                 str(cfg_files / "trilobe.cfg"), "--h", "0.06", "--n", "12",
                 "--mu", "0.15,0.08", "--out", str(out)])
    assert code == 0
    assert (out / "tubular.csv").exists()


def test_console_entry_point(tmp_path, cfg_files):
    proc = subprocess.run(
        [sys.executable, "-m", "trijunction.cli", "--analysis", "identities",
         "--out", str(tmp_path / "ep")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_discretization_tolerance_fallback_is_logged(disk, monkeypatch, caplog):
    cfg, mesh, u = disk

    def refine(exc):
        def fn(mesh):
            raise exc("refinement failed")
        return fn
    monkeypatch.setattr(trijunction.fem, "refine_uniform", refine(MeshError))
    with caplog.at_level(logging.WARNING, logger="trijunction.cli"):
        assert _discretization_tolerance(cfg, mesh, u) == 1e-8
    assert "refinement failed" in caplog.text
    monkeypatch.setattr(trijunction.fem, "refine_uniform", refine(ValueError))
    with pytest.raises(ValueError):
        _discretization_tolerance(cfg, mesh, u)


def test_benchmark_trace_targets_resolve():
    """perfbench's traced mode wraps package functions by module and name:
    each must still exist, and uninstall must put every original back."""
    import importlib.util
    import trijunction  # noqa: F401  (the tracer patches loaded modules)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(root, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = []
    for _, modname, path, _, _ in spans.TARGETS:
        owner = sys.modules["trijunction." + modname]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        targets.append((owner, attr, owner.__dict__[attr]))
    tracer = spans.Tracer()
    tracer.install()
    try:
        installed = list(tracer._undo)
        wrapped = [owner.__dict__[attr] is not orig for owner, attr, orig in targets]
    finally:
        tracer.uninstall()
    assert all(wrapped)
    assert len(installed) > len(targets)
    assert not tracer._undo
    for owner, attr, orig in installed:
        assert owner.__dict__[attr] is orig
