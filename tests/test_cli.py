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
    """Two runs on the same config under two paths write the same files; their
    reports differ only in the config path and carry the config's hash."""
    import hashlib
    import shutil
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    (tmp_path / "copy").mkdir()
    copy = shutil.copy(cfg_files / "disk.cfg", tmp_path / "copy" / "disk.cfg")
    for out, path in ((out1, cfg_files / "disk.cfg"), (out2, copy)):
        code = main(["--analysis", "stability", "--config",
                     str(path), "--h", "0.06", "--n", "16",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
    for name in ("stability.csv", "stability_verdict.csv",
                 "eigenfunction_arm1.csv", "eigenfunction_arm2.csv",
                 "eigenfunction_arm3.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rep1, rep2 = ((out / "report.txt").read_text().splitlines() for out in (out1, out2))
    differ = [a for a, b in zip(rep1, rep2) if a != b]
    assert len(rep1) == len(rep2) and [a.split(" :")[0] for a in differ] == ["config"]
    digest = hashlib.sha256((cfg_files / "disk.cfg").read_bytes()).hexdigest()
    assert "config_sha256 : %s" % digest in rep1
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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_module(name):
    """A module of the benchmark, loaded read-only from perfbench/."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(ROOT, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve():
    """perfbench's traced mode wraps package functions by module and name:
    each must still exist, and uninstall must put every original back."""
    import trijunction  # noqa: F401  (the tracer patches loaded modules)
    spans = _perfbench_module("spans")
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


def test_top_level_exports_are_imported():
    """Every name the package exports, the exception classes aside, is
    imported from the top level by the CLI, a test, a demo or the benchmark
    (read from the syntax trees, nothing is imported)."""
    import ast
    src = os.path.join(ROOT, "src", "trijunction")
    with open(os.path.join(src, "__init__.py")) as f:
        tree = ast.parse(f.read())
    exported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "errors"
                for a in node.names}
    paths = [os.path.join(src, "cli.py")] + [
        os.path.join(ROOT, d, name) for d in ("tests", "demos", "perfbench")
        for name in sorted(os.listdir(os.path.join(ROOT, d))) if name.endswith(".py")]
    used = set()
    for path in paths:
        with open(path) as f:
            for node in ast.walk(ast.parse(f.read())):
                if isinstance(node, ast.ImportFrom) and node.module == "trijunction" \
                        and node.level == 0:
                    used.update(a.name for a in node.names)
    assert sorted(exported - used) == []


# random_1 is a test field, whose corner blends stop each point's Newton
# iteration on convergence; its delta may move by this much
SWEEP_DELTA_TOL = 1e-14


@pytest.mark.slow
def test_sweep_deltas_match_benchmark_references():
    """The benchmark's sweep ops reproduce the energy deltas recorded in
    perfbench/references.json for input seeds 0 and 5: exactly for the bumps
    and junction shifts, within SWEEP_DELTA_TOL for random_1."""
    import json
    workloads = _perfbench_module("workloads")
    with open(os.path.join(ROOT, "perfbench", "references.json")) as f:
        refs = json.load(f)["sweep"]
    for seed in (0, 5):
        sweep = workloads.Sweep(ROOT, seed, None)
        ops = sweep.ops(sweep.setup())
        assert len(ops) == 6
        for op in ops:
            delta = op.observe(op.run())["scalars"]["delta"]
            ref = refs[op.key]["delta"]
            if op.key.startswith("random_1"):
                assert abs(delta - ref) <= SWEEP_DELTA_TOL, op.key
            else:
                assert delta == ref, op.key
