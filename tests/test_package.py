import json
import os
import subprocess
import sys

import pytest

import paim


def test_every_exported_name_resolves():
    missing = [name for name in paim.__all__ if not hasattr(paim, name)]
    assert missing == []
    namespace = {}
    exec("from paim import *", namespace)
    assert set(paim.__all__) <= set(namespace)


def test_exported_names_are_the_public_api():
    # the configs, the runners and their record, the target builders, the
    # harness entry points and the errors; kernels stay in the submodules
    assert set(paim.__all__) == {
        "AllZeroMass",
        "BananaParams",
        "ConfigError",
        "ExperimentConfig",
        "GridSpec",
        "NotPositiveDefinite",
        "PaimConfig",
        "PaimRun",
        "RunRecord",
        "SummaryReport",
        "TargetDensity",
        "emit_outputs",
        "grid_expectation",
        "make_banana_target",
        "make_gaussian_mixture_target",
        "make_gaussian_target",
        "make_target",
        "replicate",
        "resolve_truth",
        "run_ipc",
        "run_paim",
    }


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(paim.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60)


def test_importing_paim_loads_no_scipy():
    # scipy is not a dependency of paim: importing it would cost more
    # start-up time and memory than the rest of paim
    out = run_python(f"import sys, paim, paim.cli; print({SCIPY_MODULES})")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_whole_run_loads_no_scipy(tmp_path, workers):
    # Both algorithms, and all five output files of each, ellipses.csv too.
    config = {
        "target": {"name": "banana"},
        "sampler": {"n_chains": 4, "total_samples": 200, "t_train": 2},
        "init": {"box_lower": [-5, -5], "box_upper": [5, 5], "sigma": 3},
        "truth": [0.0, 0.0],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = ("import os, sys, paim.cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any host\n"
            "status = paim.cli.main(sys.argv[1:])\n"
            f"print({SCIPY_MODULES})\n"
            "sys.exit(status)")
    out = run_python(code, "run", "--config", str(path), "--out", str(tmp_path / "out"), "--workers", workers)
    assert out.returncode == 0, out.stderr
    *written, modules = out.stdout.splitlines()
    assert len(written) == 10 and written[-1].endswith("ellipses.csv")
    assert modules == "[]"
