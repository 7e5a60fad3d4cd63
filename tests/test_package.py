import os
import subprocess
import sys

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
        "RunRecord",
        "SchedulerState",
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


def test_importing_paim_loads_no_scipy():
    # scipy costs more start-up time and memory than the rest of paim;
    # only the ellipse radius of the file outputs needs it, and imports it there
    code = "import sys, paim, paim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(paim.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
