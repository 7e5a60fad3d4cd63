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
