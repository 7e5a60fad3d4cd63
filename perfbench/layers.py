"""What the traced run wraps, and the per-layer metrics derived from it.

The layers are the modules of ``paim``. Each public function is wrapped
under every name its callers look it up by: ``run_paim`` finds
``cholesky`` as ``paim.sampler.cholesky``, the mixture target finds
``log_gaussian_pdf`` as ``paim.targets.log_gaussian_pdf``, ``paim run``
finds ``emit_outputs`` as ``paim.cli.emit_outputs``, and so on.

Counts that no span boundary shows (cluster counts, the active set) come
from ``run_paim``'s own ``on_step`` hook, which the wrapper around
``paim.harness.run_paim`` passes in.
"""

from __future__ import annotations

import os

from tracer import Patch, Tracer

# (layer, where callers look it up). A layer may be wrapped at several names.
WRAPPED = (
    ("cli.main", "paim.cli:main"),
    ("harness.replicate", "paim.harness:replicate"),
    ("harness.replicate", "paim.cli:replicate"),
    ("harness.make_target", "paim.harness:make_target"),
    ("harness.emit_outputs", "paim.cli:emit_outputs"),
    ("targets.grid_expectation", "paim.harness:grid_expectation"),
    ("targets.log_density", "paim.targets:TargetDensity.log_density"),
    ("sampler.run_paim", "paim.harness:run_paim"),
    ("baseline.run_ipc", "paim.harness:run_ipc"),
    ("sampler.mh_step", "paim.sampler:mh_step"),
    ("sampler.mh_step", "paim.baseline:mh_step"),
    ("sampler.assign", "paim.sampler:assign"),
    ("sampler.refresh", "paim.sampler:refreshed_proposals"),
    ("sampler.activation", "paim.sampler:activation"),
    ("moments.push", "paim.moments:RunningMoments.push"),
    ("gaussian.cholesky", "paim.sampler:cholesky"),
    ("gaussian.cholesky", "paim.targets:cholesky"),
    ("gaussian.solve_lower", "paim.gaussian:solve_lower"),
    ("gaussian.log_gaussian_pdf", "paim.sampler:log_gaussian_pdf"),
    ("gaussian.log_gaussian_pdf", "paim.targets:log_gaussian_pdf"),
    ("gaussian.sample_gaussian", "paim.sampler:sample_gaussian"),
)

# Layers reported with call count and self time, per unit.
TIMED = (
    "gaussian.cholesky",
    "gaussian.solve_lower",
    "gaussian.log_gaussian_pdf",
    "gaussian.sample_gaussian",
    "moments.push",
    "targets.log_density",
    "sampler.mh_step",
    "sampler.assign",
    "sampler.refresh",
    "sampler.activation",
    "sampler.run_paim",
    "baseline.run_ipc",
    "harness.make_target",
    "harness.replicate",
    "harness.emit_outputs",
    "cli.main",
)
# Layers that have wrapped children also get their inclusive time.
INCLUSIVE = (
    "sampler.mh_step",
    "sampler.refresh",
    "sampler.run_paim",
    "baseline.run_ipc",
    "harness.replicate",
    "cli.main",
)


class StepObserver:
    """``on_step`` consumer counting steps, active chains and dirty clusters.

    A local component is *dirty* at a refresh when its cluster's count
    changed since the previous refresh (at the first refresh every
    component is, since all replace the initial proposals); only dirty
    components differ from the ones the previous refresh built.
    """

    def __init__(self, config, counters, downstream=None):
        self.n = config.n_chains
        self.t_train = config.t_train
        self.t_stop = config.t_stop
        self.counters = counters
        self.downstream = downstream
        self.previous = None
        # Step 0 runs every chain and precedes the first callback.
        counters["sampler.steps"] += 1
        counters["sampler.chain_steps"] += self.n
        counters["sampler.active_chain_steps"] += self.n

    def __call__(self, state):
        c = self.counters
        # ``state.active`` is the set the next step runs with; the final
        # step, which fills the sample budget, gets no callback.
        c["sampler.steps"] += 1
        c["sampler.chain_steps"] += self.n
        c["sampler.active_chain_steps"] += int(state.active.sum())
        if self.t_train < state.step < self.t_stop:
            counts = [m.count for m in state.clusters]
            if self.previous is None:
                dirty = self.n
            else:
                dirty = sum(a != b for a, b in zip(counts, self.previous))
            self.previous = counts
            c["sampler.refresh.locals"] += self.n
            c["sampler.refresh.dirty"] += dirty
        if self.downstream is not None:
            self.downstream(state)


def patches(tracer: Tracer) -> list[Patch]:
    c = tracer.counters

    def count_accepted(args, kwargs, result):
        c["sampler.mh_step.accepted"] += bool(result[0])

    def count_states(args, kwargs, result):
        c["sampler.assign.states"] += len(args[0])

    def count_bytes(args, kwargs, result):
        c["harness.emit_outputs.bytes"] += sum(os.path.getsize(p) for p in result)

    def observed(run_paim):
        def run_paim_observed(config, target, on_step=None):
            hook = tracer.wrap("trace.on_step", StepObserver(config, c, on_step))
            return run_paim(config, target, on_step=hook)

        return run_paim_observed

    after = {
        "sampler.mh_step": count_accepted,
        "sampler.assign": count_states,
        "harness.emit_outputs": count_bytes,
    }
    return [
        Patch(layer, where, after.get(layer), observed if layer == "sampler.run_paim" else None)
        for layer, where in WRAPPED
    ]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for layer in TIMED:
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.s", "s"))
        if layer in INCLUSIVE:
            names.append((f"{layer}.total_s", "s"))
    names += [
        ("sampler.refresh.components_built", "count"),
        ("sampler.refresh.dirty_share", "share"),
        ("sampler.refresh.run_paim_share", "share"),
        ("sampler.mh_step.accept_share", "share"),
        ("sampler.assign.states", "count"),
        ("sampler.steps", "count"),
        ("sampler.active_share", "share"),
        ("harness.emit_outputs.bytes", "bytes"),
        ("targets.grid_expectation.s", "s"),
        ("setup.import_s", "s"),
        ("trace.on_step.s", "s"),
        ("trace.overhead_share", "share"),
    ]
    return names


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, units: int, setup_tracer: Tracer, import_s: float, overhead_share: float) -> dict:
    """Per-layer values: counts and seconds per unit, shares over all units.

    Layers that were absent (their name no longer resolves) read 0.
    """
    totals = tracer.layer_totals()
    c = tracer.counters

    def layer(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    values = {}
    for name in TIMED:
        values[f"{name}.calls"] = layer(name, "calls") / units
        values[f"{name}.s"] = layer(name, "s") / units
        if name in INCLUSIVE:
            values[f"{name}.total_s"] = layer(name, "total_s") / units
    built = tracer.count_under("gaussian.cholesky", "sampler.refresh")
    values["sampler.refresh.components_built"] = built / units
    values["sampler.refresh.dirty_share"] = _share(c["sampler.refresh.dirty"], c["sampler.refresh.locals"])
    values["sampler.refresh.run_paim_share"] = _share(
        layer("sampler.refresh", "total_s"), layer("sampler.run_paim", "total_s")
    )
    values["sampler.mh_step.accept_share"] = _share(c["sampler.mh_step.accepted"], layer("sampler.mh_step", "calls"))
    values["sampler.assign.states"] = c["sampler.assign.states"] / units
    values["sampler.steps"] = c["sampler.steps"] / units
    values["sampler.active_share"] = _share(c["sampler.active_chain_steps"], c["sampler.chain_steps"])
    values["harness.emit_outputs.bytes"] = c["harness.emit_outputs.bytes"] / units
    values["targets.grid_expectation.s"] = setup_tracer.layer_totals().get("targets.grid_expectation", {}).get("s", 0.0)
    values["setup.import_s"] = import_s
    values["trace.on_step.s"] = layer("trace.on_step", "s") / units
    values["trace.overhead_share"] = overhead_share
    return values
