"""Per-layer counters and timers, installed from outside the library.

Callers inside collatzlab bind layer functions with ``from .search import
...``, so a function is wrapped under every module name a caller looks it up
through (for example both ``collatzlab.search.successors`` and
``collatzlab.models.successors``). Each wrapper keeps a reference to the
original function, so one call is counted once. A change to the library that
reroutes a counted call (a new caller, an inlined loop, a renamed function)
redefines the counter that call fed; such a change must update the wrap
table below in a benchmark change of its own.

State lives in one ``Tracer`` object per process. Traced passes run with one
worker, so every counted call happens in that process.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from time import perf_counter_ns


class Tracer:
    """Counters (``count``), nanosecond totals (``ns``) and samples."""

    def __init__(self):
        self.count = Counter()
        self.ns = Counter()
        self.pair_ns = []
        self.pair_keys = []

    def add(self, name, ns, units=1):
        self.ns[name] += ns
        self.count[name] += units


def _model_arg(args, kwargs, index):
    model = args[index] if len(args) > index else kwargs["model"]
    return model.name


def _timed(tr, fn, name_of, units_of=None, after=None):
    """Wrap fn; time each call into ``name_of(args, kwargs)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter_ns()
        result = fn(*args, **kwargs)
        dt = perf_counter_ns() - t0
        name = name_of(args, kwargs)
        tr.add(name, dt, units_of(args, result) if units_of else 1)
        tr.count[name + ".calls"] += 1
        if after is not None:
            after(args, kwargs, result, dt)
        return result

    return wrapper


def _set(module, attr, wrapper):
    if not hasattr(module, attr):
        raise AttributeError(f"{module.__name__}.{attr} is gone: "
                             "the benchmark's wrap table needs updating")
    setattr(module, attr, wrapper)


def install(tr: Tracer):
    """Wrap every counted layer entry point; returns nothing."""
    from collatzlab import (actions, catalog, cli, experiments, models,
                            search, ternary, verify)
    from collatzlab.search import Path, Unreachable

    # models: per-state cost of the successor / predecessor relations.
    # The copies bound into `search` also count states expanded by search.
    orig_succ, orig_pred = models.successors, models.predecessors
    for mod in (models, search):
        for attr, orig, kind in (("successors", orig_succ, "succ"),
                                 ("predecessors", orig_pred, "pred")):
            def name_of(args, kwargs, kind=kind):
                return f"models.{kind}.{_model_arg(args, kwargs, 1)}"

            def after(args, kwargs, result, dt, searching=mod is search):
                if searching:
                    tr.count["search.states_expanded"] += 1

            _set(mod, attr, _timed(tr, orig, name_of, after=after))

    orig_bg = models.bounded_graph
    for mod in (experiments, cli):
        _set(mod, "bounded_graph",
             _timed(tr, orig_bg, lambda a, k: "models.bounded_graph"))

    # search: bidirectional pair searches, one-directional BFS, trajectories.
    def after_pair(args, kwargs, result, dt):
        tr.pair_ns.append(dt)
        model, start, target, bounds = args[:4]
        tr.pair_keys.append((model.name, start, target, bounds.max_value,
                             bounds.max_depth, bounds.max_states))
        tr.ns["search.busy"] += dt

    _set(verify, "bfs_reach_bidirectional",
         _timed(tr, search.bfs_reach_bidirectional,
                lambda a, k: "search.bidir", after=after_pair))

    def after_bfs(args, kwargs, result, dt):
        tr.ns["search.busy"] += dt
        if isinstance(result, Path):
            tr.count["search.found"] += 1
        elif isinstance(result, Unreachable) and result.bound_exhausted:
            tr.count["search.exhausted"] += 1
        else:
            tr.count["search.unreachable"] += 1

    for mod, attr in ((verify, "bfs_reach"), (cli, "bfs_reach"),
                      (search, "bfs_until")):
        _set(mod, attr, _timed(tr, getattr(search, attr),
                               lambda a, k: "search.bfs", after=after_bfs))

    orig_traj = search.trajectory
    for mod in (search, cli):
        _set(mod, "trajectory",
             _timed(tr, orig_traj, lambda a, k: "search.trajectory",
                    units_of=lambda args, path: len(path)))
    _set(search, "all_reach_one",
         _timed(tr, search.all_reach_one, lambda a, k: "experiments.reach_one"))

    # actions: guarded sequence replay, exact evaluation, single guarded steps.
    orig_apply_seq = actions.apply_seq
    for mod in (actions, search, verify):
        _set(mod, "apply_seq",
             _timed(tr, orig_apply_seq, lambda a, k: "actions.apply_seq",
                    units_of=lambda args, trace: len(args[0])))
    orig_eval = actions.evaluate_exact
    for mod in (actions, verify):
        _set(mod, "evaluate_exact",
             _timed(tr, orig_eval, lambda a, k: "actions.evaluate_exact",
                    units_of=lambda args, res: len(args[0])))
    orig_apply = verify.apply

    @functools.wraps(orig_apply)
    def counted_apply(*args, **kwargs):
        tr.count["actions.apply"] += 1
        return orig_apply(*args, **kwargs)

    _set(verify, "apply", counted_apply)

    # ternary
    orig_tern = ternary.to_ternary
    for mod in (ternary, actions, cli):
        _set(mod, "to_ternary",
             _timed(tr, orig_tern, lambda a, k: "ternary.to_ternary"))

    # catalog
    orig_build = catalog.build_claims
    for mod in (catalog, cli):
        _set(mod, "build_claims",
             _timed(tr, orig_build, lambda a, k: "catalog.build_claims"))

    # verify: wall per claim id and outcome counts.
    def after_claim(args, kwargs, report, dt):
        tr.count["verify.outcomes.pass"] += report.passed
        tr.count["verify.outcomes.fail"] += report.failed
        tr.count["verify.outcomes.skipped"] += report.skipped
        tr.count["verify.outcomes.budget_exhausted"] += sum(
            f.reason.startswith("budget-exceeded") for f in report.failures)

    _set(verify, "run_any_claim",
         _timed(tr, verify.run_any_claim,
                lambda a, k: f"verify.claim.{a[0]}", after=after_claim))

    # experiments
    orig_census = experiments.cycle_census
    for mod in (experiments, cli):
        _set(mod, "cycle_census",
             _timed(tr, orig_census,
                    lambda a, k: f"experiments.census.{_model_arg(a, k, 0)}"))
    orig_deloop = experiments.delooping_experiment
    for mod in (experiments, cli):
        _set(mod, "delooping_experiment",
             _timed(tr, orig_deloop, lambda a, k: "experiments.deloop"))


CLAIM_METRICS = ("T.cluster-nine", "T.cluster-five", "T.cluster-three",
                 "T.edge-loop", "T.node-loop")


def _per(tr, name, scale):
    """Total ns per unit of one timed name, times scale; 0 if never called."""
    units = tr.count[name]
    return tr.ns[name] / units * scale if units else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Metric name -> value from one tracer; an uncalled layer reads 0."""
    m = {}
    m["models.succ_ns.M1"] = _per(tr, "models.succ.M1", 1)
    m["models.pred_ns.M1"] = _per(tr, "models.pred.M1", 1)
    m["models.succ_ns.MS"] = _per(tr, "models.succ.MS", 1)
    m["models.bounded_graph_s"] = tr.ns["models.bounded_graph"] / 1e9

    pairs = len(tr.pair_keys)
    m["search.bidir_calls"] = pairs
    m["search.bidir_dup_ratio"] = (
        (pairs - len(set(tr.pair_keys))) / pairs if pairs else 0.0)
    m["search.states_expanded"] = tr.count["search.states_expanded"]
    if pairs >= 2:
        q = statistics.quantiles(tr.pair_ns, n=100, method="inclusive")
        p50, p99 = q[49] / 1e6, q[98] / 1e6
    else:
        p50 = p99 = (tr.pair_ns[0] / 1e6 if pairs else 0.0)
    m["search.pair_ms_p50"] = p50
    m["search.pair_ms_p99"] = p99
    m["search.busy_s"] = tr.ns["search.busy"] / 1e9
    bfs = tr.count["search.bfs.calls"]
    m["search.bfs_calls"] = bfs
    for outcome in ("found", "unreachable", "exhausted"):
        m[f"search.{outcome}"] = tr.count[f"search.{outcome}"]
    m["search.found_ratio"] = tr.count["search.found"] / bfs if bfs else 0.0
    m["search.trajectory_ns_per_step"] = _per(tr, "search.trajectory", 1)

    m["actions.apply_seq_ns_per_step"] = _per(tr, "actions.apply_seq", 1)
    m["actions.evaluate_exact_ns_per_step"] = _per(tr, "actions.evaluate_exact",
                                                   1)
    m["actions.steps_applied"] = (tr.count["actions.apply_seq"]
                                  + tr.count["actions.apply"])
    m["ternary.to_ternary_ns"] = _per(tr, "ternary.to_ternary", 1)

    m["catalog.build_claims_ms"] = _per(tr, "catalog.build_claims", 1e-6)
    m["catalog.build_claims_calls"] = tr.count["catalog.build_claims.calls"]

    for claim in CLAIM_METRICS:
        m[f"verify.claim_s.{claim}"] = 0.0
    m["verify.claim_s.rest"] = 0.0
    for key, ns in tr.ns.items():
        if key.startswith("verify.claim."):
            claim = key[len("verify.claim."):]
            name = claim if claim in CLAIM_METRICS else "rest"
            m[f"verify.claim_s.{name}"] += ns / 1e9
    for outcome in ("pass", "fail", "skipped", "budget_exhausted"):
        m[f"verify.outcomes.{outcome}"] = tr.count[f"verify.outcomes.{outcome}"]

    m["experiments.reach_one_s"] = tr.ns["experiments.reach_one"] / 1e9
    for model in ("M0", "MS"):
        m[f"experiments.census_s.{model}"] = (
            tr.ns[f"experiments.census.{model}"] / 1e9)
    m["experiments.deloop_s"] = tr.ns["experiments.deloop"] / 1e9
    return m
