"""The three benchmark workloads.

Each workload builds its config from the seed, then runs iterations.  A
plain iteration is what a user runs (CLI stages through ``cli.main`` or the
public API); it is timed with tracing off.  A traced iteration runs the same
plain iteration with span-recording wrappers swapped in for the public names
the stages call (``program_calls``), so every span times a call the program
itself makes.  Only the simulation kernels are replayed: ``run()`` inlines
``detect``, ``select_strategy`` and ``update_queues``, so after the timed
region the traced iteration calls the public kernels on recorded inputs.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import driftlab.config
import driftlab.lp
from driftlab import cli
from driftlab.config import config_from_dict
from driftlab.distributions import Schedule
from driftlab.errors import EstimationError
from driftlab.estimators import (
    BETA1_MIN_RUNS,
    default_anchor_grid,
    error_rate,
    estimate_beta1,
    estimate_kappa,
    gap_report,
)
from driftlab.lp import instance_for, solve_lp
from driftlab.presets import sensor3_members, sensor3_model
from driftlab.simulate import detect, run_ensemble, select_strategy, update_queues
from driftlab.strategies import StrategySpace

import checks
from tracer import NullTracer, clock, patched

STAGES = ("simulate", "lp", "bounds", "empirics", "compare")
KERNEL_REPLAY_SLOTS = 2000  # fixed, evenly spaced post-warmup subsample of run 0
BETA1_SIGNATURE = inspect.signature(estimate_beta1)


class IterationFailed(Exception):
    """An operation failed; the iteration stops and the run reports it."""


class Ops:
    """Attempted and failed operations: stage and API calls, output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; an exception is a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{name}: {exc!r}")
            raise IterationFailed(name) from exc

    def stage(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.call(f"cli {argv[0]}", cli.main, argv)
        if rc != 0:
            self.failures.append(f"cli {argv[0]}: exit code {rc}")
            raise IterationFailed(argv[0])

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {name}")


@dataclass
class Iteration:
    total_s: float
    analysis_s: float
    sim_s: float | None = None  # None on a workload that does not simulate
    stages: dict[str, float] = field(default_factory=dict)
    digest: object = None  # what must repeat exactly across iterations
    result: object = None  # kept only until the first iteration is checked


def _alpha_rule(cfg, max_s: int) -> int:
    """The CLI's anchor start for the mixing estimate (``cli.empirics``)."""
    warm = cfg.sim().warmup_mask()
    warm_end = int(np.flatnonzero(~warm)[0]) if (~warm).any() else 0
    return max(warm_end, int(0.75 * (cfg.horizon - 1 - max_s)))


def run_estimators(ens, cfg, ops: Ops) -> list[list]:
    """The estimator calls `empirics` makes, on one ensemble; returns their
    results as rows for ``checks.values_digest``."""
    rates = ops.call("error_rate", error_rate, ens)
    kap = ops.call("estimate_kappa", estimate_kappa, ens)
    rows = [
        ["error_rate", *rates.per_slot],
        ["error_rate_ci", *rates.ci_half()],
        ["kappa", kap.value, kap.reason, kap.n_strategies, kap.pooled_slots,
         kap.included_cells, kap.excluded_cells],
    ]
    s_grid = list(cfg.s_sweep) or [5, 40]
    alpha = _alpha_rule(cfg, max(s_grid))
    for k in (0, 1):
        for s in s_grid:
            est = ops.call("estimate_beta1", estimate_beta1, ens, k=k, s=s, alpha=alpha)
            rows.append(["beta1", k, s, alpha, est.value, est.ci_half])
            rows += [["anchor", a.t, a.tv, a.ci_half, a.surviving] for a in est.anchors]
            rows += [["skipped", t, n] for t, n in est.skipped]
    inst = instance_for(cfg.space, cfg.schedule.limit)
    lp_value = ops.call("solve_lp", solve_lp, inst).value
    gap = ops.call("gap_report", gap_report, ens, lp_value, cfg.space.cost)
    rows += [
        ["lp_value", lp_value],
        ["gap", gap.cost_gap, gap.cost_gap_ci, *gap.excess, *gap.excess_ci, *gap.mean_final],
    ]
    return rows


def stream_counts(cfg, runs) -> dict:
    """Counts over an ensemble's per-run (jstar, m, q) streams that repeat
    exactly for a seed."""
    sim = cfg.sim()
    warm = sim.warmup_mask()
    n = errors = 0
    strategies: set[int] = set()
    queue_peak = 0.0
    for jstar, m, q in runs:
        n += 1
        errors += int(((jstar != sim.istar) & ~warm).sum())
        strategies.update(np.unique(m).tolist())
        queue_peak = max(queue_peak, float(q.max()))
    post = n * int((~warm).sum())
    return {
        "simulate.run_slots": n * warm.size,
        "simulate.warmup_slots": n * int(warm.sum()),
        "simulate.warmup_share": float(warm.mean()),
        "simulate.window_over_outcomes": cfg.window / cfg.space.states.total,
        "simulate.detect_errors": errors,
        "simulate.detect_accuracy": 1.0 - errors / post if post else 0.0,
        "simulate.distinct_strategies": len(strategies),
        "simulate.queue_peak_max": queue_peak,
    }


def replay_kernels(trace, sim, tr) -> int:
    """Time the public detect, select_strategy and update_queues on one
    recorded run; return how many results differ from the loop's."""
    cov, space = sim.covering, sim.space
    K, D, V = space.cost.n_penalties, sim.D, sim.V
    c = space.cost.c
    r_tables = [space.r_table(mem) for mem in cov.members]
    post = np.flatnonzero(~sim.warmup_mask())
    pick = np.unique(np.linspace(0, post.size - 1, min(KERNEL_REPLAY_SLOTS, post.size)).astype(int))
    slots = [int(t) for t in post[pick]]
    zeros = np.zeros(K)
    windows = [trace.omega[t - D - sim.w_at(t) + 1 : t - D + 1] for t in slots]
    q_prev = [trace.q[t - 1] if t > 0 else zeros for t in slots]
    delayed = [trace.p[t - D, 1:] if t >= D else zeros for t in slots]
    tables = [r_tables[trace.jstar[t]] for t in slots]
    with tr.span("simulate.detect") as rec:
        js = [detect(w, cov) for w in windows]
    rec["calls"] = len(slots)
    with tr.span("simulate.select_strategy") as rec:
        ms = [select_strategy(q, V, rt) for q, rt in zip(q_prev, tables)]
    rec["calls"] = len(slots)
    with tr.span("simulate.update_queues") as rec:
        qs = [update_queues(q, d, c) for q, d in zip(q_prev, delayed)]
    rec["calls"] = len(slots)
    return int(sum(
        (j != trace.jstar[t]) + (mm != trace.m[t]) + (not np.array_equal(qn, trace.q[t]))
        for t, j, mm, qn in zip(slots, js, ms, qs)
    ))


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.size = "tiny" if tiny else "standard"
        self.cfg = None
        self.counts: dict[str, float] = {}
        self._beta1: dict[tuple, tuple[int, int]] = {}

    def doc(self, out_dir: str = "out") -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the workload's config: the part of set-up that setup_s times."""
        self.cfg = config_from_dict(self.doc(), source=f"<{self.name}>")

    def prepare(self, work: Path) -> None:
        """Write any input files the stages read (outside setup_s)."""

    def plain(self, out: Path, ops: Ops, tr=NullTracer()) -> Iteration:
        raise NotImplementedError

    def traced(self, out: Path, ops: Ops, tr) -> Iteration:
        """The plain iteration with spans around the program's calls; then,
        untimed, the workload property the per-layer metrics report."""
        with patched(tr, self.program_calls()):
            it = self.plain(out, ops, tr)
        if "strategies.pareto_share" not in self.counts:
            space = self.cfg.space
            self.counts["strategies.pareto_share"] = float(np.mean(
                [checks.pareto_share(space.r_table(mem)) for mem in self.cfg.covering.members]
            ))
        return it

    def check_first(self, out: Path, it: Iteration, ops: Ops) -> None:
        """Checks of the first plain iteration's outputs; also fills counts."""

    def program_calls(self) -> list[tuple]:
        """``patched`` targets: the names through which the CLI stages and
        this module call driftlab, each with its span name."""
        targets = [
            (cli, "run_ensemble", "simulate.run_ensemble"),
            (cli, "write_trace", "cli.write_trace"),
            (cli, "read_traces", "cli.read_traces"),
            (cli, "solve_lp", "lp.solve_lp"),
            (driftlab.lp, "solve_lp", "lp.solve_lp"),  # lipschitz_probe's solves
            (cli, "lipschitz_probe", "lp.lipschitz_probe"),
            (cli, "divergence_window_series", "guarantees.divergence_window_series"),
            (cli, "pe_sequence", "guarantees.pe_sequence"),
            (cli, "psi_q_gamma", "guarantees.psi_q_gamma"),
            (cli, "s_t_delta", "guarantees.s_t_delta"),
            (cli, "pac_rhs", "guarantees.pac_rhs"),
            (StrategySpace, "b_series", "strategies.b_series"),
            (StrategySpace, "__init__", "strategies.space_build"),
            (StrategySpace, "r_table", "strategies.r_table"),
            (driftlab.config, "config_from_dict", "config.build"),
        ]
        targets += [
            (cls, "weights_matrix", "distributions.weights_matrix")
            for cls in (Schedule, *Schedule.__subclasses__())
            if "weights_matrix" in vars(cls)
        ]
        this = sys.modules[__name__]
        for owner in (cli, this):
            targets += [
                (owner, "error_rate", "estimators.error_rate"),
                (owner, "estimate_kappa", "estimators.estimate_kappa", self._kappa_seen),
                (owner, "estimate_beta1", "estimators.estimate_beta1", self._beta1_seen),
                (owner, "gap_report", "estimators.gap_report"),
            ]
        targets += [
            (this, "run_ensemble", "simulate.run_ensemble"),
            (this, "solve_lp", "lp.solve_lp"),
            (this, "config_from_dict", "config.build"),
        ]
        return targets

    def _kappa_seen(self, args, kwargs, kap, exc) -> None:
        if exc is None:
            self.counts["estimators.kappa_pooled_slots"] = kap.pooled_slots

    def _beta1_seen(self, args, kwargs, est, exc) -> None:
        """Anchors kept and skipped per distinct (k, s, alpha) estimate; an
        EstimationError means no anchor of the grid kept enough runs."""
        a = BETA1_SIGNATURE.bind(*args, **kwargs)
        a.apply_defaults()
        a = a.arguments
        if exc is None:
            seen = (len(est.anchors), len(est.skipped))
        elif isinstance(exc, EstimationError) and a["ensemble"].p is not None:
            T = a["ensemble"].p.shape[1]
            anchors = a["anchors"]
            if anchors is None:
                anchors = default_anchor_grid(a["alpha"], T - 1 - a["s"])
            seen = (0, len(anchors))
        else:
            return
        self._beta1[(a["k"], a["s"], a["alpha"])] = seen
        self.counts["estimators.beta1_anchors_kept"] = sum(v[0] for v in self._beta1.values())
        self.counts["estimators.beta1_anchors_skipped"] = sum(v[1] for v in self._beta1.values())

    def _replay(self, trace, sim, ops: Ops, tr) -> None:
        mism = replay_kernels(trace, sim, tr)
        ops.check("kernel replay matches the loop", mism == 0)
        self.counts["simulate.replay_mismatches"] = mism

    def _check_pins(self, streams: str, outputs: str, ops: Ops) -> None:
        self.stream_sha256, self.outputs_sha256 = streams, outputs
        pin = checks.pin(self.name, self.size, self.seed)
        if pin is not None:
            ops.check("stream digest matches the pin", streams == pin[0])
            ops.check("outputs match the pin", outputs == pin[1])


class Pipeline(Workload):
    """All five CLI stages on the built-in sensor3 preset."""

    name = "sensor3-pipeline"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.runs = 2 if tiny else 20

    def doc(self, out_dir: str = "out") -> dict:
        return {"preset": "sensor3", "seed": self.seed, "runs": self.runs, "out_dir": out_dir}

    def _argv(self, stage: str, out: Path) -> list[str]:
        return [stage, "--runs", str(self.runs), "--seed", str(self.seed), "--out", str(out)]

    def plain(self, out: Path, ops: Ops, tr=NullTracer()) -> Iteration:
        stages = {}
        t0 = clock()
        for stage in STAGES:
            a = clock()
            with tr.span(f"cli.{stage}"):
                ops.stage(self._argv(stage, out))
            stages[stage] = clock() - a
            if stage == "simulate":
                t_sim = clock()
        t_end = clock()
        return Iteration(
            total_s=t_end - t0, analysis_s=t_end - t_sim, sim_s=t_sim - t0,
            stages=stages, digest=checks.dir_digest(out),
        )

    def traced(self, out: Path, ops: Ops, tr) -> Iteration:
        it = super().traced(out, ops, tr)
        (_, trace, _), _ = tr.first_args["cli.write_trace"]
        (sim, _), _ = tr.first_args["simulate.run_ensemble"]
        self._replay(trace, sim, ops, tr)
        return it

    def check_first(self, out: Path, it: Iteration, ops: Ops) -> None:
        cfg = self.cfg
        cost = cfg.space.cost
        digest = checks.StreamDigest()
        queue_ok = []

        def runs():
            # one trace file at a time, so the check does not set peak RSS
            for omega, jstar, m, q in checks.trace_streams(out, cost.n_penalties):
                digest.add(omega, jstar, m)
                queue_ok.append(checks.queue_invariant_holds(q[None], cost.p_max, cost.c))
                yield jstar, m, q

        self.counts.update(stream_counts(cfg, runs()))
        outputs = checks.csv_values_digest(out / name for name in checks.PIPELINE_OUTPUTS)
        self._check_pins(digest.hexdigest(), outputs, ops)
        ops.check("trace count equals runs", len(queue_ok) == self.runs)
        ops.check("queue invariant", all(queue_ok))
        ops.check("lp optimum", checks.lp_value_matches(out / "lp.csv"))
        ops.check("bounds.csv matches the reference",
                  checks.bounds_match_reference(out / "bounds.csv", exact_rows=False))
        ops.check("ensemble.csv written", (out / "ensemble.csv").is_file())
        self.counts["cli.trace_bytes"] = sum(
            p.stat().st_size for p in out.glob("trace_run*.csv")
        )
        self.counts["guarantees.rows"] = checks.bounds_row_count(out / "bounds.csv")


class Ensemble(Workload):
    """run_ensemble on a piecewise schedule with delay, then the estimators."""

    name = "piecewise-delay-ensemble"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        # BETA1_MIN_RUNS is the floor below which estimate_beta1 skips an
        # anchor; the margin keeps anchors with a rare detection error.
        self.runs = BETA1_MIN_RUNS if tiny else BETA1_MIN_RUNS + 20
        self.horizon = 300 if tiny else 1000

    def doc(self, out_dir: str = "out") -> dict:
        T = self.horizon
        members = sensor3_members(sensor3_model()[1])
        limit = members[0].probs.tolist()
        return {
            "preset": "sensor3", "seed": self.seed, "runs": self.runs,
            "horizon": T, "delay": 2, "window": 120, "out_dir": out_dir,
            "schedule": {
                "kind": "piecewise",
                "limit": limit,
                "segments": [
                    [0, members[3].probs.tolist()],
                    [T // 10, members[5].probs.tolist()],
                    [T // 5, limit],
                ],
            },
        }

    def plain(self, out: Path, ops: Ops, tr=NullTracer()) -> Iteration:
        cfg = self.cfg
        digest = checks.StreamDigest()
        first = {}

        def on_trace(i, trace):
            with tr.span("bench.on_trace"):
                digest.add(trace.omega, trace.jstar, trace.m)
                first.setdefault("trace", trace)

        sim = cfg.sim()
        t0 = clock()
        ens = ops.call(
            "run_ensemble", run_ensemble, sim, cfg.runs,
            on_trace=on_trace, store_runs=True,
        )
        t_sim = clock()
        rows = run_estimators(ens, cfg, ops)
        t_end = clock()
        return Iteration(
            total_s=t_end - t0, analysis_s=t_end - t_sim, sim_s=t_sim - t0,
            digest=digest.hexdigest(), result=(ens, rows, first["trace"], sim),
        )

    def traced(self, out: Path, ops: Ops, tr) -> Iteration:
        it = super().traced(out, ops, tr)
        _, _, trace, sim = it.result
        self._replay(trace, sim, ops, tr)
        return it

    def check_first(self, out: Path, it: Iteration, ops: Ops) -> None:
        ens, rows, _, _ = it.result
        cost = self.cfg.space.cost
        self._check_pins(it.digest, checks.values_digest(rows), ops)
        ops.check("queue invariant", checks.queue_invariant_holds(ens.q, cost.p_max, cost.c))
        lp_value = next(r[1] for r in rows if r[0] == "lp_value")
        ops.check("lp optimum", cli.fmt(lp_value) == checks.LP_OPTIMUM)
        self.counts.update(stream_counts(self.cfg, zip(ens.jstar, ens.m, ens.q)))


class BoundSweep(Workload):
    """`lp` and `bounds` on a 27-point (V, w, D) sweep; no simulation."""

    name = "sensor3-bound-sweep"

    def doc(self, out_dir: str = "out") -> dict:
        if self.tiny:
            sweep = {"V": [20.0], "w": [10], "D": [0], "s": [5, 40]}
        else:
            sweep = {"V": [2.0, 5.0, 20.0], "w": [10, 40, 160], "D": [0, 1, 2], "s": [5, 40]}
        return {"preset": "sensor3", "seed": self.seed, "out_dir": out_dir, "sweep": sweep}

    def prepare(self, work: Path) -> None:
        self.config_path = work / "sweep.json"
        self.config_path.write_text(json.dumps(self.doc(), indent=1) + "\n")

    def _argv(self, stage: str, out: Path) -> list[str]:
        return [stage, "--config", str(self.config_path), "--out", str(out)]

    def plain(self, out: Path, ops: Ops, tr=NullTracer()) -> Iteration:
        stages = {}
        t0 = clock()
        for stage in ("lp", "bounds"):
            a = clock()
            with tr.span(f"cli.{stage}"):
                ops.stage(self._argv(stage, out))
            stages[stage] = clock() - a
        total = clock() - t0
        return Iteration(
            total_s=total, analysis_s=total, stages=stages, digest=checks.dir_digest(out),
        )

    def check_first(self, out: Path, it: Iteration, ops: Ops) -> None:
        ops.check("lp optimum", checks.lp_value_matches(out / "lp.csv"))
        ops.check("bounds.csv matches the reference",
                  checks.bounds_match_reference(out / "bounds.csv", exact_rows=not self.tiny))
        self.counts["guarantees.rows"] = checks.bounds_row_count(out / "bounds.csv")


WORKLOADS = {w.name: w for w in (Pipeline, Ensemble, BoundSweep)}
