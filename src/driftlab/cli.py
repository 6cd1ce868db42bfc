"""Command-line front end: simulate | lp | bounds | empirics | compare | preset-dump.

All numeric output is decimal with 12 significant digits; every CSV opens
with a comment row recording the active bound mode, so outputs are
byte-identical across reruns of the same config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config
from .config import ConfigError, ExperimentConfig, dump_preset
from .errors import DomainError, DriftlabError, EstimationError
from .estimators import (
    error_rate,
    estimate_beta1,
    estimate_kappa,
    gap_report,
)
from .guarantees import (
    LOG3,
    BoundInputs,
    beta_bound,
    beta_star,
    clamp01,
    divergence_window_series,
    jbar_ht,
    log_ratio_prefix,
    nonstationarity_series,
    pac_rhs,
    pe_sequence,
    psi_q_gamma,
    s_t_delta,
    theta,
    threshold_check,
)
from .lp import gap_delta, instance_for, lipschitz_probe, solve_lp
from .simulate import EnsembleResult, RunTrace, merge_runs, run_ensemble

THETA_EPS = 1e-12
TRACE_CHUNK = 512  # rows formatted per text in _numeric_lines


def fmt(x) -> str:
    if type(x) is float:  # most cells; a float subclass takes the chain
        return f"{x:.12g}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{float(x):.12g}"


def _write_lines(path: Path, mode: str, columns: list[str], lines) -> None:
    """The one CSV writer: a ``# mode=`` line, the column line, then the
    texts of ``lines``, each one or more whole rows."""
    with path.open("w") as f:
        f.write(f"# mode={mode}\n{','.join(columns)}\n")
        f.writelines(lines)


def write_csv(path: Path, mode: str, columns: list[str], rows) -> None:
    """``rows``, each as long as ``columns``, formatted cell by cell with ``fmt``."""
    _write_lines(path, mode, columns, [",".join(map(fmt, row)) + "\n" for row in rows])


def _numeric_lines(n_ids: int, arrays):
    """Rows ``t, *arrays`` of (T,) or (T, k) arrays, ``TRACE_CHUNK`` rows per
    text, through one ``%`` row template: ``%d`` for ``t`` and the next
    ``n_ids`` columns, ``%.12g`` (the bytes of ``fmt``) for the rest.

    Each row is formatted alone and a chunk's rows are joined once.  One
    template repeated over a whole chunk was a little faster, but it raised
    the peak RSS of the sensor3 pipeline (20 x 5000) by about 5 MiB."""
    T = len(arrays[0])
    for lo in range(0, T, TRACE_CHUNK):
        hi = min(lo + TRACE_CHUNK, T)
        block = np.column_stack([np.arange(lo, hi), *(a[lo:hi] for a in arrays)])
        row = ",".join(["%d"] * (1 + n_ids) + ["%.12g"] * (block.shape[1] - 1 - n_ids)) + "\n"
        yield "".join([row % tuple(r) for r in block.tolist()])


def blocking_constants(t: int) -> tuple[int, int, int]:
    """(alpha_t, u_t, v_t) with u_t*v_t = t - alpha_t exactly, all O(sqrt t)."""
    u = max(1, math.isqrt(t))
    v = max(1, (t - u) // u)
    return t - u * v, u, v


def trace_columns(K: int) -> list[str]:
    return (
        ["t", "omega", "jstar", "m"]
        + [f"p{k}" for k in range(K + 1)]
        + [f"Q{k}" for k in range(1, K + 1)]
        + [f"avg_p{k}" for k in range(K + 1)]
    )


def trace_path(out: Path, run_index: int) -> Path:
    return out / f"trace_run{run_index:04d}.csv"


def write_trace(path: Path, trace, mode: str) -> None:
    """One run's trace (``trace_columns``); ids print as integers."""
    _write_lines(path, mode, trace_columns(trace.q.shape[1]), _numeric_lines(
        3, [trace.omega, trace.jstar, trace.m, trace.p, trace.q, trace.avg]))


def read_traces(cfg: ExperimentConfig) -> EnsembleResult:
    """Load the traces of runs 0..cfg.runs-1; files of other runs are ignored.

    Each file is parsed whole.  The slot column must count 0..T-1, the omega,
    jstar and m columns must hold ids in range, and the final averages come
    from the last row.  ``merge_runs`` builds the ensemble.
    """
    out = Path(cfg.out_dir)
    paths = [trace_path(out, i) for i in range(cfg.runs)]
    for path in paths:
        if not path.is_file():
            raise FileNotFoundError(
                f"missing trace {path}: {cfg.runs} runs expected (run `simulate` first)"
            )
    K = cfg.space.cost.n_penalties
    T = cfg.horizon
    width = len(trace_columns(K))
    id_ranges = (("omega", cfg.space.states.total), ("jstar", cfg.covering.size),
                 ("m", cfg.space.F))

    def runs():
        for i, path in enumerate(paths):
            try:  # a cell that is not a number, or rows of unequal width
                data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
            except ValueError as exc:
                raise DriftlabError(f"{path}: {exc}") from exc
            if data.shape[0] != T:
                raise DriftlabError(
                    f"{path}: {data.shape[0]} slots, config horizon is {T}"
                )
            if data.shape[1] != width:
                raise DriftlabError(f"{path}: {data.shape[1]} columns, expected {width}")
            if not np.array_equal(data[:, 0], np.arange(T)):
                raise DriftlabError(f"{path}: column t is not 0..{T - 1}")
            for j, (name, size) in enumerate(id_ranges, start=1):
                col = data[:, j]
                bad = np.flatnonzero((col != np.round(col)) | (col < 0) | (col >= size))
                if bad.size:
                    raise DriftlabError(
                        f"{path}: slot {bad[0]}: {name} {col[bad[0]]:g} is not an "
                        f"integer in [0, {size})"
                    )
            omega, jstar, m = data[:, 1:4].T.astype(np.int32)
            trace = RunTrace(omega=omega, jstar=jstar, m=m, p=data[:, 4 : 5 + K],
                             q=data[:, 5 + K : 5 + 2 * K])
            yield i, trace, data[-1, 5 + 2 * K :]

    return merge_runs(cfg, cfg.runs, runs())


def cmd_simulate(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    K = cfg.space.cost.n_penalties

    def writer(i, trace):
        write_trace(trace_path(out, i), trace, cfg.mode)

    ens = run_ensemble(cfg, cfg.runs, on_trace=writer, store_runs=False)
    columns = ["t"] + [f"mean_p{k}" for k in range(K + 1)]
    _write_lines(out / "ensemble.csv", cfg.mode, columns, _numeric_lines(0, [ens.mean_p]))
    print(f"wrote {cfg.runs} traces and ensemble.csv to {out}")
    return 0


def cmd_lp(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inst = instance_for(cfg.space, cfg.schedule.limit)
    sol = solve_lp(inst)
    rows = [["status", "", sol.status], ["value", "", sol.value]]
    if sol.status == "optimal":
        slack = inst.c - inst.r[1:] @ sol.theta
        rows += [["slack", k + 1, slack[k]] for k in range(slack.size)]
        rows += [
            ["theta", m, sol.theta[m]]
            for m in range(sol.theta.size)
            if sol.theta[m] > THETA_EPS
        ]
    write_csv(out / "lp.csv", cfg.mode, ["kind", "index", "value"], rows)
    print(f"lp optimum: {fmt(sol.value)} ({sol.status}); wrote {out / 'lp.csv'}")
    if sol.status != "optimal":
        raise DriftlabError(
            f"lp: the LP under the schedule's limit distribution has no optimum "
            f"(status {sol.status}); wrote {out / 'lp.csv'}"
        )
    return 0


def _bound_context(cfg: ExperimentConfig) -> dict:
    """The bound inputs that do not depend on the window or the delay.

    One solve of the full F-column LP under ``istar``, the nearest member,
    gives ``p_opt`` and ``c_hat``, the sum of its slack duals
    (``lipschitz_probe``); one schedule weights matrix feeds the
    non-stationarity series and the log-ratio prefix sums that every
    ``(w, D)`` context differences.  Its arrays are read-only.
    """
    gap = gap_delta(cfg.schedule.limit, cfg.covering, cfg.space.cost, cfg.nu)
    try:  # the (K+1, F) LP is dropped before the schedule arrays are built
        c_hat, p_opt = lipschitz_probe(instance_for(cfg.space, cfg.covering.members[cfg.istar]))
    except DomainError as exc:
        raise DriftlabError(
            f"the LP under covering member {cfg.istar} (nearest to the schedule "
            f"limit) has no feasible mixture at levels c + x: {exc}"
        ) from exc
    weights = cfg.schedule.weights_matrix(cfg.horizon)
    drift, b_series = nonstationarity_series(cfg.schedule, cfg.space, weights)
    ctx = dict(gap=gap, c_hat=c_hat, p_opt=p_opt, drift=drift, b_series=b_series,
               istar=cfg.istar, prefix=log_ratio_prefix(weights, cfg.covering, cfg.istar))
    for value in ctx.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return ctx


def _detection_series(cfg: ExperimentConfig, ctx: dict) -> tuple[np.ndarray, np.ndarray]:
    """(div, pe) under the window and the delay of ``cfg``."""
    div = divergence_window_series(ctx["prefix"], ctx["istar"], cfg.D, cfg.window)
    pe = pe_sequence(
        cfg.D, cfg.window, cfg.covering.zeta, div, cfg.covering.size, cfg.mode,
    )
    return div, pe


def _inputs_at(cfg: ExperimentConfig, ctx: dict, pe: np.ndarray, t: int,
               kappa: float | None):
    """``BoundInputs`` at slot t and their ``psi_q_gamma`` terms."""
    cost = cfg.space.cost
    alpha_t, u_t, v_t = blocking_constants(t)
    jbar, hbar = jbar_ht(
        t, ctx["drift"], ctx["b_series"], cost.p_max, cfg.covering.delta, cfg.D
    )
    inputs = BoundInputs(
        t=t, alpha_t=alpha_t, u_t=u_t, v_t=v_t, V=cfg.V, D=cfg.D,
        lyapunov_cap=cfg.lyapunov_cap, F=cfg.space.F,
        n_outcomes=cfg.space.states.total, K=cost.n_penalties, c_hat=ctx["c_hat"],
        p_max=cost.p_max, p_min=cost.p_min, c=cost.c, gap=ctx["gap"], jbar=jbar,
        hbar=hbar, kappa=kappa, p_opt=ctx["p_opt"],
    )
    return inputs, psi_q_gamma(inputs, pe[:t], ctx["b_series"][:t])


def _unless_inapplicable(bound, *args):
    """``bound(*args)``, or None where its preconditions fail."""
    try:
        return bound(*args)
    except DriftlabError:
        return None


def _bound_grid(cfg: ExperimentConfig) -> list[tuple[int, int, int]]:
    """The swept ``(w, D, t_min)``; the t-grid of each starts past its
    warmup, and at least at 16."""
    grid = [(w, D, max(16, D + w + 2))
            for w in list(cfg.w_sweep) or [cfg.window]
            for D in list(cfg.d_sweep) or [cfg.D]]
    for w, D, t_min in grid:
        if cfg.horizon < t_min:
            raise DriftlabError(
                f"bounds: horizon {cfg.horizon} is shorter than the {t_min} slots "
                f"needed for D={D}, w={w} (t-grid start max(16, D+w+2))"
            )
    return grid


def bound_columns(cfg: ExperimentConfig) -> list[str]:
    """The ``bounds.csv`` header of the sweep of ``cfg``."""
    K = cfg.space.cost.n_penalties
    return (
        ["t", "V", "D", "w", "alpha_t", "u_t", "v_t", "delta", "zeta", "c_hat",
         "gap", "jbar", "hbar", "div_floor", "pe_raw", "pe", "s_t_delta_raw",
         "s_t_delta", "interval_pe", "psi", "gamma_t", "q_up"]
        + [f"pac_k{k}_raw" for k in range(K + 1)]
        + [f"pac_k{k}" for k in range(K + 1)]
        + [f"beta_bound_s{s}" for s in cfg.s_sweep]
        + ["beta_star_raw", "beta_star", "in_waiting_set"]
    )


def bound_rows(cfg: ExperimentConfig, ctx: dict) -> list[list]:
    """The ``bounds.csv`` rows (``bound_columns``) of the sweep of ``cfg``,
    from its ``_bound_context``."""
    cost = cfg.space.cost
    K = cost.n_penalties
    rows = []
    for w, D, t_min in _bound_grid(cfg):
        sub = replace(cfg, window=w, D=D)
        div, pe = _detection_series(sub, ctx)
        beta_vals = [
            _unless_inapplicable(
                beta_bound, s, D, cfg.kappa, cfg.space.F, cfg.space.states.total, K
            )
            for s in cfg.s_sweep
        ]
        ts = sorted(
            set(np.geomspace(t_min, cfg.horizon, 8)
                .astype(int).tolist()) | {cfg.horizon}
        )
        for V in list(cfg.v_sweep) or [cfg.V]:
            vcfg = replace(sub, V=V)
            for t in ts:
                inputs, pqg = _inputs_at(vcfg, ctx, pe, t, cfg.kappa)
                post = div[inputs.alpha_t : t]
                finite = post[np.isfinite(post)]
                floor = float(finite.min()) if finite.size else 0.0
                s_raw, interval = s_t_delta(
                    t, inputs.alpha_t, cfg.covering.zeta, floor, w,
                    cfg.covering.size, cfg.mode,
                )
                pe_sum = float(pe[inputs.alpha_t : min(t + 1, cfg.horizon)].sum())
                pac_raw = []
                for k in range(K + 1):
                    # theory-side stand-ins for the running means
                    mean_k = ctx["p_opt"] if k == 0 else float(cost.c[k - 1]) + pqg.q_up
                    eps_k = pqg.q_up + cfg.eps + (ctx["gap"] if k == 0 else 0.0)
                    pac_raw.append(_unless_inapplicable(
                        pac_rhs, k, eps_k, inputs, 0.0, pe_sum, mean_k, cfg.mode
                    ))
                pac_cl = [None if v is None else clamp01(v) for v in pac_raw]
                try:
                    bstar = beta_star(inputs, s_raw)
                    gamma0 = min(1.0, 2.0 * bstar + 1e-6)
                    waiting = threshold_check(
                        t, inputs.alpha_t, inputs.u_t, cfg.eps, gamma0,
                        bstar, float(inputs.dp_max[0]),
                    )
                except DriftlabError:
                    bstar = waiting = None
                rows.append(
                    [t, V, D, w, inputs.alpha_t, inputs.u_t, inputs.v_t,
                     cfg.covering.delta, cfg.covering.zeta, ctx["c_hat"],
                     ctx["gap"], inputs.jbar, inputs.hbar, floor,
                     float(pe[t - 1]), clamp01(float(pe[t - 1])),
                     s_raw, clamp01(s_raw), interval, pqg.psi, pqg.gamma_t,
                     pqg.q_up]
                    + pac_raw + pac_cl + beta_vals
                    + [bstar, None if bstar is None else clamp01(bstar), waiting]
                )
    return rows


def cmd_bounds(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _bound_grid(cfg)  # a horizon too short for the sweep fails before the LPs
    rows = bound_rows(cfg, _bound_context(cfg))
    write_csv(out / "bounds.csv", cfg.mode, bound_columns(cfg), rows)
    print(f"wrote {out / 'bounds.csv'} ({len(rows)} rows, mode={cfg.mode})")
    return 0


def _beta_alpha(warmup: np.ndarray, max_s: int) -> int:
    post = np.flatnonzero(~warmup)
    warm_end = int(post[0]) if post.size else 0
    return max(warm_end, int(0.75 * (warmup.size - 1 - max_s)))


def _estimates(cfg: ExperimentConfig, ens: EnsembleResult):
    """kappa_hat and the beta1 estimates, (k, s) -> ``Beta1Estimate`` or
    None on an estimation error, that ``empirics`` and ``compare`` report."""
    K = cfg.space.cost.n_penalties
    kap = estimate_kappa(ens)
    alpha = _beta_alpha(ens.warmup, max(cfg.s_sweep))
    betas = {}
    for k in (0, 1) if K >= 1 else (0,):
        for s in cfg.s_sweep:
            try:
                betas[k, s] = estimate_beta1(ens, k=k, s=s, alpha=alpha)
            except EstimationError:
                betas[k, s] = None
    return kap, betas


def _empirics_rows(cfg: ExperimentConfig, ens: EnsembleResult):
    cost = cfg.space.cost
    K = cost.n_penalties
    sol = solve_lp(instance_for(cfg.space, cfg.schedule.limit))
    gap = gap_report(ens, sol.value, cost)
    if sol.status == "optimal":
        lp_cells, gap_cells = [sol.value, ""], [gap.cost_gap, gap.cost_gap_ci]
    else:  # no optimum: the value cells stay empty, the note names the status
        lp_cells = gap_cells = ["", f"lp {sol.status}"]
    rows = [
        ["lp_value", "", ""] + lp_cells + [ens.run_count],
        ["final_mean_p0", 0, "", gap.mean_final[0], gap.cost_gap_ci, ens.run_count],
        ["cost_gap", 0, ""] + gap_cells + [ens.run_count],
    ]
    for k in range(1, K + 1):
        rows.append(
            [f"final_mean_p{k}", k, "", gap.mean_final[k], gap.excess_ci[k - 1],
             ens.run_count]
        )
        rows.append(
            [f"constraint_excess_p{k}", k, "", gap.excess[k - 1],
             gap.excess_ci[k - 1], ens.run_count]
        )
    kap, betas = _estimates(cfg, ens)
    rows.append(
        ["kappa_hat", "", "", kap.value, "", kap.pooled_slots]
        if kap.value is not None
        else ["kappa_hat", "", "", "", kap.reason, kap.pooled_slots]
    )
    for (k, s), est in betas.items():
        rows.append(
            [f"beta1_k{k}", k, s, "", "estimation-error", 0] if est is None
            else [f"beta1_k{k}", k, s, est.value, est.ci_half,
                  min(a.surviving for a in est.anchors)]
        )
    return rows, kap, gap, sol


def cmd_empirics(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    ens = read_traces(cfg)
    rows, kap, gap, sol = _empirics_rows(cfg, ens)
    write_csv(
        out / "empirics.csv", cfg.mode,
        ["quantity", "k", "s", "value", "ci_or_note", "n"], rows,
    )
    rates = error_rate(ens)
    _write_lines(out / "error_rates.csv", cfg.mode, ["t", "rate", "ci_half"],
                 _numeric_lines(0, [rates.per_slot, rates.ci_half()]))
    print(f"runs: {ens.run_count}, horizon: {cfg.horizon}")
    optimal = sol.status == "optimal"
    lp_text = fmt(sol.value) if optimal else f"no optimum (status {sol.status})"
    print(f"lp optimum (cost): {lp_text}")
    print(f"final mean cost:   {fmt(gap.mean_final[0])} "
          f"(gap {fmt(gap.cost_gap) if optimal else 'undefined'})")
    for k in range(1, cfg.space.cost.n_penalties + 1):
        print(
            f"final mean p{k}:     {fmt(gap.mean_final[k])} "
            f"(excess {fmt(gap.excess[k - 1])})"
        )
    if kap.value is None:
        print(f"kappa_hat: undefined ({kap.reason})")
    else:
        applicable = (
            "applicable" if _unless_inapplicable(theta, kap.value, cfg.D) is not None
            else "NOT applicable (kappa * max(D, 1) >= log 3)"
        )
        print(f"kappa_hat: {fmt(kap.value)} -> mixing bound {applicable}")
    print(f"wrote empirics.csv and error_rates.csv to {out}")
    return 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    ctx = _bound_context(cfg)  # a bound precondition fails before any trace is parsed
    ens = read_traces(cfg)
    _, pe = _detection_series(cfg, ctx)
    cost = cfg.space.cost
    K = cost.n_penalties
    t = cfg.horizon
    bounded = cfg.V > 0  # the bound stack divides by V
    if bounded:
        inputs, pqg = _inputs_at(cfg, ctx, pe, t, None)
    kap, betas = _estimates(cfg, ens)
    mean_final = ens.final_avg.mean(axis=0)  # as gap_report takes it

    rows = []
    for k in range(K + 1):
        name = f"penalty_avg_p{k}" if k else "cost_avg"
        if not bounded:
            rows.append([name, k, "", mean_final[k], "", cfg.mode, "inapplicable"])
            continue
        level = (
            ctx["p_opt"] + (ctx["c_hat"] + 1) * ctx["gap"] + pqg.psi if k == 0
            else float(cost.c[k - 1]) + pqg.q_up
        )
        alpha_term = inputs.alpha_t * float(inputs.dp_max[k]) / (t - inputs.alpha_t)
        b = level + alpha_term + cfg.eps
        rows.append([name, k, "", mean_final[k], b, cfg.mode,
                     bool(mean_final[k] <= b)])

    # queue growth invariant over the loaded traces
    worst = 0.0
    if K:
        capv = np.arange(1, t + 1)[:, None] * (cost.p_max[1:] - cost.c)
        worst = math.inf if np.any(ens.q < 0) else float((ens.q - capv).max())
    rows.append(["queue_growth_violation", "", "", worst, 0.0, cfg.mode, bool(worst <= 1e-9)])

    rates = error_rate(ens)
    ci = rates.ci_half()
    post = ~ens.warmup
    if post.any():
        viol = float((rates.per_slot - np.minimum(pe, 1.0) - 3 * ci)[post].max())
        rows.append(["detect_error_violation", "", "", viol, 0.0, cfg.mode,
                     bool(viol <= 1e-12)])
    else:
        rows.append(["detect_error_violation", "", "", "", 0.0, cfg.mode,
                     "no post-warmup slots"])

    if kap.value is None:
        rows.append(["kappa_hat", "", "", "", LOG3 / max(cfg.D, 1), cfg.mode, kap.reason])
    else:
        mixing = _unless_inapplicable(theta, kap.value, cfg.D) is not None
        rows.append(["kappa_hat", "", "", kap.value, LOG3 / max(cfg.D, 1), cfg.mode,
                     "applicable" if mixing else "inapplicable"])
    for (k, s), est in betas.items():
        bb = _unless_inapplicable(beta_bound, s, cfg.D, kap.value, cfg.space.F,
                                  cfg.space.states.total, K)
        if est is None:
            rows.append([f"beta1_k{k}_s{s}", k, s, "", "", cfg.mode,
                         "estimation-error"])
        elif bb is not None:
            ok = est.value <= bb + 3 * est.ci_half
            rows.append([f"beta1_k{k}_s{s}", k, s, est.value,
                         bb + 3 * est.ci_half, cfg.mode, bool(ok)])
        else:
            rows.append([f"beta1_k{k}_s{s}", k, s, est.value, "", cfg.mode,
                         "inapplicable"])
    write_csv(
        out / "compare.csv", cfg.mode,
        ["quantity", "k", "s", "empirical", "bound", "mode", "passed"], rows,
    )
    n_pass = sum(1 for r in rows if r[-1] is True)
    print(f"wrote {out / 'compare.csv'}: {n_pass}/{len(rows)} strict passes "
          f"(mode={cfg.mode}; non-boolean rows are informational)")
    return 0


def cmd_preset_dump(out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = dump_preset()
    path = out / "preset_sensor3.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="drift-plus-penalty control: simulation, LP oracle, "
        "guarantees, and empirical checks",
    )
    parser.add_argument("command", choices=[
        "simulate", "lp", "bounds", "empirics", "compare", "preset-dump",
    ])
    parser.add_argument("--config", default=None, help="JSON config document")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--horizon", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--mode", choices=["default", "literal"], default=None)
    args = parser.parse_args(argv)

    commands = {
        "simulate": cmd_simulate,
        "lp": cmd_lp,
        "bounds": cmd_bounds,
        "empirics": cmd_empirics,
        "compare": cmd_compare,
    }
    flags = {"seed": args.seed, "runs": args.runs, "horizon": args.horizon,
             "out_dir": args.out, "mode": args.mode}
    try:
        if args.command == "preset-dump":
            return cmd_preset_dump(args.out or "out")
        try:
            doc = config.read_config(args.config) if args.config else {"preset": "sensor3"}
            doc.update((key, value) for key, value in flags.items() if value is not None)
            cfg = config.config_from_dict(doc, source=args.config or "<builtin sensor3>")
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return commands[args.command](cfg)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except DriftlabError as exc:
        print(str(exc), file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
