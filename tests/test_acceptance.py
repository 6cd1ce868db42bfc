"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The heavy ensembles (benchmark scale: 200 runs x 5000
slots) are shared across criteria through module-scoped fixtures.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import reference_bounds as ref
from _helpers import divergence_series
from driftlab.cli import main
from driftlab.config import config_from_dict
from driftlab.errors import DriftlabError
from driftlab.estimators import error_rate, estimate_beta1, estimate_kappa
from driftlab.guarantees import (
    LOG3,
    MODE_DEFAULT,
    MODE_LITERAL,
    BoundInputs,
    beta_bound,
    pac_rhs,
    pe_sequence,
    psi_q_gamma,
)
from driftlab.lp import instance_for, solve_lp
from driftlab.simulate import run_ensemble, select_strategy
from oracles import mcdiarmid_tail, theorem1_pairs

OPT_UTILITY = 0.394


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bench_cfg():
    return config_from_dict(
        {"preset": "sensor3", "runs": 200, "horizon": 5000, "seed": 2024}
    )


@pytest.fixture(scope="module")
def ens_v20(bench_cfg):
    t0 = time.perf_counter()
    ens = run_ensemble(bench_cfg, bench_cfg.runs)
    return ens, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ens_v2(bench_cfg):
    return run_ensemble(replace(bench_cfg, V=2.0), bench_cfg.runs)


@pytest.fixture(scope="module")
def detect_ensembles(bench_cfg):
    out = {}
    for w in (10, 40):
        out[w] = run_ensemble(
            replace(bench_cfg, window=w, horizon=600, seed=555), 200
        )
    return out


def test_criterion_1_lp_optimum(bench_cfg, tmp_path):
    t0 = time.perf_counter()
    rc = main(["lp", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    value_line = [
        l for l in (tmp_path / "lp.csv").read_text().splitlines()
        if l.startswith("value")
    ][0]
    utility = -float(value_line.split(",")[2])
    ok = rc == 0 and abs(utility - OPT_UTILITY) <= 1e-3 and elapsed < 5.0
    report(
        1, "LP optimum utility 0.394 +- 0.001 in < 5 s", ok,
        f"utility={utility:.6f}, {elapsed:.2f} s",
    )


def test_criterion_2_benchmark_convergence(bench_cfg, ens_v20):
    ens, elapsed = ens_v20
    utility = -float(ens.mean_p[-500:, 0].mean())
    powers = ens.final_avg.mean(axis=0)[1:]
    ok_util = OPT_UTILITY - 0.03 <= utility <= OPT_UTILITY + 0.01
    ok_power = bool(np.all(powers <= 1 / 3 + 0.01))
    ok_time = elapsed < 300.0
    report(
        2, "benchmark convergence (V=20, 200 runs, T=5000)",
        ok_util and ok_power and ok_time,
        f"utility={utility:.4f}, powers={np.round(powers, 4)}, {elapsed:.0f} s",
    )


def test_criterion_3_v_tradeoff(bench_cfg, ens_v20, ens_v2):
    lp_cost = solve_lp(
        instance_for(bench_cfg.space, bench_cfg.schedule.limit)
    ).value
    gap20 = float(ens_v20[0].final_avg.mean(axis=0)[0] - lp_cost)
    gap2 = float(ens_v2.final_avg.mean(axis=0)[0] - lp_cost)
    report(
        3, "V=2 has a strictly larger utility gap than V=20", gap2 > gap20,
        f"gap(V=2)={gap2:.4f} > gap(V=20)={gap20:.4f}",
    )


def test_criterion_4_queue_invariant(bench_cfg, ens_v20, ens_v2):
    cost = bench_cfg.space.cost
    cap = np.arange(1, bench_cfg.horizon + 1)[:, None] * (cost.p_max[1:] - cost.c)
    violations = 0
    for ens in (ens_v20[0], ens_v2):
        violations += int(np.sum(ens.q < 0))
        violations += int(np.sum(ens.q > cap[None, :, :] + 1e-9))
    report(
        4, "0 <= Q_k(t) <= t(p_max,k - c_k) on every slot of every run",
        violations == 0, f"violations={violations}",
    )


def test_criterion_5_detection_bound(bench_cfg, detect_ensembles):
    rates = {}
    ok_bound = True
    for w, ens in detect_ensembles.items():
        sim = replace(bench_cfg, window=w, horizon=600)
        div = divergence_series(bench_cfg.schedule, bench_cfg.covering, 0, 0, sim.windows)
        pe = np.minimum(
            pe_sequence(0, sim.windows, bench_cfg.covering.zeta, div,
                        bench_cfg.covering.size, MODE_DEFAULT),
            1.0,
        )
        r = error_rate(ens)
        ci = r.ci_half()
        post = ~sim.warmup_mask()
        excess = (r.per_slot - pe - 3 * ci)[post]
        ok_bound &= bool(np.all(excess <= 1e-12))
        rates[w] = float(r.per_slot[40:].mean())
    ok_decrease = rates[40] < rates[10]
    report(
        5, "per-slot error rate below the default-mode bound; w=40 beats w=10",
        ok_bound and ok_decrease,
        f"mean post-warmup rate w=10: {rates[10]:.4f}, w=40: {rates[40]:.4f}",
    )


def test_criterion_6_theorem1_suite():
    pairs = theorem1_pairs(n_instances=100, seed=7)
    n_fail = sum(1 for lhs, rhs in pairs if not lhs <= rhs + 1e-9)
    report(
        6, "100 random instances satisfy the nearest-member LP gap bound",
        n_fail == 0, f"failures={n_fail}",
    )


@pytest.fixture(scope="module")
def mixing_ensemble(bench_cfg):
    return run_ensemble(replace(bench_cfg, horizon=1290, seed=77), 400)


def test_criterion_7_mixing_consistency(bench_cfg, mixing_ensemble):
    ens = mixing_ensemble
    kap = estimate_kappa(ens)
    alpha = 1000
    anchors = np.arange(1000, 1250, 12)
    estimates = {
        (k, s): estimate_beta1(ens, k=k, s=s, alpha=alpha, anchors=anchors)
        for k in (0, 1)
        for s in (5, 40)
    }
    # decrease within CI from s=5 to s=40, for both cost and first penalty
    ok_decrease = all(
        estimates[(k, 40)].value <= estimates[(k, 5)].value
        + estimates[(k, 5)].ci_half
        for k in (0, 1)
    )
    if kap.value is not None and kap.value < LOG3:
        ok_bound = True
        detail = f"kappa={kap.value:.3f} < log3"
        for k in (0, 1):
            est = estimates[(k, 40)]
            bb = beta_bound(40, 0, kap.value, bench_cfg.space.F, 64, 3)
            ok_bound &= est.value <= bb + 3 * est.ci_half
            detail += f"; beta1(k={k},s=40)={est.value:.4f} vs {bb + 3 * est.ci_half:.4f}"
        report(7, "mixing bound holds at s=40 and decreases from s=5",
               ok_bound and ok_decrease, detail)
    else:
        detail = (
            f"kappa_hat={'undefined' if kap.value is None else f'{kap.value:.3f}'}"
            " >= log 3: mixing bound inapplicable (reported, not failed)"
        )
        report(7, "mixing bound inapplicability reported; decrease still holds",
               ok_decrease, detail)


def test_criterion_8_oracle_equivalences(bench_cfg):
    # (a) strategy selection equals an exhaustive scalar scan on 1000 probes
    space = bench_cfg.space
    rt = space.r_table(bench_cfg.schedule.limit)
    rng = np.random.default_rng(808)
    mismatches = 0
    for _ in range(1000):
        q = rng.uniform(0.0, 40.0, size=3)
        v = float(rng.uniform(0.0, 100.0))
        best_m, best_s = 0, None
        for m in range(space.F):
            s = v * rt[0][m]
            for k in range(3):
                s += rt[k + 1][m] * q[k]
            if best_s is None or s < best_s:
                best_m, best_s = m, s
        mismatches += select_strategy(q, v, rt) != best_m

    # (b) the concentration tail dominates exact binomial tails
    dominated = True
    for n in range(1, 21):
        for eps in np.arange(0.0, 1.0001, 0.05):
            bound = mcdiarmid_tail(float(eps), [2.0 / n] * n)
            exact = (
                sum(math.comb(n, k) for k in range(n + 1) if k > n * (1 + eps) / 2)
                / 2**n
            )
            dominated &= bound >= exact - 1e-15

    # (c) dual-implementation agreement on 100 random input vectors
    agree = True
    rng = np.random.default_rng(909)
    for i in range(100):
        t = int(rng.integers(30, 600))
        alpha = int(rng.integers(0, t // 2))
        u = int(rng.integers(1, int(math.isqrt(t - alpha)) + 2))
        while (t - alpha) % u:
            u -= 1
        v = (t - alpha) // u
        V, D = float(rng.uniform(0.5, 80)), int(rng.integers(0, 3))
        cap, F = float(rng.uniform(0, 4)), int(rng.integers(2, 5000))
        n_outcomes = int(rng.integers(2, 128))
        rng.uniform(0.01, 0.5), rng.uniform(0.5, 60)  # delta and zeta, which psi omits
        inputs = BoundInputs(
            t=t, alpha_t=alpha, u_t=u, v_t=v, V=V, D=D, lyapunov_cap=cap, F=F,
            n_outcomes=n_outcomes, K=3, c_hat=float(rng.uniform(0, 3)),
            p_max=np.array([0.0, 1.0, 1.0, 1.0]),
            p_min=np.array([-1.0, 0.0, 0.0, 0.0]),
            c=np.array([1 / 3] * 3), gap=float(rng.uniform(0, 1)),
            jbar=float(rng.uniform(0, 1)), hbar=float(rng.uniform(0, 2)),
            kappa=0.5, p_opt=-0.394,
        )
        pe = rng.uniform(0, 1, size=t)
        b = rng.uniform(0, 2, size=t)
        got = psi_q_gamma(inputs, pe, b)
        want_psi = ref.ref_psi(
            t, alpha, u, v, inputs.V, inputs.D, inputs.lyapunov_cap, inputs.F,
            inputs.c_hat, 0.0, inputs.rho, inputs.jbar, inputs.hbar,
            inputs.gap, pe.tolist(), b.tolist(),
        )
        want_gamma = ref.ref_gamma(
            t, inputs.V, inputs.D, inputs.lyapunov_cap, inputs.c_hat, 0.0,
            inputs.rho, inputs.jbar, inputs.hbar, inputs.gap,
            pe.tolist(), b.tolist(),
        )
        agree &= math.isclose(got.psi, want_psi, rel_tol=1e-12)
        agree &= math.isclose(got.gamma_t, want_gamma, rel_tol=1e-12)
        agree &= math.isclose(
            got.q_up, ref.ref_q_up(t, inputs.V, inputs.F, want_gamma),
            rel_tol=1e-12,
        )
        mode = MODE_LITERAL if i % 2 else MODE_DEFAULT
        eps_k = float(rng.uniform(0.3, 2.0))
        mean = float(rng.uniform(0.1, 0.32))
        beta_v = float(rng.uniform(0, 0.01))
        pe_sum = float(rng.uniform(0, 5))
        try:
            got_pac = pac_rhs(1, eps_k, inputs, beta_v, pe_sum, mean, mode)
            want_pac = ref.ref_pac_rhs(
                t, alpha, u, v, eps_k, 1 / 3, mean, 1.0, beta_v, pe_sum, mode
            )
            agree &= math.isclose(got_pac, want_pac, rel_tol=1e-12)
        except DriftlabError:
            pass  # floor precondition: both sides reject identically by design

    ok = mismatches == 0 and dominated and agree
    report(
        8, "selection scan exact; tail dominates binomial; dual evaluators agree",
        ok, f"mismatches={mismatches}, dominated={dominated}, agree={agree}",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for cmd in ("simulate", "lp", "bounds", "empirics", "compare"):
            rc = main([cmd, "--out", str(out), "--seed", "17", "--runs", "5",
                       "--horizon", "120"])
            assert rc == 0, f"{cmd} failed"
        outs.append(out)
    names_a = sorted(p.name for p in outs[0].iterdir())
    names_b = sorted(p.name for p in outs[1].iterdir())
    identical = names_a == names_b and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names_a
    )
    report(
        9, "full pipeline is byte-identical across repeated invocations",
        identical, f"{len(names_a)} files compared",
    )
