"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Tolerances are fixed here and nowhere else.
"""

import math

import numpy as np

import cowsec.cli as cli
from cowsec.attacks import (
    active_attack,
    active_plan,
    bs_attack,
    critical_length,
    fully_insecure_length,
    key_rate_margin,
    optimal_source_intensity,
)
from cowsec.core import (
    ProtocolParams,
    binary_entropy,
    binary_entropy_inverse,
    channel_point,
    holevo_two_pure,
)
from cowsec.montecarlo import decoy_distortion
from cowsec.sweeps import run_montecarlo_validation


def verdict(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number:02d} failed: {description}"


def params(mu, delta=0.2):
    return ProtocolParams(mu=mu, delta=delta)


def test_criterion_01_critical_length():
    value = critical_length(0.2)
    ok = (
        abs(value - 10.0 * math.log10(2.0) / 0.2) < 1e-12
        and abs(value - 15.0515) < 1e-4
        and abs(value - 15.0) < 0.1
    )
    verdict(1, f"critical length at 0.2 dB/km is {value:.4f} km (paper rounds to 15 km)", ok)


def test_criterion_02_qber_curve_shape():
    ok = True
    details = []
    for mu in (0.1, 0.2, 0.5):
        p = params(mu)
        lengths = np.arange(0.0, 150.0 + 1e-9, 1.0)
        q_bs = [bs_attack(p, l).qber_critical for l in lengths]
        q_act = [active_attack(p, l).qber_critical for l in lengths]
        starts_at_half = q_bs[0] == 0.5 and q_act[0] == 0.5
        non_increasing = all(b <= a + 1e-12 for a, b in zip(q_bs, q_bs[1:])) and all(
            b <= a + 1e-12 for a, b in zip(q_act, q_act[1:])
        )
        floor = binary_entropy_inverse(1.0 - binary_entropy(0.5 * (1.0 + math.exp(-mu))))
        bs_above_floor = all(q >= floor - 1e-9 for q in q_bs)
        zero_idx = [i for i, q in enumerate(q_act) if q == 0.0]
        reaches_zero = bool(zero_idx) and lengths[zero_idx[0]] < 150.0
        signs = [
            1 if qa > qb else -1
            for qa, qb, l in zip(q_act, q_bs, lengths)
            if 0.0 < l < (lengths[zero_idx[0]] if zero_idx else math.inf) and qa != qb
        ]
        crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        ok_mu = starts_at_half and non_increasing and bs_above_floor and reaches_zero and crossings == 1
        details.append(f"mu={mu}: zero at {lengths[zero_idx[0]] if zero_idx else '-'} km, {crossings} crossing")
        ok = ok and ok_mu
    verdict(2, "; ".join(details), ok)


def test_criterion_03_full_insecurity_length():
    value = fully_insecure_length(params(0.5))
    ok = abs(value - 49.93) <= 0.05
    # independent confirmation by bisection over the attack report
    lo, hi = 40.0, 60.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if active_attack(params(0.5), mid).fully_insecure:
            hi = mid
        else:
            lo = mid
    ok = ok and abs(value - 0.5 * (lo + hi)) < 1e-6
    verdict(3, f"full insecurity at mu=0.5 from {value:.4f} km (bisection {0.5*(lo+hi):.4f})", ok)


def test_criterion_04_information_balance_identity():
    rng = np.random.default_rng(44004400)
    worst = 0.0
    checked = 0
    while checked < 10_000:
        mu = rng.uniform(0.05, 1.5)
        delta = rng.uniform(0.1, 0.4)
        length = rng.uniform(0.1, 120.0)
        p = params(mu, delta=delta)
        point = channel_point(p, length)
        if point.mu_e_max <= 1e-6:
            continue
        plan = active_plan(p, length, rng.uniform(1e-6, point.mu_e_max))
        # capped plans: the uncapped budget balance, in active_plan's operations, exceeds b
        if 1.0 - (-math.expm1(-point.mu_b)) / (-math.expm1(-plan.mu_b_prime)) > plan.block_fraction:
            continue
        lhs = plan.p_conc_inf / (1.0 - plan.block_fraction)
        rhs = (
            -math.expm1(-(mu - plan.mu_e))
            * -math.expm1(-plan.mu_e)
            / -math.expm1(-point.mu_b)
        )
        worst = max(worst, abs(lhs - rhs) / rhs)
        checked += 1
    ok = worst <= 1e-12
    verdict(4, f"blocking-balance identity on {checked} uncapped plans, worst rel dev {worst:.2e}", ok)


def test_criterion_05_eve_intensity_optimality():
    rng = np.random.default_rng(55005500)
    ok = True
    for _ in range(100):
        mu = rng.uniform(0.05, 1.2)
        delta = rng.uniform(0.1, 0.4)
        length = rng.uniform(0.1, 120.0)
        p = params(mu, delta=delta)
        point = channel_point(p, length)
        mu_star = active_plan(p, length).mu_e
        grid = np.linspace(0.0, point.mu_e_max, 10_000)
        p_inf = -np.expm1(-grid)
        p_bob = -np.expm1(-point.mu_b)
        p_fwd = -np.expm1(-(mu - grid))
        raw_b = 1.0 - p_bob / p_fwd
        b = np.clip(raw_b, 0.0, 1.0 - p_inf)
        info = np.where(p_inf > 0.0, np.minimum(1.0, p_inf / (1.0 - b)), 0.0)
        if info.max() >= 1.0 - 1e-12:
            # plateau of full insecurity: the closed form must reach it too
            ok = ok and active_plan(p, length, mu_star).i_ae >= 1.0 - 1e-12
        else:
            step = grid[1] - grid[0]
            ok = ok and abs(mu_star - grid[np.argmax(info)]) <= step
    verdict(5, "closed-form diverted intensity matches grid argmax on 100 random channels", ok)


def test_criterion_06_holevo_oracle_agreement():
    def oracle(s: float) -> float:
        if s == 1.0:
            return 0.0
        v0 = np.array([1.0, 0.0])
        v1 = np.array([s, math.sqrt(1.0 - s * s)])
        rho = 0.5 * (np.outer(v0, v0) + np.outer(v1, v1))
        return float(-sum(l * math.log2(l) for l in np.linalg.eigvalsh(rho) if l > 1e-300))

    worst = max(abs(holevo_two_pure(s) - oracle(s)) for s in np.linspace(0.0, 1.0, 1000))
    ok = worst <= 1e-12 and holevo_two_pure(0.0) == 1.0 and holevo_two_pure(1.0) == 0.0
    verdict(6, f"Holevo bound vs eigen-decomposition, worst |dev| {worst:.2e}", ok)


def test_criterion_07_entropy_inverse_round_trip():
    worst = max(
        abs(binary_entropy(binary_entropy_inverse(y)) - y) for y in np.linspace(0.0, 1.0, 1000)
    )
    ok = worst <= 1e-10
    verdict(7, f"entropy inverse round trip on 1000 points, worst |dev| {worst:.2e}", ok)


def test_criterion_08_montecarlo_cross_validation():
    p = params(0.2)
    report = run_montecarlo_validation(p, 20.0, 0.1, 1_000_000, 42)
    wanted = {
        "attack_bob_info_click_rate",
        "attack_eve_conclusive_info_rate",
        "attack_blocked_fraction",
        "attack_i_ae_proxy",
    }
    by_name = {c.name: c for c in report.checks}
    rates_ok = all(by_name[name].status == "pass" for name in wanted)

    half_plan = active_plan(p, 20.0)
    assert half_plan.mu_e == 0.1  # the mu/2 branch at this length
    flagged = {
        (r.pulse_class, r.pattern)
        for r in decoy_distortion(p, 20.0, 0.1, 1_000_000, 42).flagged_rows()
    }
    full_budget = channel_point(p, 20.0).mu_e_max
    silent = not decoy_distortion(p, 20.0, 0.1, 1_000_000, 42, mu_e=full_budget).flagged_rows()

    ok = rates_ok and ("decoy", "double") in flagged and silent
    zs = ", ".join(f"{by_name[n].name}:z={by_name[n].z:+.2f}" for n in sorted(wanted))
    verdict(8, f"{zs}; decoy double flagged at mu/2, silent at full budget", ok)


def test_criterion_09_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["validate-mc", "--mu", "0.2", "--length", "20", "--pulses", "1000000", "--seed", "42"]
    code1 = cli.main(args + ["--out", str(out1)])
    code2 = cli.main(args + ["--out", str(out2)])
    reports_identical = code1 == code2 == 0 and out1.read_bytes() == out2.read_bytes()

    tables = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    codes = [
        cli.main(["qber-curves", "--mu", "0.1,0.5", "--length", "0:60:2", "--out", str(table)])
        for table in tables
    ]
    sweeps_identical = codes == [0, 0] and tables[0].read_bytes() == tables[1].read_bytes()

    verdict(9, "byte-identical validation reports and sweeps",
            reports_identical and sweeps_identical)


def test_criterion_10_source_intensity_optimisation():
    ok = True
    details = []
    for length in (10.0, 30.0, 50.0):
        opt = optimal_source_intensity(0.2, length)
        grid = np.linspace(2.0 / 2000, 2.0, 2000)
        best_grid = max(key_rate_margin(params(m), length) for m in grid)
        dominates = opt.margin >= best_grid - 1e-12
        positive = length >= fully_insecure_length(params(opt.mu)) or opt.margin > 0.0
        ok = ok and dominates and positive
        details.append(f"l={length:g}: mu*={opt.mu:.4f}, margin={opt.margin:.5f}")
    verdict(10, "; ".join(details), ok)
