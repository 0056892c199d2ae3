"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them as they complete).

Criteria at the production scale (N = 50) use the default geometry; the
desk-scale oracle-equivalence runs use a benign geometry (information receiver
stronger than the eavesdropper) where the tiny joint landscape is single-basin
so a brute-force grid is a meaningful reference for single-start solvers.
"""

import time
from statistics import median

import numpy as np
import pytest

from irs_swipt.channel import ScenarioConfig, generate_scenario
from irs_swipt.experiments import optimize_w_fixed_profile
from irs_swipt.linalg import max_eigval
from irs_swipt.metrics import PhaseProfile, check_feasible, harvested_power
from irs_swipt.oracle import GridSpec, grid_search_joint
from irs_swipt.sca import sca_ao, u_of_mu
from irs_swipt.sdp import SdpProblem, solve_sdp
from irs_swipt.sdr import sdr_ao

DESK = dict(d_ap_bob=10.0, d_ap_eve=20.0, d_ap_ehr=6.0,
            d_irs_bob=12.0, d_irs_eve=25.0, d_irs_ehr=4.0)

# (tag, w, u, cfg, channels) for every solution returned under criteria 1-5
SOLUTIONS = []


def report(num, name, ok, detail):
    print(f"\nCRITERION {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def monotone(trace, tol=1e-8):
    return all(trace[i + 1] >= trace[i] * (1.0 - tol) for i in range(len(trace) - 1))


@pytest.fixture(scope="module")
def crit1_runs():
    t0 = time.perf_counter()
    runs = []
    for seed in range(100):
        cfg = ScenarioConfig(M=4, N=8, r0=1.0, seed=seed)
        ch = generate_scenario(cfg)
        r_sdr = sdr_ao(ch, cfg)
        r_sca = sca_ao(ch, cfg)
        runs.append((cfg, ch, r_sdr, r_sca))
        for tag, r in (("c1-sdr", r_sdr), ("c1-sca", r_sca)):
            if r.status != "Infeasible":
                SOLUTIONS.append((tag, r.w.w, r.u, cfg, ch))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit2_runs():
    t0 = time.perf_counter()
    grid = GridSpec(phase_levels=256, subspace_points=1500, power_levels=1)
    runs = []
    for seed in range(25):
        cfg = ScenarioConfig(M=2, N=2, r0=1.0, seed=seed, **DESK)
        ch = generate_scenario(cfg)
        _, _, val_grid = grid_search_joint(ch, cfg, grid)
        r_sca = sca_ao(ch, cfg)
        r_sdr = sdr_ao(ch, cfg)
        hp_sca = harvested_power(r_sca.w.w, r_sca.u, ch, cfg.zeta)
        hp_sdr = harvested_power(r_sdr.w.w, r_sdr.u, ch, cfg.zeta)
        runs.append((val_grid, hp_sca, hp_sdr, r_sdr.harvested_trace[-1]))
        SOLUTIONS.append(("c2-sca", r_sca.w.w, r_sca.u, cfg, ch))
        SOLUTIONS.append(("c2-sdr", r_sdr.w.w, r_sdr.u, cfg, ch))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def paper_n50_runs():
    """sca / sdr / random_phase / no_irs over 50 seeds at the default setup."""
    out = {"sca": [], "sdr": [], "random_phase": [], "no_irs": []}
    for seed in range(50):
        cfg = ScenarioConfig(M=4, N=50, r0=1.0, seed=seed)
        ch = generate_scenario(cfg)
        r_sca = sca_ao(ch, cfg)
        out["sca"].append((cfg, ch, r_sca))
        r_sdr = sdr_ao(ch, cfg)
        out["sdr"].append((cfg, ch, r_sdr))
        rng = np.random.default_rng(seed + 987654321)
        u_rand = PhaseProfile(np.exp(-2j * np.pi * rng.random(cfg.N)))
        out["random_phase"].append((cfg, ch, optimize_w_fixed_profile(ch, cfg, u_rand)))
        cfg0 = cfg.with_updates(N=0)
        ch0 = generate_scenario(cfg0)
        u0 = PhaseProfile(np.zeros(0, complex))
        out["no_irs"].append((cfg0, ch0, optimize_w_fixed_profile(ch0, cfg0, u0)))
        for tag in ("sca", "no_irs"):  # criterion 3's returned solutions
            c, ch_i, r = out[tag][-1]
            if r.status != "Infeasible":
                SOLUTIONS.append((f"c3-{tag}", r.w.w, r.u, c, ch_i))
    return out


def powers_of(entries):
    return [harvested_power(r.w.w, r.u, ch, cfg.zeta)
            for (cfg, ch, r) in entries if r.status != "Infeasible"]


def test_criterion_01_ao_monotonicity(crit1_runs):
    runs, elapsed = crit1_runs
    bad = 0
    for cfg, ch, r_sdr, r_sca in runs:
        if r_sdr.status != "Infeasible" and not monotone(r_sdr.harvested_trace):
            bad += 1
        if r_sca.status != "Infeasible" and not monotone(r_sca.harvested_trace):
            bad += 1
    ok = bad == 0 and elapsed < 300.0
    assert report(1, "AO monotonicity", ok,
                  f"{bad} non-monotone traces over 100 instances, {elapsed:.0f}s")


def test_criterion_02_oracle_equivalence(crit2_runs):
    runs, elapsed = crit2_runs
    worst = min(min(s, d) / g for g, s, d, _ in runs)
    ub_ok = all(relax + 1e-8 >= max(s, d) for _, s, d, relax in runs)
    ok = worst >= 0.98 and ub_ok and elapsed < 900.0
    assert report(2, "oracle equivalence", ok,
                  f"worst solver/grid ratio {worst:.4f} (need >= 0.98), "
                  f"relaxation bound {'holds' if ub_ok else 'VIOLATED'}, {elapsed:.0f}s")


def test_criterion_03_irs_gain(paper_n50_runs):
    med_sca = median(powers_of(paper_n50_runs["sca"]))
    med_none = median(powers_of(paper_n50_runs["no_irs"]))
    ratio = med_sca / med_none
    ok = ratio >= 1.5
    assert report(3, "IRS gain", ok,
                  f"median sca {med_sca:.3e} W vs no-IRS {med_none:.3e} W, "
                  f"ratio {ratio:.2f} (need >= 1.5)")


def test_criterion_04_sca_matches_sdr():
    rows = {}
    for r0 in (1.0, 2.0, 3.0):
        sca_p, sdr_p = [], []
        for seed in range(25):
            cfg = ScenarioConfig(M=4, N=16, r0=r0, seed=seed)
            ch = generate_scenario(cfg)
            r_sca = sca_ao(ch, cfg)
            r_sdr = sdr_ao(ch, cfg)
            if r_sca.status == "Infeasible" or r_sdr.status == "Infeasible":
                continue
            sca_p.append(harvested_power(r_sca.w.w, r_sca.u, ch, cfg.zeta))
            sdr_p.append(harvested_power(r_sdr.w.w, r_sdr.u, ch, cfg.zeta))
            SOLUTIONS.append(("c4-sca", r_sca.w.w, r_sca.u, cfg, ch))
            SOLUTIONS.append(("c4-sdr", r_sdr.w.w, r_sdr.u, cfg, ch))
        rows[r0] = median(sca_p) / median(sdr_p)
    ok = all(abs(v - 1.0) <= 0.05 for v in rows.values())
    detail = ", ".join(f"r0={k:g}: sca/sdr {v:.4f}" for k, v in rows.items())
    assert report(4, "SCA matches SDR", ok, detail + " (need within 5%)")


def test_criterion_05_convergence_speed(paper_n50_runs):
    iters = {"sca": [], "sdr": []}
    to99 = {"sca": [], "sdr": []}
    for method in ("sca", "sdr"):
        for cfg, ch, r in paper_n50_runs[method][:9]:
            if r.status == "Infeasible":
                continue
            iters[method].append(r.iters_outer)
            tr = np.asarray(r.harvested_trace)
            first = int(np.argmax(tr >= 0.99 * tr[-1]))
            # the sdr trace has no iteration-zero entry
            to99[method].append(first + (1 if method == "sdr" else 0))
            SOLUTIONS.append((f"c5-{method}", r.w.w, r.u, cfg, ch))
    med_it = {m: median(v) for m, v in iters.items()}
    med99 = {m: median(v) for m, v in to99.items()}
    ok = all(v <= 30 for v in med_it.values()) and all(v <= 15 for v in med99.values())
    assert report(5, "convergence speed", ok,
                  f"median outer iters sca {med_it['sca']:g}, sdr {med_it['sdr']:g} "
                  f"(need <= 30); iterations to 99% of final: sca {med99['sca']:g}, "
                  f"sdr {med99['sdr']:g} (need <= 15)")


def test_criterion_06_feasibility_of_all_solutions():
    assert SOLUTIONS, "criteria 1-5 must run first"
    bad = []
    for tag, w, u, cfg, ch in SOLUTIONS:
        rep = check_feasible(w, u, cfg, ch)
        if (rep.sr_slack < -1e-6 or rep.power_slack < -1e-9
                or rep.modulus_deviation > 1e-12):
            bad.append((tag, rep.sr_slack, rep.power_slack, rep.modulus_deviation))
    ok = not bad
    assert report(6, "feasibility", ok,
                  f"{len(SOLUTIONS)} solutions checked, {len(bad)} violations"
                  + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_07_monotone_dual_function():
    rng = np.random.default_rng(123)
    mus = np.linspace(0.0, 200.0, 10_000)
    worst_viol = 0.0
    worst_resid = 0.0
    from irs_swipt.sca import PhaseSubproblemData, bisect_mu
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = d[None, :] + mus[:, None] * f[None, :]
        safe = np.where(z == 0, 1.0, z)
        u = safe / np.abs(safe)
        g = 2.0 * np.real(np.sum(u.conj() * f[None, :], axis=1))
        worst_viol = max(worst_viol, float(np.max(-np.diff(g) / (1 + np.abs(g[:-1])))))
        # force an active constraint and check the bisection residual
        g0, gmax = g[0], 2.0 * float(np.sum(np.abs(f)))
        c2 = g0 + 0.6 * (gmax - g0)
        data = PhaseSubproblemData(a=np.zeros(n), b=np.zeros(n), c=np.zeros(n),
                                   alpha=0j, beta=0j, gamma=0j,
                                   lambda_max_A=0.0, d=d, f=f, c1=0.0, c2=c2)
        mu_star, prof = bisect_mu(data, eps_bisect=1e-8)
        if mu_star > 0:
            resid = abs(2.0 * float(np.real(prof.u.conj() @ f)) - c2) / (1 + abs(c2))
            worst_resid = max(worst_resid, resid)
    ok = worst_viol <= 1e-9 and worst_resid <= 1e-8
    assert report(7, "monotone dual function", ok,
                  f"worst grid decrease {worst_viol:.2e} (need <= 1e-9), "
                  f"worst bisection residual {worst_resid:.2e} (need <= 1e-8)")


def test_criterion_08_sdp_validation():
    rng = np.random.default_rng(321)
    worst_err = 0.0
    worst_gap = 0.0
    not_optimal = 0
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c = 0.5 * (a + a.conj().T)
        prob = SdpProblem()
        blk = prob.add_hermitian_block(dim)
        prob.add_objective(blk, c)
        prob.add_constraint([(blk, np.eye(dim))], "==", 1.0)
        sol = solve_sdp(prob, tol=1e-8)
        if sol.status != "Optimal":
            not_optimal += 1
            continue
        worst_err = max(worst_err, abs(sol.objective_value - max_eigval(c)))
        worst_gap = max(worst_gap,
                        sol.duality_gap / (1.0 + abs(sol.objective_value)))
    ok = not_optimal == 0 and worst_err <= 1e-6 and worst_gap <= 1e-7
    assert report(8, "SDP solver validation", ok,
                  f"50 instances, {not_optimal} non-optimal, worst |err| {worst_err:.2e} "
                  f"(need <= 1e-6), worst relative gap {worst_gap:.2e} (need <= 1e-7)")


def test_criterion_09_complexity_ordering():
    med = {}
    for n in (16, 32, 50):
        sca_t, sdr_t = [], []
        for seed in range(10):
            cfg = ScenarioConfig(M=4, N=n, r0=1.0, seed=seed)
            ch = generate_scenario(cfg)
            r_sca = sca_ao(ch, cfg)
            r_sdr = sdr_ao(ch, cfg)
            if r_sca.status == "Infeasible" or r_sdr.status == "Infeasible":
                continue
            sca_t.append(r_sca.wall_clock)
            sdr_t.append(r_sdr.wall_clock)
        med[n] = (median(sdr_t), median(sca_t))
    ratios = {n: s / c for n, (s, c) in med.items()}
    ok = all(r > 1.0 for r in ratios.values()) and ratios[16] < ratios[32] < ratios[50]
    detail = ", ".join(f"N={n}: sdr {med[n][0]:.3f}s / sca {med[n][1]:.3f}s = {ratios[n]:.2f}"
                       for n in (16, 32, 50))
    assert report(9, "empirical complexity ordering", ok, detail)


def test_criterion_10_baseline_ordering(paper_n50_runs):
    med = {m: median(powers_of(paper_n50_runs[m])) for m in
           ("sca", "sdr", "random_phase", "no_irs")}
    ok = (min(med["sca"], med["sdr"]) > med["random_phase"] > med["no_irs"])
    assert report(10, "baseline ordering", ok,
                  f"medians: sdr {med['sdr']:.3e}, sca {med['sca']:.3e}, "
                  f"random_phase {med['random_phase']:.3e}, no_irs {med['no_irs']:.3e} W")
