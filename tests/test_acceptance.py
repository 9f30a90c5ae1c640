"""Acceptance gate: end-to-end checks of the whole toolkit.

Each test covers one release criterion and reports a single PASS/FAIL line in
the terminal summary (see conftest.record_acceptance).  Tolerances and
runtime budgets are fixed; the heavy floor-regime simulations dominate the
suite's wall time.
"""

import math
import time

import numpy as np
import pytest

from dafrelay.analysis import (
    PepParams,
    error_floor,
    gamma_rd_high_snr,
    gamma_sd,
    i1_closed_form,
    pep,
    pep_point,
    ser_ber_from_pep,
)
from dafrelay.channel import (
    SCENARIOS,
    CascadedModelKind,
    FadingGenerator,
    FadingSpec,
    autocorr,
    envelope_chi_square,
    gen_cascaded,
    validate_stats,
)
from dafrelay.link import PowerAllocation
from dafrelay.montecarlo import RunConfig, run_point_schemes
from dafrelay.receiver import Scheme, weights_cdd, weights_tvd
from dafrelay.specials import bessel_j0, bessel_k0, exp_integral_e1, gaussian_q

from conftest import record_acceptance
from test_specials import e1_lentz, e1_series, j0_series_mp, k0_series

# ---------------------------------------------------------------------------
# shared simulation runs (paired schemes over common random numbers)


def _alphas(scn):
    alpha_sd = autocorr(FadingSpec(scn.f_sd))
    alpha = autocorr(FadingSpec(scn.f_sr)) * autocorr(FadingSpec(scn.f_rd))
    return alpha_sd, alpha


_SC1_CACHE = {}


def scenario_one_runs():
    """Scenario I CDD/TVD estimates at 5/15/25 dB, computed once.

    Short frames spread the budget over many independent fades; the error
    process in slow fading is bursty, so the per-point error budgets are far
    above the sweep default.
    """
    if _SC1_CACHE:
        return _SC1_CACHE
    scn = SCENARIOS["I"]
    for p_db, min_err in ((5.0, 20_000), (15.0, 30_000), (25.0, 30_000)):
        cfg = RunConfig(
            scenario=scn,
            M=2,
            p_db_grid=(p_db,),
            min_bit_errors=min_err,
            max_symbols=4 * 10**8,
            frame_len=200,
            master_seed=12,
            generator=FadingGenerator.AR1,
            frames_per_chunk=512,
        )
        _SC1_CACHE[p_db] = run_point_schemes(cfg, p_db, [Scheme.CDD, Scheme.TVD])
    return _SC1_CACHE


# ---------------------------------------------------------------------------


def test_acceptance_1_special_function_oracles():
    """J0/K0/E1/Q against independent oracles on 1000-point grids, < 1 s."""
    xs_j0 = np.linspace(0.0, 20.0, 1000)
    xs_k0 = np.geomspace(1e-6, 8.0, 1000)
    xs_e1a = np.geomspace(1e-6, 5.0, 500)
    xs_e1b = np.linspace(5.0, 50.0, 500)
    xs_q = np.linspace(-8.0, 8.0, 1000)

    t0 = time.perf_counter()
    v_j0 = bessel_j0(xs_j0)
    v_k0 = bessel_k0(xs_k0)
    v_e1a = exp_integral_e1(xs_e1a)
    v_e1b = exp_integral_e1(xs_e1b)
    v_q = gaussian_q(xs_q)
    elapsed = time.perf_counter() - t0

    err_j0 = np.max(np.abs(v_j0 - [j0_series_mp(x) for x in xs_j0]))
    err_k0 = np.max(np.abs(v_k0 / [k0_series(x) for x in xs_k0] - 1.0))
    err_e1 = max(
        np.max(np.abs(v_e1a / [e1_series(x) for x in xs_e1a] - 1.0)),
        np.max(np.abs(v_e1b / [e1_lentz(x) for x in xs_e1b] - 1.0)),
    )
    err_q = np.max(np.abs(v_q - [0.5 * math.erfc(x / math.sqrt(2)) for x in xs_q]))

    ok = err_j0 <= 1e-12 and err_k0 <= 1e-10 and err_e1 <= 1e-10 and err_q <= 1e-12 and elapsed < 1.0
    record_acceptance(
        "1 special-function oracles",
        ok,
        f"j0_abs={err_j0:.1e} k0_rel={err_k0:.1e} e1_rel={err_e1:.1e} q_abs={err_q:.1e} t={elapsed:.2f}s",
    )
    assert ok


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_acceptance_2_channel_statistics(name):
    """Cascaded samples (both models, 10^6 samples): moments, lag-1, pdf fit."""
    scn = SCENARIOS[name]
    spec_sr = FadingSpec(scn.f_sr, generator=FadingGenerator.AR1)
    spec_rd = FadingSpec(scn.f_rd, generator=FadingGenerator.AR1)
    alpha = autocorr(spec_sr) * autocorr(spec_rd)
    t0 = time.perf_counter()
    details = []
    ok = True
    for stream, kind in ((1, CascadedModelKind.EXACT_PRODUCT), (2, CascadedModelKind.APPROXIMATE)):
        rng = np.random.default_rng(np.random.SeedSequence([20, stream, ord(name[0]) + len(name)]))
        h, _ = gen_cascaded(spec_sr, spec_rd, kind, 10, rng, realizations=100_000)
        st = validate_stats(h)
        # terminal samples are i.i.d. across the independent realizations
        _, p_value = envelope_chi_square(h[:, -1])
        ok &= abs(st.mean) < 0.01
        ok &= abs(st.variance - 1.0) < 0.02
        ok &= abs(st.lag1_autocorr - alpha) < 0.01
        ok &= p_value > 0.01
        details.append(f"{kind.value}: var={st.variance:.4f} lag1={st.lag1_autocorr:.5f} p={p_value:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    record_acceptance(
        f"2 channel statistics (scenario {name})", ok, "; ".join(details) + f"; t={elapsed:.1f}s"
    )
    assert ok


def test_acceptance_3_quadrature_oracle_equivalence():
    """Closed-form inner integral vs direct gain-density integration, 1e-8."""
    from scipy import integrate

    rng = np.random.default_rng(21)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        p_db = rng.uniform(-5.0, 45.0)
        alpha = float(np.cos(rng.uniform(0.0, 0.4)))
        theta = rng.uniform(0.05, np.pi / 2)
        M = int(rng.choice([2, 4]))
        pa = PowerAllocation.equal_from_total_db(p_db)
        d2 = 4.0 if M == 2 else 2.0
        params = PepParams(pa.P0, pa.A, alpha, alpha, d2)

        def integrand(eta):
            rho = pa.A**2 * pa.P0 * eta / (pa.A**2 * eta + 1.0)
            g = gamma_rd_high_snr(alpha, rho)
            return np.exp(-eta) / (1.0 + g * d2 / (2.0 * np.sin(theta) ** 2))

        direct, _ = integrate.quad(integrand, 0.0, np.inf, limit=200, epsabs=1e-13, epsrel=1e-12)
        closed = float(i1_closed_form(theta, params))
        worst = max(worst, abs(closed - direct) / abs(direct))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    record_acceptance(
        "3 quadrature-oracle equivalence", ok, f"max_rel={worst:.2e} over 100 draws, t={elapsed:.1f}s"
    )
    assert ok


def test_acceptance_4_floor_consistency():
    """PEP at 120 dB total power matches the closed-form floor to 1e-3."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("II", "III"):
        alpha_sd, alpha = _alphas(SCENARIOS[name])
        for M in (2, 4):
            params = PepParams.for_link(alpha_sd, alpha, 120.0, M)
            fl = error_floor(params)
            worst = max(worst, abs(pep(params) - fl) / fl)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 5.0
    record_acceptance("4 floor consistency", ok, f"max_rel={worst:.2e}, t={elapsed:.1f}s")
    assert ok


def test_acceptance_5_diversity_order():
    """Scenario I DBPSK TVD: slope 15->25 dB in [1.6, 2.2]; close to theory."""
    runs = scenario_one_runs()
    tvd15 = runs[15.0][Scheme.TVD].ber
    tvd25 = runs[25.0][Scheme.TVD].ber
    slope = np.log10(tvd15 / tvd25)
    alpha_sd, alpha = _alphas(SCENARIOS["I"])
    theory25 = pep_point(alpha_sd, alpha, 25.0, 2).ber
    ratio = tvd25 / theory25
    ok = 1.6 <= slope <= 2.2 and (1.0 / 1.5) <= ratio <= 1.5
    record_acceptance(
        "5 diversity order (scenario I)",
        ok,
        f"slope={slope:.3f} decades/decade, sim/theory@25dB={ratio:.3f}",
    )
    assert ok


def _ci_separated(lo, hi):
    """True when the 95% intervals of two estimates do not overlap."""
    return lo.ber + lo.ci95_halfwidth < hi.ber - hi.ci95_halfwidth


def test_acceptance_6_floor_regime():
    """Scenarios II/III at high power: scheme ordering and analytic floors.

    The genie-vs-floor check runs on Scenario III, where theory reaches its
    floor by 50 dB (theory/floor = 1.009); on Scenario II the theory BER at
    50 dB is still 1.24x the floor, so no unbiased simulation can sit within
    15% of the floor there.  Floor-regime runs use the one-term cascade
    recursion, which is the channel model the analysis describes.
    """
    details = []
    ok = True

    # Scenario III: 20/30/50 dB, all three schemes
    scn = SCENARIOS["III"]
    alpha_sd, alpha = _alphas(scn)
    floor3 = ser_ber_from_pep(error_floor(PepParams.for_link(alpha_sd, alpha, 50.0, 2)), 2)[1]
    runs3 = {}
    for p_db in (20.0, 30.0, 50.0):
        cfg = RunConfig(
            scenario=scn,
            M=2,
            p_db_grid=(p_db,),
            min_bit_errors=400,
            max_symbols=10**8,
            frame_len=1000,
            master_seed=13,
            generator=FadingGenerator.AR1,
            cascaded_model=CascadedModelKind.APPROXIMATE,
        )
        runs3[p_db] = run_point_schemes(cfg, p_db, [Scheme.CDD, Scheme.TVD, Scheme.OPT_GENIE])
    opt_ratio = runs3[50.0][Scheme.OPT_GENIE].ber / floor3
    ok &= 0.85 <= opt_ratio <= 1.15
    ok &= runs3[50.0][Scheme.TVD].ber >= 0.85 * floor3
    ok &= _ci_separated(runs3[50.0][Scheme.TVD], runs3[50.0][Scheme.CDD])
    slope3 = np.log10(runs3[30.0][Scheme.TVD].ber / runs3[50.0][Scheme.TVD].ber) / 2.0
    ok &= slope3 < 0.5
    details.append(f"III: opt/floor={opt_ratio:.3f} tvd<cdd sep, plateau slope={slope3:.3f}")

    # Scenario II: 40/50 dB, plateau onset after ~25 dB
    scn = SCENARIOS["II"]
    alpha_sd, alpha = _alphas(scn)
    floor2 = ser_ber_from_pep(error_floor(PepParams.for_link(alpha_sd, alpha, 50.0, 2)), 2)[1]
    runs2 = {}
    for p_db in (40.0, 50.0):
        cfg = RunConfig(
            scenario=scn,
            M=2,
            p_db_grid=(p_db,),
            min_bit_errors=150,
            max_symbols=4 * 10**8,
            master_seed=5,
            generator=FadingGenerator.AR1,
            cascaded_model=CascadedModelKind.APPROXIMATE,
        )
        runs2[p_db] = run_point_schemes(cfg, p_db, [Scheme.CDD, Scheme.TVD, Scheme.OPT_GENIE])
    ok &= runs2[50.0][Scheme.TVD].ber >= 0.85 * floor2
    ok &= _ci_separated(runs2[50.0][Scheme.TVD], runs2[50.0][Scheme.CDD])
    ok &= runs2[50.0][Scheme.OPT_GENIE].ber <= runs2[50.0][Scheme.TVD].ber
    slope2 = np.log10(runs2[40.0][Scheme.TVD].ber / runs2[50.0][Scheme.TVD].ber)
    ok &= slope2 < 0.5
    details.append(
        f"II: tvd/floor={runs2[50.0][Scheme.TVD].ber / floor2:.3f} plateau slope={slope2:.3f}"
    )

    record_acceptance("6 floor regime (scenarios II/III)", ok, "; ".join(details))
    assert ok


def test_acceptance_7_weight_scheme_degeneracy():
    """TVD weights at unit autocorrelation equal CDD; Scenario I curves agree."""
    ok = True
    worst = 0.0
    for p_db in (0.0, 10.0, 20.0, 30.0):
        pa = PowerAllocation.equal_from_total_db(p_db)
        tvd = weights_tvd(1.0, 1.0, pa.P0, pa.A)
        cdd = weights_cdd(pa.A)
        worst = max(worst, abs(tvd.b0 - cdd.b0), abs(tvd.b1 - cdd.b1))
    ok &= worst <= 1e-12

    overlap_ok = True
    for p_db, paired in scenario_one_runs().items():
        a, b = paired[Scheme.CDD], paired[Scheme.TVD]
        overlap_ok &= abs(a.ber - b.ber) <= a.ci95_halfwidth + b.ci95_halfwidth
    ok &= overlap_ok
    record_acceptance(
        "7 weight-scheme degeneracy",
        ok,
        f"max_weight_diff={worst:.1e}, CDD/TVD CIs overlap at all grid points={overlap_ok}",
    )
    assert ok


def test_acceptance_8_determinism(tmp_path):
    """Two sweeps with identical seed/config produce byte-identical CSV."""
    from dafrelay.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "min_bit_errors = 50\nmax_symbols = 100000\nframe_len = 1000\ngenerator = ar1\n"
    )
    args = [
        "sweep", "--scenario", "I", "--m", "2", "--scheme", "all",
        "--pdb", "0:5:10", "--seed", "3", "--config", str(cfg),
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc_a = main(args + ["--out", str(out_a)])
    rc_b = main(args + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = rc_a == 0 and rc_b == 0 and identical
    record_acceptance("8 determinism", ok, f"byte-identical CSV={identical}")
    assert ok
