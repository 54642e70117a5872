"""Spectra, arc dissection, certified grid integrals and exact arc masses."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apvar.arith import CapacityError, Sequence, UNIT_ROUNDOFF, gamma
from apvar.circle import (ArcSystem, arc_masses, build_spectrum,
                          default_grid_size, eval_exp_sum, farey_density_f,
                          is_major, major_mask, minor_arc_integral)


def small_arcs(n=1000):
    return ArcSystem(k_param=6.0, q0=2.0, q=300.0, n=n)


def test_eval_exp_sum_matches_naive(rng):
    vals = rng.standard_normal(64)
    seq = Sequence.from_coeffs(vals)
    for alpha in (0.0, 0.125, 0.3333, 0.871):
        naive = sum(vals[n - 1] * np.exp(2j * np.pi * n * alpha)
                    for n in range(1, 65))
        assert eval_exp_sum(seq, alpha) == pytest.approx(naive, abs=1e-9)


def test_spectrum_grid_matches_eval(rng):
    seq = Sequence.from_coeffs(rng.standard_normal(50))
    spec = build_spectrum(seq, 256)
    for t in (0, 1, 17, 128, 255):
        assert spec.amplitudes[t] == pytest.approx(
            eval_exp_sum(seq, t / 256), abs=1e-8)


def test_parseval(rng):
    seq = Sequence.from_coeffs(rng.standard_normal(200))
    spec = build_spectrum(seq)
    assert spec.total_mass == pytest.approx(seq.l2(), rel=1e-12)


def test_default_grid_and_budget():
    assert default_grid_size(1000) == 16384
    with pytest.raises(ValueError):
        build_spectrum(Sequence.from_coeffs(np.ones(100)), 100)  # not pow2
    with pytest.raises(CapacityError):
        build_spectrum(Sequence.from_coeffs(np.ones(10)), 1 << 25)


def test_is_major_witnesses():
    arcs = small_arcs()
    ok, witness = is_major(0.5, arcs)
    assert ok and witness == (1, 2)
    ok, witness = is_major(1 / 3 + 1e-4, arcs)
    assert ok and witness == (1, 3)
    # far from any fraction with small denominator
    ok, witness = is_major(0.381966, arcs)  # near 1/golden^2
    assert not ok and witness is None


def test_major_mask_agrees_with_pointwise():
    arcs = small_arcs()
    t = 2048
    mask = major_mask(arcs, t)
    for idx in range(0, t, 37):
        assert mask[idx] == is_major(idx / t, arcs)[0]


def test_minor_plus_major_equals_total(rng):
    seq = Sequence.from_coeffs(rng.standard_normal(500))
    spec = build_spectrum(seq)
    arcs = small_arcs(500)
    res = minor_arc_integral(spec, arcs)
    assert res.value + res.major_value == pytest.approx(spec.total_mass,
                                                        rel=1e-12)
    # certified against the exact Parseval complement
    assert abs(res.value - res.complement_value) <= res.error_bound


def test_farey_density_floor():
    # f(alpha) >= (2K/Q0)(1 - 5/K - log K / K) at sampled points
    arcs = ArcSystem(k_param=8.0, q0=5.0, q=500.0, n=2000)
    floor = (2 * arcs.k_param / arcs.q0) * (
        1 - 5 / arcs.k_param - math.log(arcs.k_param) / arcs.k_param)
    for alpha in (0.0, 0.1234, 0.5, 0.381966, 0.7071):
        assert farey_density_f(alpha, arcs) >= floor


def test_farey_enumeration_cap():
    arcs = ArcSystem(k_param=8.0, q0=5.0, q=50000.0, n=10**6)
    with pytest.raises(CapacityError):
        farey_density_f(0.5, arcs)


def test_regime_departures():
    """Each of the paper's three windows is reported once the point
    leaves it, with K's open upper end as None, and nothing inside."""
    assert disjoint_arcs().regime_departures() == []
    nlogn = 100 * math.log(100)
    departures = ArcSystem(k_param=3.0, q0=1.0, q=50.0,
                           n=100).regime_departures()
    assert departures == [
        {"name": "K", "value": 3.0, "window": [5.0, None]},
        {"name": "Q0", "value": 1.0, "window": [nlogn / 50.0, 50.0 / 9.0]},
        {"name": "Q", "value": 50.0, "window": [3.0 * math.sqrt(nlogn), 100]},
    ]
    json.dumps(departures, allow_nan=False)   # an open end is None, not inf
    # Q0 above Q/K^2 alone; then Q above N alone.
    assert ArcSystem(k_param=5.0, q0=13.0, q=300.0,
                     n=300).regime_departures() == [
        {"name": "Q0", "value": 13.0,
         "window": [300 * math.log(300) / 300.0, 12.0]}]
    assert ArcSystem(k_param=5.0, q0=6.0, q=301.0,
                     n=300).regime_departures() == [
        {"name": "Q", "value": 301.0,
         "window": [5.0 * math.sqrt(300 * math.log(300)), 300]}]


# ---------------------------------------------------------------------------
# Exact arc masses


def direct_major(a, b, arcs):
    """(value, rounding bound) of the integral of A conj(B) over the major
    arcs as the direct double sum over n, m and the reduced r/q of
    w_q(n - m) e((n - m) r/q), w_q(h) = sin(2 pi h d_q)/(pi h), w_q(0) = 2 d_q,
    d_q = K/(qQ): no FFT and no Ramanujan sums.  The pairs (n, m) are
    grouped by h = n - m, x(h) = sum_m a_{m+h} b_m by fsum, and e(.) is
    summed over r and q - r together as a cosine.

    Bound: x(h) is within 2u X(h), X(h) = sum_m |a_{m+h} b_m|; the sine's
    argument carries gamma_5 and the cosine's gamma_4 (on at most 2 pi),
    each trig value 4 ulp (8u), the quotient and the products gamma_4, so
    a term is within X(h) (2 d_q gamma_50 + 8u/(pi |h|)); the final fsum
    adds u |value|.  The sum is doubled for the bound's own rounding.
    """
    n = a.size - 1
    hs = np.arange(-(n - 1), n)
    x = np.array([math.fsum(a[1 + h:] * b[1:n + 1 - h]) if h >= 0 else
                  math.fsum(a[1:n + 1 + h] * b[1 - h:]) for h in hs])
    x_abs = np.array([np.abs(a[1 + h:] * b[1:n + 1 - h]).sum() if h >= 0
                      else np.abs(a[1:n + 1 + h] * b[1 - h:]).sum()
                      for h in hs])
    terms, bound = [], 0.0
    for q in range(1, arcs.kq0 + 1):
        d = arcs.k_param / (q * arcs.q)
        safe = np.where(hs == 0, 1, hs)
        w = np.where(hs == 0, 2 * d, np.sin(2 * np.pi * hs * d) / (np.pi * safe))
        per_term = x_abs * (2 * d * gamma(50)
                            + np.where(hs == 0, 0.0,
                                       8 * UNIT_ROUNDOFF / (np.pi * np.abs(safe))))
        for r in range(q):
            if math.gcd(r, q) == 1:
                terms.extend(x * w * np.cos(2 * np.pi * ((hs * r) % q) / q))
                bound += float(per_term.sum())
    value = math.fsum(terms)
    return value, 2.0 * (bound + UNIT_ROUNDOFF * abs(value))


def disjoint_arcs(n=300):
    # K >= 5, N log N / Q <= Q0 <= Q/K^2, Q > K (2 KQ0 - 1): the paper's
    # regime, with disjoint arcs.
    return ArcSystem(k_param=5.0, q0=6.0, q=300.0, n=n)


def check_against_direct(arcs, a, b, mass):
    value, bound = direct_major(a.values, b.values, arcs)
    assert abs(mass.major - value) <= mass.error + bound
    assert mass.major + mass.minor == pytest.approx(mass.total, abs=mass.error)
    assert mass.total == pytest.approx(float(np.dot(a.values, b.values)),
                                       rel=1e-12)


def test_arc_masses_match_direct_double_sum(rng, table_300, window):
    from apvar.windows import build_tilde_sequence, build_weights

    arcs = disjoint_arcs()
    floats = Sequence.from_coeffs(rng.standard_normal(300))
    d2 = Sequence(table_300.dk[2].astype(float), is_integer_valued=True)
    tilde = build_tilde_sequence(300, build_weights("prime_sieve", 12), window)
    check_against_direct(arcs, floats, floats, arc_masses(arcs, floats).a)
    exact = arc_masses(arcs, d2).a
    check_against_direct(arcs, d2, d2, exact)
    pair = arc_masses(arcs, d2, tilde)
    check_against_direct(arcs, tilde, tilde, pair.tilde)
    check_against_direct(arcs, d2, tilde, pair.cross)
    assert pair.a.major == pytest.approx(exact.major, abs=exact.error)
    # The exact integer lags leave only the kernel's summation error.
    assert exact.error < 1e-9 * exact.major


def test_arc_masses_leave_lag_correlations_unchanged(rng, table_300):
    """arc_masses reads the lag correlations it is given and changes none
    of them, on a float row and on an exact int64 row; its masses are
    those of its own autocorrelation."""
    from apvar.arith import lag_correlations

    arcs = disjoint_arcs()
    floats = Sequence.from_coeffs(rng.standard_normal(300))
    d2 = Sequence(table_300.dk[2].astype(float), is_integer_valued=True)
    for seq, dtype in ((floats, np.float64), (d2, np.int64)):
        corrs = lag_correlations([seq], [(0, 0)])
        before = corrs[0].rho.copy()
        assert before.dtype == dtype
        mass = arc_masses(arcs, seq, corrs=corrs).a
        assert corrs[0].rho.dtype == dtype
        assert np.array_equal(corrs[0].rho, before)
        assert mass == arc_masses(arcs, seq).a


def mp_major(a, arcs):
    """The major-arc mass of |A|^2 as the same double sum in 40-digit
    arithmetic on the exact binary values of a, K and Q."""
    import mpmath as mp

    with mp.workdps(40):
        n = a.size - 1
        vals = [mp.mpf(float(v)) for v in a]
        x = {h: mp.fsum(vals[m + h] * vals[m] for m in range(1, n + 1 - h))
             for h in range(n)}
        total = mp.mpf(0)
        for q in range(1, arcs.kq0 + 1):
            d = mp.mpf(arcs.k_param) / (q * mp.mpf(arcs.q))
            for r in range(q):
                if math.gcd(r, q) == 1:
                    total += 2 * d * x[0] + 2 * mp.fsum(
                        x[h] * mp.sin(2 * mp.pi * h * d) / (mp.pi * h)
                        * mp.cos(2 * mp.pi * ((h * r) % q) / q)
                        for h in range(1, n))
        return float(total)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
       st.integers(1, 6))
# Lag products in the subnormal range: the bound must carry their
# absolute underflow error.
@example(coeffs=[2.6357603733167303e-160], m_top=2)
@example(coeffs=[1e-160, -3e-161, 2e-160], m_top=3)
def test_arc_masses_property(coeffs, m_top):
    """Random float sequences: the direct double sum within both bounds,
    and the 40-digit value within the engine's own bound alone."""
    seq = Sequence.from_coeffs(np.array(coeffs))
    k_param = 5.0
    arcs = ArcSystem(k_param=k_param, q0=m_top / k_param,
                     q=k_param * (2 * m_top + 1), n=seq.n)
    mass = arc_masses(arcs, seq).a
    check_against_direct(arcs, seq, seq, mass)
    exact = mp_major(seq.values, arcs)
    assert abs(mass.major - exact) <= mass.error + UNIT_ROUNDOFF * abs(exact)


def test_grid_converges_to_exact(table_1e4):
    n = 2000
    seq = Sequence(table_1e4.dk[2][: n + 1].astype(float),
                   is_integer_valued=True)
    arcs = ArcSystem(k_param=5.0, q0=2.0, q=300.0, n=n)
    exact = arc_masses(arcs, seq).a
    devs = []
    for t in (1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19):
        grid = minor_arc_integral(build_spectrum(seq, t), arcs)
        devs.append(abs(grid.value - exact.minor))
        assert devs[-1] <= grid.error_bound + exact.error
    assert devs[-1] < devs[0]


def test_exact_cauchy_schwarz_matches_grid(table_1e5):
    """Criterion 7's d_2 configuration: bound_17 from the exact masses
    against the grid cauchy_schwarz_bound, within its quadrature error."""
    from apvar.pipeline import (ExperimentConfig, cauchy_schwarz_bound,
                                resolve_params)
    from apvar.windows import build_tilde_sequence, build_weights, build_window

    n = 10**5
    seq = Sequence(table_1e5.dk[2].astype(float), is_integer_valued=True)
    cfg = ExperimentConfig(experiment="theorem2", n=n, q_exp=0.8, k=2)
    params = resolve_params(cfg)
    tilde = build_tilde_sequence(
        n, build_weights("divisor_k", int(params.r), k=2),
        build_window(cfg.epsilon))
    spec_a = build_spectrum(seq)
    grid = cauchy_schwarz_bound(seq, tilde, params, spec_a,
                                build_spectrum(tilde, spec_a.t_grid))
    masses = arc_masses(params, seq, tilde)
    bound_17 = masses.cross.minor**2 / masses.tilde.minor
    assert abs(bound_17 - grid.bound_17) <= grid.quadrature_error
    assert abs(masses.a.minor - grid.minor_a) <= grid.quadrature_error


def test_overlapping_arcs_rejected():
    seq = Sequence.from_coeffs(np.ones(600))
    overlapping = ArcSystem(k_param=6.0, q0=2.0, q=100.0, n=600)
    with pytest.raises(ValueError, match="K=6.*Q0=2.*Q=100"):
        arc_masses(overlapping, seq)
    # One arc, about 0, wider than 1/2.
    wide = ArcSystem(k_param=5.0, q0=0.2, q=10.0, n=600)
    with pytest.raises(ValueError):
        arc_masses(wide, seq)
