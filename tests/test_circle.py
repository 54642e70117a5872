"""Spectra, arc dissection, certified grid integrals and exact arc masses."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apvar.arith import (CapacityError, LagSpectra, Sequence, UNIT_ROUNDOFF,
                         gamma)
from apvar.circle import (ArcSystem, LagWeights, arc_masses, build_spectrum,
                          default_grid_size, lag_kernel, major_mask,
                          major_weights, minor_arc_integral)

from oracles import (eval_exp_sum, farey_denominators, farey_density_f,
                     farey_min_on_minor, farey_weights_direct, is_major,
                     lag_correlation_direct)


def small_arcs():
    return ArcSystem(k_param=6.0, q0=2.0, q=300.0)


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
    assert spec.power.mean() == pytest.approx(seq.l2(), rel=1e-12)


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
    arcs = small_arcs()
    res = minor_arc_integral(spec, arcs)
    assert res.value + res.major_value == pytest.approx(spec.power.mean(),
                                                        rel=1e-12)
    # certified against the exact Parseval complement
    assert abs(res.value - res.complement_value) <= res.error_bound


def test_farey_density_floor():
    # f(alpha) >= (2K/Q0)(1 - 5/K - log K / K) at sampled points
    arcs = ArcSystem(k_param=8.0, q0=5.0, q=500.0)
    floor = (2 * arcs.k_param / arcs.q0) * (
        1 - 5 / arcs.k_param - math.log(arcs.k_param) / arcs.k_param)
    for alpha in (0.0, 0.1234, 0.5, 0.381966, 0.7071):
        assert farey_density_f(alpha, arcs) >= floor


@pytest.mark.parametrize("q, k_param, ratio", [
    (800, 5.0, 0.789), (1500, 6.0, 0.819), (2000, 8.0, 0.857)])
def test_farey_floor_on_all_minor_arcs(q, k_param, ratio):
    """The paper's floor f >= (2K/Q0)(1 - (5 + log K)/K) on all of the
    minor arcs at Q0 = Q/(4K^2), through the sweep's minimum of f there
    (farey_min_on_minor), which is ratio times 2K/Q0; f at random minor
    points (farey_density_f) is never below that minimum."""
    arcs = ArcSystem(k_param=k_param, q0=q / (4 * k_param**2), q=float(q))
    scale = 2 * k_param / arcs.q0
    minimum, alpha = farey_min_on_minor(arcs)
    assert not is_major(alpha, arcs)[0]
    assert minimum >= scale * (1 - (5 + math.log(k_param)) / k_param)
    assert round(minimum / scale, 3) == ratio
    points = np.random.default_rng(q).random(400)
    minor = [a for a in points.tolist() if not is_major(a, arcs)[0]]
    assert len(minor) > 100
    assert all(farey_density_f(a, arcs) >= minimum for a in minor)


def test_farey_enumeration_cap():
    arcs = ArcSystem(k_param=8.0, q0=5.0, q=50000.0)
    with pytest.raises(CapacityError):
        farey_density_f(0.5, arcs)


def test_regime_departures():
    """Each of the paper's three windows is reported once the point
    leaves it, with K's open upper end as None, and nothing inside."""
    from apvar.pipeline import ResolvedParams

    assert ResolvedParams(k_param=5.0, q0=6.0, q=300.0,
                          n=300).regime_departures() == []
    nlogn = 100 * math.log(100)
    departures = ResolvedParams(k_param=3.0, q0=1.0, q=50.0,
                                n=100).regime_departures()
    assert departures == [
        {"name": "K", "value": 3.0, "window": [5.0, None]},
        {"name": "Q0", "value": 1.0, "window": [nlogn / 50.0, 50.0 / 9.0]},
        {"name": "Q", "value": 50.0, "window": [3.0 * math.sqrt(nlogn), 100]},
    ]
    json.dumps(departures, allow_nan=False)   # an open end is None, not inf
    # Q0 above Q/K^2 alone; then Q above N alone.
    assert ResolvedParams(k_param=5.0, q0=13.0, q=300.0,
                          n=300).regime_departures() == [
        {"name": "Q0", "value": 13.0,
         "window": [300 * math.log(300) / 300.0, 12.0]}]
    assert ResolvedParams(k_param=5.0, q0=6.0, q=301.0,
                          n=300).regime_departures() == [
        {"name": "Q", "value": 301.0,
         "window": [5.0 * math.sqrt(300 * math.log(300)), 300]}]


# ---------------------------------------------------------------------------
# Exact arc masses


def major_intervals(arcs):
    """The major arcs of `arcs` as direct_major's list: (q, K/(qQ), 1.0)
    for q <= KQ0."""
    return [(q, arcs.k_param / (q * arcs.q), 1.0)
            for q in range(1, arcs.kq0 + 1)]


def direct_major(a, b, intervals):
    """(value, rounding bound) of the integral of A conj(B) against the
    intervals |alpha - r/q| <= d_q over the reduced r mod q, each weighted
    v_q, for the (q, d_q, v_q) in `intervals` (major_intervals, or
    oracles.farey_denominators for f): the direct double sum over n, m
    and the reduced r/q of v_q w_q(n - m) e((n - m) r/q),
    w_q(h) = sin(2 pi h d_q)/(pi h), w_q(0) = 2 d_q: no FFT and no
    Ramanujan sums.  The pairs (n, m) are grouped by h = n - m,
    x(h) = sum_m a_{m+h} b_m by fsum, and e(.) is summed over r and q - r
    together as a cosine.

    Bound: x(h) is within 2u X(h), X(h) = sum_m |a_{m+h} b_m|; the sine's
    argument carries gamma_5 and the cosine's gamma_4 (on at most 2 pi),
    each trig value 4 ulp (8u), the quotient and the products gamma_5, so
    a term is within v_q X(h) (2 d_q gamma_50 + 8u/(pi |h|)); the final
    fsum adds u |value|.  The sum is doubled for the bound's own rounding.
    """
    n = a.size - 1
    hs = np.arange(-(n - 1), n)
    x = np.array([math.fsum(a[1 + h:] * b[1:n + 1 - h]) if h >= 0 else
                  math.fsum(a[1:n + 1 + h] * b[1 - h:]) for h in hs])
    x_abs = np.array([np.abs(a[1 + h:] * b[1:n + 1 - h]).sum() if h >= 0
                      else np.abs(a[1:n + 1 + h] * b[1 - h:]).sum()
                      for h in hs])
    safe = np.where(hs == 0, 1, hs)
    terms, bound = [], 0.0
    for q, d, weight in intervals:
        w = np.where(hs == 0, 2 * d,
                     np.sin(2 * np.pi * hs * d) / (np.pi * safe))
        per_term = x_abs * (2 * d * gamma(50)
                            + np.where(hs == 0, 0.0, 8 * UNIT_ROUNDOFF
                                       / (np.pi * np.abs(safe))))
        rs = np.array([r for r in range(q) if math.gcd(r, q) == 1])
        cos = np.cos(2 * np.pi * (np.outer(rs, hs) % q) / q)
        terms.append((weight * x * w * cos).ravel())
        bound += weight * rs.size * float(per_term.sum())
    value = math.fsum(np.concatenate(terms)) if terms else 0.0
    return value, 2.0 * (bound + UNIT_ROUNDOFF * abs(value))


def disjoint_arcs():
    # K >= 5, N log N / Q <= Q0 <= Q/K^2, Q > K (2 KQ0 - 1): the paper's
    # regime, with disjoint arcs.
    return ArcSystem(k_param=5.0, q0=6.0, q=300.0)


def check_against_direct(arcs, a, b, mass):
    value, bound = direct_major(a.values, b.values, major_intervals(arcs))
    assert abs(mass.major - value) <= mass.error + bound
    assert mass.major + mass.minor == pytest.approx(mass.total, abs=mass.error)
    assert mass.total == pytest.approx(float(np.dot(a.values, b.values)),
                                       rel=1e-12)


def test_arc_masses_match_direct_double_sum(rng, table_300, window):
    from apvar.windows import build_tilde_sequence, build_weights

    arcs = disjoint_arcs()
    floats = Sequence.from_coeffs(rng.standard_normal(300))
    d2 = Sequence(table_300.dk[2])
    tilde = build_tilde_sequence(300, build_weights("prime_sieve", 12), window)
    kernel = lag_kernel(major_weights(arcs, 300))
    check_against_direct(arcs, floats, floats,
                         arc_masses(kernel, LagSpectra([floats])).a)
    exact = arc_masses(kernel, LagSpectra([d2])).a
    check_against_direct(arcs, d2, d2, exact)
    pair = arc_masses(kernel, LagSpectra([d2, tilde]))
    check_against_direct(arcs, tilde, tilde, pair.tilde)
    check_against_direct(arcs, d2, tilde, pair.cross)
    assert pair.a.major == pytest.approx(exact.major, abs=exact.error)
    # The exact integer lags leave only the kernel's summation error.
    assert exact.error < 1e-9 * exact.major


def test_arc_masses_leave_spectra_unchanged(rng, table_300):
    """arc_masses reads the spectra it is given and changes none of them,
    on a float sequence and on an integer one (whose autocorrelation is
    the exact int64 row): the autocorrelation released after it is a
    fresh object's bit for bit, within its bound of np.correlate, and
    its masses are those of its own spectra."""
    arcs = disjoint_arcs()
    floats = Sequence.from_coeffs(rng.standard_normal(300))
    d2 = Sequence(table_300.dk[2])
    for seq, dtype in ((floats, np.float64), (d2, np.int64)):
        spectra = LagSpectra([seq])
        copies = [x.copy() for x in spectra.spectra]
        mass = arc_masses(lag_kernel(major_weights(arcs, 300)), spectra).a
        assert all(np.array_equal(x, y)
                   for x, y in zip(spectra.spectra, copies))
        after = spectra.release(0)
        assert after.rho.dtype == dtype
        fresh = LagSpectra([seq]).release(0)
        assert after.rho.tobytes() == fresh.rho.tobytes()
        ref, ref_error = lag_correlation_direct(seq.values, seq.values)
        assert np.all(np.abs(after.rho - ref) <= after.error + ref_error)
        assert mass == arc_masses(lag_kernel(major_weights(arcs, 300)),
                                  LagSpectra([seq])).a


def test_arc_masses_without_major_arcs():
    """KQ0 = 0 leaves no major arc: major is 0.0, minor is the total, and
    the error is 2 (eps + u |total|), eps the pair bound of the spectra."""
    seq = Sequence.from_coeffs(np.array([1.0, -2.0, 3.0]))
    arcs = ArcSystem(k_param=0.5, q0=1.0, q=10.0)
    assert arcs.kq0 == 0
    eps = LagSpectra([seq]).error(0, 0)
    assert eps > 0
    mass = arc_masses(lag_kernel(major_weights(arcs, seq.n)),
                      LagSpectra([seq])).a
    assert mass.major == 0.0
    assert mass.minor == mass.total
    assert mass.error == 2.0 * (eps + UNIT_ROUNDOFF * abs(mass.total))


def test_arc_masses_within_their_bound_on_dyadic_sequences():
    """Dyadic sequences a_n = k_n / 2^10, |k_n| < 2^10, at small N, where
    the transform is shortest and the bound tightest, with no major arc
    (W = 0): the total and the minor mass lie within the mass's `error`
    of the exact sum of k_n^2 / 2^20, with no reference bound added, and
    the major mass is 0."""
    from fractions import Fraction

    rng = np.random.default_rng(10)
    arcs = ArcSystem(k_param=0.5, q0=1.0, q=10.0)
    for n in (1, 2, 4, 8):
        kernel = lag_kernel(major_weights(arcs, n))
        for k in rng.integers(-1023, 1024, (100, n)):
            seq = Sequence.from_coeffs(k / 2.0**10)
            mass = arc_masses(kernel, LagSpectra([seq])).a
            exact = Fraction(int(k @ k), 2**20)
            assert mass.major == 0.0
            for value in (mass.total, mass.minor):
                assert abs(Fraction(value) - exact) <= Fraction(mass.error)


@pytest.mark.parametrize("n, arcs", [
    (200, ArcSystem(k_param=5.0, q0=3.0, q=400.0)),
    # M = 450: 137 squarefree m in (225, 450] share D = 1, so that group
    # joins the row in two products.
    (300, ArcSystem(k_param=5.0, q0=90.0, q=4600.0)),
])
def test_major_weights_match_direct_kernel(n, arcs):
    """Every W(h), h >= 1, against the direct kernel
    sum_{q <= M} 2 c_q(h) sin(2 pi h d_q)/(pi h), and W(0) against
    sum_q 2 d_q phi(q), d_q = K/(qQ): the summed deviation within W's
    own bound plus the direct loop's rounding."""
    from apvar.arith import ramanujan_sum, totient
    from apvar.circle import major_weights

    weights = major_weights(arcs, n)
    m_max = arcs.kq0
    d = [0.0] + [arcs.k_param / (q * arcs.q) for q in range(1, m_max + 1)]
    devs, slacks = [], []
    zero = math.fsum(2 * d[q] * totient(q) for q in range(1, m_max + 1))
    devs.append(abs(weights.w[0] - zero))
    slacks.append(gamma(5) * zero)
    for h in range(1, n + 1):
        parts = [2 * ramanujan_sum(q, h) * math.sin(2 * math.pi * h * d[q])
                 / (math.pi * h) for q in range(1, m_max + 1)]
        direct = math.fsum(parts)
        devs.append(abs(weights.w[h] - direct))
        # Arguments within gamma_5 relative, sines 4 ulp, products and
        # the quotient gamma_4, then one fsum.
        slacks.append(math.fsum(
            2 * abs(ramanujan_sum(q, h)) * (2 * math.pi * h * d[q] * gamma(5)
                                            + 8 * UNIT_ROUNDOFF)
            / (math.pi * h) for q in range(1, m_max + 1))
            + gamma(4) * math.fsum(map(abs, parts))
            + UNIT_ROUNDOFF * abs(direct))
    assert weights.error > 0
    assert math.fsum(devs) <= weights.error + math.fsum(slacks)


def test_spectral_major_matches_lag_dot(rng, table_300, window):
    """Each pair's spectral weighted mass against the lag-domain dot
    <rho, W> within both bounds, rho from LagSpectra.release for a float
    row and an exact int64 row and from np.correlate for the cross row
    (lag_correlation_direct), so that the cross mass's bound, which reads
    LagSpectra.error(0, 1), is checked too: for the major-arc weights and
    for f's (farey_weights_direct), whose kernel lag_kernel builds by the
    same route."""
    from apvar.windows import build_tilde_sequence, build_weights

    arcs = disjoint_arcs()
    floats = Sequence.from_coeffs(rng.standard_normal(300))
    d2 = Sequence(table_300.dk[2])
    tilde = build_tilde_sequence(300, build_weights("prime_sieve", 12), window)
    cases = [(floats, None, "a", (0, 0), False),
             (d2, tilde, "a", (0, 0), True),
             (d2, tilde, "tilde", (1, 1), False),
             (d2, tilde, "cross", (0, 1), None)]
    farey = farey_weights_direct(300, arcs.q, arcs.q0, arcs.k_param).w
    for weights in (major_weights(arcs, 300), LagWeights(farey, 0.0)):
        kernel = lag_kernel(weights)
        l1 = math.fsum(np.abs(weights.w))
        for seq, aux, name, pair, exact in cases:
            seqs = [seq] if aux is None else [seq, aux]
            a, b = seqs[pair[0]].values, seqs[pair[1]].values
            if exact is None:
                rho, rho_error = lag_correlation_direct(a, b)
            else:
                corr = LagSpectra(seqs).release(pair[0])
                assert corr.exact == exact
                rho, rho_error = corr.rho.astype(np.float64), corr.error
            terms = rho * weights.w
            lag_dot = math.fsum(terms)
            ab = math.sqrt(float(a @ a) * float(b @ b))
            lag_bound = (rho_error * l1 + (ab + rho_error) * weights.error
                         + 2 * UNIT_ROUNDOFF * math.fsum(np.abs(terms)))
            mass = getattr(arc_masses(kernel, LagSpectra(seqs)), name)
            assert abs(mass.major - lag_dot) <= mass.error + lag_bound


def test_farey_mass_matches_direct_intervals(rng):
    """f's weighted mass of |A|^2 through lag_kernel and arc_masses
    against the direct double sum over f's intervals (direct_major), for
    random float sequences and points: within the mass's error, which
    carries the weights' own bound, plus the direct sum's."""
    for _ in range(12):
        n = int(rng.integers(1, 301))
        q = float(rng.integers(2, 121))
        q0 = float(rng.uniform(1.0, q / 2))
        k_param = float(rng.uniform(0.5, 8.0))
        seq = Sequence.from_coeffs(rng.standard_normal(n))
        weights = farey_weights_direct(n, q, q0, k_param)
        assert weights.error > 0
        mass = arc_masses(lag_kernel(weights), LagSpectra([seq])).a
        value, bound = direct_major(seq.values, seq.values,
                                    farey_denominators(q, q0, k_param))
        assert abs(mass.major - value) <= mass.error + bound
        assert mass.minor == mass.total - mass.major


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
                     q=k_param * (2 * m_top + 1))
    mass = arc_masses(lag_kernel(major_weights(arcs, seq.n)),
                      LagSpectra([seq])).a
    check_against_direct(arcs, seq, seq, mass)
    exact = mp_major(seq.values, arcs)
    assert abs(mass.major - exact) <= mass.error + UNIT_ROUNDOFF * abs(exact)


def test_grid_converges_to_exact(table_1e4):
    n = 2000
    seq = Sequence(table_1e4.dk[2][: n + 1])
    arcs = ArcSystem(k_param=5.0, q0=2.0, q=300.0)
    exact = arc_masses(lag_kernel(major_weights(arcs, n)),
                       LagSpectra([seq])).a
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
    seq = Sequence(table_1e5.dk[2])
    cfg = ExperimentConfig(experiment="theorem2", n=n, q_exp=0.8, k=2)
    params = resolve_params(cfg)
    tilde = build_tilde_sequence(
        n, build_weights("divisor_k", int(params.r), k=2),
        build_window(cfg.epsilon))
    spec_a = build_spectrum(seq)
    grid = cauchy_schwarz_bound(seq, tilde, params, spec_a,
                                build_spectrum(tilde, spec_a.t_grid))
    masses = arc_masses(lag_kernel(major_weights(params, n)),
                        LagSpectra([seq, tilde]))
    bound_17 = masses.cross.minor**2 / masses.tilde.minor
    assert abs(bound_17 - grid.bound_17) <= grid.quadrature_error
    assert abs(masses.a.minor - grid.minor_a) <= grid.quadrature_error


def test_overlapping_arcs_rejected():
    seq = Sequence.from_coeffs(np.ones(600))
    overlapping = ArcSystem(k_param=6.0, q0=2.0, q=100.0)
    with pytest.raises(ValueError, match="K=6.*Q0=2.*Q=100"):
        major_weights(overlapping, seq.n)
    # One arc, about 0, wider than 1/2.
    wide = ArcSystem(k_param=5.0, q0=0.2, q=10.0)
    with pytest.raises(ValueError):
        major_weights(wide, seq.n)


def test_arc_masses_read_their_kernel(rng):
    """arc_masses leaves its kernel unchanged, so one kernel serves any
    spectra of its N, bit for bit as a fresh one; a kernel built for
    another N (so another transform length) is a ValueError."""
    seq = Sequence.from_coeffs(rng.standard_normal(600))
    kernel = lag_kernel(major_weights(disjoint_arcs(), 600))
    values = kernel.values.copy()
    first = arc_masses(kernel, LagSpectra([seq]))
    assert kernel.values.tobytes() == values.tobytes()
    assert arc_masses(kernel, LagSpectra([seq])) == first
    assert arc_masses(lag_kernel(major_weights(disjoint_arcs(), 600)),
                      LagSpectra([seq])) == first
    with pytest.raises(ValueError, match="N=599.*N=600"):
        arc_masses(lag_kernel(major_weights(disjoint_arcs(), 599)),
                   LagSpectra([seq]))
