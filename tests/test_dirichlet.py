"""Euler products, contour residues, and the explicit polynomial."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvar import dirichlet as dr
from apvar.arith import gamma, is_squarefree, ramanujan_row, totient
from oracles import dk_correlation_residue, local_factor_closed_form, \
    partial_dirichlet_sum, triple_contour_polynomial, zeta_mpmath

EULER_GAMMA = dr.EULER_GAMMA


def test_zeta_against_mpmath():
    for s in (2.0, 1.5, 1.1, 0.8, 1.0 + 0.5j, 0.9 - 0.3j, 3.7):
        assert dr.zeta_near_one(s) == pytest.approx(zeta_mpmath(s), abs=1e-11)
    with pytest.raises(ZeroDivisionError):
        dr.zeta_near_one(1.0)


def test_zeta_vectorized():
    s = np.array([2.0, 1.5 + 0.2j, 0.9])
    vals = dr.zeta_near_one(s)
    assert vals[0] == pytest.approx(math.pi**2 / 6, rel=1e-12)
    assert vals[1] == pytest.approx(zeta_mpmath(1.5 + 0.2j), abs=1e-11)


def test_euler_F_q_squarefree_closed_form():
    for q in (1, 2, 3, 6, 30):
        for k in (2, 3, 4):
            exact = dr.squarefree_F_q_exact(q, k)
            num = dr.euler_F_q(q, k, 1.0)
            assert num.real == pytest.approx(float(exact), rel=1e-12)
            assert abs(num.imag) < 1e-12


def test_euler_products_vs_partial_sums(table_1e5):
    # zeta(s)^k F_q(s) = sum d_k(n) c_q(n) / n^s, checked at s = 2.
    x = table_1e5.n
    for k in (2, 3):
        dk = table_1e5.dk[k].astype(np.float64)
        for q in (1, 4, 6, 9):
            row = np.zeros(x + 1)
            row[1:] = ramanujan_row(q, x)
            direct = partial_dirichlet_sum(dk * row, 2.0)
            pred = (dr.zeta_near_one(2.0) ** k * dr.euler_F_q(q, k, 2.0)).real
            # partial-sum tail is ~ phi(q) log^2(x)/x in the worst case
            tol = 20 * totient(q) * math.log(x) ** 2 / x
            assert direct == pytest.approx(pred, abs=tol)
    # zeta(s)^(k-1) G_q(s) = sum over multiples of q of d_{k-1}(n)/n^s.
    d2 = table_1e5.dk[2].astype(np.float64)
    for q in (1, 3, 4, 12):
        mult = np.zeros(x + 1)
        mult[q::q] = d2[q::q]
        direct = partial_dirichlet_sum(mult, 2.0)
        pred = (dr.zeta_near_one(2.0) ** 2 * dr.euler_G_q(q, 3, 2.0)).real
        assert direct == pytest.approx(pred, abs=20 * math.log(x) ** 2 / x)


def _rounding_bound(p, a, k, s, g):
    """The rounding bound of dirichlet._local_factor's docstring at each s."""
    u = 2.0**-53
    j = k - 1 if g else k
    m = a + j - 1
    log_p = math.log(p)
    ax, ay = np.abs(p ** (-s)), np.abs(1.0 - p ** (-s))
    e_x = (3 * np.abs(s) * log_p + 8) * u
    e = np.maximum(e_x, e_x * ax / ay + u)
    t = sum(math.comb(m, i) * ay**i * ax ** (m - i) for i in range(j))
    if not g:
        e = np.maximum(e, (6 * (a - 1) * np.abs(s - 1.0) * log_p + 8) * u)
        t = (math.comb(a + k - 2, k - 1) * p ** ((a - 1) * (1.0 - s.real))
             * ay**k + totient(p**a) * t)
    return np.expm1((a + j) * np.log1p(e) + (a + j + 1) * math.log1p(3 * u)
                    + math.log1p(gamma(j))) * t


def test_local_factors_within_rounding_bound():
    """F and G local factors against their mpmath closed forms, within the
    rounding bound of _local_factor's docstring: on the 48-node contours
    for N = 29 366 and 10^7, k = 2..4, a <= 8 and small and large primes
    up to 389, and at s = 0.05 and -0.5, where the inner series converges
    slowly or not at all but the finite form still holds."""
    import mpmath as mp

    contours = [dr.contour_nodes(1.0, 1.0 / math.log(n), 48)[0]
                for n in (29366, 10**7)]
    s = np.concatenate(contours + [np.array([0.05, -0.5 + 0j])])
    ms = [mp.mpc(z) for z in s]
    for p in (2, 3, 5, 7, 11, 101, 389):
        for a in range(1, 9):
            for k in (2, 3, 4):
                for g in (False, True):
                    got = dr.euler_factors([p**a], k, s, g)[0]
                    with mp.workdps(60):
                        exact = np.array([complex(local_factor_closed_form(
                            p, a, k, z, g)) for z in ms])
                    assert np.all(np.abs(got - exact)
                                  <= _rounding_bound(p, a, k, s, g)), \
                        (p, a, k, g)


def test_residue_dk_correlation_oracle(table_1e5):
    n = table_1e5.n
    d2 = table_1e5.dk[2]
    # q = 1: the classical divisor asymptotic N(log N + 2 gamma - 1)
    pred = dr.residue_dk_correlation(1, 2, n)
    assert pred.value == pytest.approx(
        n * (math.log(n) + 2 * EULER_GAMMA - 1), rel=1e-10)
    assert pred.value == pytest.approx(float(d2[1:].sum()), rel=1e-3)
    # q = 6: against the true correlation
    row = np.zeros(n + 1)
    row[1:] = ramanujan_row(6, n)
    direct = float(np.dot(d2, row))
    assert dr.residue_dk_correlation(6, 2, n).value == pytest.approx(
        direct, rel=5e-3)


def test_residues_match_laurent_oracle():
    """Every batched row within its stated error (plus 1e-10 relative) of
    the Stieltjes-constant Laurent product with closed-form factors, for
    q <= 60 and for high prime powers and their multiples up to 400."""
    n = 10**6
    qs = list(range(1, 61)) + [64, 81, 125, 128, 243, 256, 289, 343, 360,
                               361, 375, 384, 392, 400]
    for k in (2, 3):
        for q, pred in zip(qs, dr.residues(qs, k, n)):
            oracle = dk_correlation_residue(q, k, n)
            assert abs(pred.value - oracle) <= pred.error + 1e-10 * abs(oracle), \
                (q, k)


def test_batched_residues_equal_single_calls():
    qs = list(range(1, 121))
    random.Random(11).shuffle(qs)
    single = [dr.residue_dk_correlation(q, 3, 10**6) for q in qs]
    assert dr.residues(qs, 3, 10**6) == single


def test_residues_reject_contour_around_zero():
    """For n <= e the circle |s - 1| = 1/log n encloses s = 0, the pole of
    n^s/s (at n = 2 the contour would add zeta(0)^2 = 1/4 to the
    residue); at n = 3 it passes 0.09 from it, closer than 128 nodes
    resolve.  The engine refuses n < e^(4/3) before any work, naming n;
    n = 4 keeps 1/4 from s = 0."""
    for n in (2, 2.5, math.e, 3, 3.7):
        with pytest.raises(ValueError, match=f"n={n}"):
            dr.residues([1, 6], 2, n)
    with pytest.raises(ValueError, match="n=2"):
        dr.residue_dk_correlation(1, 2, 2)
    for n in (4, 10):
        pred = dr.residue_dk_correlation(1, 2, n)
        assert pred.value == pytest.approx(
            n * (math.log(n) + 2 * EULER_GAMMA - 1), rel=1e-10)
    for k in (2, 3, 4, 5):   # 64 and 128 nodes agree: no TruncationError
        dr.residues([1, 2, 3, 4], k, 4)


def test_local_factor_on_first_ending_contour():
    """On the first-ending chain's contour (k = 3, N = 29 366, 48 nodes)
    the p = 2 factor is within 1e-14 relative of its mpmath closed form."""
    import mpmath as mp

    s, _ = dr.contour_nodes(1.0, 1.0 / math.log(29366), 48)
    with mp.workdps(30):
        closed = np.array([complex(local_factor_closed_form(2, 1, 3, mp.mpc(x)))
                           for x in s])
    assert np.max(np.abs(dr.euler_F_q(2, 3, s) / closed - 1.0)) <= 1e-14


def test_residue_divisor_mean_oracle():
    x = 10**5
    pred = dr.residue_divisor_mean(1, 2, x)
    assert pred.value == pytest.approx(math.log(x) + EULER_GAMMA, rel=1e-10)
    direct = float(np.sum(1.0 / np.arange(3, x + 1, 3)))
    assert dr.residue_divisor_mean(3, 2, x).value == pytest.approx(
        direct, rel=1e-4)


def test_windowed_prediction(window, table_1e5):
    from apvar.pipeline import bulk_residue_predictions

    n = table_1e5.n
    d2 = table_1e5.dk[2].astype(np.float64)
    ns = np.arange(n + 1)
    direct = float(np.sum(d2 * window.phi(ns / n)))
    pred, = bulk_residue_predictions([1], 2, n, window)
    assert pred == pytest.approx(direct, rel=1e-3)


def test_singular_constant():
    prod, c2, tail = dr.singular_constant(2, 10**5)
    assert c2 == pytest.approx(1 / math.pi**2, rel=1e-4)
    assert tail < 1e-3
    prod3, c3, _ = dr.singular_constant(3, 10**4)
    assert c3 > 0
    with pytest.raises(ValueError):
        dr.singular_constant(2, 10)


def test_leading_coefficients_exact():
    for k in (2, 3, 4, 5):
        assert dr.leading_coeff_69(k) == dr.leading_coeff_closed_form(k)
    assert dr.leading_coeff_69(2) == Fraction(-1, 3)


@given(st.integers(2, 4), st.floats(8.0, 15.0), st.floats(0.35, 0.95),
       st.floats(0.2, 0.9))
@settings(max_examples=20, deadline=None)
def test_polynomial_matches_triple_contour(k, log_n, alpha, beta):
    log_r = alpha * log_n
    log_kq0 = beta * log_r
    closed = dr.polynomial_69(k, log_n, log_r, log_kq0)
    oracle = triple_contour_polynomial(k, log_n, log_r, log_kq0)
    assert closed == pytest.approx(oracle, rel=1e-6, abs=1e-9)


def test_choose_R_chebyshev():
    r, val = dr.choose_R_chebyshev(2, 10**5, 10.0, 10**4, 8.0, 0.02)
    # bit for bit the R and value of the former per-alpha scalar scan
    assert (float(r), val) == (12.589254117941673, 6.8076006734587295)
    log_n = math.log(10**5)
    assert 10.0 * (10**5) ** 0.02 * (1 - 1e-12) <= r <= 10**4
    assert val == pytest.approx(
        dr.polynomial_69(2, log_n, math.log(r), math.log(80.0)), rel=1e-12)
    with pytest.raises(ValueError):
        dr.choose_R_chebyshev(2, 10**5, 5000.0, 10**4, 8.0, 0.1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_polynomial_69_array_matches_scalar(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        log_n = rng.uniform(1.2, 20.0)
        log_kq0 = rng.uniform(0.05, 0.95) * log_n
        log_r = rng.uniform(0.01, 1.0, 64) * log_n
        got = dr.polynomial_69(k, log_n, log_r, log_kq0)
        expect = [dr.polynomial_69(k, log_n, float(v), log_kq0)
                  for v in log_r]
        assert got.tobytes() == np.array(expect).tobytes()
    with pytest.raises(ValueError):
        dr.polynomial_69(k, 10.0, np.array([5.0, 10.5]), 1.0)


def test_Fq1_bound_exact_small():
    for q in range(1, 200):
        if is_squarefree(q):
            for k in (2, 3, 4):
                assert dr.check_Fq1_bound(q, k)


def test_residue_ramdkeval():
    assert dr.f_q_value(2, 2) == pytest.approx(-2 * math.log(2), rel=1e-12)
    # f_q(1) = (log F_q)'(1): a central difference of log F_q
    h = 1e-4
    fd = (math.log(dr.euler_F_q(6, 3, 1 + h).real)
          - math.log(dr.euler_F_q(6, 3, 1 - h).real)) / (2 * h)
    assert dr.f_q_value(6, 3) == pytest.approx(fd, abs=1e-6)
    n = 10**5
    res = dr.residue_ramdkeval(6, 2, n, 0.1)
    assert res.value > 0
    assert res.ratio == pytest.approx(1.0, abs=0.25)
    with pytest.raises(ValueError):
        dr.residue_ramdkeval(4, 2, n, 0.1)      # not squarefree
    with pytest.raises(ValueError):
        dr.residue_ramdkeval(9973, 2, n, 0.1)   # too large / not smooth


def test_bernoulli_values():
    b = dr._bernoulli_even()
    assert b[0] == pytest.approx(1 / 6)
    assert b[1] == pytest.approx(-1 / 30)
    assert b[2] == pytest.approx(1 / 42)
