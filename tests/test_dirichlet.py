"""Euler products, contour residues, and the explicit polynomial."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvar import dirichlet as dr
from apvar.arith import is_squarefree, ramanujan_row, totient
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


def test_truncation_guard():
    with pytest.raises(dr.TruncationError):
        dr.euler_F_q(2, 3, 0.05)


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
    the Stieltjes-constant Laurent product with closed-form factors."""
    n = 10**6
    qs = list(range(1, 61))
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


def test_local_factor_series_lengthens_to_its_tail_bound():
    """On the first-ending chain's contour (k = 3, N = 29 366, 48 nodes)
    the p = 2 series needs more than 60 terms for a 1e-14 tail."""
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
    log_n = math.log(10**5)
    assert 10.0 * (10**5) ** 0.02 * (1 - 1e-12) <= r <= 10**4
    assert val == pytest.approx(
        dr.polynomial_69(2, log_n, math.log(r), math.log(80.0)), rel=1e-12)
    with pytest.raises(ValueError):
        dr.choose_R_chebyshev(2, 10**5, 5000.0, 10**4, 8.0, 0.1)


def test_f_q_derivatives():
    assert dr.f_q_value(2, 2) == pytest.approx(-2 * math.log(2), rel=1e-12)
    # contour derivative vs a central finite difference of log F_q
    q, k = 6, 3
    ders = dr.f_q_log_derivatives(q, k, 2)
    h = 1e-4
    def logF(s):
        return math.log(dr.euler_F_q(q, k, s).real)
    fd1 = (logF(1 + h) - logF(1 - h)) / (2 * h)
    assert ders[0] == pytest.approx(fd1, abs=1e-6)
    fd2 = (logF(1 + h) - 2 * logF(1.0) + logF(1 - h)) / h**2
    assert ders[1] == pytest.approx(fd2, abs=1e-4)
    with pytest.raises(ValueError):
        dr.f_q_log_derivatives(12, 2, 1)


def test_Fq1_bound_exact_small():
    for q in range(1, 200):
        if is_squarefree(q):
            for k in (2, 3, 4):
                assert dr.check_Fq1_bound(q, k)


def test_residue_ramdkeval():
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
