"""Smooth window, tabulated transform, and sieve-weight calibrations."""

import math

import numpy as np
import pytest

from apvar.arith import (Sequence, d_k_of, is_squarefree, mobius, sieve_all,
                         totient)
from apvar.windows import (build_tilde_sequence, build_weights, build_window,
                           check_lemma5, check_lemma_major, weight_sum_q)


def test_plateau_shape(window):
    assert window.phi(0.5) == 1.0
    assert window.phi(0.05) == 1.0 and window.phi(0.95) == 1.0
    assert window.phi(0.0) == 0.0 and window.phi(1.0) == 0.0
    assert 0.0 < window.phi(0.01) < 1.0
    t = np.linspace(0, 1, 1001)
    vals = window.phi(t)
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert 0.94 < window.phi_int <= 1.0
    assert window.phi_sq_int <= window.phi_int


def test_phi_hat_table_vs_quadrature(window):
    for xi in (0.0, 0.5, 1.7, 9.3, 55.5, 200.0):
        assert window.phi_hat(xi) == pytest.approx(
            window.phi_hat_quad(xi), abs=2e-9)
    # conjugate symmetry and cutoff
    assert window.phi_hat(-3.2) == pytest.approx(
        np.conj(window.phi_hat(3.2)), abs=1e-12)
    assert window.phi_hat(window.xi_max + 1) == 0


def test_phi_hat_zero_is_mass(window):
    assert window.phi_hat(0.0).real == pytest.approx(window.phi_int, abs=1e-10)


def test_decay_constants_certify_decay(window):
    xi = np.linspace(0, window.xi_max, 4001)
    mags = np.abs(window.phi_hat(xi))
    for a, c in window.decay_constants.items():
        assert np.all(mags <= c * (1 + xi) ** (-a) + 1e-15)


def test_mellin_at_one(window):
    assert window.mellin(1.0) == pytest.approx(window.phi_int, rel=1e-9)
    # Mellin at 2 equals integral of t Phi(t)
    t = (np.arange(1 << 16) + 0.5) / (1 << 16)
    direct = float(np.mean(t * window.phi(t)))
    assert window.mellin(2.0) == pytest.approx(direct, rel=1e-9)


def test_prime_weights_formula():
    w = build_weights("prime_sieve", 50)
    assert w.b[1] == pytest.approx(math.log(50))
    assert w.b[4] == 0.0
    assert w.b[6] == pytest.approx(math.log(50 / 6))
    assert w.b[30] == pytest.approx(-math.log(50 / 30))
    assert w.bound == pytest.approx(math.log(50))
    # large R, once sieved by a separate path
    big = build_weights("prime_sieve", 5000)
    for r in (1, 2, 6, 30, 49, 4999):
        expect = mobius(r) * math.log(5000 / r)
        assert big.b[r] == pytest.approx(expect, abs=1e-12)


def test_divisor_weights_formula():
    w2 = build_weights("divisor_k", 30, k=2)
    assert np.all(w2.b[1:] == 1.0)
    w3 = build_weights("divisor_k", 30, k=3)
    assert [w3.b[r] for r in (1, 2, 4, 12)] == [1, 2, 3, 6]
    big = build_weights("divisor_k", 5000, k=3)
    assert big.b[4999] == d_k_of(2, 4999)
    with pytest.raises(ValueError):
        build_weights("divisor_k", 30)


@pytest.mark.parametrize("r_max", [100, 2000, 2001, 5000])
def test_weights_bit_identical_to_scalar_formulas(r_max, tmp_path,
                                                  monkeypatch):
    """One path per kind at every R: bit for bit the per-r mobius and
    d_k_of values, and no sieve table is written to the cache."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    r = np.arange(1, r_max + 1, dtype=np.float64)
    mu = np.array([mobius(m) for m in range(1, r_max + 1)])
    expect = np.concatenate([[0.0], mu * np.log(r_max / r)])
    got = build_weights("prime_sieve", r_max).b
    assert got.tobytes() == expect.tobytes()
    for k in (2, 3, 4):
        expect = np.array([0.0] + [float(d_k_of(k - 1, m))
                                   for m in range(1, r_max + 1)])
        got = build_weights("divisor_k", r_max, k=k).b
        assert got.tobytes() == expect.tobytes(), k
    assert not any(tmp_path.iterdir())


def test_tilde_sequence_bruteforce(window):
    n = 120
    w = build_weights("prime_sieve", 12)
    tilde = build_tilde_sequence(n, w, window)
    for m in (1, 7, 12, 60, 119):
        expect = window.phi(m / n) * sum(
            w.b[r] for r in range(1, 13) if m % r == 0)
        assert tilde.values[m] == pytest.approx(expect, rel=1e-12)


def test_weight_sum_q(window):
    w = build_weights("prime_sieve", 100)
    for q in (1, 3, 10, 100):
        direct = sum(w.b[r] / r for r in range(q, 101, q))
        assert weight_sum_q(w, q) == pytest.approx(direct, rel=1e-12)
    assert weight_sum_q(w, 101) == 0.0


def test_weight_sum_calibration_5_4(window):
    # weight_sum_q approaches mu(q)/phi(q) as R grows
    for q in (1, 2, 3, 6, 10, 15, 30):
        devs = []
        for r_max in (10**3, 10**4, 10**5):
            w = build_weights("prime_sieve", r_max)
            devs.append(abs(weight_sum_q(w, q) - mobius(q) / totient(q)))
        assert devs[2] < devs[0]


def test_lemma_major_approximation(window, table_1e4):
    n = 10**4
    seq = Sequence(table_1e4.lam[: n + 1].copy(), name="lambda")
    w = build_weights("prime_sieve", 40)
    tilde = build_tilde_sequence(n, w, window)
    for (a, q) in ((1, 1), (1, 3), (2, 5)):
        beta = 1.0 / (4 * q * 40)
        lhs, rhs, ratio = check_lemma_major(tilde, w, window, a, q, beta)
        assert ratio < 1.0  # error within the B R log N shape
    with pytest.raises(ValueError):
        check_lemma_major(tilde, w, window, 2, 4, 0.0)


def test_lemma5_rearrangement(window, table_1e4):
    n = 2000
    seq = Sequence(table_1e4.lam[: n + 1].copy(), name="lambda")
    w = build_weights("prime_sieve", 50)
    lhs, rhs, resid = check_lemma5(seq, w, window)
    assert resid < 1e-10
    d2 = Sequence(table_1e4.dk[2][: n + 1].astype(float),
                  is_integer_valued=True, name="d2")
    wd = build_weights("divisor_k", 50, k=3)
    _, _, resid2 = check_lemma5(d2, wd, window)
    assert resid2 < 1e-10


def test_window_eps_validation():
    with pytest.raises(ValueError):
        build_window(0.3)
    with pytest.raises(ValueError):
        build_window(0.0)
