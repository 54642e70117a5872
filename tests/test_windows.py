"""Smooth window, its Mellin transform, and sieve-weight calibrations."""

import math

import numpy as np
import pytest

from apvar.arith import (Sequence, d_k_of, gamma, is_squarefree, mobius,
                         sieve_all, totient)
from apvar.dirichlet import contour_nodes
from apvar.windows import (_smoothstep, build_tilde_sequence, build_weights,
                           build_window, check_lemma5, weight_sum_q, windowed)

from oracles import check_lemma_major, mellin_all, mellin_order_all


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


@pytest.mark.parametrize("eps", [0.02, 0.05, 0.249])
def test_phi_plateau_is_the_formula(eps):
    """phi writes 1.0 on the plateau and runs the two smoothsteps elsewhere:
    bit for bit the full formula over both edges, the plateau, the
    plateau's ends, points outside [0, 1], NaN and infinities, on arrays
    and on scalars."""
    win = build_window(eps)
    ends = [eps, 1.0 - eps, 0.0, 1.0]
    t = np.concatenate([np.linspace(-0.5, 1.5, 20001), ends,
                        np.nextafter(ends, 0.5), np.nextafter(ends, -1.0),
                        np.nextafter(ends, 2.0), [np.nan, np.inf, -np.inf]])
    formula = _smoothstep(t / eps) * _smoothstep((1.0 - t) / eps)
    assert win.phi(t).tobytes() == formula.tobytes()
    for x, want in zip(t[::53].tolist() + t[20001:].tolist(),
                       formula[::53].tolist() + formula[20001:].tolist()):
        got = win.phi(x)
        assert isinstance(got, float) and got == want, x


def test_mellin_at_one(window):
    assert window.mellin(1.0) == pytest.approx(window.phi_int, rel=1e-9)
    # Mellin at 2 equals integral of t Phi(t)
    t = (np.arange(1 << 16) + 0.5) / (1 << 16)
    direct = float(np.mean(t * window.phi(t)))
    assert window.mellin(2.0) == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("eps", [0.02, 0.05, 0.2])
@pytest.mark.parametrize("n", [3, 10**3, 3 * 10**4, 10**7])
def test_mellin_moments_match_midpoint_sum(eps, n):
    """The log-moment series against the midpoint sum it stands for, at
    the residue contour's 48 nodes (radius 1/log N, 0.91 at N = 3): within
    the bound stated in mellin's docstring plus the direct sum's own
    rounding (a complex power within (|z log y| + 8) u <= 20u, a product
    and numpy's pairwise sum, so gamma_64 of the absolute sum)."""
    win = build_window(eps)
    m = 1 << 16
    y = (np.arange(m) + 0.5) / m
    ph = win.phi(y)
    s, _ = contour_nodes(1.0, 1.0 / math.log(n), 48)
    direct = np.array([np.sum(ph * y ** (w - 1.0)) / m for w in s])
    got = win.mellin(s)
    r = float(np.max(np.abs(s - 1.0)))
    order = win._mellin_order(r)
    mu = win._moments.upto(order)
    j = np.arange(order)
    series_abs = float(np.sum(r**j * np.abs(mu[:order])
                              / [math.factorial(i) for i in j]))
    stated = (2.0**-52 * abs(mu[0]) + gamma(13 * order + 30) * series_abs
              + ((1.0 + r) * math.exp(r) + 4 * order) * 2.0**-1074)
    own = gamma(64) * float(np.mean(ph * y**-r))
    assert np.all(np.abs(got - direct) <= stated + own)


@pytest.mark.parametrize("eps", [0.02, 0.05, 0.2])
def test_mellin_bits_equal_all_moments(eps):
    """Computing the log-moments only up to the order a call needs gives
    the order and the values of the series over all 65 moments bit for
    bit, at r = 1/log N on 48 and 128 contour nodes; the window then
    holds mu_0..mu_T and no more.  Past the certified range both raise
    the same error."""
    for n in (3 * 10**4, 10**5, 10**7):
        r = 1.0 / math.log(n)
        win = build_window(eps)
        order = win._mellin_order(r)
        assert order == mellin_order_all(win, r)
        assert len(win._moments._mu) == order + 1
        for count in (48, 128):
            s, _ = contour_nodes(1.0, r, count)
            assert win.mellin(s).tobytes() == mellin_all(win, s).tobytes()
    with pytest.raises(ValueError) as fast:
        win.mellin(6.0)
    with pytest.raises(ValueError) as full:
        mellin_all(win, 6.0)
    assert str(fast.value) == str(full.value)


def test_mellin_shape_follows_input(window):
    """A scalar w gives a complex, an array of any size, one included,
    an array of its shape with the scalar values."""
    w = 1.2 + 0.1j
    assert isinstance(window.mellin(w), complex)
    for shape in ((1,), (1, 1), (2, 3)):
        got = window.mellin(np.full(shape, w))
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert np.all(got == window.mellin(w))


def test_mellin_raises_past_certified_range(window):
    with pytest.raises(ValueError, match=r"\|w - 1\| = 5 ") as info:
        window.mellin(6.0)
    limit = float(str(info.value).split("<= ")[1].split()[0])
    assert 1.0 < limit < 5.0
    window.mellin(1.0 + 0.99 * limit)
    with pytest.raises(ValueError, match="certified range"):
        window.mellin(np.array([1.0, 1.0 - 1.01j * limit]))


def test_prime_weights_formula():
    w = build_weights("prime_sieve", 50)
    assert w[1] == pytest.approx(math.log(50))
    assert w[4] == 0.0
    assert w[6] == pytest.approx(math.log(50 / 6))
    assert w[30] == pytest.approx(-math.log(50 / 30))
    assert np.abs(w).max() == pytest.approx(math.log(50))
    # large R, once sieved by a separate path
    big = build_weights("prime_sieve", 5000)
    for r in (1, 2, 6, 30, 49, 4999):
        expect = mobius(r) * math.log(5000 / r)
        assert big[r] == pytest.approx(expect, abs=1e-12)


def test_divisor_weights_formula():
    w2 = build_weights("divisor_k", 30, k=2)
    assert np.all(w2[1:] == 1.0)
    w3 = build_weights("divisor_k", 30, k=3)
    assert [w3[r] for r in (1, 2, 4, 12)] == [1, 2, 3, 6]
    big = build_weights("divisor_k", 5000, k=3)
    assert big[4999] == d_k_of(2, 4999)
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
    expect = np.concatenate([[0.0], mu * np.log(r_max / r) + 0.0])
    got = build_weights("prime_sieve", r_max)
    assert got.tobytes() == expect.tobytes()
    for k in (2, 3, 4):
        expect = np.array([0.0] + [float(d_k_of(k - 1, m))
                                   for m in range(1, r_max + 1)])
        got = build_weights("divisor_k", r_max, k=k)
        assert got.tobytes() == expect.tobytes(), k
    assert not any(tmp_path.iterdir())


def test_tilde_sequence_bruteforce(window):
    n = 120
    w = build_weights("prime_sieve", 12)
    tilde = build_tilde_sequence(n, w, window)
    for m in (1, 7, 12, 60, 119):
        expect = window.phi(m / n) * sum(
            w[r] for r in range(1, 13) if m % r == 0)
        assert tilde.values[m] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("eps", [0.02, 0.05, 0.2, 0.249])
def test_tilde_sequence_edges_bit_identical(eps):
    """The smoothed divisor sum is bit for bit the sum times Phi at every
    point, including at N small enough for Phi's edges to meet."""
    win = build_window(eps)
    for n in (2, 3, 7, 10, 11, 97, 1000, 12345, 10**5):
        w = build_weights("prime_sieve", min(n, 12))
        expect = np.zeros(n + 1)
        for r in range(1, w.size):
            expect[r::r] += w[r]
        expect *= win.phi(np.arange(n + 1) / n)
        got = build_tilde_sequence(n, w, win).values
        assert got.tobytes() == expect.tobytes(), n


@pytest.mark.parametrize("eps", [0.02, 0.05, 0.249])
def test_windowed_bit_identical_to_full_product(eps, table_1e5):
    """windowed against the product with Phi at all N + 1 points, for
    Lambda and for a sequence of mixed signs (so a -0.0 would show)."""
    win = build_window(eps)
    rng = np.random.default_rng(5)
    for n in (29366, 10**5):
        t = np.arange(n + 1) / n
        for values in (table_1e5.lam[: n + 1], rng.standard_normal(n + 1)):
            expect = values * win.phi(t)
            expect[0] = 0.0
            got = windowed(values, win)
            assert got.tobytes() == expect.tobytes(), n


def test_windowed_computes_phi_once_per_length(monkeypatch):
    """Phi(n/N) is computed once per window and length, and only off the
    plateau: a second sequence of the same length calls phi no more."""
    win = build_window(0.05)
    phi, sizes = win.phi, []
    monkeypatch.setattr(win, "phi",
                        lambda t: sizes.append(np.size(t)) or phi(t))
    values = np.arange(10**4 + 1, dtype=np.float64)
    first = windowed(values, win)
    assert 0 < sum(sizes) < 0.11 * values.size
    calls = len(sizes)
    second = windowed(-values, win)
    assert second[1:].tobytes() == (-first[1:]).tobytes()
    assert len(sizes) == calls


def test_weight_sum_q(window):
    w = build_weights("prime_sieve", 100)
    for q in (1, 3, 10, 100):
        direct = sum(w[r] / r for r in range(q, 101, q))
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
    seq = Sequence(table_1e4.lam[: n + 1])
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
    seq = Sequence(table_1e4.lam[: n + 1])
    w = build_weights("prime_sieve", 50)
    lhs, rhs, resid = check_lemma5(seq, w, window)
    assert resid < 1e-10
    d2 = Sequence(table_1e4.dk[2][: n + 1])
    wd = build_weights("divisor_k", 50, k=3)
    _, _, resid2 = check_lemma5(d2, wd, window)
    assert resid2 < 1e-10


def test_window_eps_validation():
    with pytest.raises(ValueError):
        build_window(0.3)
    with pytest.raises(ValueError):
        build_window(0.0)
