"""Euler products, contour residues, and the explicit residue polynomial.

All residues come from one batched engine, `residues`: zeta and the
weight are evaluated once on a small circle around s = 1, the Euler
products of every modulus come from one table of local factors
(`euler_factors`), each a finite binomial sum in p^-s with a stated
rounding bound, and one trapezoid rule (`_trapezoid`), spectrally
accurate for these analytic integrands, checks each value against its
half-node rule.  The closed forms (the explicit double-sum polynomial,
the squarefree values F_q(1)) are separate code paths cross-validated
against the contours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (_primes_from_spf, _spf_sieve, d_k_prime_power, factorize,
                    gen_binomial, is_squarefree, totient)

EULER_GAMMA = 0.5772156649015329

# The second ending's moduli are N^(1/4)-smooth: no prime factor exceeds
# N^_SMOOTH_EXP.
_SMOOTH_EXP = 0.25


class TruncationError(Exception):
    """A contour failed its certified error bound."""


# ---------------------------------------------------------------------------
# Zeta near s = 1 by Euler-Maclaurin


@lru_cache(maxsize=1)
def _bernoulli_even(count: int = 25):
    """B_2, B_4, ..., B_{2*count} as floats, via the exact recurrence."""
    n_max = 2 * count
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * b[j]
        b.append(-s / (m + 1))
    return np.array([float(b[2 * j]) for j in range(1, count + 1)])


def zeta_near_one(s):
    """zeta(s) by Euler-Maclaurin with cutoff 30 and 20 Bernoulli terms;
    intended for s within O(1) of 1.

    Vectorized over complex arrays.  Raises on the pole s = 1.
    """
    s = np.asarray(s, dtype=np.complex128)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(s == 1):
        raise ZeroDivisionError("zeta has a pole at s = 1")
    m = 30
    n = np.arange(1, m)
    out = np.sum(n[None, :] ** (-s[:, None]), axis=1)
    out += m ** (1.0 - s) / (s - 1.0) + 0.5 * m ** (-s)
    bern = _bernoulli_even()
    poch = s.copy()          # s (s+1) ... (s+2j-2)
    fact = 1.0
    terms = 20
    for j in range(1, terms + 1):
        fact *= (2 * j) * (2 * j - 1)
        out += bern[j - 1] / fact * poch * m ** (-s - 2 * j + 1.0)
        poch = poch * (s + 2 * j - 1.0) * (s + 2 * j)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Local Euler factors


def _local_factor(p: int, a: int, k: int, s: np.ndarray, g: bool) -> np.ndarray:
    """The factor at p^a || q of F_q(s), or of G_q(s) when `g`, on a 1-d s.

    With j = k (F) or k - 1 (G), x = p^-s and m = a + j - 1, the inner
    series of d_j(p^b) = C(b + j - 1, j - 1) is a binomial tail,
        (1 - x)^j sum_{b >= a} C(b + j - 1, j - 1) x^b
            = sum_{i < j} C(m, i) (1 - x)^i x^(m - i) =: P(x),
    the chance of at least a successes in m trials of chance x.  So
    F = -d_k(p^(a-1)) p^(-(a-1)(s-1)) (1 - x)^k + phi(p^a) P(x) and
    G = P(x) are finite sums, valid for every s.

    Rounding (u = 2^-53, gamma_n = n u/(1 - n u)).  numpy forms x and the
    head's h = p^w, w = -(a-1)(s-1), as exp(z log p) with z = -s or w.
    The rounded log p and product move z log p by gamma_2 per component
    (gamma_4 for w, counting its own two roundings), so the modulus and
    the phase of the exponential move by at most that times |Re| and |Im|
    of z log p, and exp adds a few ulps: x is computed within relative
    e_x = (3 |s| log p + 8) u, h within e_h = (6 |w| log p + 8) u, and
    1 - x within e_y = e_x |x| / |1 - x| + u.  Each term, the head
    included, is an integer times a product of at most a + j of these;
    any chain of products forms it with at most a + j + 1 roundings of at
    most sqrt(2) gamma_2 <= 3u each, and at most j additions join the
    terms.  With e = max(e_x, e_y, e_h),
        |computed - value|
            <= ((1 + e)^(a+j) (1 + 3u)^(a+j+1) (1 + gamma_j) - 1) T,
    T = |head| + phi(p^a) sum_i C(m, i) |1 - x|^i |x|^(m-i) (F), or the
    sum alone (G).  T / |value| is the cancellation between the head and
    P(x) at high prime powers, the accuracy's only amplifier.
    """
    j = k - 1 if g else k
    m = a + j - 1
    x = p ** (-s)
    y = 1.0 - x
    local = sum(math.comb(m, i) * y**i * x ** (m - i) for i in range(j))
    if g:
        return local
    head = -d_k_prime_power(k, a - 1) * p ** (-(a - 1) * (s - 1.0))
    return head * y**k + totient(p**a) * local


def euler_factors(qs, k: int, s, g: bool = False) -> np.ndarray:
    """F_q(s) for every q in qs (G_q(s) when `g`), one row per q, shape
    (len(qs),) + shape(s).

    Each local factor is built once per call and the factors of q are
    multiplied in factorize order.
    """
    s = np.asarray(s, dtype=np.complex128)
    flat = s.reshape(-1)
    cache = {}
    rows = np.ones((len(qs), flat.size), dtype=np.complex128)
    for i, q in enumerate(qs):
        for p, a in factorize(q):
            if (p, a) not in cache:
                cache[p, a] = _local_factor(p, a, k, flat, g)
            rows[i] = rows[i] * cache[p, a]
    return rows.reshape((len(qs),) + s.shape)


def euler_F_q(q: int, k: int, s):
    """The finite Euler product F_q(s) correcting zeta(s)^k in the
    Dirichlet series of d_k(n) c_q(n).  Vectorized over s."""
    return euler_factors([q], k, s)[0]


def euler_G_q(q: int, k: int, s):
    """G_q(s): the correction factor for sum over multiples of q of
    d_{k-1}(n) n^{-s}.  Vectorized over s."""
    return euler_factors([q], k, s, g=True)[0]


# ---------------------------------------------------------------------------
# Contour residues


def contour_nodes(center: complex, radius: float, count: int):
    theta = 2.0 * np.pi * np.arange(count) / count
    offsets = radius * np.exp(1j * theta)
    return center + offsets, offsets


def _trapezoid(rows: np.ndarray, labels):
    """The trapezoid rule on each row of samples at 2M contour nodes: the
    mean over all 2M, and as its error |that - the mean over the even
    nodes|, which is the M-node rule (2 pi (2j)/(2M) = 2 pi j/M exactly).
    An error above max(1e-6 |value|, 1e-12) raises, naming the row's label.
    """
    full = rows.mean(axis=-1)
    err = np.abs(full - rows[..., ::2].mean(axis=-1))
    half = rows.shape[-1] // 2
    for label, v, e in zip(labels, full, err):
        if e > max(1e-6 * abs(v), 1e-12):
            raise TruncationError(f"contour unstable at q={label}: {half} vs "
                                  f"{2 * half} nodes differ by {e}")
    return full, err


@dataclass
class ResiduePrediction:
    value: float
    error: float


def residues(qs, k: int, n: float, weight=None, count: int = 128,
             g: bool = False) -> list:
    """Res at s = 1 of zeta(s)^j E_q(s) W(s) for every q in qs, on the
    circle |s - 1| = 1/log n with `count` nodes (checked against half).

    E_q = F_q with j = k, or G_q with j = k - 1 when `g`.  W(s) = n^s/s
    unless `weight` is given: it maps (v, s, s - 1) to v W(s).  zeta and
    the weight are evaluated once for all q.  The circle must keep a
    margin of 1/4 from the pole of W at s = 0, which `count` nodes can
    resolve: 1 - 1/log n >= 1/4, or n >= e^(4/3) = 3.79.
    """
    if not n >= math.exp(4.0 / 3.0):
        raise ValueError(f"residues need n >= e^(4/3) = 3.79, so that "
                         f"|s - 1| = 1/log n keeps 1/4 from s = 0; got n={n}")
    s, offsets = contour_nodes(1.0, 1.0 / math.log(n), count)
    rows = zeta_near_one(s) ** (k - 1 if g else k) * euler_factors(qs, k, s, g)
    rows = (rows * n**s / s if weight is None
            else weight(rows, s, offsets)) * offsets
    values, errors = _trapezoid(rows, qs)
    return [ResiduePrediction(float(v.real), float(e))
            for v, e in zip(values, errors)]


def residue_dk_correlation(q: int, k: int, n: int) -> ResiduePrediction:
    """Residue prediction for sum_{m<=N} d_k(m) c_q(m)."""
    if q > n:
        raise ValueError("need q <= N")
    return residues([q], k, n)[0]


def residue_divisor_mean(q: int, k: int, x: int) -> ResiduePrediction:
    """Residue prediction for sum_{m<=x, q|m} d_{k-1}(m)/m: the residue of
    zeta(s)^(k-1) G_q(s) x^(s-1)/(s-1) at s = 1."""
    if q > x:
        raise ValueError("need q <= x")
    return residues([q], k, x, lambda v, s, o: v * x**o / o, g=True)[0]


# ---------------------------------------------------------------------------
# The singular constant


def singular_constant(k: int, p_cap: int):
    """Truncated product over p <= cap of (1-1/p)^(k^2) sum_a d_k(p^a)^2/p^a.

    The local series is closed: with x = 1/p,
    sum_a C(a+k-1, k-1)^2 x^a = sum_{i<k} C(k-1, i)^2 x^i / (1-x)^(2k-1),
    so each factor is (1-x)^((k-1)^2) sum_{i<k} C(k-1, i)^2 x^i.
    Returns (product, c_k, tail_estimate) where c_k divides by (k^2-1)!.
    """
    if p_cap < 100:
        raise ValueError("prime cap must be at least 100")
    x = 1.0 / _primes_from_spf(_spf_sieve(p_cap)).astype(np.float64)
    series = sum(math.comb(k - 1, i) ** 2 * x**i for i in range(k))
    local = (1.0 - x) ** ((k - 1) ** 2) * series
    log_product = float(np.sum(np.log(local)))
    product = math.exp(log_product)
    # Local factor is 1 + O(k^4/p^2); integrate the tail over p > cap.
    tail = k**4 / (p_cap * math.log(p_cap))
    c_k = product / math.factorial(k * k - 1)
    return product, c_k, tail


# ---------------------------------------------------------------------------
# The explicit residue polynomial and its extremal R selection


@lru_cache(maxsize=None)
def _polynomial_69_terms(k: int) -> tuple:
    """(b1 b2, ell, j, m) for each term of polynomial_69, in its summation
    order: the two binomials are exact fractions, rounded once per k."""
    kk = k * (k - 1)
    terms = []
    for ell in range(k):
        b1 = float(gen_binomial(-kk, ell))
        for j in range(k):
            b2 = float(gen_binomial(-((k - 1) ** 2) - ell, j))
            terms.append((b1 * b2, ell, j, (k - 1) ** 2 + ell + j))
    return tuple(terms)


def _libm_pow(x: np.ndarray, e: int) -> np.ndarray:
    """x**e element by element with the C library's pow, as a float scalar
    takes it; numpy's SIMD power may differ from it in the last bit."""
    return np.array([v**e for v in x.ravel().tolist()]).reshape(x.shape)


def polynomial_69(k: int, log_n: float, log_r, log_kq0: float):
    """Closed-form double sum for the triple residue, as a function of
    log N, log R and log(K Q0); vectorized over log R, each value bit for
    bit the scalar one."""
    log_r = np.asarray(log_r, dtype=np.float64)
    if not np.all((0 < log_r) & (log_r <= log_n)):
        raise ValueError("need 0 < log R <= log N")
    powers = [_libm_pow(log_r, e) for e in range(k * k)]
    total = 0.0
    for coeff, ell, j, m in _polynomial_69_terms(k):
        bracket = powers[m] - log_kq0**m
        total = total + (coeff
                         * log_n ** (k - 1 - ell) / math.factorial(k - 1 - ell)
                         * powers[k - 1 - j] / math.factorial(k - 1 - j)
                         * bracket / math.factorial(m))
    return total if log_r.ndim else float(total)


def leading_coeff_69(k: int) -> Fraction:
    """Leading coefficient in alpha = log R / log N, via exact binomials."""
    kk = k * (k - 1)
    total = Fraction(0)
    for j in range(k):
        total += gen_binomial(-kk, j) / (
            math.factorial(k - 1 - j) * math.factorial(kk + j))
    return gen_binomial(-kk, k - 1) * total


def leading_coeff_closed_form(k: int) -> Fraction:
    return (Fraction((-1) ** (k - 1))
            / (math.factorial(k - 1) * math.factorial(k * (k - 1) - 1)
               * (k * k - 1)))


def r_window(n: int, q0: float, q: float, k_param: float,
             eps: float) -> tuple:
    """The first ending's R window (r_lo, r_hi) =
    [max(Q0 N^eps, int(K Q0) + 2), min(Q N^-eps, sqrt N)]; an empty window
    is a ValueError naming it."""
    r_lo = max(q0 * n**eps, int(k_param * q0) + 2.0)
    r_hi = min(q * n ** (-eps), math.sqrt(n))
    if not r_lo < r_hi:
        raise ValueError(
            f"empty R window [max(Q0 N^eps, KQ0 + 2), min(Q N^-eps, sqrt N)]"
            f" = [{r_lo:.6g}, {r_hi:.6g}]")
    return r_lo, r_hi


def choose_R_chebyshev(k: int, n: int, q0: float, q: float, k_param: float,
                       eps: float):
    """Scan log R over the first ending's r_window (512 grid points) and
    return the R maximizing |polynomial|, certified against the Chebyshev
    extremal floor for its degree and leading coefficient.  The window's
    ends are returned as they are, not rounded through log R."""
    log_n = math.log(n)
    r_lo, r_hi = r_window(n, q0, q, k_param, eps)
    grid = 512
    log_rs = np.linspace(math.log(r_lo), math.log(r_hi), grid)
    values = polynomial_69(k, log_n, log_rs, math.log(k_param * q0))
    best = int(np.argmax(np.abs(values)))
    d = k * k - 1
    floor = ((log_rs[-1] - log_rs[0]) / 4.0) ** d * abs(
        float(leading_coeff_closed_form(k))) * 2.0 ** (-(d - 1))
    if abs(values[best]) < floor:
        raise AssertionError(
            f"grid max {values[best]} below Chebyshev floor {floor}")
    r = {0: r_lo, grid - 1: r_hi}.get(best, math.exp(log_rs[best]))
    return r, float(values[best])


# ---------------------------------------------------------------------------
# Squarefree local-factor calculus


def squarefree_F_q_exact(q: int, k: int) -> Fraction:
    """F_q(1) for squarefree q as an exact rational:
    product over p|q of (p - 1 - (p-1)^k / p^(k-1))."""
    if not is_squarefree(q):
        raise ValueError("q must be squarefree")
    out = Fraction(1)
    for p, _ in factorize(q):
        out *= Fraction(p - 1) - Fraction((p - 1) ** k, p ** (k - 1))
    return out


def check_Fq1_bound(q: int, k: int) -> bool:
    """F_q(1) >= d_{k-1}(q) (phi(q)/q)^k, exactly, for squarefree q."""
    if not is_squarefree(q):
        raise ValueError("q must be squarefree")
    lhs = squarefree_F_q_exact(q, k)
    rhs = Fraction((k - 1) ** len(factorize(q))) * Fraction(totient(q), q) ** k
    return lhs >= rhs


def f_q_value(q: int, k: int) -> float:
    """f_q(1) = (log F_q)'(1) for squarefree q, by the closed form."""
    if not is_squarefree(q):
        raise ValueError("q must be squarefree")
    total = 0.0
    for p, _ in factorize(q):
        bracket = (1.0 - 1.0 / p) ** (-(k - 1)) - 1.0
        total -= k * math.log(p) / (p - 1) / bracket
    return total


@dataclass
class RamdkevalResidue:
    value: float
    main_term: float
    ratio: float


def residue_ramdkeval(q: int, k: int, n: int,
                      delta: float) -> RamdkevalResidue:
    """Residue of zeta^k (F_q(s)/F_q(1)) N^(s-1)/s at s = 1, for squarefree
    smooth q, cross-checked against the (log N + f_q(1))^(k-1)/(k-1)! main
    term."""
    if not is_squarefree(q):
        raise ValueError("q must be squarefree")
    if q > n ** (0.5 - delta / 2.0):
        raise ValueError(f"q={q} violates the size bound N^(1/2 - delta/2)")
    if q > 1 and max(p for p, _ in factorize(q)) > n**_SMOOTH_EXP:
        raise ValueError(f"q={q} has a prime factor above N^{_SMOOTH_EXP}")
    fq1 = float(squarefree_F_q_exact(q, k)) if q > 1 else 1.0
    pred = residues([q], k, n, lambda v, s, o: v / fq1 * n ** (s - 1.0) / s)[0]
    main = (math.log(n) + f_q_value(q, k)) ** (k - 1) / math.factorial(k - 1)
    ratio = pred.value / main if main else math.inf
    return RamdkevalResidue(value=pred.value, main_term=main, ratio=ratio)
