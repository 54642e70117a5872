"""Euler products, contour residues, and the explicit residue polynomial.

All residues come from one batched engine, `residues`: zeta and the
weight are evaluated once on a small circle around s = 1, the Euler
products of every modulus come from one table of local factors
(`euler_factors`), and one trapezoid rule (`_trapezoid`), spectrally
accurate for these analytic integrands, checks each value against its
half-node rule.  The closed forms (the explicit double-sum polynomial,
the squarefree local factors) are separate code paths cross-validated
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


class TruncationError(Exception):
    """A local series or a contour failed its certified error bound."""


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


def zeta_near_one(s, cutoff: int = 30, terms: int = 20):
    """zeta(s) by Euler-Maclaurin; intended for s within O(1) of 1.

    Vectorized over complex arrays.  Raises on the pole s = 1.
    """
    s = np.asarray(s, dtype=np.complex128)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(s == 1):
        raise ZeroDivisionError("zeta has a pole at s = 1")
    m = cutoff
    n = np.arange(1, m)
    out = np.sum(n[None, :] ** (-s[:, None]), axis=1)
    out += m ** (1.0 - s) / (s - 1.0) + 0.5 * m ** (-s)
    bern = _bernoulli_even()
    poch = s.copy()          # s (s+1) ... (s+2j-2)
    fact = 1.0
    for j in range(1, terms + 1):
        fact *= (2 * j) * (2 * j - 1)
        out += bern[j - 1] / fact * poch * m ** (-s - 2 * j + 1.0)
        poch = poch * (s + 2 * j - 1.0) * (s + 2 * j)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Local Euler factors

# Each inner local series is summed to the first length, doubling from
# MIN_TERMS up to MAX_TERMS, whose certified tail is at most TAIL_RTOL of
# the local factor.
MIN_TERMS = 60
MAX_TERMS = 960
TAIL_RTOL = 1e-14


def _local_factor(p: int, a: int, k: int, s: np.ndarray, g: bool) -> np.ndarray:
    """The factor at p^a || q of F_q(s), or of G_q(s) when `g`, on a 1-d s.

    With j = k (F) or k - 1 (G) and I(s) = sum_{b >= a} d_j(p^b) p^(-bs):
    F: (1 - p^-s)^k (-d_k(p^(a-1)) p^(-(a-1)(s-1)) + phi(p^a) I(s));
    G: (1 - p^-s)^(k-1) I(s).  With sigma = min Re s, the terms of I from
    the first omitted b on shrink at least by rho = (b + j)/(b + 1) p^-sigma,
    so they sum to at most that term over 1 - rho.  That tail, times
    max|1 - p^-s|^j and phi(p^a) (F), must be at most TAIL_RTOL min|factor|.
    """
    j = k - 1 if g else k
    sigma = float(np.min(s.real))
    if sigma <= 0:
        raise ValueError("inner series needs Re(s) > 0")
    damp = (1.0 - p ** (-s)) ** j
    phi_pa = 1 if g else totient(p**a)
    head = 0.0 if g else -d_k_prime_power(k, a - 1) * p ** (-(a - 1) * (s - 1.0))
    terms = MIN_TERMS
    while terms <= MAX_TERMS:
        bs = np.arange(a, a + terms)
        coeffs = np.array([d_k_prime_power(j, int(b)) for b in bs], dtype=np.float64)
        series = np.sum(coeffs[None, :] * p ** (-np.multiply.outer(s, bs)), axis=1)
        local = damp * (head + phi_pa * series)
        b_next = a + terms
        rho = (b_next + j) / (b_next + 1) * p ** (-sigma)
        if rho < 1.0:
            tail = d_k_prime_power(j, b_next) * p ** (-sigma * b_next) / (1.0 - rho)
            tail = phi_pa * tail * float(np.max(np.abs(damp)))
            mag = float(np.min(np.abs(local)))
            if mag == 0 or tail <= TAIL_RTOL * mag:
                return local
        terms *= 2
    raise TruncationError(f"local factor at {p}^{a} (k={k}, Re(s) >= {sigma}) "
                          f"needs more than {MAX_TERMS} terms")


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
    the weight are evaluated once for all q.
    """
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

    Returns (product, c_k, tail_estimate) where c_k divides by (k^2-1)!.
    """
    if p_cap < 100:
        raise ValueError("prime cap must be at least 100")
    primes = _primes_from_spf(_spf_sieve(p_cap)).astype(np.float64)
    series = np.zeros_like(primes)
    a = 0
    while True:
        coef = d_k_prime_power(k, a) ** 2
        term = coef * primes ** (-float(a))
        series += term
        if a > 2 and float(np.max(term)) < 1e-18:
            break
        a += 1
    local = (1.0 - 1.0 / primes) ** (k * k) * series
    log_product = float(np.sum(np.log(local)))
    product = math.exp(log_product)
    # Local factor is 1 + O(k^4/p^2); integrate the tail over p > cap.
    tail = k**4 / (p_cap * math.log(p_cap))
    c_k = product / math.factorial(k * k - 1)
    return product, c_k, tail


# ---------------------------------------------------------------------------
# The explicit residue polynomial and its extremal R selection


def polynomial_69(k: int, log_n: float, log_r: float, log_kq0: float) -> float:
    """Closed-form double sum for the triple residue, as a function of
    log N, log R and log(K Q0)."""
    if not 0 < log_r <= log_n:
        raise ValueError("need 0 < log R <= log N")
    total = 0.0
    kk = k * (k - 1)
    for ell in range(k):
        b1 = float(gen_binomial(-kk, ell))
        for j in range(k):
            b2 = float(gen_binomial(-((k - 1) ** 2) - ell, j))
            m = (k - 1) ** 2 + ell + j
            bracket = log_r**m - log_kq0**m
            total += (b1 * b2
                      * log_n ** (k - 1 - ell) / math.factorial(k - 1 - ell)
                      * log_r ** (k - 1 - j) / math.factorial(k - 1 - j)
                      * bracket / math.factorial(m))
    return total


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


def choose_R_chebyshev(k: int, n: int, q0: float, q: float, k_param: float,
                       eps: float, grid: int = 512):
    """Scan alpha = log R / log N over the admissible interval and return
    the R maximizing |polynomial|, certified against the Chebyshev
    extremal floor for its degree and leading coefficient."""
    log_n = math.log(n)
    lo = math.log(q0 * n**eps) / log_n
    hi = math.log(q * n ** (-eps)) / log_n
    if not lo < hi:
        raise ValueError(f"empty R interval: alpha in [{lo}, {hi}]")
    hi = min(hi, 1.0)
    log_kq0 = math.log(k_param * q0)
    alphas = np.linspace(lo, hi, grid)
    values = np.array([polynomial_69(k, log_n, a * log_n, log_kq0)
                       for a in alphas])
    best = int(np.argmax(np.abs(values)))
    d = k * k - 1
    floor = (((hi - lo) / 4.0) ** d * abs(float(leading_coeff_closed_form(k)))
             * log_n**d * 2.0 ** (-(d - 1)))
    if abs(values[best]) < floor:
        raise AssertionError(
            f"grid max {values[best]} below Chebyshev floor {floor}")
    return n ** alphas[best], float(values[best])


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


def f_q_log_derivatives(q: int, k: int, order: int):
    """[f_q(1), f_q'(1), ..., f_q^(order)(1)] for squarefree q.

    The value itself comes from the closed form; higher derivatives from
    a Cauchy contour of log F_q on a small circle around s = 1.
    """
    if not is_squarefree(q):
        raise ValueError("q must be squarefree")
    if order > k:
        raise ValueError("order must not exceed k")
    out = [f_q_value(q, k)]
    if order == 0 or q == 1:
        return out + [0.0] * (order if q == 1 else 0)
    s, offsets = contour_nodes(1.0, 0.05, 64)
    vals = euler_F_q(q, k, s)
    log_f = np.log(np.abs(vals)) + 1j * np.unwrap(np.angle(vals))
    # f^(m)(1) = (log F)^(m+1)(1)
    means, _ = _trapezoid(np.array([log_f * offsets ** (-(m + 1))
                                    for m in range(1, order + 1)]),
                          [q] * order)
    for m in range(1, order + 1):
        out.append(float((math.factorial(m + 1) * means[m - 1]).real))
    return out


@dataclass
class RamdkevalResidue:
    value: float
    main_term: float
    ratio: float


def residue_ramdkeval(q: int, k: int, n: int, delta: float,
                      smooth_exp: float = 0.25) -> RamdkevalResidue:
    """Residue of zeta^k (F_q(s)/F_q(1)) N^(s-1)/s at s = 1, for squarefree
    smooth q, cross-checked against the (log N + f_q(1))^(k-1)/(k-1)! main
    term."""
    if not is_squarefree(q):
        raise ValueError("q must be squarefree")
    if q > n ** (0.5 - delta / 2.0):
        raise ValueError(f"q={q} violates the size bound N^(1/2 - delta/2)")
    if q > 1 and max(p for p, _ in factorize(q)) > n**smooth_exp:
        raise ValueError(f"q={q} has a prime factor above N^{smooth_exp}")
    fq1 = float(squarefree_F_q_exact(q, k)) if q > 1 else 1.0
    pred = residues([q], k, n, lambda v, s, o: v / fq1 * n ** (s - 1.0) / s)[0]
    main = (math.log(n) + f_q_value(q, k)) ** (k - 1) / math.factorial(k - 1)
    ratio = pred.value / main if main else math.inf
    return RamdkevalResidue(value=pred.value, main_term=main, ratio=ratio)
