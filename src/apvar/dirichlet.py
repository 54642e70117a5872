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

from .arith import (d_k_prime_power, factorize, gamma, gen_binomial,
                    is_squarefree, totient)

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


def _local_factors(primes: list, a: int, k: int, s: np.ndarray) -> np.ndarray:
    """The factors at p^a || q of F_q(s) for every p in `primes`, one row
    per p, on a 1-d s: one broadcast of the primes' column against s.

    With x = p^-s and m = a + k - 1, the inner series of
    d_k(p^b) = C(b + k - 1, k - 1) is a binomial tail,
        (1 - x)^k sum_{b >= a} C(b + k - 1, k - 1) x^b
            = sum_{i < k} C(m, i) (1 - x)^i x^(m - i) =: P(x),
    the chance of at least a successes in m trials of chance x.  So
    F = -d_k(p^(a-1)) p^(-(a-1)(s-1)) (1 - x)^k + phi(p^a) P(x) is a
    finite sum, valid for every s.  p and phi(p^a) = p^(a-1) (p - 1)
    reach numpy as floats, rounded once from exact integers, so a large
    p^a never passes through int64.

    Rounding (u = 2^-53, gamma_n = n u/(1 - n u)).  numpy forms x and the
    head's h = p^w, w = -(a-1)(s-1), as exp(z log p) with z = -s or w.
    The rounded log p and product move z log p by gamma_2 per component
    (gamma_4 for w, counting its own two roundings), so the modulus and
    the phase of the exponential move by at most that times |Re| and |Im|
    of z log p, and exp adds a few ulps: x is computed within relative
    e_x = (3 |s| log p + 8) u, h within e_h = (6 |w| log p + 8) u, and
    1 - x within e_y = e_x |x| / |1 - x| + u.  Each term, the head
    included, is an integer times a product of at most a + k of these;
    any chain of products forms it with at most a + k + 1 roundings of at
    most sqrt(2) gamma_2 <= 3u each, and at most k additions join the
    terms.  With e = max(e_x, e_y, e_h),
        |computed - value|
            <= ((1 + e)^(a+k) (1 + 3u)^(a+k+1) (1 + gamma_k) - 1) T,
    T = |head| + phi(p^a) sum_i C(m, i) |1 - x|^i |x|^(m-i).
    T / |value| is the cancellation between the head and P(x) at high
    prime powers, the accuracy's only amplifier.
    """
    p = np.array(primes, dtype=np.float64)[:, None]
    phi = np.array([float(v ** (a - 1) * (v - 1)) for v in primes])[:, None]
    m = a + k - 1
    x = p ** (-s)
    y = 1.0 - x
    local = sum(math.comb(m, i) * y**i * x ** (m - i) for i in range(k))
    head = -d_k_prime_power(k, a - 1) * p ** (-(a - 1) * (s - 1.0))
    return head * y**k + phi * local


def euler_factors(qs, k: int, s) -> np.ndarray:
    """F_q(s) for every q in qs, one row per q, shape (len(qs),) + shape(s).

    Every distinct local factor (p, a) is built once, in one broadcast
    per exponent a (_local_factors); then, slot by slot in factorize
    order, every row with a factor in that slot is multiplied by it.  So
    each row is its factors' product taken in factorize order, starting
    from 1.
    """
    s = np.asarray(s, dtype=np.complex128)
    flat = s.reshape(-1)
    factors = [factorize(q) for q in qs]
    pairs = sorted({pa for f in factors for pa in f}, key=lambda pa: pa[::-1])
    slot = {pa: i for i, pa in enumerate(pairs)}
    table = np.empty((len(pairs), flat.size), dtype=np.complex128)
    for a in sorted({a for _, a in pairs}):
        group = [i for i, (_, b) in enumerate(pairs) if b == a]
        table[group[0] : group[-1] + 1] = _local_factors(
            [pairs[i][0] for i in group], a, k, flat)
    rows = np.ones((len(qs), flat.size), dtype=np.complex128)
    for j in range(max(map(len, factors), default=0)):
        has = [i for i, f in enumerate(factors) if len(f) > j]
        rows[has] = rows[has] * table[[slot[factors[i][j]] for i in has]]
    return rows.reshape((len(qs),) + s.shape)


def euler_F_q(q: int, k: int, s):
    """The finite Euler product F_q(s) correcting zeta(s)^k in the
    Dirichlet series of d_k(n) c_q(n).  Vectorized over s."""
    return euler_factors([q], k, s)[0]


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
    An error above max(1e-6 |value|, f), or one that is not finite (a
    sample is inf or nan), raises, naming the row's label.

    f = 4 gamma_2M mean_j |r_j| is the rounding floor, in the samples'
    own units (u = 2^-53, gamma_m = m u/(1 - m u)).  The error is half
    the gap between the odd- and the even-node means, so samples computed
    within relative eta of r_j move it by at most eta mean |r|.  The
    2M-node mean rounds within gamma_2M mean |r|, and the M-node mean
    within gamma_M sum_even |r_j|/M <= 2 gamma_M mean |r| <= gamma_2M
    mean |r|.  So rounding alone moves the error by at most
    (eta + 2 gamma_2M) mean |r|, and f allows eta = 2 gamma_2M: at least
    96 u at 48 nodes, where each sample is a product of a few factors
    (zeta^k, the Euler rows, the weight, the offset), each within some
    tens of u unless it cancels (`_local_factors`).  The value itself is
    within the same (eta + gamma_2M) mean |r| <= f of its exact rule; a
    residue that is 0 by cancellation (q > 1 at k = 1, where
    zeta(s) F_q(s) is entire) is left with about that much.

    The returned error is the gap plus f, which bounds |value - I| for
    the exact residue I.  The value is within (eta + gamma_2M) mean |r|
    = 3f/4 of the exact 2M-node rule T_2M (above, eta = 2 gamma_2M).  The rule converges
    geometrically on these analytic integrands, |T_j - I| ~ c rho^j, so
    |T_2M - I| <= rho^M |T_M - I| <= rho^M (|T_2M - I| + g), with g the
    exact gap, at most the computed gap + f (above).  A passing check
    leaves rho^M near the 1e-6 relative gap, far below 1/5, so
    |T_2M - I| <= g/4 <= (gap + f)/4, and |value - I| <= gap/4 + f.
    """
    full = rows.mean(axis=-1)
    err = np.abs(full - rows[..., ::2].mean(axis=-1))
    floor = _rounding_floor(rows)
    half = rows.shape[-1] // 2
    for label, v, e, f in zip(labels, full, err, floor):
        if not math.isfinite(e) or e > max(1e-6 * abs(v), f):
            raise TruncationError(f"contour unstable at q={label}: {half} vs "
                                  f"{2 * half} nodes differ by {e}")
    return full, err + floor


def _rounding_floor(rows: np.ndarray) -> np.ndarray:
    """4 gamma_2M mean |r| for each row of 2M samples (see _trapezoid)."""
    return 4.0 * gamma(rows.shape[-1]) * np.abs(rows).mean(axis=-1)


@dataclass
class ResiduePrediction:
    value: float
    error: float


def residues(qs, k: int, n: float, weight=None, count: int = 128) -> list:
    """Res at s = 1 of zeta(s)^k F_q(s) W(s) for every q in qs, on the
    circle |s - 1| = 1/log n with `count` nodes (checked against half).

    W(s) = n^s/s unless `weight` is given: it maps (v, s, s - 1) to
    v W(s).  zeta and the weight are evaluated once for all q.  The
    circle must keep a margin of 1/4 from the pole of W at s = 0, which
    `count` nodes can resolve: 1 - 1/log n >= 1/4, or n >= e^(4/3) = 3.79.
    """
    if not n >= math.exp(4.0 / 3.0):
        raise ValueError(f"residues need n >= e^(4/3) = 3.79, so that "
                         f"|s - 1| = 1/log n keeps 1/4 from s = 0; got n={n}")
    s, offsets = contour_nodes(1.0, 1.0 / math.log(n), count)
    # Past float64 (large k) the samples come out inf or nan, which
    # _trapezoid refuses, or a binomial of _local_factors overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rows = zeta_near_one(s) ** k * euler_factors(qs, k, s)
        except OverflowError:
            raise TruncationError(
                f"contour samples exceed float64 at k={k}") from None
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
        float(leading_coeff_69(k))) * 2.0 ** (-(d - 1))
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


def second_ending_modulus(q: int, n: float) -> bool:
    """Whether q may be a modulus of the second ending: squarefree, with
    no prime factor above N^(1/4)."""
    return is_squarefree(q) and all(p <= n**0.25 for p, _ in factorize(q))


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
    if not second_ending_modulus(q, n):
        raise ValueError(f"q={q} is not a second-ending modulus: squarefree, "
                         f"no prime factor above N^(1/4)")
    if q > n ** (0.5 - delta / 2.0):
        raise ValueError(f"q={q} violates the size bound N^(1/2 - delta/2)")
    fq1 = float(squarefree_F_q_exact(q, k)) if q > 1 else 1.0
    pred = residues([q], k, n, lambda v, s, o: v / fq1 * n ** (s - 1.0) / s)[0]
    main = (math.log(n) + f_q_value(q, k)) ** (k - 1) / math.factorial(k - 1)
    ratio = pred.value / main if main else math.inf
    return RamdkevalResidue(value=pred.value, main_term=main, ratio=ratio)
