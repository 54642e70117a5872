"""Variance functionals over residue classes and their exponential-sum twin.

V(q) measures the mean-square deviation of progression sums from their
gcd-class averages; H(q) does the same for the exponential sums A(a/q)
over reduced residues.  The two are linked by the exact identity
q V(q) = sum_{d|q} H(d), which is the backbone of the test suite.
variance_sweep evaluates V(q) for every modulus up to Q at once, with an
a-priori error bound; the sums over moduli and the rows of `apvar table
variance` (variance_rows, exact rationals in closed form when the sweep
is exact) are built on it.  The per-modulus variance_mod_q stays as
their oracle and as the divisor identity's path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (Sequence, _convolve_ones, _primes_from_spf, divisors,
                    gamma, lag_correlations, mobius,
                    mobius_totient, multiple_sums, ramanujan_convolution,
                    ramanujan_correlations, ramanujan_row, totient, underflow)

# Sequences longer than this always take the float path even when
# integer-valued; the exact path is the identity tester, not the scaler.
EXACT_N_LIMIT = 10_000


def residue_sums(seq: Sequence, q: int) -> np.ndarray:
    """t_a = sum of a_n over n <= N with n = a mod q, for a = 0..q-1."""
    n = seq.n
    res = np.arange(n + 1) % q
    return np.bincount(res, weights=seq.values, minlength=q)


def _gcd_classes(q: int) -> np.ndarray:
    return np.gcd(np.arange(q), q)


def _use_exact(seq: Sequence) -> bool:
    return seq.is_integer_valued and seq.n <= EXACT_N_LIMIT


@dataclass
class VarianceReport:
    q: int
    v: object  # float or Fraction


@dataclass
class ExpVarianceReport:
    q: int
    h: object  # float or Fraction


def _exact_sums(seq: Sequence, t: np.ndarray) -> np.ndarray:
    """The residue sums t of an integer sequence as Python ints (an
    object array), so that products of them cannot wrap.

    The float bincount behind t is exact while ||a||_1 < 2^53: every
    partial sum is then an integer float64 holds.  The float ||a||_1 is
    a safe test, since no partial sum of nonnegative integers below
    2^53 rounds and rounding never takes a sum at or above 2^53 below it.
    """
    if not seq.is_integer_valued:
        raise ValueError("the exact path needs an integer-valued sequence")
    if not float(np.abs(seq.values).sum()) < 2.0**53:
        raise ValueError("the exact path needs ||a||_1 < 2^53")
    return t.astype(np.int64).astype(object)


def variance_mod_q(seq: Sequence, q: int, exact: bool | None = None) -> VarianceReport:
    """V(q): double sum over h|q and classes a with (a,q)=h.

    Uses the closed form V(q) = sum_a t_a^2 - sum_{h|q} S_h^2/phi(q/h),
    which follows from each gcd class containing exactly phi(q/h)
    residues.  The exact path squares in Python ints; it is the
    per-modulus oracle of variance_rows.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if exact is None:
        exact = _use_exact(seq)
    t = residue_sums(seq, q)
    g = _gcd_classes(q)
    if exact:
        ti = _exact_sums(seq, t)
        total = Fraction(0)
        for h in divisors(q):
            sh = ti[g == h].sum()
            total += Fraction(sh * sh, totient(q // h))
        return VarianceReport(q=q, v=Fraction(np.dot(ti, ti)) - total)
    total = 0.0
    sq = float(np.dot(t, t))
    for h in divisors(q):
        sh = float(t[g == h].sum())
        total += sh * sh / totient(q // h)
    v = sq - total
    # Guard against cancellation pushing slightly below zero.
    if v < 0 and v > -1e-9 * max(sq, 1.0):
        v = 0.0
    return VarianceReport(q=q, v=v)


def _check_moduli(q_max: int, q_min: int) -> None:
    if q_max < 1:
        raise ValueError(f"q_max must be at least 1, got {q_max}")
    if q_min < 1:
        raise ValueError(f"q_min must be at least 1, got {q_min}")


@dataclass
class VarianceSweep:
    """V(q) for every modulus 1 <= q <= q_max (slot 0 unused).

    `error[q]` bounds |v[q] - V(q)| a priori; `square_sums[q]` is
    sum_a t_a(q)^2, an exact int64 when `exact_squares`.  `sums[e]` is
    the multiple sum M[e] = sum_{e | n} a_n, `correlations[d]` is
    C_d = sum_n a_n c_d(n) (see below), every one the exact integer when
    `exact_correlations` (which implies `exact_squares`), and `phi[d]`
    is phi(d).
    """

    v: np.ndarray
    error: np.ndarray
    square_sums: np.ndarray
    exact_squares: bool
    exact_correlations: bool
    sums: np.ndarray
    correlations: np.ndarray
    phi: np.ndarray


def variance_sweep(seq: Sequence, q_max: int, corr=None) -> VarianceSweep:
    """V(q) for all q <= q_max from one autocorrelation and the multiple
    sums M[e] = sum_{e | n} a_n: O(N log N + (N + Q) log Q) in all.

    This is the Montgomery / Hooley form of the Barban-Davenport-
    Halberstam sum, in the Ramanujan-sum terms of variance_mod_q's
    closed form V(q) = sum_a t_a^2 - sum_{h|q} S_h^2 / phi(q/h):

    * sum_a t_a(q)^2 = r(0) + 2 sum_{j>=1} r(jq), r(h) = sum_n a_n a_{n+h};
    * S_h(q) = sum_{(n,q) = h} a_n = sum_{e | q/h} mu(e) M[he], and by the
      orthogonality of Ramanujan sums (check_lemma1_matrix)
      sum_{h|q} S_h(q)^2 / phi(q/h) = (1/q) sum_{d|q} C_d^2 / phi(d),
      where C_d = sum_n a_n c_d(n) = sum_{e|d} e mu(d/e) M[e];
    * so V(q) = T(q) - G(q)/q with G(q) = sum_{d|q} C_d^2 / phi(d).

    The multiple sums, the Moebius convolution (C from M) and the divisor
    sum (G from C) are strided numpy updates, split at sqrt(N) or
    sqrt(Q) by the Dirichlet hyperbola method, so each takes about
    2 sqrt(N) or 2 sqrt(Q) numpy calls; no array is larger than the FFT
    buffer or a few rows of length q_max.

    Error bound, in the standard rounding model (u = 2^-53,
    gamma_k = ku/(1-ku), L the FFT length) with gradual underflow (each
    product or quotient may also add e0 = 2^-1074, arith.underflow):

    * FFT: each lag of r (lag_correlations) is within eps, which is
      c u log2(L) ||a||_2^2, c = FFT_ERROR_CONSTANT, plus its e0-terms.
    * Integer sequences: when eps < 1/2 every r(h) is rounded to the
      integer it must be and T is summed exactly in int64 (guarded
      against overflow), so sum_a t_a^2 is exact.  Otherwise T[q] sums
      1 + 2 floor(N/q) lags: error <= (1 + 2N/q) eps plus gamma of that
      count times ||a||_1^2 >= r(0) + 2 sum_j |r(jq)|.
    * C_d: exact in int64 on the integer path while sum_e e |M[e]|, which
      bounds every partial sum, stays below 2^62; its cast to float64
      then errs by the exact |C_d - fl(C_d)|, 0 while |C_d| <= 2^53.
      Otherwise each
      M[e] sums at most N terms and each C_d at most d products, so
      |C^_d - C_d| <= gamma_{2(N + d + 1)} C_abs[d] + d e0, where C_abs
      is the same convolution of sum_{e|n} |a_n| with |mu| (the
      doubled index absorbs the rounding of the bound's own evaluation)
      and d e0 covers the at most d products e M[e].
    * w_d = C_d^2/phi(d) then carries (2|C^_d| + dC_d) dC_d / phi(d) +
      gamma_4 w^_d, G(q) adds tau(q) nonnegative terms and is divided
      by q (gamma_{tau+1} G^/q), and converting T and the final
      subtraction add gamma_2 (T^ + |V^|).
    * Underflow: w_d adds 2 e0 and G/q one more; evaluating the bound
      takes at most 6 products or quotients per d | q and 8 per q, so
      err[q] gains (8 tau(q) + 16) e0 in all.
    V(q) >= 0, so negative rounding residue is clipped to 0; that only
    moves a value toward the exact one.  `corr` is the autocorrelation of
    `seq` (lag_correlations), when the caller has it already.
    """
    _check_moduli(q_max, 1)
    if corr is None:
        corr, = lag_correlations([seq], [(0, 0)])
    n, r, exact = seq.n, corr.rho, corr.exact
    squares = r[0] + 2 * multiple_sums(r, q_max)
    err = np.zeros(q_max + 1)
    if not exact:
        eps, l1 = corr.error, float(np.abs(seq.values).sum())
        lags = 1.0 + 2.0 * (n // np.arange(1, q_max + 1))
        err[1:] = lags * eps + gamma(lags) * (l1 * l1 + lags * eps)
    mu, phi = mobius_totient(q_max)
    m = multiple_sums(seq.int_values() if exact else seq.values, q_max)
    exact_c = exact and float(np.arange(q_max + 1) @ np.abs(m)) < 2.0**62
    if exact_c:
        # Every partial sum of every C_d stays below 2^62.
        ci = ramanujan_convolution(m, mu)
        c = ci.astype(np.float64)
        dc = np.abs(ci - c.astype(np.int64)).astype(np.float64)
        exact_c = not dc.any()
    else:
        c = ramanujan_convolution(m.astype(np.float64), mu)
        c_abs = ramanujan_convolution(
            multiple_sums(np.abs(seq.values), q_max), np.abs(mu))
        ds = np.arange(q_max + 1)
        dc = gamma(2 * (n + ds + 1)) * c_abs + underflow(ds)
    w = np.zeros((q_max + 1, 3))
    w[1:, 0] = c[1:] ** 2 / phi[1:]
    w[1:, 1] = (2.0 * np.abs(c[1:]) + dc[1:]) * dc[1:] / phi[1:] \
        + gamma(4) * w[1:, 0]
    w[1:, 2] = 1.0
    g = _convolve_ones(w)        # columns: G, its error, tau(q)
    q = np.arange(1, q_max + 1)
    v = np.zeros(q_max + 1)
    v[1:] = squares[1:] - g[1:, 0] / q
    err[1:] += ((g[1:, 1] + gamma(g[1:, 2] + 1) * g[1:, 0]) / q
                + gamma(2) * (np.abs(squares[1:]) + np.abs(v[1:]))
                + underflow(8 * g[1:, 2] + 16))
    np.maximum(v, 0.0, out=v)
    return VarianceSweep(v=v, error=err, square_sums=squares,
                         exact_squares=exact, exact_correlations=exact_c,
                         sums=m, correlations=c, phi=phi)


def variance_rows(seq: Sequence, q_max: int) -> list:
    """V(q) for q = 1..q_max from one variance_sweep: exact Fractions
    when the sequence takes the exact path (_use_exact) and the sweep
    knows T(q) and every C_d as integers, else the sweep's floats v[q],
    each within its error[q].

    V(q) = T(q) - G(q)/q with G(q) = sum_{d|q} C_d^2/phi(d).  For d | q,
    phi(d) | phi(q): phi is multiplicative, and each p^a || d, p^b || q
    has a <= b, so phi(p^a) = p^(a-1) (p - 1) divides phi(p^b) (or is 1
    when a = 0).  So every row has the one denominator q phi(q):
    V(q) = (q phi(q) T(q) - sum_{d|q} (phi(q)/phi(d)) C_d^2) / (q phi(q)).
    The numerators take one strided pass per d <= q_max in Python ints,
    sum_d q_max/d steps in all, and each row is then one Fraction.
    """
    sweep = variance_sweep(seq, q_max)
    if not (_use_exact(seq) and sweep.exact_correlations):
        return sweep.v[1:].tolist()
    phi, c = sweep.phi.tolist(), sweep.correlations.tolist()
    num = [q * phi[q] * t for q, t in enumerate(sweep.square_sums.tolist())]
    for d in range(1, q_max + 1):
        w = int(c[d]) ** 2
        if w:
            for q in range(d, q_max + 1, d):
                num[q] -= phi[q] // phi[d] * w
    return [Fraction(num[q], q * phi[q]) for q in range(1, q_max + 1)]


def variance_total(seq: Sequence, q_max: int, q_min: int = 1) -> float:
    """Sum of V(q) over q_min <= q <= q_max, from one variance_sweep."""
    _check_moduli(q_max, q_min)
    if q_min > q_max:
        return 0.0
    return math.fsum(variance_sweep(seq, q_max).v[q_min:])


def exp_variance_H(seq: Sequence, q: int, exact: bool | None = None) -> ExpVarianceReport:
    """H(q): variance of A(a/q) over reduced residues a.

    Evaluated through the Ramanujan-sum bilinear form
    sum_{m,n} a_m a_n c_q(m-n) - |sum_n a_n c_q(n)|^2 / phi(q),
    grouping m, n into residue classes so the cost after the class sums
    is in the modulus, not the sequence length.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if exact is None:
        exact = _use_exact(seq)
    t = residue_sums(seq, q)
    c = np.roll(ramanujan_row(q, q), 1)      # c_q(j), j = 0..q-1
    phi_q = totient(q)
    if exact:
        t, c = _exact_sums(seq, t), c.astype(object)
    # Circular autocorrelation u[d] = sum_i t_i t_{i+d mod q}, in Python
    # ints on the exact path.
    u = np.correlate(np.concatenate([t, t[:-1]]), t, "valid")
    if exact:
        corr = np.dot(c, t)
        h = Fraction(np.dot(c, u)) - Fraction(corr * corr, phi_q)
        return ExpVarianceReport(q=q, h=h)
    bilinear = float(np.dot(c, u))
    corr = float(np.dot(c, t))
    h = bilinear - corr * corr / phi_q
    if h < 0 and h > -1e-9 * max(abs(bilinear), 1.0):
        h = 0.0
    return ExpVarianceReport(q=q, h=h)


@dataclass
class IdentityCheck:
    ok: bool
    residual: object
    bad_divisors: list

    def __bool__(self):
        return self.ok


def check_identity_prop1(seq: Sequence, q: int) -> IdentityCheck:
    """Verify q V(q) = sum_{d|q} H(d).

    Exact equality on the exact path; on the float path the residual
    must stay below 1e-6 * qV.  On failure, reports the divisors d whose
    H(d) disagrees with the Moebius-inverted form sum_{e|d} e V(e) mu(d/e).
    """
    exact = _use_exact(seq)
    v = variance_mod_q(seq, q, exact=exact).v
    lhs = q * v
    hs = {d: exp_variance_H(seq, d, exact=exact).h for d in divisors(q)}
    rhs = sum(hs.values())
    residual = lhs - rhs
    if exact:
        ok = residual == 0
    else:
        ok = abs(residual) <= 1e-6 * max(abs(lhs), 1.0)
    bad = []
    if not ok:
        for d in divisors(q):
            alt = sum(e * variance_mod_q(seq, e, exact=exact).v * mobius(d // e)
                      for e in divisors(d))
            delta = hs[d] - alt
            tol = 0 if exact else 1e-6 * max(abs(float(hs[d])), 1.0)
            if abs(delta) > tol:
                bad.append(d)
    return IdentityCheck(ok=bool(ok), residual=residual, bad_divisors=bad)


def _reduced_power_sum(seq: Sequence, d: int) -> float:
    """sum over (b,d)=1 of |A(b/d)|^2 via the DFT of residue sums mod d."""
    t = residue_sums(seq, d)
    amps = np.fft.fft(t)  # amps[b] = sum_j t_j e(-jb/d); |.|^2 is what we need
    power = np.abs(amps) ** 2
    coprime = _gcd_classes(d) == 1
    if d == 1:
        coprime[:] = True
    return float(power[coprime].sum())


def cor1_lower_bound(seq: Sequence, q: int, q0: int) -> float:
    """The nonnegativity-of-H lower bound for qV(q).

    Returns sum over classes a with q/(a,q) > Q0 of |A(a/q)|^2 minus
    the Ramanujan correction over divisors d > Q0; guaranteed at most
    q V(q), which is checked here.
    """
    if q0 < 1:
        raise ValueError("Q0 must be at least 1")
    ds = [d for d in divisors(q) if d > q0]
    corrs = ramanujan_correlations(seq, ds)
    first = sum(_reduced_power_sum(seq, d) for d in ds)
    second = sum(c * c / totient(d) for d, c in zip(ds, corrs.tolist()))
    bound = first - second
    qv = q * float(variance_mod_q(seq, q, exact=False).v)
    slack = 1e-6 * max(abs(qv), abs(bound), 1.0)
    if bound > qv + slack:
        raise AssertionError(
            f"corollary bound {bound} exceeds qV = {qv} for q={q}, Q0={q0}")
    return bound


@dataclass
class PsiCounts:
    q: int
    classes: np.ndarray      # reduced residues a
    psi: np.ndarray          # psi(N; q, a) per class
    psi_q: float
    restricted_variance: float


def psi_counts(table, q: int) -> PsiCounts:
    """Chebyshev psi sums in progressions from a sieve table."""
    n = table.n
    if q > n:
        raise ValueError("q must not exceed the table length")
    res = np.arange(n + 1) % q
    t = np.bincount(res, weights=table.lam, minlength=q)
    coprime = _gcd_classes(q) == 1
    if q == 1:
        coprime[:] = True
    classes = np.nonzero(coprime)[0]
    psi = t[coprime]
    psi_q = float(psi.sum())
    mean = psi_q / totient(q)
    var = float(((psi - mean) ** 2).sum())
    return PsiCounts(q=q, classes=classes, psi=psi, psi_q=psi_q,
                     restricted_variance=var)


def restricted_variance_total(table, q_max: int, q_min: int = 1) -> float:
    """Sum over q_min <= q <= q_max of the reduced-class prime variance
    sum_{(b,q)=1} (psi(N;q,b) - S_1(q)/phi(q))^2, from one variance_sweep
    of Lambda (_reduced_class_variances)."""
    _check_moduli(q_max, q_min)
    if q_min > q_max:
        return 0.0
    sweep = variance_sweep(table.lambda_sequence(), q_max)
    return math.fsum(_reduced_class_variances(table, sweep)[q_min:])


def _reduced_class_variances(table, sweep: VarianceSweep) -> np.ndarray:
    """The reduced-class prime variance of every modulus q <= Q (slot 0
    unused), from a variance_sweep of Lambda up to Q.

    It is the full square sum T(q) of the sweep minus the classes b with
    (b, q) > 1, minus S_1(q)^2/phi(q), where
    S_1(q) = sum_{(n,q)=1} Lambda(n) = sum_{e|q} mu(e) M[e] is the
    convolution of mu M with 1.  A class with (b, q) > 1 holds only
    powers p^j <= N of primes p | q, and powers of two different primes
    never share one (see _prime_power_class_squares).
    """
    q_max = sweep.v.size - 1
    s1 = _convolve_ones(table.mu[:q_max + 1] * sweep.sums)
    nr = _prime_power_class_squares(table, q_max)
    out = np.zeros(q_max + 1)
    out[1:] = (sweep.square_sums - nr)[1:] - s1[1:] ** 2 / sweep.phi[1:]
    return out


def _prime_power_class_squares(table, q_max: int) -> np.ndarray:
    """NR[q] = sum of t_b(q)^2 over the classes b mod q with (b, q) > 1,
    for Lambda, at every q <= q_max.

    For p | q the powers p^i and p^j fall in one class exactly when
    p^i = p^j mod q, and several may (mod 6: 2, 8 and 32), so
    NR[q] = sum_{p|q} sum_{i,j: p^i = p^j mod q} Lambda(p^i) Lambda(p^j).
    Each prime p <= sqrt(N) is one vectorized pass over its multiples q.
    A larger prime has the one power p, which adds Lambda(p)^2 to every
    q in pZ; those are added after the small primes, one multiplier j at
    a time over all such p <= q_max/j, in descending j, so every NR[q]
    adds its primes in ascending order as a pass per prime would.
    """
    n = table.n
    s = math.isqrt(n)
    nr = np.zeros(q_max + 1)
    primes = _primes_from_spf(table.spf[: min(q_max, n) + 1])
    for p in primes[primes <= s].tolist():
        powers = [p]
        while powers[-1] * p <= n:
            powers.append(powers[-1] * p)
        pw = np.array(powers, dtype=np.int64)
        w = table.lam[pw]
        nr[p::p] += float(np.dot(w, w))
        cls = pw % np.arange(p, q_max + 1, p)[:, None]
        for k in range(1, len(powers)):
            same = cls[:, k:] == cls[:, :-k]
            nr[p::p] += 2.0 * (same @ (w[k:] * w[:-k]))
    large = primes[primes > s]
    squares = table.lam[large] ** 2
    for j in range(q_max // (s + 1), 0, -1):
        top = np.searchsorted(large, q_max // j, side="right")
        nr[j * large[:top]] += squares[:top]
    return nr
