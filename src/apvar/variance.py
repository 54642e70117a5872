"""Variance functionals over residue classes and their exponential-sum twin.

V(q) measures the mean-square deviation of progression sums from their
gcd-class averages; H(q) does the same for the exponential sums A(a/q)
over reduced residues.  The two are linked by the exact identity
q V(q) = sum_{d|q} H(d), which is the backbone of the test suite.
variance_sweep evaluates V(q) for every modulus up to Q at once, with an
a-priori error bound; the sums over moduli and the rows of `apvar table
variance` (variance_rows, exact rationals in closed form when the sweep
knows its sums as integers) are built on it.  The per-modulus
variance_mod_q and exp_variance_H are their oracles and the divisor
identity's path.  Each returns the value itself, exact when the data
allow it: a Fraction when the sequence is integer-valued with
||a||_1 < 2^53, so that its class sums are exact, else a float.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (UNIT_ROUNDOFF, LagSpectra, Sequence, convolve_ones,
                    divisors, gamma, mobius, moduli_tables, multiple_sums,
                    ramanujan_convolution, ramanujan_row, totient, underflow)


def residue_sums(seq: Sequence, q: int) -> np.ndarray:
    """t_a = sum of a_n over n <= N with n = a mod q, for a = 0..q-1."""
    n = seq.n
    res = np.arange(n + 1) % q
    return np.bincount(res, weights=seq.values, minlength=q)


def _gcd_classes(q: int) -> np.ndarray:
    return np.gcd(np.arange(q), q)


def _exact_class_sums(seq: Sequence) -> bool:
    """Whether the residue sums of `seq` are its exact integer class sums.

    The float bincount behind them is exact when the sequence is
    integer-valued and ||a||_1 < 2^53: every partial sum is then an
    integer float64 holds.  The float ||a||_1 is a safe test, since no
    partial sum of nonnegative integers below 2^53 rounds and rounding
    never takes a sum at or above 2^53 below it.
    """
    return seq.is_integer_valued and seq.l1() < 2.0**53


def _class_sums(seq: Sequence, q: int):
    """The residue sums t mod q and the division to use on them: Python
    ints (an object array, so that products cannot wrap) and Fraction
    when they are exact (_exact_class_sums), else floats and true
    division."""
    t = residue_sums(seq, q)
    if _exact_class_sums(seq):
        return t.astype(np.int64).astype(object), Fraction
    return t, operator.truediv


def _nonnegative(x, scale):
    """A V or H from its closed form: an exact value is a Fraction and
    never negative; a float is clipped to 0 when cancellation has left
    it just below (within 1e-9 of `scale`)."""
    if x < 0 and x > -1e-9 * max(scale, 1.0):
        return 0.0
    return x if isinstance(x, Fraction) else float(x)


def variance_mod_q(seq: Sequence, q: int) -> Fraction | float:
    """V(q): double sum over h|q and classes a with (a,q)=h.

    Uses the closed form V(q) = sum_a t_a^2 - sum_{h|q} S_h^2/phi(q/h),
    which follows from each gcd class containing exactly phi(q/h)
    residues.  A Fraction when the class sums are exact (squared in
    Python ints), else a float; it is the per-modulus oracle of
    variance_rows.
    """
    if q < 1:
        raise ValueError("q must be positive")
    t, div = _class_sums(seq, q)
    g = _gcd_classes(q)
    sq = np.dot(t, t)
    total = 0
    for h in divisors(q):
        sh = t[g == h].sum()
        total += div(sh * sh, totient(q // h))
    return _nonnegative(sq - total, sq)


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
    `exact_correlations` (which implies `exact_squares`), and `mu[d]`
    and `phi[d]` are mu(d) and phi(d).
    """

    v: np.ndarray
    error: np.ndarray
    square_sums: np.ndarray
    exact_squares: bool
    exact_correlations: bool
    sums: np.ndarray
    correlations: np.ndarray
    mu: np.ndarray
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
    2 sqrt(N) or 2 sqrt(Q) numpy calls.

    Memory: besides `corr` (N + 1 lags, which the caller holds) the sweep
    keeps the seven rows it returns, of length Q + 1: v, error, T, M, C,
    mu (int8) and phi (int32).  Each other row of length Q + 1 (the lag
    counts, C_abs, the bound on C, w_d and its error, G and its error,
    tau in int16) is freed when it dies, and the error terms are formed
    in place, one term at a time, with the operations and the order of
    the formulas below.  At the peak, the last terms of the bound, that
    leaves the returned rows, tau, G, its error and two temporaries
    alive: about 80 bytes per modulus, which at Q = N outweighs the
    FFT's arrays.

    Error bound, in the standard rounding model (u = 2^-53,
    gamma_k = ku/(1-ku), L the FFT length) with gradual underflow (each
    product or quotient may also add e0 = 2^-1074, arith.underflow):

    * FFT: each lag of r (LagSpectra) is within eps, which is
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
    `seq` (LagSpectra), when the caller has it already.

    The rows do not depend on how far the sweep runs: v[:r + 1] of a
    sweep to q_max is bit for bit the sweep to r <= q_max, since the
    multiple sums, the Moebius convolution and the divisor sum each add
    an entry's terms in an order that does not depend on the table length
    (both sweeps take the same path for C_d unless sum_e e |M[e]| reaches
    2^62 between r and q_max).  The chains' plot tables rely on it.
    """
    _check_moduli(q_max, 1)
    if corr is None:
        corr = LagSpectra([seq]).release(0)
    n, r, exact = seq.n, corr.rho, corr.exact
    squares = r[0] + 2 * multiple_sums(r, q_max)
    err = np.zeros(q_max + 1)
    if not exact:
        eps, l1 = corr.error, seq.l1()
        lags = 1.0 + 2.0 * (n // np.arange(1, q_max + 1))
        np.multiply(lags, eps, out=err[1:])
        bound = _gamma_in_place(lags)        # gamma(lags), in lags' place
        bound *= l1 * l1 + err[1:]
        err[1:] += bound
        del lags, bound
    mu, phi, d2 = moduli_tables(q_max, "mu", "phi", "d2")
    m = multiple_sums(seq.int_values() if exact else seq.values, q_max)
    exact_c = exact and float(np.arange(q_max + 1) @ np.abs(m)) < 2.0**62
    if exact_c:
        # Every partial sum of every C_d stays below 2^62.
        ci = ramanujan_convolution(m, mu)
        c = ci.astype(np.float64)
        dc = np.abs(ci - c.astype(np.int64)).astype(np.float64)
        del ci
        exact_c = not dc.any()
    else:
        c = ramanujan_convolution(m.astype(np.float64, copy=False), mu)
        # For a_n >= 0 the multiple sums of |a| are M itself.
        c_abs = ramanujan_convolution(
            m if (seq.values >= 0).all()
            else multiple_sums(np.abs(seq.values), q_max), np.abs(mu))
        dc = _gamma_in_place(2.0 * (np.arange(q_max + 1) + (n + 1)))
        dc *= c_abs
        del c_abs
        dc += underflow(np.arange(q_max + 1))
    w, dw = np.zeros(q_max + 1), np.zeros(q_max + 1)
    w[1:] = c[1:] ** 2 / phi[1:]
    dw[1:] = (2.0 * np.abs(c[1:]) + dc[1:]) * dc[1:] / phi[1:] \
        + gamma(4) * w[1:]
    del dc
    g = convolve_ones(w)[1:]                   # G
    del w
    dg = convolve_ones(dw)[1:]                 # and its error
    del dw
    tau = d2[1:]                               # int16: float products only
    v = np.zeros(q_max + 1)
    np.divide(g, np.arange(1, q_max + 1), out=v[1:])
    np.subtract(squares[1:], v[1:], out=v[1:])
    # err[1:] += (dg + gamma(tau + 1) g) / q
    #            + gamma(2) (|T| + |V|) + underflow(8 tau + 16),
    # in dg's place, one term at a time.
    g *= _gamma_in_place(tau + 1.0)
    dg += g
    del g
    dg /= np.arange(1, q_max + 1)
    terms = np.abs(squares[1:]) + np.abs(v[1:])
    terms *= gamma(2)
    dg += terms
    del terms
    dg += underflow(8.0 * tau + 16.0)
    err[1:] += dg
    del dg
    np.maximum(v, 0.0, out=v)
    return VarianceSweep(v=v, error=err, square_sums=squares,
                         exact_squares=exact, exact_correlations=exact_c,
                         sums=m, correlations=c, mu=mu, phi=phi)


def _gamma_in_place(k: np.ndarray) -> np.ndarray:
    """arith.gamma of the float array k, formed in k's place with one
    temporary: the same operations in the same order, so bit for bit."""
    k *= UNIT_ROUNDOFF
    np.divide(k, 1.0 - k, out=k)
    return k


def variance_rows(seq: Sequence, q_max: int) -> list:
    """V(q) for q = 1..q_max from one variance_sweep: exact Fractions
    when the sweep knows T(q) and every C_d as integers
    (`exact_correlations`, which holds only for integer sequences), else
    the sweep's floats v[q], each within its error[q].

    V(q) = T(q) - G(q)/q with G(q) = sum_{d|q} C_d^2/phi(d).  For d | q,
    phi(d) | phi(q): phi is multiplicative, and each p^a || d, p^b || q
    has a <= b, so phi(p^a) = p^(a-1) (p - 1) divides phi(p^b) (or is 1
    when a = 0).  So every row has the one denominator q phi(q):
    V(q) = (q phi(q) T(q) - sum_{d|q} (phi(q)/phi(d)) C_d^2) / (q phi(q)).
    The numerators take one strided pass per d <= q_max in Python ints,
    sum_d q_max/d steps in all, and each row is then one Fraction.
    """
    sweep = variance_sweep(seq, q_max)
    if not sweep.exact_correlations:
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


def exp_variance_H(seq: Sequence, q: int) -> Fraction | float:
    """H(q): variance of A(a/q) over reduced residues a.

    Evaluated through the Ramanujan-sum bilinear form
    sum_{m,n} a_m a_n c_q(m-n) - |sum_n a_n c_q(n)|^2 / phi(q),
    grouping m, n into residue classes so the cost after the class sums
    is in the modulus, not the sequence length.  A Fraction when the
    class sums are exact (in Python ints), else a float.
    """
    if q < 1:
        raise ValueError("q must be positive")
    t, div = _class_sums(seq, q)
    c = np.roll(ramanujan_row(q, q), 1)      # c_q(j), j = 0..q-1
    # Circular autocorrelation u[d] = sum_i t_i t_{i+d mod q}.
    u = np.correlate(np.concatenate([t, t[:-1]]), t, "valid")
    bilinear = np.dot(c, u)
    corr = np.dot(c, t)
    return _nonnegative(bilinear - div(corr * corr, totient(q)),
                        abs(bilinear))


@dataclass
class IdentityCheck:
    ok: bool
    residual: object
    bad_divisors: list

    def __bool__(self):
        return self.ok


def check_identity_prop1(seq: Sequence, q: int) -> IdentityCheck:
    """Verify q V(q) = sum_{d|q} H(d).

    Exact equality when the class sums are exact; otherwise the residual
    must stay below 1e-6 * qV.  On failure, reports the divisors d whose
    H(d) disagrees with the Moebius-inverted form sum_{e|d} e V(e) mu(d/e).
    """
    exact = _exact_class_sums(seq)
    lhs = q * variance_mod_q(seq, q)
    hs = {d: exp_variance_H(seq, d) for d in divisors(q)}
    residual = lhs - sum(hs.values())
    ok = abs(residual) <= (0 if exact else 1e-6 * max(abs(lhs), 1.0))
    bad = []
    if not ok:
        for d in divisors(q):
            alt = sum(e * variance_mod_q(seq, e) * mobius(d // e)
                      for e in divisors(d))
            tol = 0 if exact else 1e-6 * max(abs(float(hs[d])), 1.0)
            if abs(hs[d] - alt) > tol:
                bad.append(d)
    return IdentityCheck(ok=bool(ok), residual=residual, bad_divisors=bad)


def restricted_variance_total(table, q_max: int, q_min: int = 1) -> float:
    """Sum over q_min <= q <= q_max of the reduced-class prime variance
    sum_{(b,q)=1} (psi(N;q,b) - S_1(q)/phi(q))^2, from one variance_sweep
    of the table's Lambda (reduced_class_variances)."""
    _check_moduli(q_max, q_min)
    if q_min > q_max:
        return 0.0
    seq = table.lambda_sequence()
    sweep = variance_sweep(seq, q_max)
    return math.fsum(reduced_class_variances(seq, sweep)[q_min:])


def reduced_class_variances(seq: Sequence, sweep: VarianceSweep) -> np.ndarray:
    """The reduced-class prime variance of every modulus q <= Q (slot 0
    unused), from `seq`, Lambda on 1..N, and its variance_sweep up to Q.

    It is the full square sum T(q) of the sweep minus the classes b with
    (b, q) > 1, minus S_1(q)^2/phi(q), where
    S_1(q) = sum_{(n,q)=1} Lambda(n) = sum_{e|q} mu(e) M[e] is the
    convolution of mu M with 1, mu and M both the sweep's.  A class with
    (b, q) > 1 holds only powers p^j <= N of primes p | q, and powers of
    two different primes never share one (see _prime_power_class_squares).
    """
    s1 = convolve_ones(sweep.mu * sweep.sums)
    out = _prime_power_class_squares(seq.values, sweep.phi)
    # T - NR - S_1^2/phi, in the place of NR.
    np.subtract(sweep.square_sums, out, out=out)
    np.square(s1, out=s1)
    s1[1:] /= sweep.phi[1:]
    np.subtract(out[1:], s1[1:], out=out[1:])
    out[0] = 0.0
    return out


def _prime_power_class_squares(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """NR[q] = sum of t_b(q)^2 over the classes b mod q with (b, q) > 1,
    for Lambda, at every q <= q_max, in closed form, from Lambda(n) for
    n <= N = lam.size - 1 and phi(q) for q <= q_max = phi.size - 1 (a
    variance_sweep's).

    Such a class holds only powers p^i <= N of primes p | q, and for
    p | q the powers p^i and p^j fall in one class exactly when
    p^i = p^j mod q; several may (mod 6: 2, 8 and 32).  Write q = p^a m
    with p not dividing m, and L = L_p = floor(log_p N).  For i < j,
    p^i = p^j mod p^a exactly when i >= a, and mod m exactly when
    o = ord_m(p) divides j - i.  So among the c = L - a + 1 powers
    p^a..p^L each p^i pairs with the floor((L - i)/o) later ones, and
        pairs(c, o) = sum_{t >= 1} max(0, c - t o) = T c - o T (T + 1)/2,
    T = floor((c - 1)/o) (no pair when c <= o, a > L included), whence
        NR[q] = sum_{p|q} (log p)^2 (L_p + 2 pairs(L_p - a + 1, ord_m p)).
    A pair needs o <= L - a < L: m divides p^t - 1 for some t < L, and
    ord_m(p) is the least such t.  So each prime p <= sqrt(N) is one
    strided add of L (log p)^2 over pZ, then one add of
    2 pairs (log p)^2 at the few q = p^a m with m | p^t - 1, t < L (the
    divisors from arith.divisors, as p^t - 1 < N).  A larger prime
    has L = 1 and no pair, so it adds (log p)^2 to every q in pZ; those
    are added after the small primes, one multiplier j at a time over all
    such p <= q_max/j, in descending j, so every NR[q] adds its primes in
    ascending order, each as one rounded product of an integer and
    (log p)^2.  The primes are those p with phi(p) = p - 1, up to
    max(sqrt(N), q_max): phi is sieved again only up to sqrt(N), when
    that exceeds q_max.  No spf table is read.
    """
    n, q_max = lam.size - 1, phi.size - 1
    s = math.isqrt(n)
    if s > q_max:
        phi = moduli_tables(s, "phi")[0]
    primes = np.flatnonzero(phi == np.arange(-1, phi.size - 1))
    nr = np.zeros(q_max + 1)
    for p in primes[primes <= min(s, q_max)].tolist():
        sq = lam[p] ** 2
        lp, pt = 1, p                        # L_p: p^lp <= N < p^(lp + 1)
        while pt * p <= n:
            pt *= p
            lp += 1
        nr[p::p] += lp * sq
        order, pt = {}, 1                    # m -> ord_m(p), m <= q_max/p
        for t in range(1, lp):
            pt *= p
            for m in divisors(pt - 1):
                if m <= q_max // p:
                    order.setdefault(m, t)
        qs, counts = [], []
        for m, o in order.items():
            q = p * m
            for a in range(1, lp - o + 1):
                if q > q_max:
                    break
                c = lp - a + 1
                t = (c - 1) // o
                qs.append(q)
                counts.append(2 * (t * c - o * t * (t + 1) // 2))
                q *= p
        if qs:
            nr[qs] += np.array(counts, dtype=np.float64) * sq
    large = primes[(primes > s) & (primes <= min(q_max, n))]
    squares = lam[large] ** 2
    for j in range(q_max // (s + 1), 0, -1):
        top = np.searchsorted(large, q_max // j, side="right")
        nr[j * large[:top]] += squares[:top]
    return nr
