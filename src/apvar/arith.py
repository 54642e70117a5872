"""Sieved arithmetic tables, Ramanujan sums, and exact-rational helpers.

Everything here is plain multiplicative number theory: mu, phi and d_j
from one recurrence over the smallest prime factor, Lambda from the
primes; Ramanujan sums c_q(n) evaluated through the gcd formula (never
by summing roots of unity -- that path lives in the tests as an oracle);
and generalized binomial coefficients as exact fractions.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

# Largest N sieve_all will attempt before raising CapacityError.
MEMORY_BUDGET = 1 << 27

CACHE_ENV = "APVAR_CACHE_DIR"


class CapacityError(Exception):
    """Requested table exceeds the configured memory budget."""


# ---------------------------------------------------------------------------
# Sequences


@dataclass
class Sequence:
    """Finite coefficient array a_1..a_N.

    Stored as an array of length N+1 with a dead zero in slot 0, so that
    values[n] is a_n for 1 <= n <= N.  The array given is shared, not
    copied: only a dtype other than float64 or a slot 0 other than +0.0
    makes a copy.  `values` is a read-only view of it, so that no write
    through a sequence reaches a table other sequences share.
    is_integer_valued is read from the values: whether every a_n is an
    integer, which opens the exact paths.
    """

    values: np.ndarray
    is_integer_valued: bool = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a sequence needs at least one coefficient")
        if v[0] != 0.0 or np.signbit(v[0]):
            v = v.copy()
            v[0] = 0.0
        finite = np.isfinite(v)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"coefficient a_{i} = {v[i]} is not finite")
        self.values = v.view()
        self.values.flags.writeable = False
        self.is_integer_valued = bool(np.all(v == np.round(v)))

    @property
    def n(self) -> int:
        return self.values.size - 1

    @classmethod
    def from_coeffs(cls, coeffs):
        """Build from a_1..a_N given without the dead zero slot."""
        return cls(np.concatenate([[0.0],
                                   np.asarray(coeffs, dtype=np.float64)]))

    def int_values(self) -> np.ndarray:
        if not self.is_integer_valued:
            raise ValueError("sequence is not integer-valued")
        return self.values.astype(np.int64)

    def l2(self) -> float:
        return dot(self.values, self.values)

    def l1(self) -> float:
        return float(np.abs(self.values).sum())


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i as numpy's pairwise sum of the products, in this
    thread.  np.dot hands float vectors to BLAS, which may split the sum
    across its threads, so its last bits follow the thread count; a
    number that reaches a report is summed here instead."""
    return float(np.multiply(a, b).sum())


# ---------------------------------------------------------------------------
# Small-argument multiplicative functions (trial division, cached)


@lru_cache(maxsize=None)
def factorize(m: int) -> tuple:
    """Prime factorization of m >= 1 as a tuple of (p, exponent)."""
    if m < 1:
        raise ValueError("factorize wants m >= 1")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def mobius(m: int) -> int:
    mu = 1
    for _, e in factorize(m):
        if e > 1:
            return 0
        mu = -mu
    return mu


def totient(m: int) -> int:
    t = m
    for p, _ in factorize(m):
        t -= t // p
    return t


def divisors(m: int) -> list:
    ds = [1]
    for p, e in factorize(m):
        ds = [d * p**j for d in ds for j in range(e + 1)]
    return sorted(ds)


def is_squarefree(m: int) -> bool:
    return all(e == 1 for _, e in factorize(m))


def d_k_prime_power(k: int, b: int) -> int:
    """d_k(p^b) = C(b+k-1, k-1)."""
    return math.comb(b + k - 1, k - 1)


def d_k_of(k: int, m: int) -> int:
    out = 1
    for _, e in factorize(m):
        out *= d_k_prime_power(k, e)
    return out


# ---------------------------------------------------------------------------
# Ramanujan sums


def ramanujan_sum(q: int, n: int) -> int:
    """c_q(n) = mu(q/(q,n)) * phi(q) / phi(q/(q,n)); always an integer."""
    if q < 1:
        raise ValueError("q must be positive")
    g = math.gcd(n, q)
    d = q // g
    mu = mobius(d)
    if mu == 0:
        return 0
    return mu * (totient(q) // totient(d))


def _sum_type(a: np.ndarray) -> np.dtype:
    """The type the divisor-sum kernels sum `a` in: int64 for integers of
    any width, so that a narrow sieve table sums exactly, else a's own."""
    return np.dtype(np.int64) if a.dtype.kind in "biu" else a.dtype


def multiple_sums(values: np.ndarray, emax: int) -> np.ndarray:
    """M[e] = sum of values[n] over multiples n of e, for 1 <= e <= emax.

    Integer inputs of any width sum exactly, in int64 (_sum_type); any
    other input sums in its own dtype.
    Dirichlet hyperbola split at s = isqrt(N), N = values.size - 1: each
    e <= s is one strided sum, and the e > s, which have fewer than s
    multiples, are filled together one cofactor j <= s at a time
    (M[e] += values[je]), so the cost is about 2 sqrt(N) numpy calls.  A
    float M[e] with e > s is then a sequential sum of its floor(N/e)
    terms, within gamma_{floor(N/e) - 1} sum_j |values[je]| of the exact
    value, as numpy's pairwise sum of the same terms is.  The split
    depends on N alone, so each M[e] adds its terms in an order that does
    not depend on emax: a shorter table is a prefix of a longer one, bit
    for bit, which variance_sweep's rows rely on.
    """
    n = values.size - 1
    m = np.zeros(emax + 1, dtype=_sum_type(values))
    s = math.isqrt(n)
    for e in range(1, min(s, emax) + 1):
        m[e] = values[e::e].sum()
    for j in range(1, s + 1):
        top = min(emax, n // j)
        if top <= s:
            break
        m[s + 1 : top + 1] += values[j * (s + 1) : j * top + 1 : j]
    return m


def ramanujan_convolution(m: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """C[d] = sum_{e | d} e mu(d/e) m[e] for 1 <= d < m.size.

    With m the multiple sums M[e] of a sequence this is the correlation
    sum_n a_n c_d(n) for every d at once (c_d(n) = sum_{e | (d,n)} e
    mu(d/e)), done as strided updates rather than a walk over the
    divisors of each d.  `mu` is a Moebius table of length >= m.size.
    Integer m of any width is widened to int64 first (_sum_type).
    Hyperbola split at s = isqrt(dmax): one update C[e::e] per e <= s,
    then one C[j(s+1)::j] += e m[e] mu(j) over all e > s per cofactor
    j <= s, in descending j, so that every C[d] adds its terms in
    ascending e, as a walk over e would (bit for bit, floats included).
    That order does not depend on the table length, so C on a prefix of
    m is the prefix of C, bit for bit, which variance_sweep's rows rely on.
    """
    m = m.astype(_sum_type(m), copy=False)
    dmax = m.size - 1
    s = math.isqrt(dmax)
    c = np.zeros_like(m)
    for e in range(1, s + 1):
        if m[e]:
            c[e::e] += (e * m[e]) * mu[1 : dmax // e + 1]
    em = np.arange(dmax + 1) * m
    for j in range(dmax // (s + 1), 0, -1):
        if mu[j]:
            top = dmax // j
            c[j * (s + 1) : j * top + 1 : j] += em[s + 1 : top + 1] * mu[j]
    return c


# Unit roundoff of float64, and the constant c of the per-lag FFT
# correlation bound c u log2(L) ||a||_2 ||b||_2 derived in LagSpectra.
UNIT_ROUNDOFF = 2.0**-53
FFT_ERROR_CONSTANT = 32


def gamma(k):
    """gamma_k = k u / (1 - k u), the relative error bound of k roundings."""
    ku = np.asarray(k, dtype=np.float64) * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def underflow(k):
    """k e0, e0 = 2^-1074: the absolute error k rounded products or
    quotients may add under gradual underflow, where fl(x op y) =
    (x op y)(1 + delta) + e, |e| <= e0, and sums that underflow are exact
    (Higham, Accuracy and Stability, sec. 2.1).  k is rounded up to an
    integer, so the product is exact."""
    return np.ceil(np.asarray(k, dtype=np.float64)) * 2.0**-1074


@dataclass
class LagCorrelation:
    """rho(h) = (x(h) + x(-h)) / 2 for 0 <= h <= N, x(h) = sum_n a_{n+h} b_n.

    `error` bounds |rho^(h) - rho(h)| at every lag a priori; when `exact`,
    rho is an int64 array of the exact values and every sum of its
    entries stays below 2^62 in magnitude.
    """

    rho: np.ndarray
    error: float
    exact: bool


def transform_length(n: int) -> int:
    """The transform length L of LagSpectra for sequences a_1..a_N: the
    least 5-smooth integer 2^a 3^b 5^c above 2N."""
    m = 2 * n + 1
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two >= ceil(m / p35).
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class LagSpectra:
    """The real FFTs of sequences of one length N at one length L > 2N,
    with the squared norms ||a||_2^2 of the sequences; the spectral
    product Re(X conj Y) of a pair (i, j) and the autocorrelation of a
    sequence (`release`) are read from them.

    For a pair (a, b), rho = irfft(Re(X conj Y)) with X, Y the length-L
    transforms; L > 2N keeps the circular correlation free of aliasing.
    L is the least 5-smooth integer above 2N (transform_length), so numpy's
    transforms run radix-2, -3, -4 and -5 passes only; it is at most
    2^ceil(log2(2N + 1)), and never 1.25 times 2N + 1 once that exceeds 8.
    For b = a, rho(h) = r(h) = sum_n a_n a_{n+h} is the autocorrelation.

    Error bound, in the standard rounding model (u = 2^-53,
    gamma_k = ku/(1-ku)) extended to gradual underflow (`underflow`,
    e0 = 2^-1074): every computed lag satisfies |rho^(h) - rho(h)| <= eps,
    eps = c u log2(L) ||a||_2 ||b||_2 + c L log2(L) (||a||_2 + ||b||_2 + 2) e0
    with c = FFT_ERROR_CONSTANT.  The forward transforms X^ = X + E,
    Y^ = Y + F have ||E||_2 <= eta log2(L) ||X||_2 with eta <= 7u (Higham,
    Accuracy and Stability, Thm 24.2) and ||X||_2 ||Y||_2 = L ||a||_2 ||b||_2
    by Parseval.  The normalized inverse transform maps l1 into l-infinity
    with norm 1/L, so by Cauchy-Schwarz the error of Re(X^ conj Y^) costs
    at most (2 eta log2 L + (eta log2 L)^2 + 3u) ||a||_2 ||b||_2 per lag,
    and the inverse transform's own rounding at most
    eta log2(L) ||P||_1 / L <= eta log2(L) ||a||_2 ||b||_2 (every stage of
    the butterfly cone over P sums to ||P||_1).  That is under
    22 u log2(L) ||a||_2 ||b||_2; c = 32 keeps room for the mixed-radix
    kernels: a radix-r pass (r = 3, 5) formed as a length-r DFT of
    twiddled inputs rounds each output by at most (r + 5) u sum_m |x_m|,
    so the pass, of 2-norm sqrt(r), errs by at most (r + 5) sqrt(r) u
    relative: 8.7u (r = 3) and 9.6u (r = 5) per unit of the log2(r) it
    adds to log2(L), against 7u for radix 2, and 3 x 9.6 < 32.  Under
    underflow each output of a length-L transform, fed by
    each intermediate value along one path of butterflies and twiddles of
    modulus at most 1, carries fewer than P = c L log2(L) e0 absolute
    (one e0 per real product).  Through the product with the other
    spectrum and the normalized inverse that costs
    P (||X||_1 + ||Y||_1) / L <= P (||a||_2 + ||b||_2) per lag; the
    spectrum products (2 e0) and the inverse itself (P + e0) add under
    2P, and the slack in c covers second-order terms.  For an integer
    sequence paired with itself, when eps < 1/2 every r(h) is rounded to
    the integer it must be (`exact`), provided ||a||_1^2, which bounds
    sum_h |r(h)|, is below 2^62.

    Memory: the object holds one spectrum of L/2 + 1 complex values per
    sequence, and none of the sequences, so a sequence the caller drops
    dies once it is transformed.  `release` makes the product of a
    sequence with itself, L/2 + 1 complex values (the power in the real
    part, so irfft casts nothing), drops every spectrum, then runs the
    inverse transform's L floats and keeps N + 1 of them.
    """

    def __init__(self, seqs):
        n = seqs[0].n
        if any(s.n != n for s in seqs):
            raise ValueError("sequences must share their length N")
        self.n = n
        self.length = transform_length(n)
        # Whether release may round sequence i's lags to int64 (`exact`):
        # integer values with ||a||_1 < 2^31, so that ||a||_1^2 < 2^62.
        self.integral = [s.is_integer_valued and s.l1() < 2.0**31
                         for s in seqs]
        self.spectra = [np.fft.rfft(s.values, self.length) for s in seqs]
        self.squares = [s.l2() for s in seqs]
        # c L log2(L) e0 bounds the underflow of one transform's output.
        self.products = (FFT_ERROR_CONSTANT * self.length
                         * math.log2(self.length))

    def error(self, i: int, j: int) -> float:
        """eps of the pair (i, j): the per-lag bound above."""
        aa, bb = self.squares[i], self.squares[j]
        scale = FFT_ERROR_CONSTANT * UNIT_ROUNDOFF * math.log2(self.length)
        return scale * math.sqrt(aa * bb) + float(underflow(
            self.products * (math.sqrt(aa) + math.sqrt(bb) + 2.0)))

    def power(self, i: int, j: int, out: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
        """Re(X conj Y) of the pair (i, j) on 0..L/2, written into `out`
        and returned; `scratch`, of the same length, is overwritten."""
        x, y = self.spectra[i], self.spectra[j]
        np.multiply(x.real, y.real, out=out)
        out += np.multiply(x.imag, y.imag, out=scratch)
        return out

    def release(self, i: int) -> LagCorrelation:
        """The autocorrelation of sequence i by one inverse FFT, run after
        every spectrum is dropped: the product of sequence i with itself
        (its imaginary half is power's scratch, then zeroed) and the inverse
        transform's output are then the only arrays of the transform
        length alive.  Afterwards only `error`, `squares`, `n` and
        `length` can be read."""
        product = np.empty(self.length // 2 + 1, np.complex128)
        self.power(i, i, product.real, product.imag)
        product.imag = 0.0
        self.spectra = []
        eps = self.error(i, i)
        rho = np.fft.irfft(product, self.length)[: self.n + 1]
        if self.integral[i] and eps < 0.5:
            return LagCorrelation(np.rint(rho).astype(np.int64), 0.0, True)
        return LagCorrelation(rho.copy(), eps, False)


def ramanujan_correlations(values: np.ndarray, ds) -> np.ndarray:
    """C_d = sum_{n<=N} a_n c_d(n) for every d in ds, of the values
    a_0..a_N (a_0 is not read).

    Precomputes multiple-sums up to max(ds) once and convolves them with
    the Moebius table up to max(ds) (ramanujan_convolution).
    """
    ds = np.asarray(list(ds), dtype=np.int64)
    if not ds.size:
        return np.zeros(0)
    if ds.min() < 1:
        raise ValueError("moduli d must be positive")
    dmax = int(ds.max())
    mu = moduli_tables(dmax, "mu")[0]
    return ramanujan_convolution(multiple_sums(values, dmax), mu)[ds]


# ---------------------------------------------------------------------------
# Generalized binomial coefficients


def gen_binomial(x: int, j: int) -> Fraction:
    """x(x-1)...(x-j+1)/j! as an exact fraction; x may be negative."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    num = 1
    for i in range(j):
        num *= x - i
    return Fraction(num, math.factorial(j))


# ---------------------------------------------------------------------------
# Sieve tables


# The type of each integer sieve array on 0..N, the narrowest that holds
# every value for N <= MEMORY_BUDGET: spf(n) and phi(n) are at most
# n < 2^31; d(n) <= 2 sqrt(n) < 2^15, as the divisors e <= sqrt(n) pair
# with the others by e -> n/e; and d_3(n) = sum_{e|n} d(e) <= d(n)^2 <=
# 4n < 2^31.  d_j for j >= 4 (d_4(n) <= d(n)^3 passes 2^31) is int64,
# and the recurrence checks that it fits (_spf_recurrence).
_TABLE_TYPES = {"spf": np.int32, "mu": np.int8, "phi": np.int32,
                "d2": np.int16, "d3": np.int32}


def _table_type(name: str) -> np.dtype:
    return np.dtype(_TABLE_TYPES.get(name, np.int64))


class SieveTable:
    """Immutable arithmetic tables on 1..n.

    lam is Lambda(n) as a float (log p); dk maps j -> d_j table for
    2 <= j <= k.  The integer arrays have the types of _TABLE_TYPES (d_j
    for j >= 4 in int64); readers that do integer arithmetic on them
    widen first.  All arrays have length n+1 with slot 0 unused.  The
    arrays are read by name (spf, mu, phi, lam, d2..dk) from an _Arrays,
    one rule for each array: from memory, else from its own cache file,
    checked on first access, else computed alone from spf and stored.
    """

    def __init__(self, n: int, k: int, arrays):
        self.n, self.k = n, k
        self._arrays = arrays
        self.dk = _DivisorTables(arrays, k)

    spf = property(lambda self: self._arrays["spf"])
    mu = property(lambda self: self._arrays["mu"])
    phi = property(lambda self: self._arrays["phi"])
    lam = property(lambda self: self._arrays["lam"])

    def lambda_sequence(self) -> Sequence:
        return Sequence(self.lam)

    def dk_sequence(self, j: int) -> Sequence:
        return Sequence(self.dk[j])


class _DivisorTables(Mapping):
    """The read-only mapping j -> d_j, 2 <= j <= k, over a table's arrays;
    membership and iteration read no array."""

    def __init__(self, arrays, k: int):
        self._arrays, self._k = arrays, k

    def __getitem__(self, j):
        if j not in self:
            raise KeyError(j)
        return self._arrays[f"d{j}"]

    def __contains__(self, j):
        return j in range(2, self._k + 1)

    def __iter__(self):
        return iter(range(2, self._k + 1))

    def __len__(self):
        return self._k - 1


def _spf_sieve(n: int) -> np.ndarray:
    """The smallest prime factor of each 2 <= m <= n, slots 0 and 1
    holding 0; every composite is marked by a prime up to sqrt(n), and
    the entries still 0 after slot 1 are the primes themselves."""
    spf = np.zeros(n + 1, dtype=_table_type("spf"))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    primes = np.flatnonzero(spf == 0)[2:]
    spf[primes] = primes
    return spf


def primes_from_spf(spf: np.ndarray) -> np.ndarray:
    """The primes p < spf.size, read from a smallest-prime-factor table
    (slot 0, holding 0, is the one other m with spf(m) = m)."""
    return np.flatnonzero(spf == np.arange(spf.size, dtype=spf.dtype))[1:]


# The most indices one block of _spf_recurrence fills, bounding its temporaries.
_BLOCK = 1 << 20
_INT64_MAX = 2**63 - 1


def _spf_recurrence(spf: np.ndarray, names) -> dict:
    """The tables named (mu, phi or d_j for j >= 2) on 0..n by name, slot 0
    holding 0, each in its _table_type, from the smallest prime factor
    table spf; no other table is built.  Each block forms its d_j in
    int64 temporaries (phi in int32, which holds phi(n) <= n) and writes
    them to the narrow tables.

    With p = spf(n) and m = n/p, p | m exactly when spf(m) = p; then the
    exponent e of p in n is one more than in m (else 1), mu(n) = 0 (else
    -mu(m)), phi(n) = phi(m) p (else phi(m) (p - 1)), and always
    d_j(n) = d_j(m) (e + j - 1) / e, as d_j(p^e) = C(e + j - 1, j - 1), so
    each table reads only itself, spf and the exponents.  d_j is exact in
    int64 while the largest intermediate, d_j(m) (e + j - 1) = d_j(n) e,
    fits; before any entry would leave int64 (d_100(2^16) = C(115, 16) >
    2^63) a CapacityError names j as k, and N.  As m <= n/2, the blocks
    [a, min(2a, a + _BLOCK)) fill in order from earlier ones; the
    exponents fit int8, as e <= log2(n) <= 27 under MEMORY_BUDGET."""
    n = spf.size - 1
    tables = {name: np.zeros(n + 1, _table_type(name)) for name in names}
    exp = np.zeros(n + 1, np.int8)
    for table in tables.values():
        table[1:2] = 1
    a = 2
    while a <= n:
        b = min(2 * a, a + _BLOCK, n + 1)
        p = spf[a:b]
        m = np.arange(a, b) // p
        same = spf[m] == p
        exp[a:b] = e = np.where(same, exp[m] + 1, 1)
        e = e.astype(np.int64)
        e_max = int(e.max())
        for name, table in tables.items():
            tm = table[m]
            if name == "mu":
                table[a:b] = np.where(same, 0, -tm)
            elif name == "phi":
                table[a:b] = tm * np.where(same, p, p - 1)
            else:
                j = int(name[1:])
                # d_j(m) (e + j - 1) must fit int64; the block's largest
                # d_j(m) and e clear most blocks without a per-entry check.
                if (int(tm.max()) > _INT64_MAX // (e_max + j - 1)
                        and np.any(tm > _INT64_MAX // (e + (j - 1)))):
                    raise CapacityError(
                        f"d_{j}(n) for some n < {b} exceeds int64: no d_k "
                        f"table at k={j}, N={n}")
                table[a:b] = tm * (e + (j - 1)) // e
        a = b
    return tables


def moduli_tables(n: int, *names) -> tuple:
    """The tables named ("mu", "phi" or "d<j>", j >= 2) on 0..n, in the
    order named, slot 0 holding 0: sieve_all's arrays of those names
    (_computed, uncached), for a range of moduli (n = Q, KQ0 or R, not N).
    At n = 0 each table is slot 0 alone.  n is held to MEMORY_BUDGET, as
    in sieve_all, where _TABLE_TYPES hold."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MEMORY_BUDGET:
        raise CapacityError(f"n={n} exceeds memory budget {MEMORY_BUDGET}")
    tables = _computed(n, names)
    return tuple(tables[name] for name in names)


def convolve_ones(f: np.ndarray) -> np.ndarray:
    """Dirichlet convolution f * 1 on 1..n.

    Hyperbola split at s = isqrt(n): g[d::d] += f[1 : n/d + 1] for each
    d <= s, then g[jd] += f[j] over all d > s for each cofactor j <= s,
    in descending j, so every g[q] adds f[q/d] in ascending d as a pass
    per d would (bit for bit, floats included).  That order does not
    depend on n, so g on a prefix of f is the prefix of g, bit for bit,
    which variance_sweep's rows rely on.  Integer f of any width sums in
    int64 (_sum_type).
    """
    n = len(f) - 1
    s = math.isqrt(n)
    g = np.zeros(f.size, _sum_type(f))
    for d in range(1, s + 1):
        g[d::d] += f[1 : n // d + 1]
    for j in range(n // (s + 1), 0, -1):
        g[j * (s + 1) : j * (n // j) + 1 : j] += f[j]
    return g


def _computed(n: int, names, spf=None) -> dict:
    """The arrays named (spf, lam, mu, phi or d<j>) on 0..n by name, slot
    0 holding 0: mu, phi and the d_j in one _spf_recurrence pass over spf,
    Lambda from its primes.  spf is sieved when it is not given, and then
    returned with them, named or not; it is named only then."""
    arrays = {}
    if spf is None:
        spf = arrays["spf"] = _spf_sieve(n)
    recurrence = [name for name in names if name not in ("spf", "lam")]
    if recurrence:
        arrays.update(_spf_recurrence(spf, recurrence))
    if "lam" in names:
        # math.log of each prime (np.log may differ in the last bit), then
        # its powers p^i <= n for the primes p <= sqrt(n).
        primes = primes_from_spf(spf)
        lam = arrays["lam"] = np.zeros(n + 1, dtype=np.float64)
        lam[primes] = np.fromiter(map(math.log, primes), float, primes.size)
        for p in primes[primes <= math.isqrt(n)].tolist():
            pk = p * p
            while pk <= n:
                lam[pk] = lam[p]
                pk *= p
    return arrays


def sieve_all(n: int, k: int = 2) -> SieveTable:
    """Tables for Lambda, mu, phi, spf and d_j (2 <= j <= k) on 1..n.

    The arrays of (n, k) that have no valid cache file (with no cache
    directory: all of them) are computed now, in one pass (_computed), and
    stored; each other array is read from its file on first access, and
    computed alone should that fail (_Arrays).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    arrays = _Arrays(n, ("spf", "lam", "mu", "phi",
                         *(f"d{j}" for j in range(2, k + 1))))
    arrays.compute([name for name, e in arrays.entries.items() if e is None])
    return SieveTable(n, k, arrays)


# ---------------------------------------------------------------------------
# Binary sieve cache: one file per (N, array)
#
# The file of array <name> of the tables on 0..N is sieve_<N>_<name>.bin:
# one header line, `_CACHE_FORMAT <source digest in hex> <name> <dtype>
# <length> <sha256>`, then the raw array.  An _Arrays reads the header of
# each array it is named; each array is read and checked on first access.

_CACHE_FORMAT = "apvar-sieve-array-1"
_LINE = 256     # the longest header line read


def _cache_path(n, name):
    d = os.environ.get(CACHE_ENV)
    return Path(d) / f"sieve_{n}_{name}.bin" if d else None


@lru_cache(maxsize=None)
def _source_digest() -> bytes:
    """The sha256 of this module's source, read once: the sieve code that
    made a cached array."""
    return hashlib.sha256(Path(__file__).read_bytes()).digest()


def _array_digest(name: str, a: np.ndarray) -> str:
    """An array's sha256, seeded with _source_digest and the array's name,
    dtype and length, so that an array cached by other sieve code, or
    under another name or shape, fails it."""
    h = hashlib.sha256(_source_digest())
    h.update(f"{name} {a.dtype.str} {a.size}".encode())
    h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def _cache_store(n, arrays: dict):
    """Write each array of a table on 0..n to its own file (no cache
    directory: nothing), each in one atomic replace through a temp file
    of this write's own, so that writers of the same array, in one
    process or several, never rename each other's file."""
    for name, a in arrays.items():
        path = _cache_path(n, name)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.stem}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(f"{_CACHE_FORMAT} {_source_digest().hex()} {name} "
                     f"{a.dtype.str} {a.size} {_array_digest(name, a)}\n"
                     .encode())
            fh.write(np.ascontiguousarray(a))
        tmp.replace(path)


def _cache_entry(n, name):
    """The header of array <name>'s file on 0..n, from its line alone, or
    None with no cache directory, or when the file is missing or
    unreadable, or holds an array of other sieve code, another name or
    another length."""
    path = _cache_path(n, name)
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            head = fh.readline(_LINE)
        tag, source, stored, dtype, length, digest = head.decode().split()
        if ([tag, source, stored, int(length)]
                != [_CACHE_FORMAT, _source_digest().hex(), name, n + 1]):
            return None
        return path, np.dtype(dtype), n + 1, len(head), digest
    except (OSError, ValueError, TypeError):
        return None


def _read_verified(name, entry):
    """One cached array, read after its file's header line and checked
    against its sha256; None when the read fails, comes up short or does
    not match."""
    path, dtype, length, offset, digest = entry
    try:
        a = np.fromfile(path, dtype, count=length, offset=offset)
    except OSError:
        return None
    if a.size != length or _array_digest(name, a) != digest:
        return None
    return a


class _Arrays:
    """The arrays of one table on 0..n by name.  The header of spf and of
    each array named is read once, here.  An array is served from memory,
    else from its own file (its sha256 checked on first access), else
    computed alone from spf and stored (`compute`)."""

    def __init__(self, n, names):
        if n < 1:
            raise ValueError("n must be positive")
        if n > MEMORY_BUDGET:
            raise CapacityError(f"n={n} exceeds memory budget {MEMORY_BUDGET}")
        self.n = n
        self.entries = {name: _cache_entry(n, name)
                        for name in dict.fromkeys(("spf", *names))}
        self._arrays = {}

    def _read(self, name):
        """The array from memory, else from its valid file (then kept in
        memory), else None."""
        if name not in self._arrays and self.entries[name] is not None:
            self._arrays[name] = _read_verified(name, self.entries[name])
        return self._arrays.get(name)

    def __getitem__(self, name):
        if self._read(name) is None:
            self.compute([name])
        return self._arrays[name]

    def compute(self, names):
        """Compute the arrays named in one pass from spf, and store them.
        spf comes from memory or its valid file; failing both (as when it
        is named) it is sieved, and kept and stored too."""
        if names:
            arrays = _computed(self.n, names, self._read("spf"))
            _cache_store(self.n, arrays)
            self._arrays.update(arrays)


# ---------------------------------------------------------------------------
# Named sequences for the CLI and experiments


def load_sequence(name: str, n: int) -> Sequence:
    """Resolve one of: lambda, d2, d3, d4, ones, file:<path>.

    A sieve sequence reads or computes its one array alone (_Arrays).

    A file holds rows `n,a_n`, each n an integer >= 1 given once; rows with
    n > N are dropped, and the coefficients must be finite (Sequence)."""
    if name.startswith("file:"):
        path = name[5:]
        # loadtxt warns on a file without rows; that is raised below.
        with warnings.catch_warnings(action="ignore", category=UserWarning):
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        if not data.size:
            raise ValueError(f"{path}: no rows n,a_n")
        if data.shape[1] != 2:
            raise ValueError(f"{path}: rows must be n,a_n, found "
                             f"{data.shape[1]} column(s)")
        idx, coeffs = data.reshape(-1, 2).T
        bad = np.flatnonzero(~((idx >= 1) & (idx == np.round(idx))))
        if bad.size:
            raise ValueError(f"{path}: index {idx[bad[0]]:g} in row "
                             f"{bad[0] + 1} is not an integer >= 1")
        again = np.setdiff1d(np.arange(idx.size),
                             np.unique(idx, return_index=True)[1])
        if again.size:
            raise ValueError(f"{path}: index {idx[again[0]]:g} in row "
                             f"{again[0] + 1} repeats an earlier row")
        keep = idx <= n
        vals = np.zeros(n + 1)
        vals[idx[keep].astype(np.int64)] = coeffs[keep]
        return Sequence(vals)
    if name == "ones":
        return Sequence.from_coeffs(np.ones(n))
    if name in ("lambda", "d2", "d3", "d4"):
        array = "lam" if name == "lambda" else name
        return Sequence(_Arrays(n, [array])[array])
    raise ValueError(f"unknown sequence {name!r}")


def ramanujan_row(d: int, n_max: int) -> np.ndarray:
    """c_d(n) for n = 1..n_max as an integer array: c_d(n) depends only on
    gcd(n, d), so one period n = 1..d is looked up from a table over the
    divisors of d and tiled out to n_max."""
    table = np.zeros(d + 1, dtype=np.int64)
    for h in divisors(d):
        table[h] = ramanujan_sum(d, h)
    period = table[np.gcd(np.arange(1, min(d, n_max) + 1), d)]
    return np.tile(period, -(-n_max // d))[:n_max]


def check_lemma1_matrix(q: int, m_max: int, n_max: int,
                        fault: bool = False) -> bool:
    """Exact check of the orthogonality identity
    sum_{d|q} c_d(m) c_d(n) / phi(d) = 0 unless (m,q) = (n,q) = h, in
    which case it equals q/phi(q/h); all m <= m_max, n <= n_max at once.

    Works over integers after scaling by lcm of the phi(d); `fault`
    perturbs one Ramanujan value (self-test hook for the verifier).
    """
    divs = divisors(q)
    scale = math.lcm(*(totient(d) for d in divs))
    lhs = np.zeros((m_max, n_max), dtype=np.int64)
    for d in divs:
        row_m = ramanujan_row(d, m_max)
        row_n = row_m[:n_max] if n_max <= m_max else ramanujan_row(d, n_max)
        if fault and d == max(divs):
            row_m = row_m.copy()
            row_m[0] += 1
        lhs += (scale // totient(d)) * np.outer(row_m, row_n)
    gm = np.gcd(np.arange(1, m_max + 1), q)
    gn = np.gcd(np.arange(1, n_max + 1), q)
    same = gm[:, None] == gn[None, :]
    hvals = {h: scale * q // totient(q // h) for h in divs}
    rhs = np.where(same, np.vectorize(lambda h: hvals[int(h)])(gm)[:, None], 0)
    return bool(np.array_equal(lhs, rhs))
