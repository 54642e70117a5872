"""Sieved arithmetic tables, Ramanujan sums, and exact-rational helpers.

Everything here is plain multiplicative number theory: segment-friendly
sieves for Lambda, mu, phi, d_j, smallest prime factors; Ramanujan sums
c_q(n) evaluated through the gcd formula (never by summing roots of
unity -- that path lives in the tests as an oracle); and generalized
binomial coefficients as exact fractions.
"""

from __future__ import annotations

import hashlib
import math
import os
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
    values[n] is a_n for 1 <= n <= N.
    """

    values: np.ndarray
    is_integer_valued: bool = False
    name: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a sequence needs at least one coefficient")
        v = v.copy()
        v[0] = 0.0
        if self.is_integer_valued and not np.all(v == np.round(v)):
            raise ValueError("is_integer_valued set but coefficients are not integers")
        self.values = v

    @property
    def n(self) -> int:
        return self.values.size - 1

    @classmethod
    def from_coeffs(cls, coeffs, is_integer_valued=False, name=""):
        """Build from a_1..a_N given without the dead zero slot."""
        arr = np.concatenate([[0.0], np.asarray(coeffs, dtype=np.float64)])
        return cls(arr, is_integer_valued=is_integer_valued, name=name)

    def int_values(self) -> np.ndarray:
        if not self.is_integer_valued:
            raise ValueError("sequence is not integer-valued")
        return self.values.astype(np.int64)

    def l2(self) -> float:
        return float(np.dot(self.values, self.values))

    def l1(self) -> float:
        return float(np.abs(self.values).sum())


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


def multiple_sums(values: np.ndarray, emax: int) -> np.ndarray:
    """M[e] = sum of values[n] over multiples n of e, for 1 <= e <= emax.

    The result has the dtype of `values`, so integer inputs sum exactly.
    """
    m = np.zeros(emax + 1, dtype=values.dtype)
    for e in range(1, emax + 1):
        m[e] = values[e::e].sum()
    return m


def ramanujan_convolution(m: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """C[d] = sum_{e | d} e mu(d/e) m[e] for 1 <= d < m.size.

    With m the multiple sums M[e] of a sequence this is the correlation
    sum_n a_n c_d(n) for every d at once (c_d(n) = sum_{e | (d,n)} e
    mu(d/e)), done as one strided update per e rather than a walk over
    the divisors of each d.  `mu` is a Moebius table of length >= m.size.
    """
    dmax = m.size - 1
    c = np.zeros_like(m)
    for e in range(1, dmax + 1):
        if m[e]:
            c[e::e] += (e * m[e]) * mu[1 : dmax // e + 1]
    return c


# Unit roundoff of float64, and the constant c of the per-lag FFT
# correlation bound c u log2(L) ||a||_2 ||b||_2 derived in lag_correlations.
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


def lag_correlations(seqs, pairs) -> list:
    """The symmetrized lag correlation of each pair (i, j) of `seqs`, from
    one real FFT of length L > 2N per sequence (all of one length N).

    For a pair (a, b), rho = irfft(Re(X conj Y)) with X, Y the length-L
    transforms; L > 2N keeps the circular correlation free of aliasing.
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
    kernels.  Under underflow each output of a length-L transform, fed by
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
    """
    n = seqs[0].n
    if any(s.n != n for s in seqs):
        raise ValueError("sequences must share their length N")
    length = 1 << (2 * n).bit_length()
    spectra = [np.fft.rfft(s.values, length) for s in seqs]
    scale = FFT_ERROR_CONSTANT * UNIT_ROUNDOFF * math.log2(length)
    products = FFT_ERROR_CONSTANT * length * math.log2(length)
    out = []
    for i, j in pairs:
        x, y = spectra[i], spectra[j]
        rho = np.fft.irfft(x.real * y.real + x.imag * y.imag, length)[: n + 1]
        a, b = seqs[i].values, seqs[j].values
        aa, bb = float(np.dot(a, a)), float(np.dot(b, b))
        eps = scale * math.sqrt(aa * bb) + float(
            underflow(products * (math.sqrt(aa) + math.sqrt(bb) + 2.0)))
        l1 = float(np.abs(a).sum())
        if (i == j and seqs[i].is_integer_valued and eps < 0.5
                and l1 * l1 < 2.0**62):
            out.append(LagCorrelation(np.rint(rho).astype(np.int64), 0.0, True))
        else:
            out.append(LagCorrelation(rho.copy(), eps, False))
    return out


def ramanujan_correlation(seq: Sequence, d: int, window=None):
    """Sum_{n<=N} a_n c_d(n), optionally weighted by Phi(n/N).

    Uses c_d(n) = sum_{e | (d,n)} e mu(d/e), so the cost is one
    multiple-sum per divisor of d.  Exact (a Python int) when the
    sequence is integer-valued and no window is supplied.
    """
    if d < 1:
        raise ValueError("d must be positive")
    n = seq.n
    if window is not None:
        vals = seq.values * window.phi(np.arange(n + 1) / n)
        exact = False
    else:
        vals = seq.values
        exact = seq.is_integer_valued
    if exact:
        iv = seq.int_values()
        total = 0
        for e in divisors(d):
            mu = mobius(d // e)
            if mu:
                total += e * mu * int(iv[e::e].sum())
        return total
    total = 0.0
    for e in divisors(d):
        mu = mobius(d // e)
        if mu:
            total += e * mu * float(vals[e::e].sum())
    return total


def ramanujan_correlations(seq: Sequence, ds, window=None) -> np.ndarray:
    """Bulk version of ramanujan_correlation over many moduli.

    Precomputes multiple-sums up to max(ds) once and convolves them with
    the Moebius table up to max(ds) (ramanujan_convolution).
    """
    ds = np.asarray(list(ds), dtype=np.int64)
    if not ds.size:
        return np.zeros(0)
    if ds.min() < 1:
        raise ValueError("moduli d must be positive")
    dmax = int(ds.max())
    n = seq.n
    if window is not None:
        vals = seq.values * window.phi(np.arange(n + 1) / n)
    else:
        vals = seq.values
    mu, _ = mobius_totient(dmax)
    return ramanujan_convolution(multiple_sums(vals, dmax), mu)[ds]


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


@dataclass
class SieveTable:
    """Immutable arithmetic tables on 1..n.

    lam is Lambda(n) as a float (log p); dk maps j -> d_j table for
    2 <= j <= k.  All arrays have length n+1 with slot 0 unused.
    """

    n: int
    k: int
    spf: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    lam: np.ndarray
    dk: dict = field(default_factory=dict)

    def primes(self) -> np.ndarray:
        return _primes_from_spf(self.spf)

    def lambda_sequence(self) -> Sequence:
        return Sequence(self.lam.copy(), is_integer_valued=False, name="lambda")

    def dk_sequence(self, j: int) -> Sequence:
        return Sequence(self.dk[j].astype(np.float64), is_integer_valued=True,
                        name=f"d{j}")


def _spf_sieve(n: int) -> np.ndarray:
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    idx = np.arange(n + 1)
    unset = (spf == 0) & (idx >= 2)
    spf[unset] = idx[unset]
    return spf


def _d2_sieve(n: int) -> np.ndarray:
    # Hyperbola trick: only sqrt(n) passes.
    d2 = np.zeros(n + 1, dtype=np.int64)
    for a in range(1, math.isqrt(n) + 1):
        d2[a * a] += 1
        d2[a * (a + 1) :: a] += 2
    return d2


def _primes_from_spf(spf: np.ndarray) -> np.ndarray:
    idx = np.arange(spf.size)
    return idx[(idx >= 2) & (spf == idx)]


def _mu_phi_sieve(n: int, primes: np.ndarray):
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes:
        mu[p::p] = -mu[p::p]
        p2 = int(p) * int(p)
        if p2 <= n:
            mu[p2::p2] = 0

    phi = np.arange(n + 1)
    for p in primes:
        phi[p::p] -= phi[p::p] // p
    return mu, phi


def mobius_totient(n: int):
    """(mu, phi) on 0..n, slot 0 holding 0: sieve_all's mu and phi
    tables without the rest, for a range of moduli (n = Q, not N)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _mu_phi_sieve(n, _primes_from_spf(_spf_sieve(n)))


def _convolve_ones(f: np.ndarray) -> np.ndarray:
    """Dirichlet convolution f * 1 on 1..n, along the first axis."""
    n = len(f) - 1
    g = np.zeros_like(f)
    for d in range(1, n + 1):
        g[d::d] += f[1 : n // d + 1]
    return g


def divisor_sieve(n: int, k: int) -> dict:
    """{j: d_j on 0..n} for 2 <= j <= k, slot 0 holding 0."""
    dk = {2: _d2_sieve(n)}
    for j in range(3, k + 1):
        dk[j] = _convolve_ones(dk[j - 1])
    return dk


def sieve_all(n: int, k: int = 2) -> SieveTable:
    """Tables for Lambda, mu, phi, spf and d_j (2 <= j <= k) on 1..n."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 2:
        raise ValueError("k must be at least 2")
    if n > MEMORY_BUDGET:
        raise CapacityError(f"n={n} exceeds memory budget {MEMORY_BUDGET}")

    cached = _cache_load(n, k)
    if cached is not None:
        return cached

    spf = _spf_sieve(n)
    primes = _primes_from_spf(spf)
    mu, phi = _mu_phi_sieve(n, primes)

    lam = np.zeros(n + 1, dtype=np.float64)
    for p in primes:
        lp = math.log(p)
        pk = int(p)
        while pk <= n:
            lam[pk] = lp
            pk *= int(p)

    table = SieveTable(n=n, k=k, spf=spf, mu=mu, phi=phi, lam=lam,
                       dk=divisor_sieve(n, k))
    _cache_store(table)
    return table


# ---------------------------------------------------------------------------
# Binary sieve cache (keyed by N, k; checksummed)


def _cache_dir():
    d = os.environ.get(CACHE_ENV)
    return Path(d) if d else None


def _cache_path(n, k):
    d = _cache_dir()
    return d / f"sieve_{n}_{k}.npz" if d else None


def _checksum(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _cache_store(table: SieveTable):
    path = _cache_path(table.n, table.k)
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"spf": table.spf, "mu": table.mu, "phi": table.phi, "lam": table.lam}
    for j, arr in table.dk.items():
        payload[f"d{j}"] = arr
    order = sorted(payload)
    payload["checksum"] = np.frombuffer(
        bytes.fromhex(_checksum([payload[key] for key in order])), dtype=np.uint8
    )
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **payload)
    tmp.replace(path)


def _cache_load(n, k):
    path = _cache_path(n, k)
    if path is None or not path.exists():
        return None
    try:
        with np.load(path) as z:
            payload = {key: z[key] for key in z.files if key != "checksum"}
            stored = bytes(z["checksum"]).hex()
    except Exception:
        return None
    order = sorted(payload)
    if _checksum([payload[key] for key in order]) != stored:
        return None
    dk = {}
    for key in payload:
        if key.startswith("d") and key[1:].isdigit():
            dk[int(key[1:])] = payload[key]
    if any(j not in dk for j in range(2, k + 1)):
        return None
    return SieveTable(n=n, k=k, spf=payload["spf"], mu=payload["mu"],
                      phi=payload["phi"], lam=payload["lam"], dk=dk)


# ---------------------------------------------------------------------------
# Named sequences for the CLI and experiments


def load_sequence(name: str, n: int, table: SieveTable | None = None) -> Sequence:
    """Resolve one of: lambda, d2, d3, d4, ones, file:<path>."""
    if name.startswith("file:"):
        path = name[5:]
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        vals = np.zeros(n + 1)
        for row in data:
            idx = int(row[0])
            if 1 <= idx <= n:
                vals[idx] = row[1]
        return Sequence(vals, name=name)
    if name == "ones":
        return Sequence.from_coeffs(np.ones(n), is_integer_valued=True, name="ones")
    if name == "lambda":
        table = table if table is not None and table.n >= n else sieve_all(n, 2)
        return Sequence(table.lam[: n + 1].copy(), name="lambda")
    if name in ("d2", "d3", "d4"):
        j = int(name[1])
        table = (table if table is not None and table.n >= n and j in table.dk
                 else sieve_all(n, j))
        return Sequence(table.dk[j][: n + 1].astype(np.float64),
                        is_integer_valued=True, name=name)
    raise ValueError(f"unknown sequence {name!r}")


def ramanujan_row(d: int, n_max: int) -> np.ndarray:
    """c_d(n) for n = 1..n_max as an integer array: c_d(n) depends only on
    gcd(n, d), so it is looked up from a table over the divisors of d."""
    table = np.zeros(d + 1, dtype=np.int64)
    for h in divisors(d):
        table[h] = ramanujan_sum(d, h)
    return table[np.gcd(np.arange(1, n_max + 1), d)]


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
