"""Independent numerical oracles used by the unit and acceptance tests.

These deliberately avoid the library's own closed forms: residues are
computed as honest nested contour integrals, transforms by composite
Gauss-Legendre quadrature, and Dirichlet series by partial summation.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from apvar.arith import (UNIT_ROUNDOFF, CapacityError, LagSpectra, Sequence,
                         _spf_sieve, convolve_ones, d_k_prime_power, divisors,
                         factorize, gamma, moduli_tables, multiple_sums,
                         primes_from_spf, ramanujan_convolution,
                         ramanujan_sum, totient, underflow)
from apvar.circle import ArcSystem
from apvar.pipeline import ramanujan_tail
from apvar.variance import _exact_class_sums, exp_variance_H, variance_mod_q
from apvar.windows import (_FACTORIALS, _MOMENTS, _SAMPLES, SmoothWindow,
                           weight_sum_q)

EULER_GAMMA = 0.5772156649015329
FAREY_ENUMERATION_CAP = 10_000


@functools.cache
def _triple_contour_kernel(k: int, m_z: int, m_s: int, m_w: int):
    """The 40-digit nodes of triple_contour_polynomial's three circles and
    its kernel (s+z)^(k-1) / (s+z+w)^(k(k-1)) at every node triple, which
    depend on neither N, R nor KQ0: kernel[i][j] is the row over w at
    (z_i, s_j)."""
    import mpmath as mp

    with mp.workdps(40):
        r_z, r_s, r_w = mp.mpf("0.5"), mp.mpf("0.04"), mp.mpf("0.08")
        kk = k * (k - 1)
        zs = [r_z * mp.expjpi(2 * mp.mpf(i) / m_z) for i in range(m_z)]
        ss = [r_s * mp.expjpi(2 * mp.mpf(i) / m_s) for i in range(m_s)]
        ws = [r_w * mp.expjpi(2 * mp.mpf(i) / m_w) for i in range(m_w)]
        kernel = [[[(s + z) ** (k - 1) / (s + z + w) ** kk for w in ws]
                   for s in ss] for z in zs]
    return zs, ss, ws, kernel


def triple_contour_polynomial(k: int, log_n: float, log_r: float,
                              log_kq0: float, m_z: int = 48, m_s: int = 24,
                              m_w: int = 40) -> float:
    """The triple residue behind the explicit polynomial, as a nested
    contour integral in (z, s, w) around 0 with radii chosen so that
    s + z and s + z + w stay away from zero on the product of circles.

    Integrand: (s+z)^(k-1) / (s^k w^k (s+z+w)^(k(k-1)) z)
               x e^(s log R) e^(w log N) (e^(z log R) - e^(z log KQ0)).

    The z-pole has order up to k^2, which makes the extraction badly
    conditioned in double precision for k = 4, so the quadrature runs in
    40-digit mpmath arithmetic.  The nodes and the kernel
    (s+z)^(k-1) / (s+z+w)^(k(k-1)) are computed once per k
    (_triple_contour_kernel); each call computes the factors that depend
    on one node alone (e^(w log N) / w^(k-1), e^(s log R) / s^(k-1) and
    the z bracket) and sums their products with the kernel.  The w
    radius is kept small relative to |s + z| >= r_z - r_s because the
    trapezoid alias picks up the coefficient of w^(m_w - 1) in the
    binomial expansion of (s + z + w)^(-k(k-1)); with k = 4 that
    coefficient grows like C(m_w + 10, 11) |s+z|^(-12-m_w), so the node
    count must beat polynomial-times-geometric growth, not just the
    geometric ratio r_w / |s+z|.
    """
    import mpmath as mp

    zs, ss, ws, kernel = _triple_contour_kernel(k, m_z, m_s, m_w)
    with mp.workdps(40):
        ez = [mp.exp(z * log_r) - mp.exp(z * log_kq0) for z in zs]
        es = [mp.exp(s * log_r) / s ** (k - 1) for s in ss]
        ew = [mp.exp(w * log_n) / w ** (k - 1) for w in ws]
        terms = [es_s * ez_z * mp.fdot(row, ew)
                 for ez_z, rows in zip(ez, kernel)
                 for es_s, row in zip(es, rows)]
        total = mp.fsum(terms) / (m_z * m_s * m_w)
        return float(mp.re(total))


def leading_coeff_closed_form(k: int) -> Fraction:
    """The leading coefficient of polynomial_69 in alpha = log R / log N
    in closed form, (-1)^(k-1) / ((k-1)! (k(k-1)-1)! (k^2-1)): the oracle
    of dirichlet.leading_coeff_69."""
    return (Fraction((-1) ** (k - 1))
            / (math.factorial(k - 1) * math.factorial(k * (k - 1) - 1)
               * (k * k - 1)))


def partial_dirichlet_sum(coeffs: np.ndarray, s: float) -> float:
    """sum coeffs[n] n^(-s) over the array (slot 0 ignored)."""
    n = np.arange(coeffs.size, dtype=np.float64)
    n[0] = 1.0
    return float(np.sum(coeffs[1:] * n[1:] ** (-s)))


def zeta_mpmath(s):
    import mpmath
    return complex(mpmath.zeta(complex(s)))


def divisor_square_main_term(m: int = 128) -> tuple:
    """Coefficients (A, B, C, D) of Ramanujan's main term
    sum_{n<=N} d(n)^2 = N (A L^3 + B L^2 + C L + D) + O(N^(1/2+eps)),
    L = log N, from the Dirichlet series sum d(n)^2 n^(-s) = zeta(s)^4 /
    zeta(2s) rather than from any tabulated constant.

    Perron's formula puts the main term at the residue of
    zeta(s)^4 N^s / (zeta(2s) s) at s = 1.  With G(s) = zeta(s)^4 /
    (zeta(2s) s) = sum_m a_m (s-1)^m this is N sum_j a_(-1-j) L^j / j!,
    and each a_(-1-j) is the trapezoid rule for the contour integral of
    G(s) (s-1)^j on |s - 1| = 1/4.  zeta(2s) has no zeros inside (Re 2s
    >= 3/2 there) and the nearest other singularity, the pole of 1/s, is
    at distance 1, so the alias error is about 4^(-m): with m = 128 the
    40-digit arithmetic, not the node count, limits the result.
    """
    import mpmath as mp

    with mp.workdps(40):
        r = mp.mpf("0.25")
        acc = [mp.mpc(0)] * 4
        for i in range(m):
            u = r * mp.expjpi(2 * mp.mpf(i) / m)
            g = mp.zeta(1 + u) ** 4 / (mp.zeta(2 + 2 * u) * (1 + u))
            for j in range(4):
                acc[j] += g * u ** (j + 1)
        return tuple(float(mp.re(acc[j]) / (m * mp.factorial(j)))
                     for j in (3, 2, 1, 0))


def _factor(q: int) -> list:
    """(p, a) with p^a || q, by trial division."""
    out, p = [], 2
    while p * p <= q:
        a = 0
        while q % p == 0:
            q //= p
            a += 1
        if a:
            out.append((p, a))
        p += 1
    return out + [(q, 1)] if q > 1 else out


def local_factor_closed_form(p: int, a: int, k: int, s):
    """The factor at p^a || q of F_q(s) in closed form (mpmath), x = p^-s:
    (1-x)^k (-d_k(p^(a-1)) p^((a-1)(1-s)) + phi(p^a) I),
    I = (1-x)^(-k) - sum_{b<a} d_k(p^b) x^b, d_k(p^b) = C(b+k-1, k-1):
    the inner series sum_{b >= a} d_k(p^b) x^b summed as the binomial
    series minus its first a terms."""
    import mpmath as mp

    x = mp.mpf(p) ** (-s)
    inner = (1 - x) ** (-k) - mp.fsum(math.comb(b + k - 1, k - 1) * x**b
                                      for b in range(a))
    head = -math.comb(a + k - 2, k - 1) * mp.mpf(p) ** ((a - 1) * (1 - s))
    return (1 - x) ** k * (head + (p**a - p ** (a - 1)) * inner)


def dk_correlation_residue(q: int, k: int, n: int) -> float:
    """Res at s = 1 of zeta(s)^k F_q(s) n^s / s as a Laurent-series
    product rather than a contour: ((s-1) zeta(s))^k = sum_j c_j (s-1)^j
    from zeta(s) = 1/(s-1) + sum_j (-1)^j gamma_j (s-1)^j / j! (mpmath's
    Stieltjes constants), times the Taylor coefficients g_m of
    F_q(s) n^s / s, with F_q the product of local_factor_closed_form:
    the residue is sum_{j<k} c_j g_{k-1-j}."""
    import mpmath as mp

    with mp.workdps(30):
        z = [mp.mpf(1)] + [(-1) ** j * mp.stieltjes(j) / mp.factorial(j)
                           for j in range(k - 1)]
        c = [mp.mpf(1)] + [mp.mpf(0)] * (k - 1)
        for _ in range(k):
            c = [mp.fsum(c[i] * z[j - i] for i in range(j + 1))
                 for j in range(k)]

        def g(s):
            out = mp.mpf(n) ** s / s
            for p, a in _factor(q):
                out *= local_factor_closed_form(p, a, k, s)
            return out

        taylor = mp.taylor(g, 1, k - 1)
        return float(mp.re(mp.fsum(c[j] * taylor[k - 1 - j]
                                   for j in range(k))))


def ramanujan_tail_from_scratch(seq, q_max, q0) -> float:
    """pipeline.ramanujan_tail of `seq` over q <= q_max with mu, phi and
    every C_d computed afresh, not taken from a variance sweep."""
    mu, phi = moduli_tables(int(q_max), "mu", "phi")
    corrs = ramanujan_convolution(multiple_sums(seq.values, int(q_max)), mu)
    return ramanujan_tail(corrs, phi, q0)


def lag_correlation_direct(a: np.ndarray, b: np.ndarray) -> tuple:
    """(rho, error): rho(h) = (x(h) + x(-h)) / 2 for 0 <= h <= N,
    x(h) = sum_n a_{n+h} b_n, of value arrays a_0..a_N and b_0..b_N, by
    np.correlate, each lag a direct sum of at most N + 1 products and no
    FFT; every lag errs by at most error = gamma_{N+2} ||a||_2 ||b||_2
    (Cauchy-Schwarz)."""
    n = a.size - 1
    full = np.correlate(a, b, "full")          # x(h) at index h + N
    ab = math.sqrt(math.fsum(a * a) * math.fsum(b * b))
    return (full[n:] + full[n::-1]) / 2.0, float(gamma(n + 2)) * ab


def float_sweep_abs_route(seq, q_max: int) -> tuple:
    """(v, error) of variance_sweep's float route over q <= q_max, with
    the bound's |a| multiple sums taken from multiple_sums(np.abs(a))
    always, through the same kernels in the same order."""
    corr = LagSpectra([seq]).release(0)
    assert not corr.exact
    n, r = seq.n, corr.rho
    squares = r[0] + 2 * multiple_sums(r, q_max)
    err = np.zeros(q_max + 1)
    eps, l1 = corr.error, float(np.abs(seq.values).sum())
    lags = 1.0 + 2.0 * (n // np.arange(1, q_max + 1))
    err[1:] = lags * eps + gamma(lags) * (l1 * l1 + lags * eps)
    mu, phi, d2 = moduli_tables(q_max, "mu", "phi", "d2")
    m = multiple_sums(seq.values, q_max)
    c = ramanujan_convolution(m.astype(np.float64), mu)
    c_abs = ramanujan_convolution(
        multiple_sums(np.abs(seq.values), q_max), np.abs(mu))
    ds = np.arange(q_max + 1)
    dc = gamma(2 * (n + ds + 1)) * c_abs + underflow(ds)
    w, dw = np.zeros(q_max + 1), np.zeros(q_max + 1)
    w[1:] = c[1:] ** 2 / phi[1:]
    dw[1:] = (2.0 * np.abs(c[1:]) + dc[1:]) * dc[1:] / phi[1:] \
        + gamma(4) * w[1:]
    g, dg = convolve_ones(w)[1:], convolve_ones(dw)[1:]
    tau = d2[1:]
    q = np.arange(1, q_max + 1)
    v = np.zeros(q_max + 1)
    v[1:] = squares[1:] - g / q
    err[1:] += ((dg + gamma(tau + 1) * g) / q
                + gamma(2) * (np.abs(squares[1:]) + np.abs(v[1:]))
                + underflow(8 * tau + 16))
    np.maximum(v, 0.0, out=v)
    return v, err


# ---------------------------------------------------------------------------
# One numpy pass per index: the divisor-sum kernels of apvar.arith and
# apvar.variance before their hyperbola split, and ramanujan_row before
# its tiling, kept to pin them.


def ramanujan_row_gcd(d: int, n_max: int) -> np.ndarray:
    """c_d(n) for n = 1..n_max, looked up at gcd(n, d) for every n."""
    table = np.zeros(d + 1, dtype=np.int64)
    for h in divisors(d):
        table[h] = ramanujan_sum(d, h)
    return table[np.gcd(np.arange(1, n_max + 1), d)]


def multiple_sums_loop(values: np.ndarray, emax: int) -> np.ndarray:
    """M[e] = sum of values[n] over multiples n of e, one pass per e."""
    m = np.zeros(emax + 1, dtype=values.dtype)
    for e in range(1, emax + 1):
        m[e] = values[e::e].sum()
    return m


def ramanujan_convolution_loop(m: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """C[d] = sum_{e | d} e mu(d/e) m[e], one strided update per e."""
    dmax = m.size - 1
    c = np.zeros_like(m)
    for e in range(1, dmax + 1):
        if m[e]:
            c[e::e] += (e * m[e]) * mu[1 : dmax // e + 1]
    return c


def convolve_ones_loop(f: np.ndarray) -> np.ndarray:
    """Dirichlet convolution f * 1 on 1..n, one pass per d."""
    n = len(f) - 1
    g = np.zeros_like(f)
    for d in range(1, n + 1):
        g[d::d] += f[1 : n // d + 1]
    return g


def spf_sieve_loop(n: int) -> np.ndarray:
    """spf on 0..n in int64, slots 0 and 1 holding 0: one pass per m from
    n down to 2, so that the last write to each index is its least
    divisor above 1, which is prime."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for m in range(n, 1, -1):
        spf[m::m] = m
    return spf


def mu_phi_sieve_loop(n: int, primes: np.ndarray):
    """(mu, phi) on 0..n, one pass per prime."""
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


def lambda_sieve_loop(n: int, primes: np.ndarray) -> np.ndarray:
    """Lambda on 0..n, one walk over the powers of each prime."""
    lam = np.zeros(n + 1)
    for p in primes.tolist():
        lp, pk = math.log(p), p
        while pk <= n:
            lam[pk] = lp
            pk *= p
    return lam


def prime_power_class_squares_pairs(table, q_max: int) -> np.ndarray:
    """NR[q] = sum of t_b(q)^2 over the classes b mod q with (b, q) > 1,
    for Lambda, at every q <= q_max, by comparing the classes of every
    pair of powers of each prime.

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
    primes = primes_from_spf(table.spf[: min(q_max, n) + 1])
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


def _divisors_up_to_spf(x: int, spf: np.ndarray, top: int) -> list:
    """The divisors d <= top of 1 <= x < spf.size, from the spf table."""
    divs = [1]
    while x > 1:
        p = int(spf[x])
        powers = [1]
        while x % p == 0:
            x //= p
            powers.append(powers[-1] * p)
        divs = [d * pk for d in divs for pk in powers if d * pk <= top]
    return divs


def prime_power_class_squares_spf(table, q_max: int) -> np.ndarray:
    """variance._prime_power_class_squares as it was with the spf table:
    the same closed form, with the primes <= min(q_max, N) read from the
    table's spf array and each p^t - 1 factored through it."""
    n = table.n
    s = math.isqrt(n)
    nr = np.zeros(q_max + 1)
    primes = primes_from_spf(table.spf[: min(q_max, n) + 1])
    for p in primes[primes <= s].tolist():
        sq = table.lam[p] ** 2
        lp, pt = 1, p                        # L_p: p^lp <= N < p^(lp + 1)
        while pt * p <= n:
            pt *= p
            lp += 1
        nr[p::p] += lp * sq
        order, pt = {}, 1                    # m -> ord_m(p), m <= q_max/p
        for t in range(1, lp):
            pt *= p
            for m in _divisors_up_to_spf(pt - 1, table.spf, q_max // p):
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
    large = primes[primes > s]
    squares = table.lam[large] ** 2
    for j in range(q_max // (s + 1), 0, -1):
        top = np.searchsorted(large, q_max // j, side="right")
        nr[j * large[:top]] += squares[:top]
    return nr


# ---------------------------------------------------------------------------
# The window and residue ingredients over all their terms: the window's
# Fourier transform, which no chain reads and which lives here for the
# major-arc lemma check; the Euler factors one (p, a) at a time, and the
# Mellin series from all _MOMENTS + 1 log-moments, kept to pin the routes
# that broadcast the factors and stop at the order used.


def phi_hat_full_sum(window: SmoothWindow, xi):
    """The Fourier transform Phi^(xi) = int Phi(t) e(-xi t) dt as the
    rectangle sum (1/m) sum_(i<m) Phi(i/m) e(-xi i/m) over all m = 2^16
    samples, spectrally accurate as phi_int is; vectorized over xi, two
    dot products a value, with cos and sin.  With u = 2^-53 and
    gamma_k = k u/(1 - k u), the angle 2 pi xi i/m moves by
    gamma_3 2 pi |xi| i/m, cos and sin add 8u, the product u and a dot
    product in any order gamma_m, so each component is within
    (1/m) sum_i Phi(i/m) (gamma_3 2 pi |xi| i/m + 9u + gamma_m)."""
    xi = np.asarray(xi, dtype=np.float64)
    t = np.arange(_SAMPLES) / _SAMPLES
    out = np.empty(xi.size, dtype=np.complex128)
    for i, x in enumerate(xi.ravel()):
        angle = 2.0 * np.pi * x * t
        out[i] = complex(np.dot(window._samples, np.cos(angle)),
                         -np.dot(window._samples, np.sin(angle)))
    out /= _SAMPLES
    return complex(out[0]) if xi.ndim == 0 else out.reshape(xi.shape)


def local_factor_per_pair(p: int, a: int, k: int, s: np.ndarray) -> np.ndarray:
    """dirichlet._local_factors for the one prime p, with p and phi(p^a)
    as Python integers."""
    m = a + k - 1
    x = p ** (-s)
    y = 1.0 - x
    local = sum(math.comb(m, i) * y**i * x ** (m - i) for i in range(k))
    head = -d_k_prime_power(k, a - 1) * p ** (-(a - 1) * (s - 1.0))
    return head * y**k + totient(p**a) * local


def euler_factors_per_pair(qs, k: int, s) -> np.ndarray:
    """dirichlet.euler_factors one local factor (p, a) at a time, each
    built once and multiplied into each of its rows in factorize order."""
    s = np.asarray(s, dtype=np.complex128)
    flat = s.reshape(-1)
    cache = {}
    rows = np.ones((len(qs), flat.size), dtype=np.complex128)
    for i, q in enumerate(qs):
        for p, a in factorize(q):
            if (p, a) not in cache:
                cache[p, a] = local_factor_per_pair(p, a, k, flat)
            rows[i] = rows[i] * cache[p, a]
    return rows.reshape((len(qs),) + s.shape)


def log_moments_all(window: SmoothWindow) -> tuple:
    """(mu, L): all the log-moments mu_0..mu_64 of SmoothWindow.mellin
    and L, computed in one pass."""
    m = _SAMPLES
    y = (np.arange(m) + 0.5) / m
    p = window.phi(y)
    log_y = np.log(y)
    big_l = float(-log_y[np.flatnonzero(p)[0]])
    mu = np.empty(_MOMENTS + 1)
    for j in range(_MOMENTS + 1):
        mu[j] = p.sum() / m
        p *= log_y
    return mu, big_l


def mellin_order_all(window: SmoothWindow, r: float) -> int | None:
    """SmoothWindow._mellin_order with every tail bound evaluated at
    once, from log_moments_all."""
    return _order_all(*log_moments_all(window), r)


def _order_all(mu: np.ndarray, big_l: float, r: float) -> int | None:
    t = np.arange(1, _MOMENTS + 1)
    room = 1.0 - r * big_l / (t + 1)
    tail = np.divide(r**t * np.abs(mu[1:]) / _FACTORIALS[1:], room,
                     out=np.full(t.shape, np.inf), where=room > 0)
    ok = np.flatnonzero(tail <= UNIT_ROUNDOFF * abs(mu[0]))
    return int(t[ok[0]]) if ok.size else None


def mellin_all(window: SmoothWindow, w):
    """SmoothWindow.mellin from all the log-moments (log_moments_all),
    with its ValueError past the certified range."""
    mu, big_l = log_moments_all(window)
    z = np.atleast_1d(np.asarray(w, dtype=np.complex128)) - 1.0
    r = float(np.max(np.abs(z)))
    order = _order_all(mu, big_l, r)
    if order is None:
        lo, hi = 0.0, r
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _order_all(mu, big_l, mid) else (lo, mid)
        raise ValueError(
            f"mellin: |w - 1| = {r:.6g} is past the certified range "
            f"|w - 1| <= {lo:.6g} of the window's {_MOMENTS} log-moments")
    coeffs = mu[:order] / _FACTORIALS[:order]
    out = np.full(z.shape, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out if np.ndim(w) else complex(out[0])


# ---------------------------------------------------------------------------
# Side quantities of the method that no chain, command or gate computes:
# references for the live code (eval_exp_sum for the spectrum, is_major for
# major_mask, psi_counts for restricted_variance_total) and for the open
# items (farey_density_f, cor1_lower_bound, singular_constant).


def eval_exp_sum(seq: Sequence, alpha: float) -> complex:
    """A(alpha) = sum a_n e(n alpha), with compensated summation."""
    n = np.arange(seq.n + 1)
    phase = 2.0 * np.pi * ((n * alpha) % 1.0)
    re = math.fsum(seq.values * np.cos(phase))
    im = math.fsum(seq.values * np.sin(phase))
    return complex(re, im)


def is_major(alpha: float, arcs: ArcSystem):
    """Membership in the major arcs, with a witness fraction.

    Exhaustive scan over q <= K*Q0 with the nearest integer numerator;
    returns (True, (a, q)) on the first reduced witness, else (False, None).
    """
    alpha = alpha % 1.0
    for q in range(1, arcs.kq0 + 1):
        a = round(alpha * q)
        g = math.gcd(a, q)
        ar, qr = a // g, q // g
        if abs(alpha - ar / qr) <= arcs.k_param / (qr * arcs.q):
            return True, (ar % max(qr, 1), qr)
    return False, None


def farey_density_f(alpha: float, arcs: ArcSystem) -> float:
    """f(alpha): weighted count of nearby fractions a/q, Q0 < q <= Q,
    with q/(a,q) > Q0 and |alpha - a/q| <= K/(Q0 Q).  Direct enumeration."""
    q_hi = int(arcs.q)
    if q_hi > FAREY_ENUMERATION_CAP:
        raise CapacityError(f"Q={q_hi} above enumeration cap {FAREY_ENUMERATION_CAP}")
    if arcs.q0 >= arcs.q:
        raise ValueError("need Q0 < Q")
    alpha = alpha % 1.0
    w = arcs.k_param / (arcs.q0 * arcs.q)
    total = 0.0
    q_lo = int(math.floor(arcs.q0)) + 1
    for q in range(q_lo, q_hi + 1):
        lo = math.ceil(q * (alpha - w))
        hi = math.floor(q * (alpha + w))
        if hi - lo + 1 >= q:
            lo, hi = 0, q - 1
        count = 0
        for a in range(lo, hi + 1):
            if q / math.gcd(a % q, q) > arcs.q0:
                count += 1
        total += count / q
    return total


def farey_denominators(q: float, q0: float, k_param: float) -> list:
    """f's intervals grouped by the reduced denominator r: the list of
    (r, w, g(r)) over Q0 < r <= Q, w = K/(Q0 Q) the half-width of every
    interval |alpha - b/r| <= w with (b, r) = 1, and g(r) = H(floor(Q/r))/r
    its weight in f, H the harmonic numbers.  (a/q with q/(a, q) = r is
    b/r, q = rm for the m <= Q/r, each weighing 1/q in f.)"""
    w = k_param / (q0 * q)
    return [(r, w, math.fsum(1.0 / m for m in range(1, int(q) // r + 1)) / r)
            for r in range(int(math.floor(q0)) + 1, int(q) + 1)]


def farey_weights_direct(n: int, q: float, q0: float, k_param: float):
    """The lag weights W_f(h), 0 <= h <= n, of f (farey_density_f): for
    real a, b with lag correlation rho, the integral of f A conj(B) over
    the circle is sum_h rho(h) W_f(h).  In the direct Ramanujan-sum form,
    with (r, w, g(r)) from farey_denominators,

      W_f(0) = 2w sum_r phi(r) g(r),
      W_f(h) = (2 sin(2 pi h w)/(pi h)) S(h),  S(h) = sum_r g(r) c_r(h),

    as the interval about b/r weighs e(h alpha) by
    e(hb/r) sin(2 pi h w)/(pi h) and the reduced b sum e(hb/r) to c_r(h).
    Returned as LagWeights with the bound, for these g(r) and w, of
    sum_h |W_f'(h) - W_f(h)|: S(h) by fsum of products rounded once is
    within gamma_2 T(h), T(h) = sum_r g(r) |c_r(h)|; the sine's argument
    carries gamma_3 (2 pi rounded, two products), its value 8u, and the
    doubling, pi h and the quotient gamma_3, so with the last product
    W_f'(h) is within (2/(pi h)) (gamma_2 T(h) + |S(h)| (gamma_3 2 pi h w
    + 8u)) + gamma_4 |W_f'(h)|, and W_f'(0) within gamma_3 |W_f'(0)|.
    The sum is doubled for the bound's own rounding."""
    from apvar.circle import LagWeights

    rows, w = farey_denominators(q, q0, k_param), k_param / (q0 * q)
    weights, err = np.zeros(n + 1), np.zeros(n + 1)
    weights[0] = 2.0 * w * math.fsum(totient(r) * g for r, _, g in rows)
    err[0] = gamma(3) * abs(weights[0])
    if rows and n:
        c = np.array([ramanujan_row_gcd(r, n) for r, _, _ in rows])
        g = np.array([g for _, _, g in rows])[:, None]
        sums = np.array([math.fsum(col) for col in (g * c).T])
        totals = (g * np.abs(c)).sum(axis=0)
        h = np.arange(1, n + 1)
        factor = 2.0 * np.sin(2.0 * math.pi * h * w) / (math.pi * h)
        weights[1:] = factor * sums
        err[1:] = (2.0 / (math.pi * h) * (
            gamma(2) * totals
            + np.abs(sums) * (gamma(3) * 2.0 * math.pi * h * w
                              + 8.0 * UNIT_ROUNDOFF))
            + gamma(4) * np.abs(weights[1:]))
    return LagWeights(weights, 2.0 * math.fsum(err))


def farey_min_on_minor(arcs: ArcSystem) -> tuple:
    """(min f, alpha): the smallest value of f (farey_density_f) on the
    minor arcs, the complement of the closed major arcs
    |alpha - a/q| <= K/(qQ), q <= KQ0, and a point alpha where f takes
    it, or (inf, None) when the major arcs cover the circle.

    f is a step function: the weight g(r) summed over f's closed
    intervals |alpha - b/r| <= w (farey_denominators) that hold alpha.
    At a breakpoint f is at least its value on either side, so its
    infimum over the open minor arcs is its least value on an open
    segment between consecutive breakpoints (of f's intervals and of the
    major arcs, copies shifted by 1 included) that lies in no major arc.
    One sweep over the sorted breakpoints gives every segment's value as
    a running sum; the segments within 1e-9 relative of the least running
    sum are then evaluated directly by farey_density_f at their
    midpoints, which the sums' rounding cannot move, and the least of
    those is returned.

    Breakpoints are sorted as floats, which are within a few ulp of the
    exact ones (Fractions of the binary K, Q0 and Q), so floats further
    apart than 1e-12 are in exact order; every run of breakpoints closer
    than that is re-sorted by its exact values and rounded from them, so
    that breakpoints that coincide (7/8 - K/(8Q) and 559/640 + w at
    Q = 800, K = 5) meet and no segment between them is made up.  Only
    distinct breakpoints that round to one float would merge.  Needs
    w < 1/2, so that no two copies of one interval overlap."""
    rows = farey_denominators(arcs.q, arcs.q0, arcs.k_param)
    if arcs.k_param / (arcs.q0 * arcs.q) >= 0.5:
        raise ValueError("need K/(Q0 Q) < 1/2")
    k, q0, q = (Fraction(x) for x in (arcs.k_param, arcs.q0, arcs.q))
    # Per breakpoint: its float, b and r of its centre b/r, its side
    # (-1, +1; 0 for the sentinels at 0 and 1, which bound the segments),
    # and whether it ends a major arc; then f's step at it.
    pos, num, den, side, major, d_f = ([np.array(x)] for x in (
        [0.0, 1.0], [0, 1], [1, 1], [0, 0], [False, False], [0.0, 0.0]))

    def intervals(r, half, weight, is_major):
        b = np.arange(math.ceil(-half * r), math.floor((1 + half) * r) + 1)
        b = b[np.gcd(b % r, r) == 1]
        steps = np.repeat([-1, 1], b.size)
        pos.append(np.tile(b / r, 2) + steps * half)
        num.append(np.tile(b, 2))
        den.append(np.full(steps.size, r))
        side.append(steps)
        major.append(np.full(steps.size, is_major))
        d_f.append(-steps * weight)

    for r, half, g in rows:
        intervals(r, half, g, False)
    for m in range(1, arcs.kq0 + 1):
        intervals(m, arcs.k_param / (m * arcs.q), 0.0, True)
    pos, num, den, side, major, d_f = (np.concatenate(x) for x in (
        pos, num, den, side, major, d_f))
    order = np.argsort(pos, kind="stable")
    pos = pos[order]

    def exact(i):
        half = k / (int(den[i]) * q) if major[i] else k / (q0 * q)
        return Fraction(int(num[i]), int(den[i])) + int(side[i]) * half

    close = np.flatnonzero(np.diff(pos) < 1e-12)
    runs = np.split(close, np.flatnonzero(np.diff(close) > 1) + 1)
    for run in (run for run in runs if run.size):
        span = slice(run[0], run[-1] + 2)
        values = sorted((exact(i), i) for i in order[span].tolist())
        order[span] = [i for _, i in values]
        pos[span] = [float(v) for v, _ in values]
    f_run = np.cumsum(d_f[order])
    major_run = np.cumsum(np.where(major, -side, 0)[order])
    # The last breakpoint at each position opens the segment to the next.
    last = np.flatnonzero(np.diff(pos) > 0)
    lo, hi = pos[last], pos[last + 1]
    minor = (lo >= 0.0) & (hi <= 1.0) & (major_run[last] == 0)
    if not minor.any():
        return math.inf, None
    values = f_run[last][minor]
    least = values.min()
    near = np.flatnonzero(values <= least + 1e-9 * max(abs(least), 1.0))
    mids = (lo[minor][near] + hi[minor][near]) / 2.0
    return min((farey_density_f(alpha, arcs), alpha)
               for alpha in mids.tolist())


def cor1_lower_bound(seq: Sequence, q: int, q0: int) -> Fraction | float:
    """The nonnegativity-of-H lower bound for qV(q): the sum of H(d) over
    the divisors d > Q0 of q, at most q V(q) = sum_{d|q} H(d) as H >= 0;
    checked here, exactly (a Fraction) when H is, else within 1e-6."""
    if q0 < 1:
        raise ValueError("Q0 must be at least 1")
    bound = sum(exp_variance_H(seq, d) for d in divisors(q) if d > q0)
    qv = q * variance_mod_q(seq, q)
    slack = (0 if _exact_class_sums(seq)
             else 1e-6 * max(abs(qv), abs(bound), 1.0))
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
    coprime = np.gcd(np.arange(q), q) == 1   # gcd(0, 1) = 1: all of q = 1
    classes = np.nonzero(coprime)[0]
    psi = t[coprime]
    psi_q = float(psi.sum())
    mean = psi_q / totient(q)
    var = float(((psi - mean) ** 2).sum())
    return PsiCounts(q=q, classes=classes, psi=psi, psi_q=psi_q,
                     restricted_variance=var)


def singular_constant(k: int, p_cap: int):
    """Truncated product over p <= cap of (1-1/p)^(k^2) sum_a d_k(p^a)^2/p^a.

    The local series is closed: with x = 1/p,
    sum_a C(a+k-1, k-1)^2 x^a = sum_{i<k} C(k-1, i)^2 x^i / (1-x)^(2k-1),
    so each factor is (1-x)^((k-1)^2) sum_{i<k} C(k-1, i)^2 x^i.
    Returns (product, c_k, tail_estimate) where c_k divides by (k^2-1)!.
    """
    if p_cap < 100:
        raise ValueError("prime cap must be at least 100")
    x = 1.0 / primes_from_spf(_spf_sieve(p_cap)).astype(np.float64)
    series = sum(math.comb(k - 1, i) ** 2 * x**i for i in range(k))
    local = (1.0 - x) ** ((k - 1) ** 2) * series
    log_product = float(np.sum(np.log(local)))
    product = math.exp(log_product)
    # Local factor is 1 + O(k^4/p^2); integrate the tail over p > cap.
    tail = k**4 / (p_cap * math.log(p_cap))
    c_k = product / math.factorial(k * k - 1)
    return product, c_k, tail


def check_lemma_major(tilde_seq: Sequence, b: np.ndarray,
                      window: SmoothWindow, a: int, q: int, beta: float):
    """Compare A~(a/q + beta) against N Phi^(-N beta) sum_{q|r} b_r/r,
    for the weights b_0..b_R of windows.build_weights.

    Valid for |beta| <= 1/(2qR), q <= R, (a,q) = 1.  Returns
    (lhs, rhs, error_ratio) where error_ratio is |lhs-rhs| divided by
    B R log N, B = max |b_r| (the shape of the approximation's error term).
    """
    n = tilde_seq.n
    r_max = b.size - 1
    if q > r_max or math.gcd(a, q) != 1:
        raise ValueError("need q <= R and (a, q) = 1")
    if abs(beta) > 1.0 / (2.0 * q * r_max) + 1e-15:
        raise ValueError("need |beta| <= 1/(2qR)")
    lhs = eval_exp_sum(tilde_seq, (a / q + beta) % 1.0)
    rhs = n * phi_hat_full_sum(window, -n * beta) * weight_sum_q(b, q)
    scale = float(np.abs(b).max()) * r_max * math.log(max(n, 2))
    return lhs, rhs, abs(lhs - rhs) / scale
