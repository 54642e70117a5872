"""Independent numerical oracles used by the unit and acceptance tests.

These deliberately avoid the library's own closed forms: residues are
computed as honest nested contour integrals, transforms by composite
Gauss-Legendre quadrature, and Dirichlet series by partial summation.
"""

import math

import numpy as np


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
    40-digit mpmath arithmetic with cached exponentials per node.  The w
    radius is kept small relative to |s + z| >= r_z - r_s because the
    trapezoid alias picks up the coefficient of w^(m_w - 1) in the
    binomial expansion of (s + z + w)^(-k(k-1)); with k = 4 that
    coefficient grows like C(m_w + 10, 11) |s+z|^(-12-m_w), so the node
    count must beat polynomial-times-geometric growth, not just the
    geometric ratio r_w / |s+z|.
    """
    import mpmath as mp

    with mp.workdps(40):
        r_z, r_s, r_w = mp.mpf("0.5"), mp.mpf("0.04"), mp.mpf("0.08")
        kk = k * (k - 1)
        zs = [r_z * mp.expjpi(2 * mp.mpf(i) / m_z) for i in range(m_z)]
        ss = [r_s * mp.expjpi(2 * mp.mpf(i) / m_s) for i in range(m_s)]
        ws = [r_w * mp.expjpi(2 * mp.mpf(i) / m_w) for i in range(m_w)]
        ez = [mp.exp(z * log_r) - mp.exp(z * log_kq0) for z in zs]
        es = [mp.exp(s * log_r) for s in ss]
        ew = [mp.exp(w * log_n) for w in ws]
        total = mp.mpc(0)
        for iz, z in enumerate(zs):
            for i_s, s in enumerate(ss):
                sz = s + z
                pref = sz ** (k - 1) / s ** (k - 1) * es[i_s] * ez[iz]
                inner = mp.mpc(0)
                for iw, w in enumerate(ws):
                    inner += ew[iw] / (w ** (k - 1) * (sz + w) ** kk)
                total += pref * inner
        total /= m_z * m_s * m_w
        return float(mp.re(total))


def partial_dirichlet_sum(coeffs: np.ndarray, s: float) -> float:
    """sum coeffs[n] n^(-s) over the array (slot 0 ignored)."""
    n = np.arange(coeffs.size, dtype=np.float64)
    n[0] = 1.0
    return float(np.sum(coeffs[1:] * n[1:] ** (-s)))


def zeta_mpmath(s):
    import mpmath
    return complex(mpmath.zeta(complex(s)))


def euler_maclaurin_harmonic(x: int) -> float:
    return math.log(x) + 0.5772156649015329


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
    (1-x)^k (-d_k(p^(a-1)) p^((a-1)(1-s))
             + phi(p^a) ((1-x)^(-k) - sum_{b<a} d_k(p^b) x^b)),
    d_k(p^b) = C(b+k-1, k-1): the inner series sum_{b >= a} d_k(p^b) x^b
    summed as the binomial series minus its first a terms."""
    import mpmath as mp

    x = mp.mpf(p) ** (-s)
    head = -math.comb(a + k - 2, k - 1) * mp.mpf(p) ** ((a - 1) * (1 - s))
    inner = (1 - x) ** (-k) - mp.fsum(math.comb(b + k - 1, k - 1) * x**b
                                      for b in range(a))
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
