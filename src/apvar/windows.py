"""Smooth plateau window, its Fourier and Mellin transforms, and sieve weights.

The window is the usual C-infinity plateau bump built from exp(-1/x)
cutoffs: identically 1 on [eps, 1-eps], supported in [0, 1].  The chains
read only Phi, its integrals and its Mellin transform, which is a short
series in cached log-moments of the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith import UNIT_ROUNDOFF, Sequence, divisor_sieve, mobius_totient

_SAMPLES = 1 << 16          # bump samples on [0, 1)
_MOMENTS = 64               # highest cached log-moment of the Mellin series
_FACTORIALS = np.array([float(math.factorial(j)) for j in range(_MOMENTS + 1)])


def _ramp(x):
    """exp(-1/x) for x > 0, else 0; vectorized."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def _smoothstep(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    a = _ramp(x)
    b = _ramp(1.0 - np.asarray(x, dtype=np.float64))
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0, a / (a + b), 0.0)
    return out


@dataclass
class SmoothWindow:
    eps: float
    phi_int: float = field(init=False)
    phi_sq_int: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eps < 0.25:
            raise ValueError("eps must lie in (0, 1/4)")
        samples = self._samples
        # Rectangle rule is spectrally accurate here: the integrand is
        # smooth and vanishes to all orders at 0 and 1.
        self.phi_int = float(samples.sum() / _SAMPLES)
        self.phi_sq_int = float((samples**2).sum() / _SAMPLES)

    @cached_property
    def _samples(self) -> np.ndarray:
        """Phi(i/m), i < m = 2^16."""
        return self.phi(np.arange(_SAMPLES) / _SAMPLES)

    def phi(self, t):
        """The bump Phi(t): 0 outside [0,1], 1 on [eps, 1-eps].  Where
        t/eps >= 1 and (1 - t)/eps >= 1 both smoothsteps are exactly 1.0,
        so only the other points (edges, NaN, outside [0, 1]) run them."""
        t = np.asarray(t, dtype=np.float64)
        u, v = t / self.eps, (1.0 - t) / self.eps
        edge = ~((u >= 1.0) & (v >= 1.0))
        out = np.ones(t.shape)
        out[edge] = _smoothstep(u[edge]) * _smoothstep(v[edge])
        return out if out.ndim else float(out)

    def phi_hat(self, xi):
        """Fourier transform Phi^(xi) = int Phi(t) e(-xi t) dt, as the
        rectangle sum (1/m) sum_(i<m) Phi(i/m) e(-xi i/m), m = 2^16;
        vectorized over xi.  The sum is spectrally accurate for the same
        reason as phi_int, which is its value at xi = 0.  Phi is real, so
        each value is two real dot products, with cos and sin."""
        xi = np.asarray(xi, dtype=np.float64)
        t = np.arange(_SAMPLES) / _SAMPLES
        out = np.empty(xi.size, dtype=np.complex128)
        for i, x in enumerate(xi.ravel()):
            angle = 2.0 * np.pi * x * t
            out[i] = complex(np.dot(self._samples, np.cos(angle)),
                             -np.dot(self._samples, np.sin(angle)))
        out /= _SAMPLES
        return complex(out[0]) if xi.ndim == 0 else out.reshape(xi.shape)

    def phi_hat_quad(self, xi: float) -> complex:
        """Independent composite Gauss-Legendre evaluation, 10 nodes on
        each of 256 panels (phi_hat's oracle)."""
        nodes, weights = np.polynomial.legendre.leggauss(10)
        panels = 256
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = (edges[1:] + edges[:-1]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        vals = self.phi(t) * np.exp(-2j * np.pi * xi * t)
        return complex(np.dot(w, vals))

    @cached_property
    def _log_moments(self):
        """(mu, L): the log-moments mu_j = (1/m) sum_i Phi(y_i) (log y_i)^j,
        j <= _MOMENTS, over the midpoints y_i = (i + 1/2)/m, m = 2^16, and
        L = max |log y_i| over the y_i with Phi(y_i) > 0."""
        m = _SAMPLES
        y = (np.arange(m) + 0.5) / m
        p = self.phi(y)
        log_y = np.log(y)
        big_l = float(-log_y[np.flatnonzero(p)[0]])
        mu = np.empty(_MOMENTS + 1)
        for j in range(_MOMENTS + 1):
            mu[j] = p.sum() / m
            p *= log_y
        return mu, big_l

    def _mellin_order(self, r: float) -> int | None:
        """The first T <= _MOMENTS whose tail bound (see mellin) at
        |w - 1| <= r is at most u |mu_0|, or None if there is none."""
        mu, big_l = self._log_moments
        t = np.arange(1, _MOMENTS + 1)
        room = 1.0 - r * big_l / (t + 1)
        tail = np.divide(r**t * np.abs(mu[1:]) / _FACTORIALS[1:], room,
                         out=np.full(t.shape, np.inf), where=room > 0)
        ok = np.flatnonzero(tail <= UNIT_ROUNDOFF * abs(mu[0]))
        return int(t[ok[0]]) if ok.size else None

    def mellin(self, w):
        """The midpoint sum (1/m) sum_i Phi(y_i) y_i^(w-1), y_i = (i + 1/2)/m,
        m = 2^16, for int_0^1 Phi(y) y^(w-1) dy; vectorized over complex w.

        With z = w - 1, y^z = sum_j (z log y)^j / j! turns the sum into
        sum_j z^j mu_j / j! with the cached log-moments mu_j (_log_moments),
        evaluated for every w by Horner's rule on its first T terms.

        Truncation.  Every midpoint has log y_i < 0, so the terms of mu_j
        share one sign and A_j = (1/m) sum_i Phi(y_i) |log y_i|^j = |mu_j|;
        and |log y_i| <= L wherever Phi(y_i) > 0, so A_(j+1) <= L A_j.  With
        r = max |w - 1| over the call and T! / (T + i)! <= (T + 1)^(-i),
            |sum_(j >= T) z^j mu_j / j!| <= sum_(i >= 0) r^(T+i) A_T L^i / (T+i)!
                                          <= (r^T / T!) A_T / (1 - r L/(T + 1))
        whenever r L < T + 1.  T is the first order whose bound is at most
        u |mu_0|, u = 2^-53; the bound is evaluated from the computed mu
        within a factor 1 + gamma_(10T + 40), so the truncation error stays
        below 2u |mu_0|.  If no T <= _MOMENTS qualifies, a ValueError names
        |w - 1| and the largest radius that does.

        Rounding (gamma_k = k u/(1 - k u)).  log y is within 4 ulps, so each
        Phi (log y)^j is within gamma_(9j) of its value; numpy's blocked
        pairwise sum rounds each of the m terms at most 28 times (16 in a
        leaf of 128, 3 joining its 8 accumulators, 9 halvings), and
        dividing by m = 2^16 is exact up to underflow: |mu^_j - mu_j| <=
        gamma_(9j+28) A_j + (j + 1) e0, e0 = 2^-1074 (arith.underflow).
        Dividing by the rounded j! adds gamma_2, and each complex Horner
        step gamma_4 (a complex product is within sqrt(2) gamma_2, Higham
        sec. 3.6, plus the addition) and at most 4 e0.  So the value is
        within
            2u |mu_0| + gamma_(13T+30) sum_(j<T) r^j |mu_j| / j!
                      + ((1 + r) e^r + 4T) e0
        of the midpoint sum of the sampled Phi.
        """
        mu, _ = self._log_moments
        z = np.atleast_1d(np.asarray(w, dtype=np.complex128)) - 1.0
        r = float(np.max(np.abs(z)))
        order = self._mellin_order(r)
        if order is None:
            lo, hi = 0.0, r
            for _ in range(60):          # the certified radius, by bisection
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if self._mellin_order(mid) else (lo, mid)
            raise ValueError(
                f"mellin: |w - 1| = {r:.6g} is past the certified range "
                f"|w - 1| <= {lo:.6g} of the window's {_MOMENTS} log-moments")
        coeffs = mu[:order] / _FACTORIALS[:order]
        out = np.full(z.shape, coeffs[-1], dtype=np.complex128)
        for c in coeffs[-2::-1]:
            out = out * z + c
        return out if out.size > 1 else complex(out[0])


def build_window(eps: float) -> SmoothWindow:
    return SmoothWindow(eps=eps)


def windowed(values: np.ndarray, window: SmoothWindow, name: str = "") -> Sequence:
    """The sequence a_n Phi(n/N) of values a_0..a_N."""
    n = len(values) - 1
    return Sequence(values * window.phi(np.arange(n + 1) / n), name=name)


# ---------------------------------------------------------------------------
# Sieve weights


@dataclass
class WeightSet:
    """Truncated sieve coefficients b_r, r <= R (implicitly 0 beyond)."""

    kind: str                 # "prime_sieve" or "divisor_k"
    r_max: int
    b: np.ndarray             # length r_max+1, slot 0 unused
    bound: float              # B = max |b_r|
    k: int | None = None

    def to_csv_rows(self):
        for r in range(1, self.r_max + 1):
            yield r, self.b[r]


def build_weights(kind: str, r_max: int, k: int | None = None) -> WeightSet:
    """b_r = mu(r) log(R/r) (prime case) or d_{k-1}(r) (divisor case)."""
    if r_max < 2:
        raise ValueError("R must be at least 2")
    b = np.zeros(r_max + 1)
    if kind == "prime_sieve":
        mu, _ = mobius_totient(r_max)
        r = np.arange(1, r_max + 1, dtype=np.float64)
        b[1:] = mu[1:] * np.log(r_max / r)
        bound = math.log(r_max)
    elif kind == "divisor_k":
        if k is None or k < 2:
            raise ValueError("divisor weights need k >= 2")
        b[1:] = divisor_sieve(r_max, k - 1)[k - 1][1:] if k > 2 else 1.0
        bound = float(b.max())
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    return WeightSet(kind=kind, r_max=r_max, b=b, bound=bound, k=k)


def build_tilde_sequence(n: int, weights: WeightSet, window: SmoothWindow) -> Sequence:
    """The smoothed short divisor sum: a~_n = Phi(n/N) sum_{r|n, r<=R} b_r."""
    if weights.r_max > n:
        raise ValueError("R must not exceed N")
    acc = np.zeros(n + 1)
    for r in range(1, weights.r_max + 1):
        if weights.b[r]:
            acc[r::r] += weights.b[r]
    return windowed(acc, window, name=f"tilde-{weights.kind}")


def weight_sum_q(weights: WeightSet, q: int) -> float:
    """sum over r <= R with q | r of b_r / r; zero for q > R."""
    if q < 1:
        raise ValueError("q must be positive")
    if q > weights.r_max:
        return 0.0
    r = np.arange(q, weights.r_max + 1, q)
    return float(np.sum(weights.b[r] / r))


# ---------------------------------------------------------------------------
# Numerical checks of the major-arc approximation and the rearrangement
# identity for sum a_n a~_n


def check_lemma_major(tilde_seq: Sequence, weights: WeightSet,
                      window: SmoothWindow, a: int, q: int, beta: float):
    """Compare A~(a/q + beta) against N Phi^(-N beta) sum_{q|r} b_r/r.

    Valid for |beta| <= 1/(2qR), q <= R, (a,q) = 1.  Returns
    (lhs, rhs, error_ratio) where error_ratio is |lhs-rhs| divided by
    B R log N (the shape of the approximation's error term).
    """
    n = tilde_seq.n
    r_max = weights.r_max
    if q > r_max or math.gcd(a, q) != 1:
        raise ValueError("need q <= R and (a, q) = 1")
    if abs(beta) > 1.0 / (2.0 * q * r_max) + 1e-15:
        raise ValueError("need |beta| <= 1/(2qR)")
    from .circle import eval_exp_sum

    lhs = eval_exp_sum(tilde_seq, (a / q + beta) % 1.0)
    rhs = n * window.phi_hat(-n * beta) * weight_sum_q(weights, q)
    scale = weights.bound * r_max * math.log(max(n, 2))
    return lhs, rhs, abs(lhs - rhs) / scale


def check_lemma5(seq: Sequence, weights: WeightSet, window: SmoothWindow):
    """Rearrangement identity: sum a_n a~_n equals the weighted sum of
    windowed Ramanujan correlations over q <= R.  Returns (lhs, rhs,
    relative residual)."""
    from .arith import ramanujan_correlations

    n = seq.n
    tilde = build_tilde_sequence(n, weights, window)
    lhs = float(np.dot(seq.values, tilde.values))
    qs = list(range(1, weights.r_max + 1))
    corrs = ramanujan_correlations(windowed(seq.values, window), qs)
    rhs = math.fsum(weight_sum_q(weights, q) * corrs[i] for i, q in enumerate(qs))
    denom = max(abs(lhs), abs(rhs), 1.0)
    return lhs, rhs, abs(lhs - rhs) / denom
