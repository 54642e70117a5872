"""Smooth plateau window, its Mellin transform, and sieve weights.

The window is the usual C-infinity plateau bump built from exp(-1/x)
cutoffs: identically 1 on [eps, 1-eps], supported in [0, 1].  The chains
read only Phi, its integrals and its Mellin transform, which is a short
series in cached log-moments of the window.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith import (UNIT_ROUNDOFF, Sequence, moduli_tables,
                    ramanujan_correlations)

_SAMPLES = 1 << 16          # bump samples on [0, 1)
_MOMENTS = 64               # highest log-moment of the Mellin series
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


class _LogMoments:
    """The log-moments mu_j = (1/m) sum_i Phi(y_i) (log y_i)^j over the
    midpoints y_i = (i + 1/2)/m, m = 2^16, each computed once, in order,
    the first time a call needs it; and L = max |log y_i| over the y_i
    with Phi(y_i) > 0."""

    def __init__(self, window: SmoothWindow):
        y = (np.arange(_SAMPLES) + 0.5) / _SAMPLES
        self._term = window.phi(y)          # Phi(y_i) (log y_i)^j, next j
        self._log_y = np.log(y)
        self.big_l = float(-self._log_y[np.flatnonzero(self._term)[0]])
        self._mu = []

    def upto(self, j: int) -> np.ndarray:
        """mu_0, ..., mu_j."""
        while len(self._mu) <= j:
            self._mu.append(self._term.sum() / _SAMPLES)
            self._term *= self._log_y
        return np.array(self._mu[: j + 1])


@dataclass
class SmoothWindow:
    eps: float
    _grids: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if not 0.0 < self.eps < 0.25:
            raise ValueError("eps must lie in (0, 1/4)")

    def _grid_edges(self, n: int) -> tuple:
        """(lo, hi, head, tail) on the grid t_i = i/n, i <= n: Phi(t_i) is
        exactly 1.0 for lo <= i < hi, head holds Phi(t_i) for i < lo and
        tail for hi <= i <= n.  phi's plateau test, t/eps >= 1 and
        (1 - t)/eps >= 1, holds on an interval of i, found by bisection
        with the same float operations; computed once per n."""
        if n not in self._grids:
            eps = self.eps
            grid = range(n + 1)
            lo = bisect.bisect_left(grid, True,
                                    key=lambda i: i / n / eps >= 1.0)
            hi = max(lo, bisect.bisect_left(
                grid, True, key=lambda i: (1.0 - i / n) / eps < 1.0))
            self._grids[n] = (lo, hi, self.phi(np.arange(lo) / n),
                              self.phi(np.arange(hi, n + 1) / n))
        return self._grids[n]

    @cached_property
    def _samples(self) -> np.ndarray:
        """Phi(i/m), i < m = 2^16."""
        lo, hi, head, tail = self._grid_edges(_SAMPLES)
        out = np.ones(_SAMPLES)
        out[:lo], out[hi:] = head, tail[:-1]
        return out

    # Rectangle rule is spectrally accurate here: the integrand is smooth
    # and vanishes to all orders at 0 and 1.
    @cached_property
    def phi_int(self) -> float:
        """int_0^1 Phi(t) dt, as the rectangle sum over _samples."""
        return float(self._samples.sum() / _SAMPLES)

    @cached_property
    def phi_sq_int(self) -> float:
        """int_0^1 Phi(t)^2 dt, as the rectangle sum over _samples."""
        return float((self._samples**2).sum() / _SAMPLES)

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

    @cached_property
    def _moments(self) -> _LogMoments:
        return _LogMoments(self)

    def _mellin_order(self, r: float) -> int | None:
        """The first T <= _MOMENTS whose tail bound (see mellin) at
        |w - 1| <= r is at most u |mu_0|, or None if there is none; the
        log-moments are computed up to mu_T and no further."""
        moments = self._moments
        t = np.arange(1, _MOMENTS + 1)
        room = 1.0 - r * moments.big_l / (t + 1)
        powers = r**t
        target = UNIT_ROUNDOFF * abs(moments.upto(0)[0])
        for j in t[room > 0].tolist():
            tail = powers[j - 1] * abs(moments.upto(j)[j]) / _FACTORIALS[j]
            if tail / room[j - 1] <= target:
                return j
        return None

    def mellin(self, w):
        """The midpoint sum (1/m) sum_i Phi(y_i) y_i^(w-1), y_i = (i + 1/2)/m,
        m = 2^16, for int_0^1 Phi(y) y^(w-1) dy; vectorized over complex w.

        With z = w - 1, y^z = sum_j (z log y)^j / j! turns the sum into
        sum_j z^j mu_j / j! with the log-moments mu_j (_LogMoments),
        evaluated for every w by Horner's rule on its first T terms; only
        mu_0..mu_T are computed.

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
        coeffs = self._moments.upto(order - 1) / _FACTORIALS[:order]
        out = np.full(z.shape, coeffs[-1], dtype=np.complex128)
        for c in coeffs[-2::-1]:
            out = out * z + c
        return out if np.ndim(w) else complex(out[0])


def build_window(eps: float) -> SmoothWindow:
    return SmoothWindow(eps=eps)


def windowed(values: np.ndarray, window: SmoothWindow) -> np.ndarray:
    """a_n Phi(n/N) for the values a_0..a_N, as a new array with slot 0
    at +0.0: a_n times Phi(n/N) off Phi's plateau, and a_n itself on it,
    where Phi(n/N) is 1.0."""
    n = len(values) - 1
    lo, hi, head, tail = window._grid_edges(n)
    out = np.array(values, dtype=np.float64)
    out[:lo] *= head
    out[hi:] *= tail
    out[0] = 0.0
    return out


# ---------------------------------------------------------------------------
# Sieve weights


def build_weights(kind: str, r_max: int, k: int | None = None) -> np.ndarray:
    """The truncated sieve coefficients b_0..b_R, R = r_max, slot 0 unused
    (implicitly 0 beyond R): b_r = mu(r) log(R/r) (prime case) or
    d_{k-1}(r) (divisor case)."""
    if r_max < 2:
        raise ValueError("R must be at least 2")
    b = np.zeros(r_max + 1)
    if kind == "prime_sieve":
        mu = moduli_tables(r_max, "mu")[0]
        r = np.arange(1, r_max + 1, dtype=np.float64)
        # + 0.0 turns b_R = mu(R) log 1 = -0.0 into +0.0, and no other bit.
        b[1:] = mu[1:] * np.log(r_max / r) + 0.0
    elif kind == "divisor_k":
        if k is None or k < 2:
            raise ValueError("divisor weights need k >= 2")
        b[1:] = moduli_tables(r_max, f"d{k - 1}")[0][1:] if k > 2 else 1.0
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    return b


def build_tilde_sequence(n: int, b: np.ndarray, window: SmoothWindow) -> Sequence:
    """The smoothed short divisor sum: a~_n = Phi(n/N) sum_{r|n, r<=R} b_r,
    R = b.size - 1."""
    if b.size > n + 1:
        raise ValueError("R must not exceed N")
    acc = np.zeros(n + 1)
    for r in range(1, b.size):
        if b[r]:
            acc[r::r] += b[r]
    acc = windowed(acc, window)         # the unwindowed sum is freed here
    return Sequence(acc)


def weight_sum_q(b: np.ndarray, q: int) -> float:
    """sum over r <= R = b.size - 1 with q | r of b_r / r; zero for q > R."""
    if q < 1:
        raise ValueError("q must be positive")
    r = np.arange(q, b.size, q)
    return float(np.sum(b[r] / r))


# ---------------------------------------------------------------------------
# Numerical check of the rearrangement identity for sum a_n a~_n


def check_lemma5(seq: Sequence, b: np.ndarray, window: SmoothWindow):
    """Rearrangement identity: sum a_n a~_n equals the weighted sum of
    windowed Ramanujan correlations over q <= R = b.size - 1.  Returns
    (lhs, rhs, relative residual)."""
    n = seq.n
    tilde = build_tilde_sequence(n, b, window)
    lhs = float(np.dot(seq.values, tilde.values))
    qs = list(range(1, b.size))
    corrs = ramanujan_correlations(windowed(seq.values, window), qs)
    rhs = math.fsum(weight_sum_q(b, q) * corrs[i] for i, q in enumerate(qs))
    denom = max(abs(lhs), abs(rhs), 1.0)
    return lhs, rhs, abs(lhs - rhs) / denom
