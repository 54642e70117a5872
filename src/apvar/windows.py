"""Smooth plateau window, its tabulated Fourier transform, and sieve weights.

The window is the usual C-infinity plateau bump built from exp(-1/x)
cutoffs: identically 1 on [eps, 1-eps], supported in [0, 1].  Its
Fourier transform is tabulated on a fine grid by a chirp-z evaluation of
the sample sums (spectrally accurate because the bump vanishes to all
orders at both endpoints) and interpolated cubically.  The table, its
spline and the decay constants are built, and scipy imported, on first
use: the chains read only Phi, its integrals and its Mellin transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith import Sequence, divisor_sieve, mobius_totient

_SAMPLES = 1 << 16          # bump samples on [0, 1)
_XI_STEP = 1.0 / 512.0      # tabulation step in xi
DEFAULT_XI_MAX = 256.0


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
    xi_max: float
    phi_int: float = field(init=False)
    phi_sq_int: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eps < 0.25:
            raise ValueError("eps must lie in (0, 1/4)")
        samples = self._samples()
        # Rectangle rule is spectrally accurate here: the integrand is
        # smooth and vanishes to all orders at 0 and 1.
        self.phi_int = float(samples.sum() / _SAMPLES)
        self.phi_sq_int = float((samples**2).sum() / _SAMPLES)

    def _samples(self) -> np.ndarray:
        return self.phi(np.arange(_SAMPLES) / _SAMPLES)

    @cached_property
    def _table(self):
        """(xi, Phi^(xi)) on the tabulation grid, by chirp-z."""
        from scipy.signal import czt

        m = _SAMPLES
        npts = int(self.xi_max / _XI_STEP) + 1
        w = np.exp(-2j * np.pi * _XI_STEP / m)
        table = czt(self._samples().astype(np.complex128), m=npts, w=w) / m
        return np.arange(npts) * _XI_STEP, table

    @cached_property
    def _spline(self):
        from scipy.interpolate import CubicSpline

        return CubicSpline(*self._table)

    @cached_property
    def decay_constants(self) -> dict:
        """C_a = max over the table of |Phi^(xi)| (1 + xi)^a, a = 1, 2, 4."""
        xi, table = self._table
        mags = np.abs(table)
        return {a: float(np.max(mags * (1.0 + xi) ** a)) for a in (1, 2, 4)}

    def phi(self, t):
        """The bump Phi(t): 0 outside [0,1], 1 on [eps, 1-eps]."""
        t = np.asarray(t, dtype=np.float64)
        out = _smoothstep(t / self.eps) * _smoothstep((1.0 - t) / self.eps)
        return out if out.ndim else float(out)

    def phi_hat(self, xi):
        """Fourier transform Phi^(xi) = int Phi(t) e(-xi t) dt.

        Interpolated from the table; zero is returned beyond the
        tabulated range, where |Phi^| <= C_4 (1+xi)^-4 anyway.
        """
        xi = np.asarray(xi, dtype=np.float64)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        out = np.zeros(xi.shape, dtype=np.complex128)
        inside = np.abs(xi) <= self.xi_max
        pos = inside & (xi >= 0)
        neg = inside & (xi < 0)
        out[pos] = self._spline(xi[pos])
        out[neg] = np.conj(self._spline(-xi[neg]))
        return complex(out[0]) if scalar else out

    def phi_hat_quad(self, xi: float, panels: int = 256) -> complex:
        """Independent composite Gauss-Legendre evaluation (table oracle)."""
        nodes, weights = np.polynomial.legendre.leggauss(10)
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = (edges[1:] + edges[:-1]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        vals = self.phi(t) * np.exp(-2j * np.pi * xi * t)
        return complex(np.dot(w, vals))

    def mellin(self, w):
        """int_0^1 Phi(y) y^(w-1) dy for complex w (vectorized over w)."""
        m = _SAMPLES
        # midpoint samples avoid y = 0
        y = (np.arange(m) + 0.5) / m
        ph = self.phi(y)
        w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
        out = np.array([np.sum(ph * y ** (wi - 1.0)) / m for wi in w])
        return out if out.size > 1 else complex(out[0])


def build_window(eps: float, xi_max: float = DEFAULT_XI_MAX) -> SmoothWindow:
    return SmoothWindow(eps=eps, xi_max=xi_max)


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
    acc *= window.phi(np.arange(n + 1) / n)
    return Sequence(acc, name=f"tilde-{weights.kind}")


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
    corrs = ramanujan_correlations(seq, qs, window=window)
    rhs = math.fsum(weight_sum_q(weights, q) * corrs[i] for i, q in enumerate(qs))
    denom = max(abs(lhs), abs(rhs), 1.0)
    return lhs, rhs, abs(lhs - rhs) / denom
