"""Exponential sums, arc dissection, and exact arc integrals.

Major arcs are the points within K/(qQ) of a reduced fraction a/q with
q <= K*Q0.  arc_masses integrates |A|^2 (and A times a conjugated second
sum) over them exactly, from lag correlations and Ramanujan sums, with an
a-priori rounding bound.  The discretized path -- a power-of-two grid
spectrum, its cell classification and certified trapezoid sums with a
quadrature and boundary budget -- stays as its independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import (CapacityError, Sequence, UNIT_ROUNDOFF, gamma,
                    lag_correlations, mobius_totient, underflow)

SPECTRUM_BUDGET = 1 << 24
FAREY_ENUMERATION_CAP = 10_000


@dataclass
class ArcSystem:
    """Parameters (K, Q0, Q) of the major/minor arc dissection for length N."""

    k_param: float
    q0: float
    q: float
    n: int

    def regime_departures(self) -> list:
        """{name, value, window} for each window of the paper's arc
        estimates that this point lies outside.  An open end is None, not
        inf, which JSON cannot hold."""
        nlogn = self.n * math.log(max(self.n, 2))
        windows = (("K", self.k_param, 5.0, None),
                   ("Q0", self.q0, nlogn / self.q, self.q / self.k_param**2),
                   ("Q", self.q, self.k_param * math.sqrt(nlogn), self.n))
        return [{"name": name, "value": value, "window": [lo, hi]}
                for name, value, lo, hi in windows
                if value < lo or (hi is not None and value > hi)]

    @property
    def kq0(self) -> int:
        return int(self.k_param * self.q0)


def arcs_disjoint(k_param: float, q0: float, q: float) -> bool:
    """Whether the arcs |alpha - a/r| <= K/(rQ), r <= M = int(K Q0), are
    pairwise disjoint on the circle.

    Two fractions a/r != a'/r' lie at least 1/(rr') apart, with equality
    for Farey neighbours, so their arcs overlap exactly when
    Q < K(r + r').  The largest r + r' over neighbours with r, r' <= M is
    2M - 1 (1/M and 1/(M-1)), or 2 for M = 1 (0/1 and 1/1).
    """
    m = int(k_param * q0)
    return m < 1 or q > k_param * max(2 * m - 1, 2)


def eval_exp_sum(seq: Sequence, alpha: float) -> complex:
    """A(alpha) = sum a_n e(n alpha), with compensated summation."""
    n = np.arange(seq.n + 1)
    phase = 2.0 * np.pi * ((n * alpha) % 1.0)
    re = math.fsum(seq.values * np.cos(phase))
    im = math.fsum(seq.values * np.sin(phase))
    return complex(re, im)


@dataclass
class Spectrum:
    """All values A(t/T) on the grid t = 0..T-1, with certification data."""

    t_grid: int
    amplitudes: np.ndarray       # complex A(t/T)
    l2: float                    # sum |a_n|^2
    l1: float                    # sum |a_n|
    deriv_bound: float           # 2 pi N sum|a_n| bounds |A'|
    total_mass: float = field(init=False)

    def __post_init__(self):
        self.total_mass = float(np.mean(np.abs(self.amplitudes) ** 2))

    @property
    def power(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def default_grid_size(n: int) -> int:
    t = 16
    while t < 16 * n:
        t *= 2
    return t


def build_spectrum(seq: Sequence, t_grid: int | None = None) -> Spectrum:
    """Zero-padded FFT evaluation of A on the grid t/T."""
    if t_grid is None:
        t_grid = default_grid_size(seq.n)
    if t_grid & (t_grid - 1) or t_grid < 2 * seq.n:
        raise ValueError("grid size must be a power of two >= 2N")
    if t_grid > SPECTRUM_BUDGET:
        raise CapacityError(f"grid size {t_grid} exceeds budget {SPECTRUM_BUDGET}")
    # numpy's fft uses e(-nt/T); our convention is e(+nt/T).
    amps = np.conj(np.fft.fft(seq.values, t_grid))
    return Spectrum(t_grid=t_grid, amplitudes=amps, l2=seq.l2(), l1=seq.l1(),
                    deriv_bound=2.0 * np.pi * seq.n * seq.l1())


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


def major_mask(arcs: ArcSystem, t_grid: int) -> np.ndarray:
    """Boolean mask over the grid: cell centers lying in a major arc."""
    mask = np.zeros(t_grid, dtype=bool)
    for q in range(1, arcs.kq0 + 1):
        half = arcs.k_param / (q * arcs.q) * t_grid
        for a in range(q):
            if math.gcd(a, q) != 1:
                continue
            center = a / q * t_grid
            lo = math.ceil(center - half)
            hi = math.floor(center + half)
            if hi - lo + 1 >= t_grid:
                mask[:] = True
                return mask
            idx = np.arange(lo, hi + 1) % t_grid
            mask[idx] = True
    return mask


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


@dataclass
class MinorArcIntegral:
    value: float
    error_bound: float
    major_value: float
    complement_value: float   # l2 minus the major part


def minor_arc_integral(spec: Spectrum, arcs: ArcSystem) -> MinorArcIntegral:
    """Trapezoid integral of |A|^2 over grid cells classified minor.

    The error bound charges each minor cell width^2/4 * |(|A|^2)'| using
    the recorded derivative bound with the local |A|, plus one full cell
    of the local maximum for every boundary-straddling cell.
    """
    t = spec.t_grid
    mask = major_mask(arcs, t)
    power = spec.power
    width = 1.0 / t
    minor = ~mask
    value = float(power[minor].sum()) * width
    major_value = float(power[mask].sum()) * width

    amp = np.abs(spec.amplitudes)
    quad_err = float((width**2 / 4.0) * 2.0 * spec.deriv_bound * amp[minor].sum())
    boundary = mask != np.roll(mask, 1)
    local_max = np.maximum(power, np.roll(power, 1))
    straddle_err = float(width * local_max[boundary].sum())
    return MinorArcIntegral(value=value, error_bound=quad_err + straddle_err,
                            major_value=major_value,
                            complement_value=spec.l2 - major_value)


# ---------------------------------------------------------------------------
# Exact arc integrals


@dataclass
class ArcMass:
    """Integrals of A(alpha) conj(B(alpha)) over the whole circle (`total`,
    which is sum_n a_n b_n), over the major arcs and over the minor arcs.
    `error` bounds the rounding error of `major` and of `minor`."""

    total: float
    major: float
    minor: float
    error: float


@dataclass
class ArcMasses:
    """|A|^2; with an auxiliary sequence also |A~|^2 and A conj(A~)."""

    a: ArcMass
    tilde: ArcMass | None = None
    cross: ArcMass | None = None


def arc_masses(arcs: ArcSystem, seq: Sequence,
               tilde: Sequence | None = None, corrs=None) -> ArcMasses:
    """Exact major- and minor-arc masses of |A|^2, and with `tilde` also
    of |A~|^2 and A conj(A~), from one real FFT per sequence.

    For real a, b and x(h) = sum_n a_{n+h} b_n, A(alpha) conj(B(alpha)) =
    sum_h x(h) e(h alpha).  Integrating over |alpha - a/q| <= d_q,
    d_q = K/(qQ), and summing over the reduced a mod q turns e(ha/q) into
    the Ramanujan sum c_q(h) = sum_{d | (q,h)} d mu(q/d), so

      major = sum_{q <= M} [2 d_q phi(q) x(0)
              + sum_{h >= 1} s(h) c_q(h) sin(2 pi h d_q) / (pi h)],

    M = int(K Q0), s(h) = x(h) + x(-h) = 2 rho(h) (lag_correlations).
    This is exact when the arcs are disjoint, which is checked first.
    Writing h = jd, q = dm (so h d_q = j d_m) regroups it as

      major = rho(0) sum_q 2 d_q phi(q)
              + sum_{m <= M} mu(m) sum_{j <= N} P_D(j) sin(2 pi j d_m) / (pi j),

    with D = floor(M/m) and P_D(j) = sum_{d <= D} s(jd).  The moduli m
    run downwards, so D only grows and P_D is updated in place, one
    strided slice s[D::D] per D (N log M in all).  For each squarefree m
    the sine sum, with j = aB + b and B ~ sqrt(N), is
    sum_{a,b} P~(aB + b) Im(e(aB d_m) e(b d_m)), P~(j) = P_D(j)/(pi j):
    a product of the (N/B) x B array P~ with the two columns
    (sin, cos)(2 pi b d_m), then two dots with (cos, sin)(2 pi aB d_m).
    The moduli sharing one D share one product, with two columns each.
    That is O(N) flops and O(sqrt N) trig calls per m, O(N KQ0) work in
    all, and memory is two arrays of length N + 1 per pair.  The minor
    mass is total - major, with total = rho(0).

    Error bound, in the rounding model of lag_correlations (u, gamma_k,
    and e0 = 2^-1074 per product or quotient under gradual underflow),
    with cos and sin of a float within 4 ulp (8u absolute):

    * Lags: each rho(h) is within eps (zero on the exact integer path).
      It enters the minor mass with weight 1 - sum_q 2 d_q phi(q) at
      h = 0 and with weights of modulus at most
      sum_q 2 |c_q(h)| |sin| / (pi h) at h >= 1.  Taking the kernel with
      |mu| and |sin| <= 1, sum_h |c_q(h)| / (pi h) <=
      sum_{d|q} |mu(q/d)| H(floor(N/d)) / pi, H(x) <= 1 + log x the
      harmonic numbers, so major and minor move by at most
      eps (1 + kappa), with kappa = sum_q 2 d_q phi(q)
      + (2/pi) sum_{d <= M} (1 + log(N/d)) #{squarefree m <= M/d}.
    * Weights: d_m, 2 pi and the products form each argument 2 pi j d_m
      with relative error gamma_5, so the weight actually applied,
      Im(e^(aB d_m) e^(b d_m)) / (pi j), is within
      (4 pi gamma_5 j d_m + 40u) / (pi j) of sin(2 pi j d_m) / (pi j).
      Against P that costs 4 gamma_5 d_m S0_D + 40u S1_D, where
      S0_D = sum_{d <= D} sum_j |s(jd)| and
      S1_D = sum_{d <= D} sum_j |s(jd)| / (pi j) bound sum_j |P_D(j)| and
      sum_j |P_D(j)| / (pi j).
    * Sums: P~_D(j) adds D terms of one product and one quotient each
      (gamma_{D+3}); the matrix product adds B terms and the final dots
      2 n_b, n_b = ceil((N + 1)/B), each term at most 2 |P~| in modulus
      (gamma_{2B + 4 n_b + 4}).  With the 40u above that is
      gamma_{D + 2B + 4 n_b + 47} S1_D per m.
    * Underflow: P~_D(j) holds at most D products, and the matrix product
      and final dots one more per term, over weights of modulus <= 1, so
      the sine and cosine parts of m carry at most 2 n_b B (D + 2) e0.
    * The h = 0 term carries gamma_5 |rho(0)| sum_q 2 d_q phi(q) + 2 e0
      (with its evaluation); fsum over m rounds once (u |major|) and
      minor = total - major once more (u |minor|); sums that underflow
      are exact.
    The sum of these terms is doubled, which covers the rounding of the
    bound's own evaluation (each term has as many e0 as it has products).

    `corrs`, when the caller has them, are _arc_correlations(seq, tilde);
    they are read, not changed.
    """
    if not arcs_disjoint(arcs.k_param, arcs.q0, arcs.q):
        raise ValueError(
            f"major arcs overlap: need Q > K (2 KQ0 - 1) (and Q > 2K); "
            f"K={arcs.k_param:.6g}, Q0={arcs.q0:.6g}, Q={arcs.q:.6g}")
    n, m_max = seq.n, arcs.kq0
    if corrs is None:
        corrs = _arc_correlations(seq, tilde)
    totals = [float(c.rho[0]) for c in corrs]
    # One row per correlation: the h = 0 term, then one term per m.
    terms = bounds = np.zeros((len(corrs), 0))
    kappa = 0.0
    if m_max >= 1:
        mu, phi = mobius_totient(m_max)
        zero_weight = math.fsum(
            2.0 * arcs.k_param / (np.arange(1, m_max + 1) * arcs.q) * phi[1:])
        squarefree = np.cumsum(np.abs(mu))        # squarefree m <= x
        ds = np.arange(1, min(m_max, n) + 1)
        # math.log, as np.log may differ in the last bit.
        logs = np.fromiter(map(math.log, (n // ds).tolist()), np.float64,
                           ds.size)
        kappa = zero_weight + (2.0 / math.pi) * math.fsum(
            (1.0 + logs) * squarefree[m_max // ds])
        sines, errs = _sine_sums([c.rho for c in corrs], arcs, mu)
        terms = np.column_stack([np.array(totals) * zero_weight, sines])
        bounds = np.column_stack([
            gamma(5) * np.abs(totals) * zero_weight + float(underflow(2)),
            errs])
    out = []
    for total, c, parts, errs in zip(totals, corrs, terms, bounds):
        major = math.fsum(parts)
        minor = total - major
        err = (math.fsum(errs) + c.error * (1.0 + kappa)
               + UNIT_ROUNDOFF * (abs(major) + abs(minor)))
        out.append(ArcMass(total=total, major=major, minor=minor,
                           error=2.0 * err))
    return ArcMasses(*out)


def _arc_correlations(seq: Sequence, tilde: Sequence | None = None) -> list:
    """The lag correlations arc_masses reads: the autocorrelation of `seq`,
    and with `tilde` also that of `tilde` and their cross correlation."""
    if tilde is None:
        return lag_correlations([seq], [(0, 0)])
    return lag_correlations([seq, tilde], [(0, 0), (1, 1), (0, 1)])


def _sine_sums(rows, arcs: ArcSystem, mu: np.ndarray) -> tuple:
    """(terms, bounds), each of shape (len(rows), number of squarefree
    m <= M): for each row rho and each such m, in descending order, the
    term mu(m) sum_j P_D(j) sin(2 pi j d_m)/(pi j) and its rounding bound
    (see arc_masses).  The factor 2 of s(h) = 2 rho(h) rides on the
    weights 2/(pi j) and on S0; scaling by 2 is exact, so the terms are
    those of the rows s."""
    n, m_max = rows[0].size - 1, arcs.kq0
    inv = np.zeros(n + 1)
    inv[1:] = 2.0 / (math.pi * np.arange(1, n + 1))
    block = 1 << max(0, math.ceil(math.log2(n + 1) / 2))
    n_b = -(-(n + 1) // block)
    p_tilde = np.zeros((len(rows), n_b * block))
    buf = np.empty(n)
    s0 = np.zeros(len(rows))
    s1 = np.zeros(len(rows))
    lo = 2.0 * math.pi * np.arange(block)
    hi = 2.0 * math.pi * block * np.arange(n_b)
    moduli = np.flatnonzero(mu[: m_max + 1])[::-1]
    terms = np.empty((len(rows), moduli.size))
    bounds = np.empty_like(terms)
    d_done = 0
    # The moduli sharing one D, moduli[a:b], use one pass over P~_D.
    cuts = [0, *(np.flatnonzero(np.diff(m_max // moduli)) + 1), moduli.size]
    for a, b in zip(cuts, cuts[1:]):
        group = moduli[a:b]
        d_top = m_max // int(group[0])
        for d in range(d_done + 1, d_top + 1):
            j = n // d
            tmp, w = buf[:j], inv[1 : j + 1]
            for i, row in enumerate(rows):
                np.multiply(row[d::d], w, out=tmp)
                p_tilde[i, 1 : j + 1] += tmp
                np.abs(row[d::d], out=tmp)
                s0[i] += 2.0 * tmp.sum()
                s1[i] += tmp @ w
        d_done = d_top
        dms = arcs.k_param / (group * arcs.q)
        cols = np.concatenate([np.sin(np.outer(lo, dms)),
                               np.cos(np.outer(lo, dms))], axis=1)
        prod = (p_tilde.reshape(-1, block) @ cols).reshape(
            len(rows), n_b, 2 * group.size)
        vals = (np.einsum("iak,ak->ik", prod[:, :, : group.size],
                          np.cos(np.outer(hi, dms)))
                + np.einsum("iak,ak->ik", prod[:, :, group.size :],
                            np.sin(np.outer(hi, dms))))
        count = d_top + 2 * block + 4 * n_b + 47
        tiny = float(underflow(2 * n_b * block * (d_top + 2)))
        terms[:, a:b] = mu[group] * vals
        bounds[:, a:b] = (gamma(count) * s1[:, None]
                          + 4.0 * gamma(5) * dms * s0[:, None] + tiny)
    return terms, bounds
