"""Exponential sums, arc dissection, and exact arc integrals.

Major arcs are the points within K/(qQ) of a reduced fraction a/q with
q <= K*Q0.  arc_masses integrates |A|^2 (and A times a conjugated second
sum) against any lag weights W exactly, as one spectral dot per pair
against the kernel lag_kernel builds from W, with an a-priori rounding
bound.  major_weights gives the major arcs' W, built from Ramanujan
sums, so that the weighted sum is the major-arc mass.  The discretized
path -- a power-of-two grid spectrum, its cell classification and
certified trapezoid sums with a quadrature and boundary budget -- stays
as its independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (CapacityError, LagSpectra, Sequence, UNIT_ROUNDOFF,
                    gamma, moduli_tables, transform_length, underflow)

SPECTRUM_BUDGET = 1 << 24


@dataclass
class ArcSystem:
    """Parameters (K, Q0, Q) of the major/minor arc dissection."""

    k_param: float
    q0: float
    q: float

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


@dataclass
class Spectrum:
    """All values A(t/T) on the grid t = 0..T-1, with certification data."""

    t_grid: int
    amplitudes: np.ndarray       # complex A(t/T)
    l2: float                    # sum |a_n|^2
    l1: float                    # sum |a_n|
    deriv_bound: float           # 2 pi N sum|a_n| bounds |A'|

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
    which is sum_n a_n b_n) and against a kernel's lag weights W
    (`major`, sum_h rho(h) W(h)): the major-arc mass when W comes from
    major_weights.  `minor` is total - major, the minor-arc mass then.
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


@dataclass
class LagWeights:
    """Lag weights for arc_masses, which gives sum_h rho(h) W(h) for a
    pair's lag correlation rho: the computed W'(h) on the lags 0..N, and
    `error`, an a-priori bound on sum_h |W'(h) - W(h)|, their distance
    from the exact weights W."""

    w: np.ndarray
    error: float


# Most moduli per product in major_weights.
_CHUNK = 128


def major_weights(arcs: ArcSystem, n: int) -> LagWeights:
    """W(h) for 0 <= h <= n: for real a, b with lag correlation rho
    (LagSpectra), the major-arc integral of A conj(B) is
    sum_h rho(h) W(h), exact when the arcs are disjoint.  Arcs that
    overlap are a ValueError here, before any work.

    With x(h) = sum_n a_{n+h} b_n, A(alpha) conj(B(alpha)) =
    sum_h x(h) e(h alpha).  The integral of e(h alpha) over
    |alpha - r/q| <= d_q, d_q = K/(qQ), is e(hr/q) sin(2 pi h d_q)/(pi h)
    (2 d_q at h = 0), and the sum over the reduced r mod q turns e(hr/q)
    into the Ramanujan sum c_q(h) = sum_{d | (q,h)} d mu(q/d).  Pairing
    h with -h (rho(h) = (x(h) + x(-h))/2) gives, with M = int(K Q0),

      W(0) = sum_{q <= M} 2 d_q phi(q),
      W(h) = sum_{q <= M} 2 c_q(h) sin(2 pi h d_q) / (pi h)
           = sum_{d | h, d <= M} (2/(pi j)) R_d(j),   j = h/d,

    where writing q = dm (so h d_q = j d_m) gives the second line, and
    R_d(j) = sum_{squarefree m <= M/d} mu(m) sin(2 pi j d_m).

    The squarefree m run upwards, so D = floor(M/m) only falls: for
    d = M, ..., 1 the moduli with D = d join one running row, which is
    then R_d, and one strided add W[d::d] += (2/(pi j)) R_d(j) follows.
    The moduli join with j = aB + b, B ~ sqrt(N):
    sin(2 pi j d_m) = Im(e(aB d_m) e(b d_m)), so up to _CHUNK moduli at a
    time are one product of the (N/B) x 2g array
    mu (sin, cos)(2 pi aB d_m) with the 2g x B array
    (cos, sin)(2 pi b d_m).  That is O(N) flops and O(sqrt N) trig calls
    per m: O(N KQ0) work once per arc system, however many sequences
    read W.  While it runs it holds five arrays of N + 1 floats (W, the
    reciprocals 2/(pi j), the running row, the product and the strided
    add's operand); it returns W alone.

    Error bound, in the rounding model of LagSpectra (u, gamma_k,
    and e0 = 2^-1074 per product or quotient under gradual underflow),
    with cos and sin of a float within 4 ulp (8u absolute), n_d the
    number of squarefree m <= M/d and H(x) <= 1 + log x the harmonic
    numbers.  The error of W'(h), the computed W(h), summed over h is at
    most:

    * W(0): M terms of two products and a quotient each, and one fsum:
      gamma_5 W(0) + 3M e0.
    * Trig: d_m, 2 pi and the products form each of the two arguments
      2 pi aB d_m and 2 pi b d_m with relative error gamma_5, so the sine
      term is within 2 pi gamma_5 j d_m (arguments) + 40u (values and
      products) of mu(m) sin(2 pi j d_m).  Through 2/(pi j), which
      carries gamma_3, and the product with it (gamma_4 in all), the
      argument part is 4 gamma_9 (K/Q) h(M/d) at each lag h = dj, with
      h(x) = sum_{squarefree m <= x} 1/m, and floor(N/d) lags take d.
      The 40u joins the rows.
    * Rows: a sine term of R_d(j) is one product, then at most 2g - 1
      additions in its product (g <= `widest`, the widest group) and one
      per join of the row (A in all); the two products of a modulus
      have moduli summing to at most 1 (|sin s cos t| + |cos s sin t|
      <= 1), so apart from the argument part R_d(j) is within
      n_d (40u + gamma_{2 widest + A + 1}) of its exact value.  With
      2/(pi j) (gamma_4 again) and sum_{j <= N/d} 2/(pi j) <=
      (2/pi) H(N/d), the rows add gamma_{2 widest + A + 49} times
      (2/pi) sum_{d <= min(M, N)} (1 + log(N/d)) n_d.
    * Strided adds: W(h) sums tau_M(h) <= tau(d) tau(j) terms t_d(j),
      |t_d(j)| <= (2/(pi j)) n_d (1 + gamma_{2 widest + A + 49}), and
      each add rounds by u times the partial sum it makes, at most the
      sum of the |t_d|.  As sum_{j <= x} tau(j)/j <= H(x)^2, the adds
      cost at most gamma_2 (2/pi) sum_d tau(d) n_d (1 + log(N/d))^2.
    * Underflow: a row entry at d takes at most 6 n_d products or
      quotients over values of modulus at most 1 and t_d(j) one more:
      sum_d floor(N/d) (6 n_d + 1) e0.  Sums that underflow are exact.
    The sum of these terms is doubled, which covers the rounding of the
    bound's own evaluation.
    """
    if not arcs_disjoint(arcs.k_param, arcs.q0, arcs.q):
        raise ValueError(
            f"major arcs overlap: need Q > K (2 KQ0 - 1) (and Q > 2K); "
            f"K={arcs.k_param:.6g}, Q0={arcs.q0:.6g}, Q={arcs.q:.6g}")
    m_max, k_param, q = arcs.kq0, arcs.k_param, arcs.q
    mu, phi, d2 = moduli_tables(m_max, "mu", "phi", "d2")
    w = np.zeros(n + 1)
    w[0] = math.fsum(2.0 * k_param / (np.arange(1, m_max + 1) * q) * phi[1:])
    inv = np.zeros(n + 1)
    inv[1:] = 2.0 / (math.pi * np.arange(1.0, n + 1))
    block = 1 << max(0, math.ceil(math.log2(n + 1) / 2))
    n_b = -(-(n + 1) // block)
    lo = 2.0 * math.pi * np.arange(block)
    hi = 2.0 * math.pi * block * np.arange(n_b)
    row = np.zeros(n_b * block)
    prod, tmp = np.empty((n_b, block)), np.empty(n)
    moduli = np.flatnonzero(mu)                 # squarefree m, ascending
    # The moduli with floor(M/m) >= d are moduli[:joined[d]].
    joined = np.searchsorted(-(m_max // moduli), -np.arange(m_max + 2),
                             side="right")
    adds = widest = 0
    for d in range(m_max, 0, -1):
        for a in range(joined[d + 1], joined[d], _CHUNK):
            group = moduli[a : min(a + _CHUNK, joined[d])]
            widest = max(widest, group.size)
            dms = k_param / (group * q)
            sign = mu[group]
            lo_angles, hi_angles = np.outer(dms, lo), np.outer(hi, dms)
            lo_cols = np.concatenate([np.cos(lo_angles), np.sin(lo_angles)])
            hi_cols = np.concatenate([sign * np.sin(hi_angles),
                                      sign * np.cos(hi_angles)], axis=1)
            row += np.matmul(hi_cols, lo_cols, out=prod).ravel()
            adds += 1
        j = n // d
        w[d::d] += np.multiply(inv[1 : j + 1], row[1 : j + 1], out=tmp[:j])

    squarefree = np.cumsum(np.abs(mu))          # squarefree m <= x
    recips = np.zeros(m_max + 1)
    recips[1:] = np.abs(mu[1:]) / np.arange(1, m_max + 1)
    ds = np.arange(1, min(m_max, n) + 1)
    n_d, lags = squarefree[m_max // ds], n // ds
    # math.log, as np.log may differ in the last bit.
    logs = 1.0 + np.fromiter(map(math.log, lags.tolist()), np.float64,
                             ds.size)
    err = (gamma(5) * w[0] + float(underflow(3 * m_max))
           + 4.0 * gamma(9) * k_param / q * math.fsum(
               lags * np.cumsum(recips)[m_max // ds])
           + gamma(2 * widest + adds + 49) * (2.0 / math.pi) * math.fsum(
               logs * n_d)
           + gamma(2) * (2.0 / math.pi) * math.fsum(
               d2[ds] * n_d * logs * logs)
           + float(underflow(math.fsum(lags * (6.0 * n_d + 1.0)))))
    return LagWeights(w, 2.0 * err)


@dataclass
class LagKernel:
    """The kernel of lag weights W for sequences a_1..a_N: its `values`
    c_k E^_k on 0 <= k <= L/2 (arc_masses), L = transform_length(N) the
    length of LagSpectra, with l1, the computed sum_h |W'(h)| times
    1 + gamma_{N+2}, and `error`, the weights' bound Delta."""

    n: int
    values: np.ndarray
    l1: float
    error: float


def lag_kernel(weights: LagWeights) -> LagKernel:
    """The kernel of `weights` on the lags 0..N, N = weights.w.size - 1,
    built before any sequence is transformed: W's even extension E to
    Z/L and E's transform, whose real part times c_k (1 or 2, applied as
    a scalar to the slices it multiplies) is the kernel.  The weights
    are freed once copied into the extension (when the caller holds no
    other reference to them), and the extension (L floats) before the
    transform's real part is copied, so the kernel's L/2 + 1 floats are
    all that stays."""
    n = weights.w.size - 1
    length = transform_length(n)
    l1 = float(np.abs(weights.w).sum()) * (1.0 + gamma(n + 2))
    even = np.zeros(length)
    even[: n + 1] = weights.w
    error = weights.error
    del weights
    even[1 : n + 1] /= 2.0
    even[length - n :] = even[n:0:-1]
    spectrum = np.fft.rfft(even)
    del even
    values = spectrum.real.copy()
    del spectrum
    values[1 : (length + 1) // 2] *= 2.0
    return LagKernel(n, values, l1, error)


def arc_masses(kernel: LagKernel, spectra: LagSpectra) -> ArcMasses:
    """Exact weighted masses of |A|^2 when `spectra` hold one sequence a,
    and of |A|^2, |A~|^2 and A conj(A~) when they hold two, a and a~,
    from their real FFTs and a kernel of lag weights W (lag_kernel,
    built before the spectra).

    A pair's `major` is sum_{h=0}^{N} rho(h) W(h), rho its lag
    correlation.  With W from major_weights it is the major-arc mass:
    there W(h) is the integral of e(h alpha) + e(-h alpha) over the
    major arcs (of 1 at h = 0), which the Ramanujan sums c_q(h) give in
    closed form, and major_weights derives it and its own bound.  With
    L > 2N the transform length of LagSpectra and P = Re(X conj Y) on
    0 <= k <= L/2 the pair's spectral product, let E be the even
    extension of W to Z/L: E(0) = W(0), E(h) = E(L - h) = W(h)/2 for
    1 <= h <= N, and 0 between.  The circular correlation r on Z/L is
    rho(|h|) at h and at L - h (L > 2N), so major = sum_{h mod L} r(h) E(h)
    and, by Parseval,

      major = (1/L) sum_{k=0}^{L/2} c_k P_k E^_k,
      total = sum_n a_n b_n = r(0) = (1/L) sum_{k=0}^{L/2} c_k P_k,

    E^ the transform of E, which is real; c_k = 2 for 0 < k < L/2 and 1 at
    k = 0 and at k = L/2 (L even), as P and E^ are even in k.  So a pair
    costs one product of two spectra and one O(L) dot, and no inverse
    transform; the pairs share W and E^, one transform, which the kernel
    holds as c_k E^_k.  Each sum runs as a pairwise tree, every term
    through lg = ceil(log2(L/2 + 1)) additions.  minor = total - major,
    the minor-arc mass for major_weights' W; that is exact when the arcs
    are disjoint, which major_weights checks.

    Memory: besides the kernel (L/2 + 1 floats) and the spectra (L/2 + 1
    complex values per sequence), which the caller holds, only two
    buffers live here, reused by every pair: P, and the power-of-two
    buffer of the tree sums, whose prefix also serves as P's scratch.
    c_k is applied as a scalar (1 or 2) to slices, never as an array.

    Error bound, in the rounding model of LagSpectra (u, gamma_k,
    e0 = 2^-1074; eps the pair's per-lag bound there, P_L = c L log2(L)
    with c = FFT_ERROR_CONSTANT the e0 count of a transform's output,
    eta <= 8u per level of log2 L), with ab = ||a||_2 ||b||_2, W' the
    computed weights and E' their extension, Delta the weights' error
    bound on sum_h |W'(h) - W(h)|, and l1 the computed
    sum_h |W'(h)|, which bounds sum_h |E'(h)| within gamma_{N+2}:

    * Spectra: the computed P is the exact transform of a correlation r~
      within eps of r at every lag (LagSpectra), so it moves the
      major mass by at most eps l1.
    * Weights: sum_h |r~(h)| |E'(h) - E(h)| <= (ab + eps) (Delta + N e0),
      as |r(h)| <= ab (Cauchy-Schwarz) and halving W'(h) errs only under
      underflow.
    * Kernel and dot: each output of the transform of E' is within
      eta log2(L) l1 + P_L e0 (componentwise, as every output sums the
      inputs along butterfly paths with twiddles of modulus 1).  The
      products and the tree sum add gamma_{lg + 2} relative to
      (1/L) sum_k c_k |P_k| |E'^_k| <= ab max_k |E'^_k| <= ab l1, since
      (1/L) sum_{k mod L} |X_k| |Y_k| <= ab (Cauchy-Schwarz, Parseval).
      Together: gamma_{8 log2(L) + lg + 3} ab l1 + (2 P_L ab + 2) e0.
    * total: its forward error and its tree sum stay within eps, as
      the inverse transform's lag 0 does in LagSpectra.
    * minor = total - major rounds once more: u |minor|, and u |major|
      is charged besides.
    So error = 2 [eps (1 + l1) + gamma_{8 log2(L) + lg + 3} ab l1 +
    (ab + eps) Delta + (2 P_L ab + N (ab + eps) + 2) e0 +
    u (|major| + |minor|)], doubled to cover second-order terms and the
    rounding of the bound's own evaluation.  W = 0 (major_weights
    without major arcs, KQ0 = 0) gives major = 0 and minor = total.
    `kernel` and `spectra` are read, not changed; a kernel built for
    another N is a ValueError.
    """
    if kernel.n != spectra.n:
        raise ValueError(f"kernel for N={kernel.n} read with spectra of "
                         f"N={spectra.n}")
    n, length, l1 = spectra.n, spectra.length, kernel.l1
    pairs = ([(0, 0)] if len(spectra.squares) == 1
             else [(0, 0), (1, 1), (0, 1)])
    size, top = length // 2 + 1, (length + 1) // 2
    levels = 8.0 * math.log2(length) + math.ceil(math.log2(size)) + 3
    power = np.empty(size)
    buffer = np.zeros(1 << (size - 1).bit_length())
    terms = buffer[:size]
    out = []
    for i, j in pairs:
        spectra.power(i, j, power, terms)
        eps = spectra.error(i, j)
        terms[:] = power
        terms[1:top] *= 2.0
        total = _tree_sum(terms, buffer) / length
        ab = math.sqrt(spectra.squares[i] * spectra.squares[j])
        major = _tree_sum(np.multiply(power, kernel.values, out=terms),
                          buffer) / length
        err = (eps * (1.0 + l1) + gamma(levels) * ab * l1
               + (ab + eps) * kernel.error + float(underflow(
                   2.0 * spectra.products * ab + n * (ab + eps) + 2.0)))
        minor = total - major
        out.append(ArcMass(total=total, major=major, minor=minor,
                           error=2.0 * (err + UNIT_ROUNDOFF
                                        * (abs(major) + abs(minor)))))
    return ArcMasses(*out)


def _tree_sum(terms: np.ndarray, buffer: np.ndarray) -> float:
    """The sum of `terms`, a prefix of `buffer`, by halving: the rest of
    `buffer`, whose length is a power of two, is cleared, and each pass
    adds its upper half onto its lower half in place.  Every term passes
    through log2(buffer.size) additions, so the sum errs by at most gamma
    of that times sum |terms| (exact under underflow).  `buffer` is
    overwritten."""
    buffer[terms.size :] = 0.0
    width = buffer.size
    while width > 1:
        width //= 2
        buffer[:width] += buffer[width : 2 * width]
    return float(buffer[0])
