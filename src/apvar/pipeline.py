"""End-to-end lower-bound chains for the variance experiments.

The chain runs: sum of variances over moduli >= (modulus range) x
(1 - slack) x (minor-arc integral) - (Ramanujan-sum tail) - (allowance
term), with the minor-arc integral itself bounded below through
Cauchy-Schwarz against an auxiliary sieve-weighted sequence.  Every arc
integral comes from circle.arc_masses, exact up to a stated rounding
bound.  At desk scale the asymptotic parameter recipes routinely
overflow their theoretical ceilings, so every derived parameter is
clipped into its admissible window; the report records each clip and
each departure from the paper's regime (ArcSystem.regime_departures).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import (Sequence, SieveTable, d_k_of, factorize, is_squarefree,
                    mobius, mobius_totient, multiple_sums,
                    ramanujan_convolution, ramanujan_correlations, totient)
# Bound for perfbench/spans.py, which wraps this name in this module.
from .arith import sieve_all  # noqa: F401
from .circle import (ArcMasses, ArcSystem, Spectrum, _arc_correlations,
                     arc_masses, arcs_disjoint)
# Grid path: the validation tests use it and perfbench/spans.py wraps it.
from .circle import build_spectrum, major_mask, minor_arc_integral  # noqa: F401
from .dirichlet import (_SMOOTH_EXP, choose_R_chebyshev, f_q_value,
                        polynomial_69, residues)
# Bound for perfbench/spans.py, which wraps these names in this module.
from .dirichlet import contour_nodes, residue_ramdkeval, zeta_near_one  # noqa: F401
from .variance import _reduced_class_variances, variance_sweep
# Bound for perfbench/spans.py, which wraps these names in this module.
from .variance import (restricted_variance_total, variance_mod_q,  # noqa: F401
                       variance_total)
from .windows import SmoothWindow, build_tilde_sequence, build_weights, \
    build_window, weight_sum_q, windowed

SCHEMA_VERSION = 4

# Allowance multiplier for the unspecified O(N K / Q0 * sum |a_n|^2)
# term; the per-run fitted constant is reported alongside.
OTERM_ALLOWANCE = 1.0


@dataclass
class ExperimentConfig:
    """Parameters of a full lower-bound run.

    Derived quantities (K, Q0, R) follow the asymptotic recipes for the
    chosen experiment and are clipped into their admissible windows by
    resolve(); every clip is recorded.
    """

    experiment: str              # "theorem1" or "theorem2"
    n: int = 10**5
    q_exp: float = 0.75
    k: int = 2
    delta: float = 0.1
    epsilon: float = 0.05
    k_exp: float | None = None   # K = (log N)^k_exp
    r_override: float | None = None
    ending: str = "second"

    def __post_init__(self):
        """Check every parameter before any work, naming its CLI flag."""
        if self.experiment not in ("theorem1", "theorem2"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not 0 < self.q_exp <= 1.0:
            raise ValueError(f"--Q-exp must lie in (0, 1], got {self.q_exp}")
        if not 0 < self.delta < 0.5:
            raise ValueError(f"--delta must lie in (0, 1/2), got {self.delta}")
        if not 0 < self.epsilon < 0.25:
            raise ValueError(
                f"--epsilon must lie in (0, 1/4), got {self.epsilon}")
        if self.k_exp is not None and not math.isfinite(self.k_exp):
            raise ValueError(f"--K-exp must be finite, got {self.k_exp}")
        if self.experiment == "theorem2":
            if self.k < 2:
                raise ValueError(f"--k must be at least 2, got {self.k}")
            if self.ending not in ("first", "second"):
                raise ValueError("ending must be 'first' or 'second'")
            if self.ending == "first" and self.r_override is not None:
                raise ValueError("--R is not read by the first ending, "
                                 "which chooses R itself")
            if self.q_exp < 0.5 + self.delta:
                raise ValueError(
                    f"need Q >= N^(1/2+delta): Q-exp {self.q_exp} < "
                    f"{0.5 + self.delta}")

    @property
    def q(self) -> float:
        return self.n**self.q_exp


@dataclass
class ResolvedParams(ArcSystem):
    """A run's parameter point: its arc system, R, every clip that
    resolve_params applied, and the config it was resolved from.  The
    runners compute the chain at whatever point they are given."""

    r: float = 0.0
    clips: list = field(default_factory=list)
    config: ExperimentConfig | None = None


def resolve_params(config: ExperimentConfig) -> ResolvedParams:
    """Apply the asymptotic parameter recipes, then clip to the windows
    the arc estimates actually need at this scale.  The first ending's R
    is the maximizer of |polynomial_69| over its own window
    (choose_R_chebyshev), so it needs no clip."""
    n, q = config.n, config.q
    log_n = math.log(n)
    clips = []
    if config.experiment == "theorem1":
        k_param = log_n ** (config.k_exp if config.k_exp is not None else 2.0)
        q0 = n * log_n**10 / q
        r = q / log_n**20
    else:
        k_param = log_n ** (config.k_exp if config.k_exp is not None else 10.0)
        q0 = n ** (1.0 + config.epsilon) / q
        r = None                 # set below, per ending

    q0_cap = max(q / k_param**2, 1.0)
    if not 1.0 <= q0 <= q0_cap:
        clipped = min(max(q0, 1.0), q0_cap)
        clips.append(f"Q0: {q0:.6g} -> {clipped:.6g} (window [1, Q/K^2])")
        q0 = clipped
    # K must leave room for KQ0 < R <= Q/(2K); halve the ceiling so the
    # R window is not degenerate.
    k_cap = max(5.0, 0.5 * math.sqrt(q / (2.0 * q0)))
    if config.experiment == "theorem2" and config.ending == "second":
        # The admissible q-range of the final sum is (KQ0, R N^(-delta/4)].
        r = n ** (0.5 - config.delta / 2.0)
        k_cap = min(k_cap, max(5.0, 0.45 * r * n ** (-config.delta / 4.0) / q0))
    if k_param > k_cap:
        clips.append(f"K: {k_param:.6g} -> {k_cap:.6g}")
        k_param = k_cap
    if k_param < 5.0:
        clips.append(f"K: {k_param:.6g} -> 5")
        k_param = 5.0
    # The K cap keeps 2 K^2 Q0 <= Q/4, so the major arcs are disjoint
    # unless K sits on its floor of 5; then Q0 gives way.
    if not arcs_disjoint(k_param, q0, q):
        m_top = math.ceil((q / k_param + 1.0) / 2.0) - 1   # K(2M - 1) < Q
        clipped = m_top / k_param
        if clipped < 1.0 or not arcs_disjoint(k_param, clipped, q):
            raise ValueError(
                f"no Q0 >= 1 keeps the major arcs disjoint: K={k_param:.6g}, "
                f"Q0={q0:.6g}, Q={q:.6g}")
        clips.append(f"Q0: {q0:.6g} -> {clipped:.6g} (disjoint arcs, "
                     f"Q > K(2KQ0 - 1))")
        q0 = clipped

    kq0 = k_param * q0
    if config.r_override is not None:
        r = config.r_override
    elif config.experiment == "theorem1":
        r_hi = q / (2.0 * k_param)
        if not kq0 < r <= r_hi:
            clipped = math.sqrt((kq0 + 1.0) * max(r_hi, kq0 + 2.0))
            clips.append(f"R: {r:.6g} -> {clipped:.6g} (window (KQ0, Q/2K])")
            r = clipped
    elif config.ending == "first":
        r, _ = choose_R_chebyshev(config.k, n, q0, q, k_param, config.epsilon)
    if not kq0 < r <= n:
        raise ValueError(f"R={r:.6g} outside its window (KQ0, N] = "
                         f"({kq0:.6g}, {n}]")
    params = ResolvedParams(n=n, q=q, k_param=k_param, q0=q0, r=r,
                            clips=clips, config=config)
    if config.experiment == "theorem2" and config.ending == "second":
        _admissible_qs(params)     # an empty range fails here
    return params


# ---------------------------------------------------------------------------
# Chain terms


def _tail_sum(corrs: np.ndarray, phi: np.ndarray, q0: float) -> float:
    """sum over q <= Q of (1/q) sum over divisors d > Q0 of C_d^2 / phi(d),
    from the correlations C_d and phi(d) for d <= Q = corrs.size - 1;
    grouped by d with the harmonic weight w_d = sum_{m <= Q/d} 1/(dm)."""
    q_max = corrs.size - 1
    d_lo = int(math.floor(q0)) + 1
    ds = np.arange(d_lo, q_max + 1)
    harmonic = np.cumsum(1.0 / np.arange(1, q_max + 1))
    weights = harmonic[q_max // ds - 1] / ds
    return math.fsum(weights * corrs[d_lo:] ** 2 / phi[d_lo:])


def ramanujan_tail(seq: Sequence, q_max: float, q0: float) -> float:
    """The Ramanujan-sum tail of the variance inequality (_tail_sum) for
    `seq` alone, without an FFT; the chains take it from their variance
    sweep (_chain_terms)."""
    q_max = int(q_max)
    if q0 >= q_max:
        return 0.0
    mu, phi = mobius_totient(q_max)
    corrs = ramanujan_convolution(multiple_sums(seq.values, q_max), mu)
    return _tail_sum(corrs, phi, q0)


def _chain_terms(seq: Sequence, params: ResolvedParams,
                 tilde: Sequence | None = None):
    """(sweep, tail, masses): the variance_sweep of `seq` over q <= Q, the
    Ramanujan tail from the sweep's C_d and phi, and the arc masses (with
    `tilde`, also of |A~|^2 and A conj(A~)), from one lag_correlations
    call that the sweep and arc_masses both read."""
    corrs = _arc_correlations(seq, tilde)
    sweep = variance_sweep(seq, int(params.q), corrs[0])
    tail = _tail_sum(sweep.correlations, sweep.phi, params.q0)
    return sweep, tail, arc_masses(params, seq, tilde, corrs=corrs)


def _over_moduli(per_q: np.ndarray, params: ResolvedParams) -> float:
    """The sum of per_q[q] over Q0 < q <= Q = per_q.size - 1."""
    return math.fsum(per_q[int(math.floor(params.q0)) + 1:])


@dataclass
class BoundReport:
    schema_version: int
    kind: str
    params: dict
    lhs_variance_sum: float
    minor_integral: float
    minor_error: float
    ramanujan_tail: float
    slack: float
    oterm_allowance: float
    fitted_oterm_constant: float
    cs_numerator: float
    cs_denominator: float
    final_lower_bound: float
    comparison_target: float
    ratio: float
    chain_sound: bool
    clips: list
    regime_departures: list
    extras: dict = field(default_factory=dict)

    CSV_FIELDS = ("kind", "lhs_variance_sum", "minor_integral", "minor_error",
                  "ramanujan_tail", "slack", "cs_numerator", "cs_denominator",
                  "final_lower_bound", "comparison_target", "ratio",
                  "chain_sound")

    def to_json(self) -> str:
        payload = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return json.dumps(payload, sort_keys=True, default=str)

    def csv_header(self) -> str:
        return ",".join(self.CSV_FIELDS)

    def csv_row(self) -> str:
        out = []
        for name in self.CSV_FIELDS:
            v = getattr(self, name)
            out.append(f"{v:.12g}" if isinstance(v, float) else str(v))
        return ",".join(out)


def _assemble(kind: str, params: ResolvedParams, seq: Sequence, lhs: float,
              tail: float, masses: ArcMasses, target: float,
              extras: dict | None = None) -> BoundReport:
    """The one check of lhs >= Q (1 - slack) minor - tail - allowance x
    (N K / Q0) sum |a_n|^2, slack = (5 + log K)/K, within minor's error
    bar.  With A~, the minor masses num = |A conj(A~)|, den = |A~|^2 bound
    minor below by num^2/den and make Q (1 - slack) num^2/den the final
    value, with the subtractions reported apart; without A~ (prop13) the
    final value is the right-hand side itself."""
    minor = masses.a
    slack = (5.0 + math.log(params.k_param)) / params.k_param
    scale = params.q * (1.0 - slack)
    oterm = params.n * params.k_param / params.q0 * seq.l2()
    allowance = OTERM_ALLOWANCE * oterm
    rhs_central = scale * minor.minor - tail
    fitted = max(0.0, (rhs_central - lhs) / oterm) if oterm else 0.0
    sound = lhs >= rhs_central - params.q * minor.error - allowance
    extras = dict(extras or {})
    if masses.tilde is None:
        cs_num = cs_den = 0.0
        final = rhs_central - allowance
    else:
        cs_num, cs_den = abs(masses.cross.minor), masses.tilde.minor
        bound = cs_num**2 / cs_den if cs_den > 0 else 0.0
        sound = sound and (
            bound <= minor.minor + minor.error + 1e-9 * abs(minor.minor))
        final = scale * bound
        extras["final_with_subtractions"] = final - tail - allowance
        extras["lhs_exceeds_cs_chain"] = bool(
            lhs >= extras["final_with_subtractions"])
    return BoundReport(
        schema_version=SCHEMA_VERSION, kind=kind,
        params={"N": params.n, "Q": params.q, "K": params.k_param,
                "Q0": params.q0, "R": params.r},
        lhs_variance_sum=lhs, minor_integral=minor.minor,
        minor_error=minor.error, ramanujan_tail=tail, slack=slack,
        oterm_allowance=allowance, fitted_oterm_constant=fitted,
        cs_numerator=cs_num, cs_denominator=cs_den,
        final_lower_bound=final, comparison_target=target,
        ratio=final / target if target else 0.0,
        chain_sound=bool(sound), clips=list(params.clips),
        regime_departures=params.regime_departures(), extras=extras)


def assemble_prop13(seq: Sequence, params: ResolvedParams) -> BoundReport:
    """The three-term variance inequality for `seq` as a checked report,
    compared with its own LHS: lhs = sum of V(q) over Q0 < q <= Q."""
    sweep, tail, masses = _chain_terms(seq, params)
    lhs = _over_moduli(sweep.v, params)
    return _assemble("prop13", params, seq, lhs, tail, masses, target=lhs,
                     extras={"minor_major_value": masses.a.major})


@dataclass
class CauchySchwarzBounds:
    bound_17: float
    bound_113: float
    minor_a: float
    minor_tilde: float
    minor_inner: complex
    quadrature_error: float


def cauchy_schwarz_bound(seq: Sequence, tilde_seq: Sequence, arcs: ArcSystem,
                         spec_a: Spectrum, spec_tilde: Spectrum) -> CauchySchwarzBounds:
    """Both Cauchy-Schwarz reductions of the minor |A|^2 integral on grid
    spectra: the validation path of the chains' exact arc_masses.

    bound_17 uses the signed inner product, evaluated through the
    complement identity (full inner product minus the major-arc part);
    bound_113 uses the integral of |A x tilde|.  Both are certified
    against the directly computed minor |A|^2 integral.
    """
    if spec_a.t_grid != spec_tilde.t_grid:
        raise ValueError("spectra must share a grid")
    t = spec_a.t_grid
    width = 1.0 / t
    mask = major_mask(arcs, t)
    minor = ~mask
    cross = spec_a.amplitudes * np.conj(spec_tilde.amplitudes)
    full_inner = complex(np.dot(seq.values, tilde_seq.values))
    major_inner = complex(cross[mask].sum() * width)
    minor_inner = full_inner - major_inner           # complement identity
    minor_tilde = float(
        spec_tilde.l2 - (np.abs(spec_tilde.amplitudes[mask]) ** 2).sum() * width)
    minor_a = float(
        spec_a.l2 - (np.abs(spec_a.amplitudes[mask]) ** 2).sum() * width)
    abs_cross = float(np.abs(cross[minor]).sum() * width)
    quad_err = (width * 2.0 * np.pi * seq.n
                * (spec_a.l1 * math.sqrt(spec_tilde.l2)
                   + spec_tilde.l1 * math.sqrt(spec_a.l2)) * width)
    if minor_tilde <= 0:
        return CauchySchwarzBounds(0.0, 0.0, minor_a, minor_tilde,
                                   minor_inner, quad_err)
    b17 = abs(minor_inner) ** 2 / minor_tilde
    b113 = abs_cross**2 / minor_tilde
    return CauchySchwarzBounds(bound_17=b17, bound_113=b113, minor_a=minor_a,
                               minor_tilde=minor_tilde,
                               minor_inner=minor_inner,
                               quadrature_error=quad_err)


def newprop_rhs(seq: Sequence, weights, window: SmoothWindow,
                arcs: ArcSystem, r: float) -> float:
    """sum over KQ0 < q <= R of |weight_sum_q| x |windowed Ramanujan
    correlation|: the absolute-values lower bound for the minor-arc
    cross integral."""
    if not arcs.kq0 <= r <= math.sqrt(arcs.n) + 1e-9:
        raise ValueError(f"need KQ0 <= R <= sqrt(N); got R={r}")
    qs = list(range(arcs.kq0 + 1, int(r) + 1))
    if not qs:
        return 0.0
    corrs = ramanujan_correlations(windowed(seq.values, window), qs)
    return math.fsum(abs(weight_sum_q(weights, q)) * abs(corrs[i])
                     for i, q in enumerate(qs))


# ---------------------------------------------------------------------------
# Residue predictions in bulk (shared contour across moduli)


def bulk_residue_predictions(qs, k: int, n: int, window: SmoothWindow) -> np.ndarray:
    """Residue predictions for the windowed correlations
    sum d_k(n) c_q(n) Phi(n/N): the Mellin weight of the window replaces
    N^s/s.  48 contour nodes, checked against 24."""
    preds = residues(qs, k, n, lambda v, s, o: v * n**s
                     * np.asarray(window.mellin(s)), count=48)
    return np.array([p.value for p in preds])


# ---------------------------------------------------------------------------
# Full experiments


def _chain_config(params: ResolvedParams, experiment: str,
                  table: SieveTable) -> ExperimentConfig:
    """The config `params` was resolved from, checked against the runner
    and against the sieve table on 1..N (with the chain's d_k), before
    any work."""
    config = params.config
    if config is None or config.experiment != experiment:
        raise ValueError(f"params are not resolved from a {experiment} config")
    k = config.k if experiment == "theorem2" else 2
    if table.n != params.n or table.k < k:
        raise ValueError(f"sieve table (N={table.n}, k={table.k}) does not "
                         f"fit N={params.n}, k={k}")
    return config


def run_theorem1(params: ResolvedParams, table: SieveTable) -> BoundReport:
    """Full prime-variance chain at the point `params`: Lambda against the
    mu log(R/r) sieve, from the sieve table on 1..N."""
    config = _chain_config(params, "theorem1", table)
    n = params.n
    log_n = math.log(n)
    seq = table.lambda_sequence()
    window = build_window(config.epsilon)
    r_int = int(params.r)
    weights = build_weights("prime_sieve", r_int)
    tilde = build_tilde_sequence(n, weights, window)

    # Calibrations of the three sieve asymptotics.
    dot = float(np.dot(seq.values, tilde.values))
    calib_dot = dot / (n * math.log(r_int) * window.phi_int)
    tilde_sq = float(np.dot(tilde.values, tilde.values))
    calib_sq = tilde_sq / (n * math.log(r_int) * window.phi_sq_int)
    wsum_dev = max(
        abs(weight_sum_q(weights, q) - mobius(q) / totient(q))
        for q in range(1, 31) if is_squarefree(q))

    sweep, tail, masses = _chain_terms(seq, params, tilde)
    lhs = _over_moduli(_reduced_class_variances(table, sweep), params)

    log_ratio = math.log(params.r / (params.k_param * params.q0))
    target_log = math.log(params.q**2 / n)
    target = params.q * n * target_log
    fitted_c = ((target_log - lhs / (params.q * n)) / math.log(log_n)
                if log_n > math.e else 0.0)
    near_degenerate = target_log < 6.0 * math.log(log_n)

    extras = {
        "calibration_dot": calib_dot,            # ~1 if (5.2)-shaped
        "calibration_tilde_sq": calib_sq,        # ~1 if (5.3)-shaped
        "weight_sum_max_dev": wsum_dev,
        "minor_inner_scale": abs(masses.cross.minor)
        / (n * window.phi_int * max(log_ratio, 1e-9)),
        "minor_tilde_scale": masses.tilde.minor
        / (n * window.phi_sq_int * max(log_ratio, 1e-9)),
        "fitted_target_constant": fitted_c,
        "near_degenerate_range": near_degenerate,
    }
    return _assemble("theorem1", params, seq, lhs, tail, masses, target,
                     extras=extras)


def _admissible_qs(params: ResolvedParams):
    """Squarefree moduli in (KQ0, R N^(-delta/4)] with no prime factor
    above N^_SMOOTH_EXP; none is a ValueError naming R and delta."""
    n, delta = params.n, params.config.delta
    lo = int(params.k_param * params.q0)
    hi = int(params.r * n ** (-delta / 4.0))
    p_cap = n**_SMOOTH_EXP
    out = [q for q in range(lo + 1, hi + 1) if is_squarefree(q)
           and max(p for p, _ in factorize(q)) <= p_cap]
    if not out:
        raise ValueError(
            f"no admissible moduli in (KQ0, R N^(-delta/4)] = ({lo}, "
            f"{params.r * n ** (-delta / 4.0):.6g}]: "
            f"R={params.r:.6g}, delta={delta}")
    return out


def run_theorem2(params: ResolvedParams, table: SieveTable) -> BoundReport:
    """Divisor-function chain for d_k at the point `params`, with either
    ending, from the sieve table on 1..N (with d_k)."""
    config = _chain_config(params, "theorem2", table)
    n, k = params.n, config.k
    log_n = math.log(n)
    seq = table.dk_sequence(k)
    window = build_window(config.epsilon)
    kq0 = params.kq0
    r_int = int(params.r)
    weights = build_weights("divisor_k", r_int, k=k)
    tilde = build_tilde_sequence(n, weights, window)

    sweep, tail, masses = _chain_terms(seq, params, tilde)
    lhs = _over_moduli(sweep.v, params)
    target = params.q * n * log_n ** (k * k - 1)

    # The ending's sum over moduli: the paper's asymptotic evaluation of
    # the minor cross mass, kept as a diagnostic beside the exact one.
    if config.ending == "first":
        qs = list(range(kq0 + 1, r_int + 1))
        corrs = ramanujan_correlations(windowed(seq.values, window), qs)
        wsums = np.array([weight_sum_q(weights, q) for q in qs])
        direct = float(np.dot(wsums, np.asarray(corrs)))
        predicted = float(np.dot(wsums, bulk_residue_predictions(
            qs, k, n, window)))
        aux = abs(direct)
        extras = {"sum_direct": direct, "sum_predicted": predicted,
                  "residue_agreement": predicted / direct
                  if direct else math.inf,
                  "polynomial_value": polynomial_69(
                      k, log_n, math.log(params.r),
                      math.log(params.k_param * params.q0))}
    else:
        qs = _admissible_qs(params)
        corrs = ramanujan_correlations(windowed(seq.values, window), qs)
        aux = math.fsum(
            d_k_of(k - 1, q) / q
            * (totient(q) / q * math.log(params.r / q)) ** (k - 1)
            * abs(corrs[i]) for i, q in enumerate(qs))
        # Empirical constant of the per-q residue lower bound.
        ratios = []
        for i, q in enumerate(qs[:50]):
            main = (d_k_of(k - 1, q) * (totient(q) / q) ** k * n
                    * (log_n + f_q_value(q, k)) ** (k - 1))
            if main > 0:
                ratios.append(abs(corrs[i]) / main)
        extras = {"n_admissible_q": len(qs),
                  "min_corr_ratio": min(ratios) if ratios else 0.0,
                  "median_corr_ratio": float(np.median(ratios))
                  if ratios else 0.0}
    extras["aux_vs_exact"] = aux / abs(masses.cross.minor)

    return _assemble(f"theorem2-{config.ending}", params, seq, lhs, tail,
                     masses, target, extras=extras)
