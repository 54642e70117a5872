"""Lower-bound chain assembly: tails, Cauchy-Schwarz, full small runs."""

import math

import numpy as np
import pytest

from apvar.arith import Sequence, divisors, ramanujan_sum, sieve_all, totient
from apvar.circle import ArcSystem, arc_masses, build_spectrum
from apvar.pipeline import (ExperimentConfig, ResolvedParams, assemble_prop13,
                            bulk_residue_predictions, cauchy_schwarz_bound,
                            newprop_rhs, ramanujan_tail, resolve_params,
                            run_theorem1, run_theorem2)
from apvar.variance import restricted_variance_total, variance_sweep
from apvar.windows import build_tilde_sequence, build_weights, build_window


def two_loop_tail(seq, q_max, q0):
    """Direct double loop: sum over q, then over divisors d > Q0."""
    total = 0.0
    for q in range(1, q_max + 1):
        for d in divisors(q):
            if d > q0:
                corr = sum(seq.values[n] * ramanujan_sum(d, n)
                           for n in range(1, seq.n + 1))
                total += corr**2 / (q * totient(d))
    return total


def test_ramanujan_tail_two_loop_oracle():
    seq = Sequence.from_coeffs(np.ones(200), is_integer_valued=True)
    direct = two_loop_tail(seq, 50, 5)
    assert ramanujan_tail(seq, 50, 5) == pytest.approx(direct, rel=1e-9)
    # empty range
    assert ramanujan_tail(seq, 50, 50) == 0.0


def test_ramanujan_tail_scale_bound(table_1e4):
    n = table_1e4.n
    seq = Sequence(table_1e4.lam[: n + 1].copy(), name="lambda")
    q = n**0.75
    q0 = max(n * math.log(n) ** 10 / q, 1.0)
    q0 = min(q0, q)  # desk-scale clip
    tail = ramanujan_tail(seq, q, q0 / 4)
    assert tail <= n**2 * math.log(n) ** 3 / max(q0 / 4, 1.0)


def test_resolve_params_records_clips():
    cfg = ExperimentConfig(experiment="theorem1", n=10**4, q_exp=0.75)
    params = resolve_params(cfg)
    assert params.clips                      # desk scale always clips
    assert 1.0 <= params.q0 <= max(params.q / params.k_param**2, 1.0)
    assert params.k_param >= 5.0
    assert params.r > params.k_param * params.q0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="theorem3")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="theorem2", q_exp=0.55, delta=0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="theorem2", ending="third")


def test_assemble_prop13_zero_sequence():
    z = Sequence.from_coeffs(np.zeros(600))
    # KQ0 = 10 and Q > K (2 KQ0 - 1) = 95: disjoint arcs.
    params = ResolvedParams(n=600, q=100.0, k_param=5.0, q0=2.0)
    report = assemble_prop13(z, params)
    assert report.lhs_variance_sum == 0
    assert report.minor_integral == 0
    assert report.ramanujan_tail == 0
    assert report.chain_sound
    # KQ0 = 12 and Q <= K (2 KQ0 - 1) = 138: the arcs overlap.
    overlapping = ResolvedParams(n=600, q=100.0, k_param=6.0, q0=2.0)
    with pytest.raises(ValueError, match="overlap"):
        assemble_prop13(z, overlapping)


def test_resolve_params_keeps_arcs_disjoint():
    # K = (log N)^0 = 1 is floored at 5 with Q0 = Q: Q0 gives way.
    cfg = ExperimentConfig(experiment="theorem1", n=10**4, q_exp=0.75,
                           k_exp=0.0)
    params = resolve_params(cfg)
    assert params.k_param == 5.0
    assert any("disjoint" in clip for clip in params.clips)
    kq0 = int(params.k_param * params.q0)
    assert params.q > params.k_param * (2 * kq0 - 1)
    assert params.q <= params.k_param * (2 * (kq0 + 1) - 1)
    # Q = 31.6 < K (2 K - 1) = 45: no Q0 >= 1 works.
    with pytest.raises(ValueError, match="disjoint"):
        resolve_params(ExperimentConfig(experiment="theorem1", n=1000,
                                        q_exp=0.5, k_exp=0.0))


def test_resolve_params_rejects_r_outside_its_window():
    """R outside (KQ0, N] fails in resolve_params with one error that
    names R and the window; the first ending refuses --R outright."""
    for experiment, r in (("theorem1", 2e5), ("theorem1", 3.0),
                          ("theorem2", 1e6)):
        cfg = ExperimentConfig(experiment=experiment, n=10**5, q_exp=0.8,
                               r_override=r)
        with pytest.raises(ValueError, match=r"R=.* outside its window "
                                             r"\(KQ0, N\] = \(.*, 100000\]"):
            resolve_params(cfg)
    with pytest.raises(ValueError, match="--R"):
        ExperimentConfig(experiment="theorem2", ending="first", r_override=50.0)


def test_second_ending_empty_range_names_r_and_delta(table_1e4):
    """R N^(-delta/4) = 13.5 below KQ0 = 14.1: no modulus is left."""
    cfg = ExperimentConfig(experiment="theorem2", n=10**4, q_exp=0.8,
                           r_override=17.0)
    with pytest.raises(ValueError, match=r"no admissible moduli.*R=17, "
                                         r"delta=0\.1"):
        run_theorem2(resolve_params(cfg), table_1e4)


def test_runners_refuse_a_table_that_does_not_fit(table_1e4, monkeypatch):
    """A sieve table for another N, or without the chain's d_k, fails
    before any work."""
    import apvar.pipeline

    def no_work(*args):
        raise AssertionError("worked before checking the table")
    monkeypatch.setattr(apvar.pipeline, "build_window", no_work)
    for runner, cfg in (
            (run_theorem1, ExperimentConfig(experiment="theorem1",
                                            n=2 * 10**4)),
            (run_theorem2, ExperimentConfig(experiment="theorem2", n=10**4,
                                            q_exp=0.8, k=4))):
        with pytest.raises(ValueError, match="does not fit"):
            runner(resolve_params(cfg), table_1e4)


def test_first_ending_chooses_r_in_its_window():
    """resolve_params takes the first ending's R from choose_R_chebyshev,
    whose scan stays inside [KQ0 + 2, sqrt N], so no R clip is recorded
    and the reported polynomial is the scan's maximum.  At k = 2,
    N = 10^5, where the polynomial is small near KQ0, R is sqrt N too."""
    from apvar.dirichlet import choose_R_chebyshev
    n = 2 * 10**4
    report = run_theorem2(resolve_params(ExperimentConfig(
        experiment="theorem2", n=n, q_exp=0.8, k=3, ending="first")),
        sieve_all(n, 3))
    p = report.params
    assert p["R"] == math.sqrt(n)
    assert not any(c.startswith("R:") for c in report.clips)
    _, best = choose_R_chebyshev(3, n, p["Q0"], p["Q"], p["K"], 0.05)
    assert report.extras["polynomial_value"] == best
    params = resolve_params(ExperimentConfig(
        experiment="theorem2", n=10**5, q_exp=0.8, k=2, ending="first"))
    assert params.r == math.sqrt(10**5) and params.kq0 + 2 < params.r
    assert not any(c.startswith("R:") for c in params.clips)


def test_assemble_prop13_d2(table_1e4):
    n = 2000
    seq = Sequence(table_1e4.dk[2][: n + 1].astype(float),
                   is_integer_valued=True, name="d2")
    cfg = ExperimentConfig(experiment="theorem1", n=n, q_exp=0.8)
    params = resolve_params(cfg)
    report = assemble_prop13(seq, params)
    assert report.chain_sound
    assert report.lhs_variance_sum >= report.final_lower_bound
    assert report.minor_integral > 0
    assert report.schema_version == 4


def test_cauchy_schwarz_equality_case(rng):
    seq = Sequence.from_coeffs(rng.standard_normal(400))
    arcs = ArcSystem(k_param=6.0, q0=2.0, q=150.0, n=400)
    spec = build_spectrum(seq)
    cs = cauchy_schwarz_bound(seq, seq, arcs, spec, spec)
    # tilde = seq: the bound collapses to the minor integral itself
    assert cs.bound_17 == pytest.approx(cs.minor_a, rel=1e-6)
    assert cs.bound_113 >= cs.bound_17 - 1e-9
    assert cs.bound_113 <= cs.minor_a * (1 + 1e-6) + cs.quadrature_error


def test_cauchy_schwarz_zero_cases(rng):
    seq = Sequence.from_coeffs(rng.standard_normal(300))
    zero = Sequence.from_coeffs(np.zeros(300))
    arcs = ArcSystem(k_param=6.0, q0=2.0, q=120.0, n=300)
    spec = build_spectrum(seq)
    spec0 = build_spectrum(zero)
    cs = cauchy_schwarz_bound(seq, zero, arcs, spec, spec0)
    assert cs.bound_17 == 0.0 and cs.bound_113 == 0.0
    with pytest.raises(ValueError):
        cauchy_schwarz_bound(seq, zero, arcs, spec,
                             build_spectrum(zero, 2 * spec.t_grid))


def test_cauchy_schwarz_below_minor(window, table_1e4):
    n = table_1e4.n
    seq = Sequence(table_1e4.lam[: n + 1].copy(), name="lambda")
    from apvar.windows import build_tilde_sequence
    w = build_weights("prime_sieve", 60)
    tilde = build_tilde_sequence(n, w, window)
    arcs = ArcSystem(k_param=8.0, q0=2.0, q=float(int(n**0.75)), n=n)
    spec_a = build_spectrum(seq)
    spec_t = build_spectrum(tilde, spec_a.t_grid)
    cs = cauchy_schwarz_bound(seq, tilde, arcs, spec_a, spec_t)
    assert 0 <= cs.bound_17 <= cs.minor_a + cs.quadrature_error + 1e-6
    assert cs.bound_17 <= cs.bound_113 + 1e-9


def test_newprop_rhs(window, table_1e4):
    n = table_1e4.n
    seq = Sequence(table_1e4.dk[2][: n + 1].astype(float),
                   is_integer_valued=True, name="d2")
    arcs = ArcSystem(k_param=5.0, q0=2.0, q=float(int(n**0.8)), n=n)
    w = build_weights("divisor_k", int(n**0.45), k=2)
    val = newprop_rhs(seq, w, window, arcs, n**0.45)
    assert val > 0
    # empty range gives zero
    assert newprop_rhs(seq, w, window, arcs, arcs.kq0) == 0.0
    with pytest.raises(ValueError):
        newprop_rhs(seq, w, window, arcs, 2 * math.sqrt(n))


def test_bulk_residue_predictions_match_scalar(window):
    """The chain's 48-node windowed residues against the engine's
    default 128 nodes, modulus by modulus."""
    from apvar.dirichlet import residues
    n = 10**4
    qs = [1, 6, 15]
    bulk = bulk_residue_predictions(qs, 2, n, window)
    for i, q in enumerate(qs):
        scalar, = residues([q], 2, n, lambda v, s, o: v * n**s
                           * np.asarray(window.mellin(s)))
        assert bulk[i] == pytest.approx(scalar.value, rel=1e-8)


def test_run_theorem1_small():
    n = 2 * 10**4
    cfg = ExperimentConfig(experiment="theorem1", n=n, q_exp=0.75)
    table = sieve_all(n, 2)
    report = run_theorem1(resolve_params(cfg), table)
    assert report.chain_sound
    assert report.extras["lhs_exceeds_cs_chain"]
    assert 0.8 < report.extras["calibration_dot"] < 1.2
    assert report.clips  # desk scale clips are recorded
    with pytest.raises(ValueError):
        run_theorem1(resolve_params(ExperimentConfig(experiment="theorem2")),
                     table)


def test_run_theorem2_both_endings():
    table = sieve_all(2 * 10**4, 2)
    cfg = ExperimentConfig(experiment="theorem2", n=2 * 10**4, q_exp=0.8,
                           k=2, ending="second")
    report = run_theorem2(resolve_params(cfg), table)
    assert report.chain_sound
    assert report.ratio > 0
    assert report.extras["n_admissible_q"] > 0

    cfg_f = ExperimentConfig(experiment="theorem2", n=2 * 10**4, q_exp=0.8,
                             k=2, ending="first")
    report_f = run_theorem2(resolve_params(cfg_f), table)
    assert report_f.chain_sound
    agree = report_f.extras["residue_agreement"]
    assert agree == pytest.approx(1.0, abs=0.25)


@pytest.mark.parametrize("k, ending", [(3, "first"), (2, "second")])
def test_run_theorem2_pair_is_exact_arc_masses(k, ending):
    """theorem2's Cauchy-Schwarz pair is the exact minor masses of A conj(A~)
    and |A~|^2, with a~ the divisor_k sieve at the R the chain runs at, as
    in theorem1; the ending's sum over moduli is only a diagnostic."""
    n = 2 * 10**4
    cfg = ExperimentConfig(experiment="theorem2", n=n, q_exp=0.8, k=k,
                           ending=ending)
    table = sieve_all(n, k)
    report = run_theorem2(resolve_params(cfg), table)
    seq = table.dk_sequence(k)
    p = report.params
    tilde = build_tilde_sequence(n, build_weights("divisor_k", int(p["R"]),
                                                  k=k), build_window(0.05))
    masses = arc_masses(resolve_params(cfg), seq, tilde)
    assert report.minor_integral == masses.a.minor
    assert report.cs_numerator == abs(masses.cross.minor)
    assert report.cs_denominator == masses.tilde.minor
    assert (report.cs_numerator**2 / report.cs_denominator
            <= report.minor_integral + report.minor_error)
    aux_vs_exact = report.extras["aux_vs_exact"]
    if ending == "first":
        assert aux_vs_exact == (abs(report.extras["sum_direct"])
                                / report.cs_numerator)
    assert 0.0 < aux_vs_exact < math.inf


@pytest.mark.parametrize("k, ending", [(3, "first"), (2, "second")])
def test_run_theorem2_tail_is_ramanujan_tail(k, ending):
    """The chain takes its tail from its variance sweep's C_d; that is
    ramanujan_tail's own convolution bit for bit."""
    n = 2 * 10**4
    table = sieve_all(n, k)
    report = run_theorem2(resolve_params(ExperimentConfig(
        experiment="theorem2", n=n, q_exp=0.8, k=k, ending=ending)), table)
    seq = table.dk_sequence(k)
    p = report.params
    assert report.ramanujan_tail > 0
    assert report.ramanujan_tail == ramanujan_tail(seq, p["Q"], p["Q0"])


def test_run_theorem1_lhs_and_tail_from_shared_sums():
    """theorem1 takes its LHS and tail from one variance sweep of Lambda;
    both equal the separate restricted_variance_total and ramanujan_tail
    bit for bit."""
    n = 2 * 10**4
    table = sieve_all(n, 2)
    report = run_theorem1(resolve_params(
        ExperimentConfig(experiment="theorem1", n=n, q_exp=0.75)), table)
    p = report.params
    assert report.lhs_variance_sum == restricted_variance_total(
        table, int(p["Q"]), int(math.floor(p["Q0"])) + 1)
    assert report.ramanujan_tail > 0
    assert report.ramanujan_tail == ramanujan_tail(
        table.lambda_sequence(), p["Q"], p["Q0"])
    # The arc masses share the LHS's autocorrelation of Lambda.
    params = resolve_params(ExperimentConfig(experiment="theorem1", n=n))
    tilde = build_tilde_sequence(n, build_weights("prime_sieve", int(p["R"])),
                                 build_window(0.05))
    masses = arc_masses(params, table.lambda_sequence(), tilde)
    assert report.minor_integral == masses.a.minor
    assert report.cs_denominator == masses.tilde.minor


def test_assemble_prop13_shares_one_autocorrelation(rng):
    """On a float sequence the variance sweep and arc_masses read one
    autocorrelation: LHS, tail and minor mass equal the separate calls,
    each with its own autocorrelation, bit for bit."""
    seq = Sequence.from_coeffs(rng.standard_normal(3000))
    params = ResolvedParams(n=3000, q=400.0, k_param=5.0, q0=3.0)
    report = assemble_prop13(seq, params)
    sweep = variance_sweep(seq, 400)
    assert report.lhs_variance_sum == math.fsum(sweep.v[4:])
    assert report.ramanujan_tail == ramanujan_tail(seq, 400.0, 3.0)
    assert report.minor_integral == arc_masses(params, seq).a.minor


@pytest.mark.parametrize("kind", ["theorem1", "theorem2-first",
                                  "theorem2-second", "prop13"])
def test_chain_verdict_rebuilt_from_report_fields(kind):
    """chain_sound, final_lower_bound and final_with_subtractions follow
    from the report's own terms, as the benchmark oracle rebuilds them."""
    n = 2 * 10**4
    table = sieve_all(n, 2)
    if kind == "theorem1":
        r = run_theorem1(resolve_params(
            ExperimentConfig(experiment="theorem1", n=n)), table)
        seq = table.lambda_sequence()
    else:
        cfg = ExperimentConfig(experiment="theorem2", n=n, q_exp=0.8, k=2,
                               ending=kind.partition("-")[2] or "second")
        seq = table.dk_sequence(2)
        r = (assemble_prop13(seq, resolve_params(cfg)) if kind == "prop13"
             else run_theorem2(resolve_params(cfg), table))
    assert r.kind == kind
    p = r.params
    q, k_param = p["Q"], p["K"]
    assert r.slack == (5.0 + math.log(k_param)) / k_param
    assert r.oterm_allowance == pytest.approx(
        p["N"] * k_param / p["Q0"] * seq.l2(), rel=1e-12)
    bound = (r.cs_numerator**2 / r.cs_denominator
             if r.cs_denominator > 0 else 0.0)
    rhs = q * (1.0 - r.slack) * r.minor_integral - r.ramanujan_tail
    sound = (bound <= r.minor_integral + r.minor_error
             + 1e-9 * abs(r.minor_integral)
             and r.lhs_variance_sum >= rhs - q * r.minor_error
             - r.oterm_allowance)
    assert r.chain_sound == sound
    if kind == "prop13":
        assert r.cs_numerator == r.cs_denominator == 0.0
        assert r.final_lower_bound == pytest.approx(
            rhs - r.oterm_allowance, rel=1e-12)
        assert "final_with_subtractions" not in r.extras
        return
    final = q * (1.0 - r.slack) * bound
    assert final > 0
    assert r.final_lower_bound == pytest.approx(final, rel=1e-12)
    with_subtractions = r.extras["final_with_subtractions"]
    assert with_subtractions == pytest.approx(
        final - r.ramanujan_tail - r.oterm_allowance, rel=1e-12)
    assert r.extras["lhs_exceeds_cs_chain"] == (
        r.lhs_variance_sum >= with_subtractions)


def test_assembler_verdict_fails_with_either_link():
    """chain_sound needs both the Cauchy-Schwarz bound within the minor
    integral's error bar and the variance inequality; desk-scale chains
    always pass, so each link is broken here by hand."""
    from apvar.circle import ArcMass, ArcMasses
    from apvar.pipeline import _assemble
    params = ResolvedParams(n=100, q=50.0, k_param=10.0, q0=1.0, r=20.0)
    seq = Sequence.from_coeffs(np.ones(100))

    def masses(minor, cross=None, tilde=None):
        """Arc masses with these minor masses (and a pair when given)."""
        if cross is None:
            return ArcMasses(ArcMass(0.0, 0.0, minor, 0.0))
        return ArcMasses(*(ArcMass(0.0, 0.0, m, 0.0)
                           for m in (minor, tilde, cross)))
    assert _assemble("t", params, seq, 1e9, 0.0, masses(1.0, 1.0, 1.0),
                     1.0).chain_sound
    broken = _assemble("t", params, seq, 1e9, 0.0, masses(1.0, -2.0, 1.0),
                       1.0)
    assert broken.cs_numerator == 2.0 and not broken.chain_sound
    assert not _assemble("t", params, seq, 0.0, 0.0, masses(1e7),
                         1.0).chain_sound
    assert _assemble("t", params, seq, 0.0, 0.0, masses(1.0), 1.0).chain_sound


def test_bound_report_serialization(table_1e4):
    cfg = ExperimentConfig(experiment="theorem2", n=10**4, q_exp=0.8)
    report = run_theorem2(resolve_params(cfg), table_1e4)
    import json

    def strict(constant):
        raise ValueError(f"{constant} is not JSON")
    payload = json.loads(report.to_json(), parse_constant=strict)
    assert payload["schema_version"] == 4
    assert payload["regime_departures"] == (
        resolve_params(cfg).regime_departures())
    assert [d["name"] for d in payload["regime_departures"]] == ["Q0", "Q"]
    assert "final_lower_bound" in payload
    header = report.csv_header().split(",")
    row = report.csv_row().split(",")
    assert len(header) == len(row)
