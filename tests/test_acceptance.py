"""Acceptance gate: nine go/no-go criteria, one printed verdict line each.

Every criterion prints a single ``[PRIMARY n] PASS/FAIL`` line (bypassing
pytest capture so the verdicts survive into piped logs) and then asserts.
Tolerances are stated inline next to each check; where an asymptotic
enters (criterion 8), the tolerance comes from the known size of its
error term, not from the distance to a leading-order limit.
"""

import math
import sys

import numpy as np
import pytest

from apvar.arith import (Sequence, check_lemma1_matrix, is_squarefree,
                         factorize, mobius, ramanujan_row, sieve_all, totient)
from apvar.circle import ArcSystem, build_spectrum
from apvar.dirichlet import (check_Fq1_bound, leading_coeff_69, polynomial_69,
                             residue_dk_correlation, residue_ramdkeval)
from apvar.pipeline import (ExperimentConfig, assemble_prop13,
                            cauchy_schwarz_bound, resolve_params,
                            run_theorem1, run_theorem2)
from apvar.variance import check_identity_prop1, restricted_variance_total
from apvar.windows import (build_tilde_sequence, build_weights, build_window,
                           weight_sum_q)
from fractions import Fraction

from oracles import divisor_square_main_term, triple_contour_polynomial


def _announce(num: int, ok: bool, detail: str) -> None:
    import conftest

    line = f"[PRIMARY {num}] {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="module")
def table_1e6():
    return sieve_all(10**6, 3)


def test_criterion_1_exact_identity_suite():
    """q V(q) = sum_{d|q} H(d) with exact-rational equality, 500 pairs,
    zero tolerance."""
    table = sieve_all(200, 3)
    rng = np.random.default_rng(20260826)
    pairs = 0
    failures = []
    for n in (120, 200):
        seqs = {
            "d2": Sequence(table.dk[2][: n + 1].astype(float),
                           is_integer_valued=True, name="d2"),
            "d3": Sequence(table.dk[3][: n + 1].astype(float),
                           is_integer_valued=True, name="d3"),
            "rand01": Sequence.from_coeffs(
                rng.integers(0, 2, n).astype(float), is_integer_valued=True),
            "randpm1": Sequence.from_coeffs(
                (2 * rng.integers(0, 2, n) - 1).astype(float),
                is_integer_valued=True),
        }
        spike = np.zeros(n)
        spike[rng.integers(0, n)] = 1.0
        seqs["spike"] = Sequence.from_coeffs(spike, is_integer_valued=True)
        for name, seq in seqs.items():
            for q in range(1, 51):
                check = check_identity_prop1(seq, q)
                pairs += 1
                if not (check.ok and check.residual == 0):
                    failures.append((name, n, q, check.residual))
    ok = pairs == 500 and not failures
    _announce(1, ok, f"exact identity qV(q)=sum H(d) on {pairs} "
                     f"(sequence, q) pairs, zero tolerance; "
                     f"failures={failures[:3]}")
    assert ok, failures[:5]


def test_criterion_2_lemma1_brute_force():
    """Ramanujan-sum orthogonality as an exact integer matrix identity,
    all q <= 60, m, n <= 120, zero tolerance."""
    bad = [q for q in range(1, 61)
           if not check_lemma1_matrix(q, 120, 120)]
    ok = not bad
    _announce(2, ok, "orthogonality sum_{d|q} c_d(m)c_d(n)/phi(d) exact for "
                     f"q<=60, m,n<=120; failing q={bad}")
    assert ok, bad


def test_criterion_3_ramanujan_and_parseval():
    """c_q(n) vs direct exponential sums within 1e-9; spectrum Parseval
    within 1e-6 relative for 10 random sequences at N=10^4."""
    worst = 0.0
    n_max = 120
    ns = np.arange(1, n_max + 1)
    for q in range(1, 61):
        coprime = np.array([a for a in range(1, q + 1)
                            if math.gcd(a, q) == 1])
        direct = np.exp(2j * np.pi * np.outer(ns, coprime) / q).sum(axis=1)
        worst = max(worst, float(np.max(
            np.abs(ramanujan_row(q, n_max) - direct))))
    rng = np.random.default_rng(7)
    worst_p = 0.0
    for _ in range(10):
        seq = Sequence.from_coeffs(rng.standard_normal(10**4))
        spec = build_spectrum(seq)
        grid_l2 = float(spec.power.sum()) / spec.t_grid
        worst_p = max(worst_p, abs(grid_l2 - seq.l2()) / seq.l2())
    ok = worst <= 1e-9 and worst_p <= 1e-6
    _announce(3, ok, f"c_q(n) vs exponential sums: max abs dev "
                     f"{worst:.2e} (tol 1e-9); Parseval rel dev "
                     f"{worst_p:.2e} (tol 1e-6)")
    assert ok


def test_criterion_4_residue_oracle(table_1e6):
    """Residue predictions vs direct sums at N=10^6: d_2 mean within
    1e-3 relative, d_3 c_6 correlation within 5e-2 relative."""
    n = table_1e6.n
    direct_d2 = float(table_1e6.dk[2][1:].sum())
    pred_d2 = residue_dk_correlation(1, 2, n).value
    rel_d2 = abs(pred_d2 - direct_d2) / direct_d2

    row = np.zeros(n + 1)
    row[1:] = ramanujan_row(6, n)
    direct_c6 = float(np.dot(table_1e6.dk[3], row))
    pred_c6 = residue_dk_correlation(6, 3, n).value
    rel_c6 = abs(pred_c6 - direct_c6) / abs(direct_c6)

    ok = rel_d2 <= 1e-3 and rel_c6 <= 5e-2
    _announce(4, ok, f"sum d_2(n) rel dev {rel_d2:.2e} (tol 1e-3); "
                     f"sum d_3(n)c_6(n) rel dev {rel_c6:.2e} (tol 5e-2)")
    assert ok


def test_criterion_5_weight_sum_calibration():
    """|weight_sum_q - mu(q)/phi(q)| decreasing along R in
    {10^4, 10^5, 10^6}, squarefree q <= 30, at most one violation per q."""
    weights = {r: build_weights("prime_sieve", r)
               for r in (10**4, 10**5, 10**6)}
    bad = []
    for q in range(1, 31):
        if not is_squarefree(q):
            continue
        devs = [abs(weight_sum_q(weights[r], q) - mobius(q) / totient(q))
                for r in (10**4, 10**5, 10**6)]
        violations = sum(devs[i + 1] >= devs[i] for i in range(2))
        if violations > 1:
            bad.append((q, devs))
    ok = not bad
    _announce(5, ok, "sieve-weight sums approach mu(q)/phi(q) along "
                     f"R=1e4,1e5,1e6 (<=1 violation per q); bad={bad}")
    assert ok, bad


def test_criterion_6_polynomial_vs_triple_contour():
    """Closed-form polynomial vs independent triple-contour quadrature
    within 1e-6 relative, 20 draws per k in {2,3,4}; k=2 leading
    coefficient exactly -1/3."""
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for k in (2, 3, 4):
        for _ in range(20):
            log_n = rng.uniform(8.0, 15.0)
            log_r = rng.uniform(0.35, 0.95) * log_n
            log_kq0 = rng.uniform(0.2, 0.9) * log_r
            closed = polynomial_69(k, log_n, log_r, log_kq0)
            oracle = triple_contour_polynomial(k, log_n, log_r, log_kq0)
            worst = max(worst, abs(closed - oracle)
                        / max(abs(closed), 1e-9))
    lead_ok = leading_coeff_69(2) == Fraction(-1, 3)
    ok = worst <= 1e-6 and lead_ok
    _announce(6, ok, f"polynomial vs contour oracle: worst rel dev "
                     f"{worst:.2e} over 60 draws (tol 1e-6); k=2 leading "
                     f"coefficient == -1/3 exactly: {lead_ok}")
    assert ok


def test_criterion_7_chain_soundness():
    """Every inequality link holds within reported error bars: Lambda at
    N=10^5, Q=N^0.75 and d_2 at N=10^5, Q=N^0.8."""
    n = 10**5
    table = sieve_all(n, 2)
    report_l = run_theorem1(resolve_params(
        ExperimentConfig(experiment="theorem1", n=n, q_exp=0.75)), table)
    lam_ok = report_l.chain_sound and report_l.extras["lhs_exceeds_cs_chain"]

    seq = Sequence(table.dk[2].astype(float), is_integer_valued=True,
                   name="d2")
    cfg = ExperimentConfig(experiment="theorem2", n=n, q_exp=0.8, k=2)
    params = resolve_params(cfg)
    prop = assemble_prop13(seq, params)

    window = build_window(cfg.epsilon)
    w = build_weights("divisor_k", int(params.r), k=2)
    tilde = build_tilde_sequence(n, w, window)
    spec_a = build_spectrum(seq)
    spec_t = build_spectrum(tilde, spec_a.t_grid)
    cs = cauchy_schwarz_bound(seq, tilde, params, spec_a, spec_t)
    cs_ok = (0 <= cs.bound_17 <= cs.minor_a + cs.quadrature_error + 1e-6
             and cs.bound_17 <= cs.bound_113 + 1e-9)
    d2_ok = prop.chain_sound and cs_ok
    ok = lam_ok and d2_ok
    _announce(7, ok, f"Lambda chain sound={lam_ok}; d_2 chain "
                     f"sound={prop.chain_sound}, Cauchy-Schwarz links "
                     f"hold={cs_ok} (all within reported error bars)")
    assert ok


def test_criterion_8_scale_sanity(table_1e6):
    """Restricted prime variance / (Q N log Q) in [0.5, 2] at N=10^6, and
    the d_2 square-sum normalization at N = 10^5, 10^6, 10^7.

    The second half checks the sieve's sum d_2(n)^2 against Ramanujan's
    full main term N P_3(log N), whose coefficients come from the
    independent contour oracle: the leading coefficient must equal
    1/pi^2, and |sum / (N P_3(log N)) - 1| <= 1e-3 at each N.  The
    remainder is O(N^(1/2+eps)), about 10 sqrt(N) here, so the measured
    deviations (1.2e-4, 2.6e-5, 4.7e-6) sit 8x to 200x inside the bound,
    while a 1% error in the sums or in 1/pi^2 breaks it at every N.  The
    leading-order ratio sum / (N log^3 N / pi^2) alone is still 1.49 at
    N = 10^7 (it is 1 + O(1/log N)); it must decrease monotonically.
    """
    n = 10**6
    q = int(n**0.75)
    var = restricted_variance_total(table_1e6, q)
    ratio_var = var / (q * n * math.log(q))
    part1 = 0.5 <= ratio_var <= 2.0

    c2 = 1 / math.pi**2
    a, b, c, d = divisor_square_main_term()
    lead_ok = math.isclose(a, c2, rel_tol=1e-12)
    ratios, devs, scaled = [], [], []
    for nn in (10**5, 10**6, 10**7):
        tab = sieve_all(nn, 2)
        sq = float(np.dot(tab.dk[2].astype(float), tab.dk[2].astype(float)))
        log_n = math.log(nn)
        main = nn * (((a * log_n + b) * log_n + c) * log_n + d)
        devs.append(sq / main - 1)
        scaled.append(abs(sq - main) / math.sqrt(nn))
        ratios.append(sq / (nn * log_n ** 3) / c2)
    main_ok = all(abs(dev) <= 1e-3 for dev in devs)
    monotone = ratios[0] > ratios[1] > ratios[2]
    part2 = lead_ok and main_ok and monotone
    ok = part1 and part2
    dev_txt = ", ".join(f"{dev:+.1e} (|D|/sqrt N {sc:.1f})"
                        for dev, sc in zip(devs, scaled))
    _announce(8, ok, f"prime variance / (QN log Q) = {ratio_var:.3f} "
                     f"(band [0.5, 2]): {part1}; d_2^2 / (N P_3(log N)) - 1 "
                     f"at N=1e5,1e6,1e7 = {dev_txt} (tol 1e-3): {main_ok}; "
                     f"P_3 leading coefficient {a:.15f} == 1/pi^2: "
                     f"{lead_ok}; d_2^2 / (N log^3 N / pi^2) monotone "
                     f"{ratios[0]:.3f} > {ratios[1]:.3f} > {ratios[2]:.3f}"
                     f" = {monotone}: {part2}")
    assert ok, (ratio_var, devs, a, ratios)


def test_criterion_9_ramdkeval_structure():
    """F_q(1) >= d_{k-1}(q)(phi(q)/q)^k exactly for squarefree q <= 10^4,
    k in {2,3,4}; correlation residue >= 0.2 x its main term for 50
    admissible q at N=10^6."""
    bad = [(q, k) for q in range(1, 10**4 + 1) if is_squarefree(q)
           for k in (2, 3, 4) if not check_Fq1_bound(q, k)]

    n, delta = 10**6, 0.1
    q_cap = n ** (0.5 - delta / 2)
    smooth_cap = n ** 0.25
    admissible = []
    q = 2
    while len(admissible) < 50 and q <= q_cap:
        if is_squarefree(q) and all(p <= smooth_cap for p, _ in factorize(q)):
            admissible.append(q)
        q += 1
    low = [(q, residue_ramdkeval(q, 2, n, delta).ratio)
           for q in admissible]
    weak = [(q, r) for q, r in low if r < 0.2]
    ok = not bad and len(admissible) == 50 and not weak
    _announce(9, ok, f"F_q(1) lower bound exact for squarefree q<=1e4, "
                     f"k=2,3,4 (failures={bad[:3]}); residue >= 0.2 x main "
                     f"term for {len(admissible)} admissible q "
                     f"(weak={weak[:3]})")
    assert ok, (bad[:5], weak[:5])
