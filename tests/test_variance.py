"""Variance functionals, the divisor identity, and its corollary."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apvar.arith import (Sequence, divisors, load_sequence, mobius_totient,
                         ramanujan_correlations, ramanujan_sum, totient)
from apvar.variance import (_prime_power_class_squares, check_identity_prop1,
                            cor1_lower_bound, exp_variance_H, psi_counts,
                            residue_sums, restricted_variance_total,
                            variance_mod_q, variance_rows, variance_sweep,
                            variance_total)

from oracles import prime_power_class_squares_loop


def brute_variance(seq, q):
    """Direct double sum over h | q and residue classes with (a,q) = h,
    in exact rationals (every float is one)."""
    t = [Fraction(0)] * q
    for n in range(1, seq.n + 1):
        t[n % q] += Fraction(float(seq.values[n]))
    total = Fraction(0)
    for h in divisors(q):
        classes = [a for a in range(q) if math.gcd(a if a else q, q) == h]
        s_h = sum(t[a] for a in classes)
        phi = totient(q // h)
        for a in classes:
            total += (t[a] - s_h / phi) ** 2
    return total


def brute_H(seq, q):
    """H(q) via the complex exponential sums directly."""
    n = np.arange(seq.n + 1)
    total = 0.0
    corr = sum(seq.values[m] * ramanujan_sum(q, m) for m in range(1, seq.n + 1))
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        amp = np.sum(seq.values * np.exp(2j * np.pi * a * n / q))
        total += abs(amp) ** 2
    return total - corr**2 / totient(q)


@st.composite
def small_int_sequences(draw):
    n = draw(st.integers(10, 60))
    vals = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return Sequence.from_coeffs(vals, is_integer_valued=True)


@given(small_int_sequences(), st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_variance_matches_bruteforce(seq, q):
    assert variance_mod_q(seq, q).v == brute_variance(seq, q)


@given(small_int_sequences(), st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_identity_exact(seq, q):
    chk = check_identity_prop1(seq, q)
    assert chk.ok and chk.residual == 0 and chk.bad_divisors == []


@given(small_int_sequences(), st.integers(1, 20))
@settings(max_examples=25, deadline=None)
def test_H_nonnegative_and_matches_oracle(seq, q):
    h = exp_variance_H(seq, q).h
    assert h >= 0
    assert float(h) == pytest.approx(brute_H(seq, q), abs=1e-6)


def test_float_path_agrees_with_exact(table_300):
    seq = Sequence(table_300.dk[2][:251].astype(float),
                   is_integer_valued=True, name="d2")
    for q in (7, 12, 36, 60):
        exact = variance_mod_q(seq, q, exact=True).v
        fl = variance_mod_q(seq, q, exact=False).v
        assert fl == pytest.approx(float(exact), rel=1e-9)
        he = exp_variance_H(seq, q, exact=True).h
        hf = exp_variance_H(seq, q, exact=False).h
        assert hf == pytest.approx(float(he), rel=1e-9)


def test_exact_paths_do_not_wrap(rng):
    """Class sums near 3e11 square past 2^63: the exact paths keep them
    in Python ints, and refuse a sequence the float class sums cannot
    hold exactly."""
    const = Sequence.from_coeffs(np.full(300, 3e9), is_integer_valued=True)
    assert variance_mod_q(const, 3, exact=True).v == 0
    assert exp_variance_H(const, 3, exact=True).h == 0
    big = Sequence.from_coeffs(rng.integers(-3 * 10**9, 3 * 10**9, 300),
                               is_integer_valued=True)
    for q in (3, 12, 36):
        assert variance_mod_q(big, q, exact=True).v == brute_variance(big, q)
        chk = check_identity_prop1(big, q)
        assert chk.ok and chk.residual == 0
    huge = Sequence.from_coeffs([2.0**52] * 3, is_integer_valued=True)
    with pytest.raises(ValueError, match="2\\^53"):
        variance_mod_q(huge, 2, exact=True)
    with pytest.raises(ValueError, match="2\\^53"):
        exp_variance_H(huge, 2, exact=True)
    with pytest.raises(ValueError, match="integer"):
        variance_mod_q(Sequence.from_coeffs([0.5, 1.0]), 2, exact=True)


def test_residue_sums_basic():
    seq = Sequence.from_coeffs([1.0] * 10)
    t = residue_sums(seq, 4)
    assert t.tolist() == [2, 3, 3, 2]


def test_sweep_matches_exact_per_q(table_300, rng):
    """The batched V(q) lies within its stated bound of the exact per-q
    value for every q <= 300, and sum_a t_a^2 is exact on integers."""
    seqs = [table_300.dk_sequence(2), table_300.dk_sequence(3),
            Sequence.from_coeffs(rng.choice([-1.0, 1.0], size=300),
                                 is_integer_valued=True, name="pm1")]
    for seq in seqs:
        sweep = variance_sweep(seq, 300)
        assert sweep.exact_squares
        iv = seq.int_values()
        for q in range(1, 301):
            exact = variance_mod_q(seq, q, exact=True).v
            assert abs(Fraction(float(sweep.v[q])) - exact) \
                <= Fraction(float(sweep.error[q])), (seq.name, q)
            t = [int(iv[a::q].sum()) for a in range(q)]
            assert int(sweep.square_sums[q]) == sum(x * x for x in t)


@pytest.mark.parametrize("n, q_max", [(1, 5), (2, 7), (300, 350),
                                      (10**4, 300)])
def test_variance_rows_exact_match_per_q_oracle(n, q_max):
    """The closed-form rows over q phi(q) are the per-modulus exact V(q),
    q_max > N included."""
    for name in ("d2", "d3", "d4", "ones"):
        seq = load_sequence(name, n)
        rows = variance_rows(seq, q_max)
        assert len(rows) == q_max
        assert all(isinstance(v, Fraction) for v in rows), name
        for q, v in enumerate(rows, start=1):
            assert v == variance_mod_q(seq, q, exact=True).v, (name, q)
        if n == 300:
            for q in (1, 12, 36, 60, 301, 350):
                assert rows[q - 1] == brute_variance(seq, q), (name, q)


def test_totient_divides_along_divisors():
    """phi(d) | phi(q) for every d | q <= 10^4: the single denominator
    q phi(q) of variance_rows."""
    _, phi = mobius_totient(10**4)
    for d in range(1, 10**4 + 1):
        assert not np.any(phi[d::d] % phi[d]), d


def test_variance_rows_float_when_sweep_inexact(rng):
    """Integer entries near 10^8 put the FFT error above 1/2: the rows
    are the sweep's floats, each within its bound of the exact V(q)."""
    seq = Sequence.from_coeffs(rng.integers(-10**8, 10**8, 300),
                               is_integer_valued=True)
    sweep = variance_sweep(seq, 40)
    assert not sweep.exact_squares and not sweep.exact_correlations
    rows = variance_rows(seq, 40)
    assert rows == sweep.v[1:].tolist()
    for q, v in enumerate(rows, start=1):
        assert isinstance(v, float)
        assert abs(Fraction(v) - brute_variance(seq, q)) \
            <= Fraction(float(sweep.error[q])), q


def test_sweep_correlations_match_ramanujan_correlations(table_1e4, rng):
    """The sweep's C_d, which the chains' Ramanujan tail reads, are the
    bulk correlations bit for bit on integer and float sequences."""
    n = q_max = 2000
    seqs = [Sequence(table_1e4.dk[2][: n + 1].astype(float),
                     is_integer_valued=True, name="d2"),
            Sequence(table_1e4.dk[3][: n + 1].astype(float),
                     is_integer_valued=True, name="d3"),
            Sequence.from_coeffs(rng.standard_normal(n), name="normal")]
    for seq in seqs:
        sweep = variance_sweep(seq, q_max)
        corrs = ramanujan_correlations(seq, range(1, q_max + 1))
        assert np.array_equal(sweep.correlations[1:], corrs), seq.name
        assert np.array_equal(sweep.phi[1:],
                              [totient(d) for d in range(1, q_max + 1)])


def test_variance_total_matches_per_q_closed_form(table_300):
    """Lambda and d_2 at N = 300, including q_max > N and q_min > q_max."""
    for seq in (table_300.lambda_sequence(), table_300.dk_sequence(2)):
        for q_min, q_max in ((1, 40), (7, 120), (1, 350), (290, 420)):
            per_q = math.fsum(float(variance_mod_q(seq, q, exact=False).v)
                              for q in range(q_min, q_max + 1))
            assert variance_total(seq, q_max, q_min) == pytest.approx(
                per_q, rel=1e-12), (seq.name, q_min, q_max)
        assert variance_total(seq, 40, 41) == 0.0


def test_restricted_variance_total_matches_psi_counts(table_300):
    # q = 6, 12 and 30 have classes holding several powers of 2 or 3
    # (mod 6: 2, 8, 32, 128 are all 2).
    per_q = [psi_counts(table_300, q).restricted_variance
             for q in range(1, 61)]
    assert restricted_variance_total(table_300, 60) == pytest.approx(
        math.fsum(per_q), rel=1e-12)
    scale = table_300.lam.sum() ** 2
    for q in range(1, 61):
        assert restricted_variance_total(table_300, q, q) == pytest.approx(
            per_q[q - 1], abs=1e-13 * scale)
    assert restricted_variance_total(table_300, 30, 31) == 0.0


@st.composite
def float_sequences(draw):
    n = draw(st.integers(1, 60))
    value = st.floats(-1e3, 1e3, allow_nan=False)
    vals = draw(st.lists(value, min_size=n, max_size=n))
    return Sequence.from_coeffs(vals)


@given(float_sequences(), st.integers(1, 80))
@settings(max_examples=40, deadline=None)
# Squares in the subnormal range: V(3) and V(4) carry underflow error.
@example(seq=Sequence.from_coeffs([2.6357603733167303e-160] * 5), q_max=5)
def test_sweep_within_bound_on_random_floats(seq, q_max):
    sweep = variance_sweep(seq, q_max)
    for q in range(1, q_max + 1):
        assert abs(Fraction(float(sweep.v[q])) - brute_variance(seq, q)) \
            <= Fraction(float(sweep.error[q])), q


def test_moduli_must_be_positive(table_300):
    seq = table_300.dk_sequence(2)
    with pytest.raises(ValueError, match="q_max"):
        variance_total(seq, 0)
    with pytest.raises(ValueError, match="q_min"):
        variance_total(seq, 10, 0)
    with pytest.raises(ValueError, match="q_max"):
        variance_sweep(seq, -3)
    with pytest.raises(ValueError, match="q_max"):
        restricted_variance_total(table_300, 0)
    with pytest.raises(ValueError, match="q_min"):
        restricted_variance_total(table_300, 10, -1)


def test_corollary_bound_below_qV(table_300, rng):
    seq = Sequence(table_300.dk[2][:301].astype(float),
                   is_integer_valued=True, name="d2")
    for q in (12, 30, 60):
        for q0 in (1, 3, 10):
            bound = cor1_lower_bound(seq, q, q0)
            qv = q * float(variance_mod_q(seq, q, exact=False).v)
            assert bound <= qv + 1e-6 * abs(qv)
    rnd = Sequence.from_coeffs(rng.choice([-1.0, 1.0], size=200),
                               is_integer_valued=True)
    assert cor1_lower_bound(rnd, 36, 2) <= 36 * float(
        variance_mod_q(rnd, 36).v) + 1e-6


def test_psi_counts_and_restricted_scan(table_300):
    pc = psi_counts(table_300, 4)
    assert pc.classes.tolist() == [1, 3]
    # psi(300; 4, 1) + psi(300; 4, 3) = psi(300) - psi over powers of 2
    assert pc.psi_q == pytest.approx(
        table_300.lam[1:].sum() - table_300.lam[2::2].sum())
    direct = sum(psi_counts(table_300, q).restricted_variance
                 for q in range(1, 31))
    fast = restricted_variance_total(table_300, 30)
    assert fast == pytest.approx(direct, rel=1e-9)


def test_zero_sequence_trivial():
    z = Sequence.from_coeffs([0.0] * 50)
    assert float(variance_mod_q(z, 12).v) == 0
    assert float(exp_variance_H(z, 12).h) == 0
    assert check_identity_prop1(z, 12).ok


def test_prime_power_class_squares_match_loop(table_1e4):
    """Primes above sqrt(N), grouped by multiplier, add to each q in the
    order of a pass per prime: bit for bit the loop, on both sides of the
    split point."""
    n = table_1e4.n
    for q_max in (1, math.isqrt(n), math.isqrt(n) + 1, n):
        fast = _prime_power_class_squares(table_1e4, q_max)
        assert np.array_equal(fast,
                              prime_power_class_squares_loop(table_1e4, q_max))
