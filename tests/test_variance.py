"""Variance functionals, the divisor identity, and its corollary."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apvar.arith import (Sequence, divisors, factorize, gamma, load_sequence,
                         moduli_tables, ramanujan_correlations,
                         ramanujan_sum, sieve_all, totient)
from apvar.variance import (_prime_power_class_squares, check_identity_prop1,
                            exp_variance_H, residue_sums,
                            restricted_variance_total, variance_mod_q,
                            variance_rows, variance_sweep, variance_total)

from oracles import (cor1_lower_bound, float_sweep_abs_route,
                     prime_power_class_squares_pairs,
                     prime_power_class_squares_spf, psi_counts)


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


def brute_H_exact(seq, q):
    """H(q) as the bilinear form sum_{m,n} a_m a_n c_q(m-n)
    - (sum_n a_n c_q(n))^2 / phi(q) over the coefficients themselves, in
    Python ints (integer sequences only)."""
    a = [int(x) for x in seq.values]
    ns = range(1, seq.n + 1)
    bilinear = sum(a[m] * a[n] * ramanujan_sum(q, m - n)
                   for m in ns for n in ns)
    corr = sum(a[n] * ramanujan_sum(q, n) for n in ns)
    return bilinear - Fraction(corr * corr, totient(q))


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
    return Sequence.from_coeffs(vals)


@given(small_int_sequences(), st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_variance_matches_bruteforce(seq, q):
    assert variance_mod_q(seq, q) == brute_variance(seq, q)


@given(small_int_sequences(), st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_identity_exact(seq, q):
    chk = check_identity_prop1(seq, q)
    assert chk.ok and chk.residual == 0 and chk.bad_divisors == []


@given(small_int_sequences(), st.integers(1, 20))
@settings(max_examples=25, deadline=None)
def test_H_nonnegative_and_matches_oracle(seq, q):
    h = exp_variance_H(seq, q)
    assert h >= 0
    assert float(h) == pytest.approx(brute_H(seq, q), abs=1e-6)


def test_float_path_agrees_with_exact(table_300):
    """d_2 / 2, not integer-valued as d_2(1) = 1, takes the float path:
    its V and H are within 1e-9 of the exact values of d_2 over 4."""
    seq = Sequence(table_300.dk[2][:251])
    half = Sequence(seq.values / 2)
    assert seq.is_integer_valued and not half.is_integer_valued
    for q in (7, 12, 36, 60):
        exact, fl = variance_mod_q(seq, q), variance_mod_q(half, q)
        assert isinstance(exact, Fraction) and isinstance(fl, float)
        assert fl == pytest.approx(float(exact) / 4, rel=1e-9)
        he, hf = exp_variance_H(seq, q), exp_variance_H(half, q)
        assert isinstance(he, Fraction) and isinstance(hf, float)
        assert hf == pytest.approx(float(he) / 4, rel=1e-9)


def test_exact_path_chosen_by_the_data():
    """Integer data take the exact path at any length, here N = 10^4 + 1:
    d_2 gives Fractions equal to its variance_rows and to brute force;
    Lambda gives floats."""
    n = 10**4 + 1
    seq = load_sequence("d2", n)
    rows = variance_rows(seq, 400)
    assert all(isinstance(v, Fraction) for v in rows)
    for q in (1, 12, 360, 397):
        v = variance_mod_q(seq, q)
        assert isinstance(v, Fraction), q
        assert v == rows[q - 1] == brute_variance(seq, q), q
        assert isinstance(exp_variance_H(seq, q), Fraction), q
    lam = load_sequence("lambda", n)
    for q in (1, 12, 360):
        assert isinstance(variance_mod_q(lam, q), float), q
        assert isinstance(exp_variance_H(lam, q), float), q


def test_exact_paths_do_not_wrap(rng):
    """Class sums near 3e11 square past 2^63: the exact paths keep them
    in Python ints.  An integer sequence with ||a||_1 >= 2^53, whose
    float class sums may round, takes the float path instead."""
    const = Sequence.from_coeffs(np.full(300, 3e9))
    assert variance_mod_q(const, 3) == 0
    assert exp_variance_H(const, 3) == 0
    big = Sequence.from_coeffs(rng.integers(-3 * 10**9, 3 * 10**9, 300))
    for q in (3, 12, 36):
        assert variance_mod_q(big, q) == brute_variance(big, q)
        chk = check_identity_prop1(big, q)
        assert chk.ok and chk.residual == 0
    huge = Sequence.from_coeffs([2.0**52] * 3)
    for q in (1, 2, 3, 4, 6):
        v, h = variance_mod_q(huge, q), exp_variance_H(huge, q)
        assert isinstance(v, float) and isinstance(h, float), q
        assert v == brute_variance(huge, q), q
        assert h == brute_H_exact(huge, q), q
        assert q * brute_variance(huge, q) == sum(
            brute_H_exact(huge, d) for d in divisors(q)), q
        chk = check_identity_prop1(huge, q)
        assert chk.ok and isinstance(chk.residual, float), q


def test_residue_sums_basic():
    seq = Sequence.from_coeffs([1.0] * 10)
    t = residue_sums(seq, 4)
    assert t.tolist() == [2, 3, 3, 2]


def test_sweep_matches_exact_per_q(table_300, rng):
    """The batched V(q) lies within its stated bound of the exact per-q
    value for every q <= 300, and sum_a t_a^2 is exact on integers."""
    seqs = [table_300.dk_sequence(2), table_300.dk_sequence(3),
            Sequence.from_coeffs(rng.choice([-1.0, 1.0], size=300))]
    for i, seq in enumerate(seqs):
        sweep = variance_sweep(seq, 300)
        assert sweep.exact_squares
        iv = seq.int_values()
        for q in range(1, 301):
            exact = variance_mod_q(seq, q)
            assert isinstance(exact, Fraction), (i, q)
            assert abs(Fraction(float(sweep.v[q])) - exact) \
                <= Fraction(float(sweep.error[q])), (i, q)
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
            assert v == variance_mod_q(seq, q), (name, q)
        if n == 300:
            for q in (1, 12, 36, 60, 301, 350):
                assert rows[q - 1] == brute_variance(seq, q), (name, q)


def test_totient_divides_along_divisors():
    """phi(d) | phi(q) for every d | q <= 10^4: the single denominator
    q phi(q) of variance_rows."""
    phi = moduli_tables(10**4, "phi")[0]
    for d in range(1, 10**4 + 1):
        assert not np.any(phi[d::d] % phi[d]), d


def test_variance_rows_float_when_sweep_inexact(rng):
    """Integer entries near 10^8 put the FFT error above 1/2: the rows
    are the sweep's floats, each within its bound of the exact V(q)."""
    seq = Sequence.from_coeffs(rng.integers(-10**8, 10**8, 300))
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
    seqs = [Sequence(table_1e4.dk[2][: n + 1]),
            Sequence(table_1e4.dk[3][: n + 1]),
            Sequence.from_coeffs(rng.standard_normal(n))]
    for i, seq in enumerate(seqs):
        sweep = variance_sweep(seq, q_max)
        corrs = ramanujan_correlations(seq.values, range(1, q_max + 1))
        assert np.array_equal(sweep.correlations[1:], corrs), i
        assert np.array_equal(sweep.phi[1:],
                              [totient(d) for d in range(1, q_max + 1)])


def test_nonnegative_float_sweep_matches_abs_route(table_1e4, rng):
    """A float sweep with every a_n >= 0 takes its bound's |a| multiple
    sums from M itself: v and error are bit for bit those of the route
    through multiple_sums(np.abs(a)), for Lambda, random nonnegative
    floats and floats with -0.0 entries; a signed sequence keeps that
    route."""
    signed_zeros = rng.random(2000)
    signed_zeros[::7] = -0.0
    cases = [(table_1e4.lambda_sequence(), 400),
             (table_1e4.lambda_sequence(), 1000),
             (Sequence.from_coeffs(rng.random(3000)), 500),
             (Sequence.from_coeffs(signed_zeros), 300),
             (Sequence.from_coeffs(rng.standard_normal(2000)), 300)]
    for seq, q_max in cases:
        sweep = variance_sweep(seq, q_max)
        v, err = float_sweep_abs_route(seq, q_max)
        assert np.array_equal(sweep.v, v)
        assert np.array_equal(sweep.error, err)


def test_float_sweep_within_bound_at_zero_variance():
    """Dyadic sequences a_n = k_n / 2^10 whose sum over every class mod 60
    is 0 (the first k_n of each class cancels the others), so that
    V(q) = T(q) = 0 and C_d = 0 for q, d | 60: there the correlations'
    part of the bound is of order u^2, and the rounding of the FFT lags
    in T(q) has to be covered by T's own part.  Every v(q), q <= 60, lies
    within error[q] of the exact V(q) (brute_variance in Fractions), with
    no reference bound added; at some q | 60 that rounding leaves
    v(q) > 0."""
    rng = np.random.default_rng(11)
    rounded = []
    for n in (600, 601, 1200):
        k = rng.integers(-1023, 1024, n)
        for i in range(60):                  # each class mod 60 sums to 0
            k[i] -= k[i::60].sum()
        seq = Sequence.from_coeffs(k / 2.0**10)
        sweep = variance_sweep(seq, 60)
        assert not sweep.exact_squares
        for q in range(1, 61):
            exact = brute_variance(seq, q)
            assert abs(Fraction(float(sweep.v[q])) - exact) \
                <= Fraction(float(sweep.error[q])), (n, q)
        rounded += [sweep.v[q] > 0 for q in divisors(60)]
    assert any(rounded)


def test_sweep_keeps_its_mobius_table(table_1e4):
    """The sweep's mu, which the reduced-class LHS reads in place of the
    sieve table's, is moduli_tables(q_max, "mu")[0] in dtype and bytes, also
    past N."""
    seq = table_1e4.lambda_sequence()
    for q_max in (1, 2, 5623, 12000):
        mu = variance_sweep(seq, q_max).mu
        expected = moduli_tables(q_max, "mu")[0]
        assert mu.dtype == expected.dtype
        assert mu.tobytes() == expected.tobytes()


def test_variance_total_matches_per_q_closed_form(table_300):
    """Lambda (float per-q values) and d_2 (exact ones) at N = 300,
    including q_max > N and q_min > q_max."""
    for label, seq in (("lambda", table_300.lambda_sequence()),
                       ("d2", table_300.dk_sequence(2))):
        for q_min, q_max in ((1, 40), (7, 120), (1, 350), (290, 420)):
            per_q = math.fsum(variance_mod_q(seq, q)
                              for q in range(q_min, q_max + 1))
            assert variance_total(seq, q_max, q_min) == pytest.approx(
                per_q, rel=1e-12), (label, q_min, q_max)
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
    seq = Sequence(table_300.dk[2][:301])
    for q in (12, 30, 60):
        for q0 in (1, 3, 10):
            bound = cor1_lower_bound(seq, q, q0)
            qv = q * variance_mod_q(seq, q)
            assert bound <= qv + 1e-6 * abs(qv)
    rnd = Sequence.from_coeffs(rng.choice([-1.0, 1.0], size=200))
    assert cor1_lower_bound(rnd, 36, 2) <= 36 * float(
        variance_mod_q(rnd, 36)) + 1e-6


def test_corollary_bound_is_sum_of_H(table_300, rng):
    """The corollary bound is the sum of H(d) over d | q, d > Q0, and so
    qV(q) minus the H(d) with d <= Q0, as exact fractions on integer data."""
    d2 = Sequence(table_300.dk[2][:301])
    pm1 = Sequence.from_coeffs(rng.choice([-1.0, 1.0], size=200))
    for seq in (d2, pm1):
        for q, q0 in ((12, 1), (36, 2), (60, 3), (60, 10)):
            bound = cor1_lower_bound(seq, q, q0)
            hs = {d: exp_variance_H(seq, d) for d in divisors(q)}
            assert isinstance(bound, Fraction)
            assert bound == sum(h for d, h in hs.items() if d > q0)
            assert bound == q * variance_mod_q(seq, q) - sum(
                h for d, h in hs.items() if d <= q0)


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
    assert variance_mod_q(z, 12) == 0
    assert exp_variance_H(z, 12) == 0
    assert check_identity_prop1(z, 12).ok


def test_prime_power_class_squares_match_pairs_oracle(table_1e4, table_1e5):
    """The closed form against the pairwise class comparison it replaced,
    at Q = N^0.75 and Q = N and on both sides of the split point sqrt(N):
    within 1e-15 relative, with the same zeros.  The two round the same
    sum of (log p)^2 multiples in different orders."""
    tables = [(table, (int(table.n**0.75), table.n))
              for table in (sieve_all(10**3, 2), sieve_all(2 * 10**4, 2),
                            table_1e5)]
    s = math.isqrt(table_1e4.n)
    tables.append((table_1e4, (1, s, s + 1, table_1e4.n)))
    for table, q_maxes in tables:
        for q_max in q_maxes:
            fast = _prime_power_class_squares(table.lam,
                                              moduli_tables(q_max, "phi")[0])
            slow = prime_power_class_squares_pairs(table, q_max)
            assert np.array_equal(fast == 0, slow == 0)
            nz = slow != 0
            assert np.all(np.abs(fast - slow)[nz] <= 1e-15 * slow[nz])


def test_prime_power_class_squares_match_spf_route(table_1e4, table_1e5):
    """The primes from phi and the trial-divided p^t - 1 give NR bit for
    bit as the spf table did, at Q = N^0.75 and Q = N, at Q < sqrt(N)
    (where phi is sieved again up to sqrt(N)), at sqrt(N) and just past
    it, and at Q > N; each q = p^a m is added once per p, so the order
    of the divisors cannot matter."""
    s = math.isqrt(table_1e5.n)
    cases = [(sieve_all(200, 2), (1, 7, 14, 15, 200, 450)),
             (table_1e4, (40, 99, 100, 101, 750, 10**4)),
             (table_1e5, (17, s - 1, s, s + 1, 5623, 10**5))]
    for table, q_maxes in cases:
        for q_max in q_maxes:
            fast = _prime_power_class_squares(table.lam,
                                              moduli_tables(q_max, "phi")[0])
            slow = prime_power_class_squares_spf(table, q_max)
            assert fast.tobytes() == slow.tobytes(), (table.n, q_max)


def brute_nr(table, q):
    """NR(q) from its definition: the squares of the class sums of Lambda
    (each float an exact Fraction) over the classes b with (b, q) > 1."""
    t = {}
    for n in np.flatnonzero(table.lam).tolist():
        if math.gcd(n, q) > 1:
            t[n % q] = t.get(n % q, 0) + Fraction(float(table.lam[n]))
    return sum(v * v for v in t.values())


def test_prime_power_class_squares_brute_force():
    """Against exact class sums at every q <= 240 (N = 200), and at the
    edge cases around the prime 97: N = 97^2, where 97 = sqrt(N) has the
    two powers 97 and 97^2, and N = 97^2 - 1, where it has one; m = 1
    (q = p^a), a = L_p, and a > L_p (q = 2 97^2, 97^3 past N).  Each
    prime's term is one rounded product and at most omega(q) terms are
    summed, so gamma_(omega(q)+1) bounds the relative error."""
    cases = [(200, range(1, 241)),
             (97**2, (97, 2 * 97, 6 * 97, 97**2, 2 * 97**2, 97**3, 101,
                      202, 101**2, 64, 96, 8192, 2 * 3 * 5 * 7 * 11)),
             (97**2 - 1, (97, 2 * 97, 97**2, 101, 2 * 101, 4096, 3 * 4096))]
    for n, qs in cases:
        table = sieve_all(n, 2)
        nr = _prime_power_class_squares(table.lam,
                                        moduli_tables(max(qs), "phi")[0])
        for q in qs:
            exact = brute_nr(table, q)
            bound = gamma(len(factorize(q)) + 1) * float(exact)
            assert abs(Fraction(float(nr[q])) - exact) <= bound, (n, q)


@given(st.integers(1, 3000), st.data())
@settings(max_examples=40, deadline=None)
def test_sweep_rows_do_not_depend_on_its_length(n, data):
    """variance_sweep(seq, q_max).v[:r + 1] has the bytes of
    variance_sweep(seq, r).v for every r <= q_max, on float and integer
    sequences: multiple_sums, ramanujan_convolution and convolve_ones add
    an entry's terms in an order that does not depend on the table
    length.  The CLI takes its plot rows from the chain's sweep on that
    ground."""
    q_max = data.draw(st.integers(1, n + 10), label="q_max")
    r = data.draw(st.integers(1, q_max), label="r")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans(), label="integer"):
        seq = Sequence.from_coeffs(rng.integers(-5, 6, n))
    else:
        vals = rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 4))
        vals[rng.random(n) < 0.5] = 0.0
        seq = Sequence.from_coeffs(vals)
    whole = variance_sweep(seq, q_max).v[: r + 1]
    assert whole.tobytes() == variance_sweep(seq, r).v.tobytes()
