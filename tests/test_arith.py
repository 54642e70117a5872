"""Multiplicative-function tables, Ramanujan sums, and sieve caches."""

import functools
import math
import os
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvar import arith
from apvar.arith import (CapacityError, LagSpectra, Sequence, _spf_sieve,
                         check_lemma1_matrix, convolve_ones, d_k_of, divisors,
                         factorize, gamma, gen_binomial, is_squarefree,
                         load_sequence, mobius, moduli_tables, multiple_sums,
                         primes_from_spf, ramanujan_convolution,
                         ramanujan_correlations, ramanujan_row, ramanujan_sum,
                         sieve_all, totient, transform_length)

from oracles import (convolve_ones_loop, lag_correlation_direct,
                     lambda_sieve_loop, mu_phi_sieve_loop, multiple_sums_loop,
                     ramanujan_convolution_loop, ramanujan_row_gcd,
                     spf_sieve_loop)


def direct_ramanujan(q, n):
    return sum(math.cos(2 * math.pi * a * n / q)
               for a in range(1, q + 1) if math.gcd(a, q) == 1)


@given(st.integers(1, 80), st.integers(1, 200))
def test_ramanujan_formula_vs_exponential_sum(q, n):
    assert abs(ramanujan_sum(q, n) - direct_ramanujan(q, n)) < 1e-8


def test_ramanujan_row_matches_scalar():
    for q in (1, 2, 12, 36, 49):
        row = ramanujan_row(q, 30)
        assert [row[n - 1] for n in range(1, 31)] == [
            ramanujan_sum(q, n) for n in range(1, 31)]


def test_ramanujan_row_tiles_one_period():
    """The tiled period is the gcd lookup at every n, in dtype and value,
    at lengths below, at and past one period."""
    cases = [(d, n) for d in range(1, 61)
             for n in {1, d - 1, d, d + 1, 7 * d + 3}]
    for d, n_max in cases + [(210, 200_000), (997, 200_000)]:
        row, oracle = ramanujan_row(d, n_max), ramanujan_row_gcd(d, n_max)
        assert row.dtype == oracle.dtype
        assert np.array_equal(row, oracle)


@given(st.integers(1, 500))
def test_mobius_totient_consistency(m):
    # phi = sum over divisors d of mu(d) * m/d
    assert totient(m) == sum(mobius(d) * (m // d) for d in divisors(m))


@given(st.integers(1, 300), st.integers(1, 300))
def test_totient_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert totient(a * b) == totient(a) * totient(b)


def test_factorize_reconstructs():
    for m in range(1, 500):
        prod = 1
        for p, e in factorize(m):
            prod *= p**e
        assert prod == m


def test_divisor_function_small_values():
    # d_2 on 1..10 and d_3(12) = number of ordered triples
    assert [d_k_of(2, n) for n in range(1, 11)] == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]
    assert d_k_of(3, 12) == 18
    assert d_k_of(4, 1) == 1


def test_sieve_tables_match_bruteforce(table_300):
    t = table_300
    for n in range(1, 301):
        assert t.mu[n] == mobius(n)
        assert t.phi[n] == totient(n)
        for j in (2, 3, 4):
            assert t.dk[j][n] == d_k_of(j, n)
    # Lambda: log p at prime powers, 0 elsewhere
    assert t.lam[8] == pytest.approx(math.log(2))
    assert t.lam[97] == pytest.approx(math.log(97))
    assert t.lam[6] == 0.0


@functools.lru_cache(maxsize=None)
def loop_arrays(n, k):
    """Every array of the table (n, k) by name from the loop oracles: the
    integer arrays in int64 (mu in int8), Lambda in float64."""
    spf = spf_sieve_loop(n)
    primes = np.flatnonzero(spf == np.arange(n + 1))[1:]
    mu, phi = mu_phi_sieve_loop(n, primes)
    arrays = {"spf": spf, "mu": mu, "phi": phi,
              "lam": lambda_sieve_loop(n, primes)}
    d = np.ones(n + 1, dtype=np.int64)
    d[0] = 0
    for j in range(2, k + 1):
        d = arrays[f"d{j}"] = convolve_ones_loop(d)
    return arrays


def table_arrays(table):
    """The arrays of `table` by name, each read through its attribute."""
    return {"spf": table.spf, "mu": table.mu, "phi": table.phi,
            "lam": table.lam, **{f"d{j}": d for j, d in table.dk.items()}}


def assert_fresh(table):
    """Every array of `table` holds the loop oracles' values in its table
    type (Lambda in float64), byte for byte."""
    got, loop = table_arrays(table), loop_arrays(table.n, table.k)
    assert sorted(got) == sorted(loop)
    for name, a in loop.items():
        dtype = (np.dtype(np.float64) if name == "lam"
                 else arith._table_type(name))
        assert got[name].dtype == dtype, name
        assert got[name].tobytes() == a.astype(dtype).tobytes(), name


def table_files(n, k):
    """The cache files of the table (n, k): one per array."""
    return sorted(f"sieve_{n}_{name}.bin"
                  for name in ("spf", "mu", "phi", "lam",
                               *(f"d{j}" for j in range(2, k + 1))))


def file_states(folder):
    """Each file in `folder` by name: its bytes, inode and mtime.  A store
    renames a new file into place, so it changes the inode."""
    return {f.name: (f.read_bytes(), f.stat().st_ino, f.stat().st_mtime_ns)
            for f in folder.iterdir()}


@pytest.fixture
def computed(monkeypatch):
    """The sieve work done while the test runs, in order: "spf" for each
    spf sieve, and the names each _spf_recurrence pass is given."""
    calls = []
    sieve, recurrence = arith._spf_sieve, arith._spf_recurrence
    monkeypatch.setattr(arith, "_spf_sieve",
                        lambda n: calls.append("spf") or sieve(n))
    monkeypatch.setattr(arith, "_spf_recurrence", lambda spf, names:
                        calls.append(tuple(names)) or recurrence(spf, names))
    return calls


def test_sieve_cache_roundtrip(tmp_path, monkeypatch, computed):
    """A table is stored as one file per array, and read back from them,
    computing nothing, every array equals the loop oracles' by dtype and
    bytes."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    for n, k in ((1, 2), (500, 3), (2**16 + 3, 4)):
        sieve_all(n, k)
        assert set(table_files(n, k)) <= set(os.listdir(tmp_path))
        computed.clear()
        assert_fresh(sieve_all(n, k))
        assert computed == []
    assert sorted(os.listdir(tmp_path)) == sorted(
        table_files(1, 2) + table_files(500, 3) + table_files(2**16 + 3, 4))


@pytest.mark.parametrize("damage", ["flip", "truncate"])
def test_sieve_cache_damaged_array_is_sieved_again(tmp_path, monkeypatch,
                                                   damage):
    """A flipped byte of d_3's data, or d_3's file cut short inside it,
    gives the fresh d_3 on access, and the file is written again."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    sieve_all(500, 3)
    path = tmp_path / "sieve_500_d3.bin"
    stored = path.read_bytes()
    offset = stored.index(b"\n") + 1
    itemsize = arith._table_type("d3").itemsize
    assert offset + itemsize * 501 == len(stored)
    damaged = bytearray(stored)
    if damage == "flip":
        damaged[offset + itemsize * 501 // 2] ^= 0x01
    else:
        del damaged[offset + 8:]
    path.write_bytes(damaged)
    table = sieve_all(500, 3)
    assert np.array_equal(table.dk[3], loop_arrays(500, 3)["d3"])
    assert path.read_bytes() == stored
    assert_fresh(table)


@pytest.mark.parametrize("name", ["spf", "lam", "mu", "d3"])
@pytest.mark.parametrize("damage", ["flip", "truncate", "delete"])
def test_sieve_cache_damaged_array_is_computed_alone(tmp_path, monkeypatch,
                                                     computed, damage, name):
    """One array's file with a flipped byte, cut short or deleted is
    computed again alone and its file written again alone: spf by a sieve
    and no recurrence; Lambda from the stored spf, with neither; mu or d_3
    from the stored spf by one recurrence pass that names it alone.  Every
    other file keeps its bytes, inode and mtime."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    sieve_all(500, 3)
    before = file_states(tmp_path)
    path = tmp_path / f"sieve_500_{name}.bin"
    stored = before.pop(path.name)[0]
    offset = stored.index(b"\n") + 1
    if damage == "flip":
        damaged = bytearray(stored)
        damaged[(offset + len(stored)) // 2] ^= 0x01
        path.write_bytes(damaged)
    elif damage == "truncate":
        path.write_bytes(stored[: offset + 8])
    else:
        path.unlink()
    computed.clear()
    assert_fresh(sieve_all(500, 3))
    assert computed == {"spf": ["spf"], "lam": [], "mu": [("mu",)],
                        "d3": [("d3",)]}[name]
    after = file_states(tmp_path)
    assert after.pop(path.name)[0] == stored
    assert after == before


def test_partial_cache_computes_only_its_missing_array(
        tmp_path, monkeypatch, computed):
    """Over a cached (N, 2), the table (N, 3) computes d_3 alone, in one
    recurrence pass over the stored spf that names d_3 alone and no spf
    sieve, and stores d_3's file alone: every file of (N, 2) keeps its
    bytes, inode and mtime."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    n = 2**12 + 1
    sieve_all(n, 2)
    before = file_states(tmp_path)
    computed.clear()
    table = sieve_all(n, 3)
    assert computed == [("d3",)]
    after = file_states(tmp_path)
    assert sorted(after) == table_files(n, 3)
    assert {name: after[name] for name in before} == before
    assert_fresh(table)
    assert computed == [("d3",)]


def test_no_cache_directory_writes_nothing_and_computes_each_array_once(
        tmp_path, monkeypatch, computed):
    """With APVAR_CACHE_DIR unset a table is one spf sieve and one
    recurrence pass, each array is computed once however often it is read,
    a sequence computes its own array alone, and no file is written."""
    monkeypatch.delenv("APVAR_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    table = sieve_all(500, 3)
    assert computed == ["spf", ("mu", "phi", "d2", "d3")]
    assert_fresh(table)
    assert_fresh(table)
    assert computed == ["spf", ("mu", "phi", "d2", "d3")]
    computed.clear()
    assert np.array_equal(load_sequence("d3", 500).values,
                          loop_arrays(500, 3)["d3"])
    assert computed == ["spf", ("d3",)]
    assert os.listdir(tmp_path) == []


def test_load_sequence_reads_or_computes_its_array_alone(
        tmp_path, monkeypatch, computed):
    """A sieve sequence reads or computes its one array: a cold d_2 sieves
    spf and passes the recurrence d2 alone, and stores spf and d2; Lambda
    then comes from the stored spf with neither, and d_3 from one pass
    naming it alone; read again, none computes or writes anything."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    n, loop = 1000, loop_arrays(1000, 3)
    files = []
    for seq, name, work in (("d2", "d2", ["spf", ("d2",)]),
                            ("lambda", "lam", []), ("d3", "d3", [("d3",)])):
        computed.clear()
        values = load_sequence(seq, n).values
        assert computed == work, seq
        files += ["spf", name] if seq == "d2" else [name]
        assert sorted(os.listdir(tmp_path)) == sorted(
            f"sieve_{n}_{f}.bin" for f in files)
        assert np.array_equal(values, loop[name]), seq
    before = file_states(tmp_path)
    computed.clear()
    for seq in ("d2", "lambda", "d3"):
        load_sequence(seq, n)
    assert computed == []
    assert file_states(tmp_path) == before


def test_sieve_cache_rejects_unparseable_or_incomplete_files(tmp_path,
                                                           monkeypatch,
                                                           computed):
    """An array of a table that has no file, or a file that is not that
    array's (another array's, or junk), is not read: sieve_all computes
    it alone and stores it, so that a table (N, 3) stored after (N, 2)
    leaves one file per array of N."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    sieve_all(500, 3)
    path = tmp_path / "sieve_500_d3.bin"
    stored = path.read_bytes()
    path.unlink()
    sieve_all(500, 2)
    for junk in (None, (tmp_path / "sieve_500_d2.bin").read_bytes(), b"",
                 b"\xff" * 4096, b"apvar-sieve-array-1 00 x\n"):
        if junk is not None:
            path.write_bytes(junk)
        computed.clear()
        assert_fresh(sieve_all(500, 3))
        assert computed == [("d3",)]
        assert path.read_bytes() == stored
    assert sorted(os.listdir(tmp_path)) == table_files(500, 3)


def test_sieve_cache_reads_only_the_arrays_used(tmp_path, monkeypatch):
    """d_3 of a cached table reads and verifies d_3 alone."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    sieve_all(500, 3)
    read = []
    verified = arith._read_verified
    monkeypatch.setattr(arith, "_read_verified",
                        lambda name, entry:
                        read.append(name) or verified(name, entry))
    table = sieve_all(500, 3)
    assert 3 in table.dk and sorted(table.dk) == [2, 3] and read == []
    d3 = table.dk[3]
    assert read == ["d3"]
    assert table.dk[3] is d3 and read == ["d3"]


def test_sieve_cache_file_deleted_after_load(tmp_path, monkeypatch):
    """A table whose files are gone before its arrays are read still
    gives every array right on first access, and stores them again."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    sieve_all(500, 3)
    table = sieve_all(500, 3)
    for name in table_files(500, 3):
        (tmp_path / name).unlink()
    assert_fresh(table)
    assert sorted(os.listdir(tmp_path)) == table_files(500, 3)


def test_sieve_cache_writers_keep_their_own_temp_files(
        tmp_path, monkeypatch, computed):
    """A second writer of the same table that stores it between the first
    writer's write and rename leaves the first writer's temp file alone:
    both stores end, the table reads back whole, and no temp file is
    left."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    replace, nested = Path.replace, []

    def replace_after_a_second_writer(self, target):
        if not nested:
            nested.append(self)
            sieve_all(500, 3)
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", replace_after_a_second_writer)
    sieve_all(500, 3)
    assert nested
    assert sorted(os.listdir(tmp_path)) == table_files(500, 3)
    computed.clear()
    assert_fresh(sieve_all(500, 3))
    assert computed == []


def test_sieve_cache_rejects_tables_of_other_sieve_code(tmp_path,
                                                        monkeypatch,
                                                        computed):
    """A cached table's checksum covers the source of arith.py: under
    another source digest it is not read back but sieved again, in one
    spf sieve and one recurrence pass, and then stored under the new
    digest, from which it is read back."""
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    sieve_all(500, 3)
    computed.clear()
    sieve_all(500, 3)
    assert computed == []
    monkeypatch.setattr(arith, "_source_digest", lambda: b"other sieve code")
    assert_fresh(sieve_all(500, 3))
    assert computed == ["spf", ("mu", "phi", "d2", "d3")]
    assert_fresh(sieve_all(500, 3))
    assert computed == ["spf", ("mu", "phi", "d2", "d3")]


def test_capacity_guard():
    with pytest.raises(CapacityError):
        sieve_all(1 << 28)


def test_lemma1_matrix_small():
    assert all(check_lemma1_matrix(q, 40, 40) for q in range(1, 31))
    assert not check_lemma1_matrix(12, 10, 10, fault=True)


def test_ramanujan_correlation_exact_and_bulk(table_300):
    seq = Sequence(table_300.dk[2][:201])
    ints = seq.int_values()
    ds = (1, 2, 12, 30)
    direct = [sum(int(ints[n]) * ramanujan_sum(d, n) for n in range(1, 201))
              for d in ds]
    assert ramanujan_correlations(seq.values, ds).tolist() == direct


def test_gen_binomial_values():
    assert gen_binomial(-2, 3) == Fraction(-4)
    assert gen_binomial(5, 2) == Fraction(10)
    assert gen_binomial(-1, 4) == Fraction(1)
    assert gen_binomial(7, 0) == Fraction(1)


def test_is_squarefree():
    assert [n for n in range(1, 20) if not is_squarefree(n)] == [4, 8, 9, 12, 16, 18]


def test_load_sequence_names_and_file(tmp_path):
    lam = load_sequence("lambda", 300)
    assert lam.values[4] == pytest.approx(math.log(2))
    d3 = load_sequence("d3", 300)
    assert d3.values[4] == 6
    ones = load_sequence("ones", 10)
    assert ones.l1() == 10

    path = tmp_path / "seq.csv"
    path.write_text("1,2.5\n3,-1\n")
    custom = load_sequence(f"file:{path}", 5)
    assert custom.values[1] == 2.5 and custom.values[3] == -1
    path.write_text("1,2\n3,1\n1,5\n")
    with pytest.raises(ValueError, match="index 1 in row 3"):
        load_sequence(f"file:{path}", 5)
    for text in ("", "# no rows\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="no rows"):
            load_sequence(f"file:{path}", 5)
    with pytest.raises(ValueError):
        load_sequence("nonsense", 10)


def test_sequence_invariants():
    s = Sequence.from_coeffs([1, -2, 3])
    assert s.n == 3
    assert s.l2() == 14
    assert s.l1() == 6
    assert s.is_integer_valued
    assert not Sequence.from_coeffs([0.5]).is_integer_valued
    with pytest.raises(ValueError, match="not integer-valued"):
        Sequence.from_coeffs([0.5]).int_values()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="a_2 .* not finite"):
            Sequence.from_coeffs([1.0, bad, 2.0])


def test_sequence_shares_the_array_it_is_given(table_300):
    """A float64 array with slot 0 at +0.0 is wrapped, not copied, and
    read-only through the sequence; a slot 0 of 3.0 or -0.0 is set to
    +0.0 in a copy, leaving the caller's array as it was; the int16 d_2 is
    converted once, into the one float64 array the sequence keeps."""
    lam = table_300.lambda_sequence()
    assert np.shares_memory(table_300.lam, lam.values)
    with pytest.raises(ValueError, match="read-only"):
        lam.values[2] = 0.0
    assert table_300.lam[2] == math.log(2)
    for a0 in (3.0, -0.0):
        given = np.array([a0, 1.0, 2.0])
        seq = Sequence(given)
        assert given.tobytes() == np.array([a0, 1.0, 2.0]).tobytes()
        assert seq.values.tobytes() == np.array([0.0, 1.0, 2.0]).tobytes()
    d2 = table_300.dk[2]
    tracemalloc.start()
    try:
        seq = Sequence(d2)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert d2.dtype == np.int16 and np.array_equal(seq.values, d2)
    assert 8 * d2.size <= kept < 16 * d2.size
    assert np.shares_memory(Sequence(seq.values).values, seq.values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-2**60, 2**60).map(float),
                          st.floats(-1e20, 1e20)), min_size=1, max_size=12))
def test_integer_valued_is_read_from_the_values(coeffs):
    """is_integer_valued holds exactly when every a_n is an integer."""
    seq = Sequence.from_coeffs(coeffs)
    assert seq.is_integer_valued == all(a == round(a) for a in coeffs)


# Lengths around the hyperbola split point isqrt(n) and its edge cases.
KERNEL_NS = (0, 1, 2, 3, 4, 8, 9, 15, 16, 17, 99, 100, 101, 300, 10**4)


def kernel_emaxes(n):
    s = math.isqrt(n)
    return sorted({1, s, s + 1, n, n + 5})


def assert_same(fast, loop):
    assert fast.dtype == loop.dtype
    assert np.array_equal(fast, loop)


def assert_typed(table, name, loop):
    """A sieve array named `name` holds the int64 loop's values in its
    table type."""
    assert table.dtype == arith._table_type(name), name
    assert np.array_equal(table, loop), name


def test_divisor_kernels_match_loops_on_integers(table_1e4):
    """The hyperbola-split kernels are the int64 per-index loops bit for
    bit on integers of any width: the table's int16 d_2 and int32 d_3 as
    stored, and signed random int64 integers, all summed in int64."""
    rng = np.random.default_rng(8)
    mu_top = moduli_tables(10**4, "mu")[0]
    for n in KERNEL_NS:
        inputs = (table_1e4.dk[2][: n + 1], table_1e4.dk[3][: n + 1],
                  rng.integers(-1000, 1000, n + 1))
        assert [a.dtype for a in inputs] == [np.int16, np.int32, np.int64]
        for values in inputs:
            wide = values.astype(np.int64)
            for table in (mu_top, np.abs(mu_top)):
                assert_same(ramanujan_convolution(values, table),
                            ramanujan_convolution_loop(wide, table))
            assert_same(convolve_ones(values), convolve_ones_loop(wide))
        for emax in kernel_emaxes(n):
            mu, phi = moduli_tables(emax, "mu", "phi")
            loop_mu, loop_phi = mu_phi_sieve_loop(
                emax, primes_from_spf(_spf_sieve(emax)))
            assert_same(mu, loop_mu)
            assert_typed(phi, "phi", loop_phi)
            for values in inputs:
                m = multiple_sums(values, emax)
                assert_same(m, multiple_sums_loop(values.astype(np.int64),
                                                  emax))
                for table in (mu, np.abs(mu)):
                    assert_same(ramanujan_convolution(m, table),
                                ramanujan_convolution_loop(m, table))
                assert_same(convolve_ones(m), convolve_ones_loop(m))


def test_divisor_kernels_match_loops_on_floats():
    """On floats the convolutions keep the loops' order of summation, so
    they match bit for bit; a multiple sum over e > isqrt(n) is
    sequential, within gamma_{n/e} sum |a| of the loop."""
    rng = np.random.default_rng(9)
    for n in KERNEL_NS:
        values = rng.standard_normal(n + 1) * 10.0 ** rng.integers(-3, 4, n + 1)
        for emax in kernel_emaxes(n):
            mu = moduli_tables(emax, "mu")[0]
            m = rng.standard_normal(emax + 1)
            assert_same(ramanujan_convolution(m, mu),
                        ramanujan_convolution_loop(m, mu))
            for f in rng.standard_normal((emax + 1, 3)).T:
                assert_same(convolve_ones(f), convolve_ones_loop(f))
            loop = multiple_sums_loop(values, emax)
            bound = gamma(n // np.arange(1, emax + 1)) \
                * multiple_sums_loop(np.abs(values), emax)[1:]
            assert np.all(np.abs(multiple_sums(values, emax)[1:] - loop[1:])
                          <= bound)


# Lengths at and around the block edges 2^j of the spf recurrence.
RECURRENCE_NS = sorted({1, 2, 3, 10**4} | {2**j + i for j in range(1, 13)
                                          for i in (-1, 0, 1)})


@pytest.mark.parametrize("block", [7, 64])
def test_spf_recurrence_matches_loops(block, monkeypatch):
    """mu, phi, Lambda and d_2..d_5 from the spf recurrence are the
    per-prime sieves and the repeated convolutions with 1 in value, each
    in its table type, also when the block cap splits the blocks
    [a, 2a)."""
    monkeypatch.setattr(arith, "_BLOCK", block)
    monkeypatch.delenv("APVAR_CACHE_DIR", raising=False)
    top = max(RECURRENCE_NS)
    primes = primes_from_spf(_spf_sieve(top))
    loop_mu, loop_phi = mu_phi_sieve_loop(top, primes)
    loop_lam = lambda_sieve_loop(top, primes)
    loop_dk, d = {}, np.ones(top + 1, dtype=np.int64)
    d[0] = 0
    for j in range(2, 6):
        d = loop_dk[j] = convolve_ones_loop(d)
    for n in RECURRENCE_NS:
        table = sieve_all(n, 5)
        mu, phi, *dk = moduli_tables(n, "mu", "phi", "d2", "d3", "d4", "d5")
        for mu, phi in ((mu, phi), (table.mu, table.phi)):
            assert_same(mu, loop_mu[: n + 1])
            assert_typed(phi, "phi", loop_phi[: n + 1])
        assert_same(table.lam, loop_lam[: n + 1])
        assert sorted(table.dk) == [2, 3, 4, 5]
        for j in range(2, 6):
            assert_typed(dk[j - 2], f"d{j}", loop_dk[j][: n + 1])
            assert_typed(table.dk[j], f"d{j}", loop_dk[j][: n + 1])


def test_table_types_hold_their_bounds_at_the_budget(tmp_path, monkeypatch,
                                                    computed):
    """Each integer sieve array is stored in the narrowest type that its
    bound at N = MEMORY_BUDGET fits: spf(n), phi(n) <= n; |mu(n)| <= 1;
    d(n) <= 2 sqrt(n), which int16 stops holding at N = 2^28; and
    d_3(n) <= d(n)^2 <= 4n; d_4 on is int64.  Fresh tables (computed) and
    cached ones (read from their files, computing nothing) at three sizes
    hold those types and the int64 loops' values, within the bounds, and
    moduli_tables refuses an n past the budget."""
    top = arith.MEMORY_BUDGET
    bounds = {"spf": top, "phi": top, "mu": 1, "d2": 2 * math.sqrt(top),
              "d3": 4 * top}
    narrower = {np.dtype(np.int32): np.int16, np.dtype(np.int16): np.int8}
    for name, bound in bounds.items():
        dtype = arith._table_type(name)
        assert bound <= np.iinfo(dtype).max, name
        if dtype in narrower:
            assert bound > np.iinfo(narrower[dtype]).max, name
    assert arith._table_type("d4") == np.int64
    with pytest.raises(CapacityError):
        moduli_tables(top + 1)

    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    for n in (1, 1000, 2**16 + 3):
        loop = loop_arrays(n, 4)
        computed.clear()
        fresh = sieve_all(n, 4)
        assert computed == ["spf", ("mu", "phi", "d2", "d3", "d4")]
        cached = sieve_all(n, 4)
        for table in (fresh, cached):
            got = table_arrays(table)
            del got["lam"]
            for name, a in got.items():
                assert_typed(a, name, loop[name])
        assert len(computed) == 2
        ns = np.arange(n + 1)
        assert np.all(loop["spf"] <= ns) and np.all(loop["phi"] <= ns)
        assert np.all(loop["d2"] <= 2 * np.sqrt(ns))
        assert np.all(loop["d3"] <= loop["d2"] ** 2)


def test_divisor_tables_stop_before_int64_wraps():
    """d_k from the spf recurrence is exact up to the largest k whose
    intermediates d_k(n) e (e the exponent of spf(n) in n) fit int64, and
    one k further the recurrence raises a CapacityError naming k and N
    instead of wrapping.  At N = 2^10 that edge is k = 278 / 279; at
    N = 2^16, k = 100 used to give d_100(2^16) < 0."""
    n, top = 2**10, 278
    exact = [0, 1] + [math.prod(math.comb(a + top - 1, top - 1)
                                for _, a in factorize(m))
                      for m in range(2, n + 1)]
    worst = [exact[m] * factorize(m)[0][1] for m in range(2, n + 1)]
    assert max(worst) <= 2**63 - 1
    assert moduli_tables(n, f"d{top}")[0].tolist() == exact
    for k, size in ((top + 1, n), (100, 2**16)):
        with pytest.raises(CapacityError, match=f"k={k}, N={size}"):
            moduli_tables(size, f"d{k}")


def test_mobius_totient_at_squares_of_primes():
    """mu and phi match the per-prime sieve at the squares of primes,
    where p first divides n twice, and at their neighbours p^2 +- 1 and
    (p + 1)^2."""
    for p in (2, 3, 5, 7, 11, 31, 97, 101):
        for n in (p * p - 1, p * p, p * p + 1, (p + 1) ** 2):
            mu, phi = moduli_tables(n, "mu", "phi")
            loop_mu, loop_phi = mu_phi_sieve_loop(
                n, primes_from_spf(_spf_sieve(n)))
            assert_same(mu, loop_mu)
            assert_typed(phi, "phi", loop_phi)


def test_moduli_tables_at_zero():
    """moduli_tables at n = 0 is slot 0 alone, every table named holding
    0; a negative n is a ValueError."""
    tables = moduli_tables(0, "mu", "phi", "d2", "d3")
    assert len(tables) == 4
    for table in tables:
        assert table.tolist() == [0]
    with pytest.raises(ValueError):
        moduli_tables(-1)


def test_moduli_callers_build_only_what_they_read(monkeypatch, table_300):
    """Each caller of moduli_tables names the one table it reads, and the
    recurrence builds no other: mu for the prime sieve weights and the
    Ramanujan correlations, d_{k-1} alone for the divisor weights, and
    phi for Lambda's prime-power classes when sqrt(N) passes Q."""
    from apvar.variance import _prime_power_class_squares
    from apvar.windows import build_weights

    phi = moduli_tables(10, "phi")[0]
    names = []
    recurrence = arith._spf_recurrence
    monkeypatch.setattr(arith, "_spf_recurrence", lambda spf, wanted:
                        names.append(tuple(wanted)) or recurrence(spf, wanted))
    calls = [(lambda: build_weights("prime_sieve", 100), ("mu",)),
             (lambda: build_weights("divisor_k", 100, k=5), ("d4",)),
             (lambda: ramanujan_correlations(table_300.lam, range(1, 50)),
              ("mu",)),
             (lambda: _prime_power_class_squares(table_300.lam, phi),
              ("phi",))]
    assert math.isqrt(table_300.n) > phi.size - 1
    for call, wanted in calls:
        names.clear()
        call()
        assert names == [wanted]


def test_fft_length_is_least_5_smooth():
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    for n in range(2500):
        expect = 2 * n + 1
        while not smooth(expect):
            expect += 1
        assert transform_length(n) == expect, n


@pytest.mark.parametrize("n", [12, 62])
def test_lag_correlations_at_odd_5_smooth_length(n):
    """With 2N + 1 = 25 or 125 the transforms have odd mixed-radix length;
    every lag is still within its bound of np.correlate, and exact on the
    integer path."""
    assert transform_length(n) == 2 * n + 1
    rng = np.random.default_rng(n)
    seqs = [Sequence.from_coeffs(rng.standard_normal(n)),
            Sequence.from_coeffs(rng.integers(-9, 10, n))]
    for i, seq in enumerate(seqs):
        corr = LagSpectra(seqs).release(i)
        ref, ref_error = lag_correlation_direct(seq.values, seq.values)
        assert corr.exact == (i == 1)
        if corr.exact:
            assert np.array_equal(corr.rho, np.rint(ref).astype(np.int64))
        else:
            assert np.all(np.abs(corr.rho - ref) <= corr.error + ref_error)


def test_release_gives_the_correlation_bit_for_bit(rng, table_1e4):
    """The autocorrelation a chain takes after dropping its spectra
    (LagSpectra.release): the exact int64 row, bit for bit, on an
    integer row (d_3), and within its error of np.correlate on a float
    row; the same bytes, error and exactness for the second of a pair as
    alone; the released object keeps only its bounds."""
    d3 = Sequence(table_1e4.dk[3])
    floats = Sequence.from_coeffs(rng.standard_normal(d3.n))
    for seqs, i in (([floats], 0), ([d3], 0), ([floats, d3], 1),
                    ([d3, floats], 1)):
        seq = seqs[i]
        alone = LagSpectra([seq]).release(0)
        spectra = LagSpectra(seqs)
        eps = spectra.error(i, i)
        released = spectra.release(i)
        assert spectra.spectra == []
        assert spectra.error(i, i) == eps
        ref, ref_error = lag_correlation_direct(seq.values, seq.values)
        if seq is d3:
            assert released.exact and released.rho.dtype == np.int64
            assert np.array_equal(released.rho, np.rint(ref).astype(np.int64))
        else:
            assert not released.exact and released.error == eps
            assert np.all(np.abs(released.rho - ref) <= eps + ref_error)
        assert released.exact == alone.exact
        assert released.rho.tobytes() == alone.rho.tobytes()
        assert released.error == alone.error


@pytest.mark.parametrize("n", [1000, 4099])
def test_release_stays_within_its_fft_bound(n):
    """A dyadic, non-integer sequence a_n = k_n / 2^10 with |k_n| < 2^10
    has its lags exact in integers: r(h) = (sum_n k_n k_{n+h}) / 2^20.
    Every released lag lies within `error` of them, with no reference
    bound added, so the bound's FFT term is what has to cover the
    rounding."""
    rng = np.random.default_rng(n)
    k = np.concatenate([[0], rng.integers(-1023, 1024, n)])
    corr = LagSpectra([Sequence(k / 2.0**10)]).release(0)
    assert not corr.exact
    exact = np.correlate(k, k, "full")[n:] / 2.0**20
    assert np.all(np.abs(corr.rho - exact) <= corr.error)


def test_spectra_keep_no_sequence(rng):
    """LagSpectra keeps spectra, not sequences: a Sequence handed to it
    dies once the caller drops it, and release still gives the exact
    int64 row of that integer sequence."""
    seq = Sequence.from_coeffs(rng.integers(-9, 10, 300))
    ref = np.rint(lag_correlation_direct(seq.values, seq.values)[0])
    alive = weakref.ref(seq)
    spectra = LagSpectra([seq])
    del seq
    assert alive() is None
    corr = spectra.release(0)
    assert corr.exact and corr.rho.dtype == np.int64
    assert np.array_equal(corr.rho, ref.astype(np.int64))
