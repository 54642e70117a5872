#!/usr/bin/env python3
"""Run the mutant catalog: one-text edits that break a bound or a margin,
each with the tests that must fail under it.

Usage: python scripts/mutants.py

For each catalog entry, the checkout's `src/`, `tests/`, `perfbench/`
(which `tests/test_cli.py` imports) and `pyproject.toml` are copied to a
temporary directory, and the entry's old text is replaced there by its new
text.  Every entry's old text must occur exactly once in its file; the
script checks them all before it runs any, and exits 2 naming each one
that does not.  The entry's tests then run under pytest in the copy,
with a sieve cache of their own (APVAR_CACHE_DIR), since the mutated code
must neither read nor write the tables of the unmutated one.  An entry is
caught when each of its tests fails.  The script prints `caught`,
`survived`, or `error: ...` (pytest could not run the tests, or one of
them errored rather than failed) per entry, and exits 1 unless every
entry is caught.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                # relative to the checkout
    old: str                 # occurs exactly once in the file
    new: str
    tests: tuple             # pytest node ids, each of which must fail


CATALOG = (
    Mutant("slack-5-to-4", "src/apvar/pipeline.py",
           "slack = (5.0 + math.log(params.k_param))",
           "slack = (4.0 + math.log(params.k_param))",
           ("tests/test_pipeline.py::"
            "test_chain_verdict_rebuilt_from_report_fields[theorem1]",)),
    Mutant("half-ramanujan-tail", "src/apvar/pipeline.py",
           "rhs_central = scale * minor.minor - tail",
           "rhs_central = scale * minor.minor - 0.5 * tail",
           ("tests/test_pipeline.py::"
            "test_chain_verdict_rebuilt_from_report_fields[prop13]",)),
    Mutant("major-weights-bound-zero", "src/apvar/circle.py",
           "return LagWeights(w, 2.0 * err)",
           "return LagWeights(w, 0.0 * err)",
           ("tests/test_circle.py::"
            "test_major_weights_match_direct_kernel[200-arcs0]",)),
    Mutant("lag-fft-term-zero", "src/apvar/arith.py",
           "return scale * math.sqrt(aa * bb) + float(underflow(",
           "return 0.0 * scale * math.sqrt(aa * bb) + float(underflow(",
           ("tests/test_arith.py::"
            "test_release_stays_within_its_fft_bound[1000]",
            "tests/test_arith.py::"
            "test_release_stays_within_its_fft_bound[4099]")),
    Mutant("sweep-t-bound-zero", "src/apvar/variance.py",
           "    if not exact:\n        eps, l1 = corr.error, seq.l1()",
           "    if False:\n        eps, l1 = corr.error, seq.l1()",
           ("tests/test_variance.py::"
            "test_float_sweep_within_bound_at_zero_variance",)),
    Mutant("arc-mass-error-hundredth", "src/apvar/circle.py",
           "error=2.0 * (err + UNIT_ROUNDOFF",
           "error=0.02 * (err + UNIT_ROUNDOFF",
           ("tests/test_circle.py::"
            "test_arc_masses_within_their_bound_on_dyadic_sequences",)),
    Mutant("sieve-array-digest-unchecked", "src/apvar/arith.py",
           "if a.size != length or _array_digest(name, a) != digest:",
           "if a.size != length:",
           ("tests/test_arith.py::"
            "test_sieve_cache_damaged_array_is_sieved_again[flip]",
            "tests/test_arith.py::"
            "test_sieve_cache_damaged_array_is_computed_alone[flip-d3]")),
    Mutant("sieve-source-digest-unchecked", "src/apvar/arith.py",
           "[_CACHE_FORMAT, _source_digest().hex(), name, n + 1]",
           "[_CACHE_FORMAT, source, name, n + 1]",
           ("tests/test_arith.py::"
            "test_sieve_cache_rejects_tables_of_other_sieve_code",)),
    Mutant("sieve-recompute-stores-every-array", "src/apvar/arith.py",
           "_cache_store(self.n, arrays)",
           "_cache_store(self.n, {**self._arrays, **arrays})",
           ("tests/test_arith.py::"
            "test_partial_cache_computes_only_its_missing_array",
            "tests/test_arith.py::"
            "test_sieve_cache_damaged_array_is_computed_alone[flip-d3]")),
    Mutant("sieve-recompute-sieves-valid-spf", "src/apvar/arith.py",
           'arrays = _computed(self.n, names, self._read("spf"))',
           "arrays = _computed(self.n, names, None)",
           ("tests/test_arith.py::"
            "test_partial_cache_computes_only_its_missing_array",
            "tests/test_arith.py::"
            "test_sieve_cache_damaged_array_is_computed_alone[delete-mu]",
            "tests/test_arith.py::"
            "test_load_sequence_reads_or_computes_its_array_alone")),
    Mutant("sieve-all-stores-nothing", "src/apvar/arith.py",
           "    arrays.compute([name for name, e in arrays.entries.items() "
           "if e is None])",
           "    arrays._arrays.update(_computed(n, [\n"
           "        name for name, e in arrays.entries.items() if e is None]))",
           ("tests/test_arith.py::"
            "test_partial_cache_computes_only_its_missing_array",
            "tests/test_arith.py::test_sieve_cache_roundtrip")),
    Mutant("totient-factor-p", "src/apvar/arith.py",
           "table[a:b] = tm * np.where(same, p, p - 1)",
           "table[a:b] = tm * np.where(same, p, p)",
           ("tests/test_arith.py::"
            "test_mobius_totient_at_squares_of_primes",)),
)


def check_catalog() -> list:
    """The entries whose old text does not occur exactly once in its
    file, one line each."""
    problems = []
    for m in CATALOG:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times "
                            f"in {m.path}")
    return problems


def summary_tests(stdout: str, outcome: str) -> set:
    """The node ids of pytest's `-rfE` summary lines for `outcome`
    (`FAILED` or `ERROR`)."""
    return {line.split()[1] for line in stdout.splitlines()
            if line.startswith(outcome + " ")}


def run_mutant(m: Mutant) -> str:
    """`caught`, `survived`, or `error: ...` when pytest could not run
    the entry's tests or one of them errored."""
    with tempfile.TemporaryDirectory(prefix="apvar-mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            src, dst = ROOT / name, tmp / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, dst)
        target = tmp / m.path
        target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, APVAR_CACHE_DIR=str(tmp / "cache"),
                   PYTHONPATH=str(tmp / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE",
             "-p", "no:cacheprovider", *m.tests],
            cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
        return f"error: pytest exit {proc.returncode}: {' '.join(tail)}"
    errored = set(m.tests) & summary_tests(proc.stdout, "ERROR")
    if errored:
        return f"error: {', '.join(sorted(errored))} errored"
    return ("caught" if set(m.tests) <= summary_tests(proc.stdout, "FAILED")
            else "survived")


def main() -> int:
    problems = check_catalog()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    caught, bad = 0, 0
    for m in CATALOG:
        t0 = time.perf_counter()
        result = run_mutant(m)
        caught += result == "caught"
        bad += result != "caught"
        print(f"{m.name}: {result} ({time.perf_counter() - t0:.0f} s)",
              flush=True)
    print(f"{caught} of {len(CATALOG)} caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
