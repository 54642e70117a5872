import glob
import os
import tempfile

import numpy as np
import pytest

# Share one sieve cache across test sessions so the large acceptance
# sieves are computed once.  A table's checksum covers the source of
# apvar/arith.py, so tables cached by other sieve code are sieved again.
# In the default folder, files that no sieve code reads any longer are
# deleted: tables of the old cache formats (`.npz` files, and one `.bin`
# file per (N, k), whose names end in a digit where an array's end in its
# name) and `.tmp` files left by interrupted writes.  A folder set in
# APVAR_CACHE_DIR is left as it is.
_DEFAULT_CACHE = "APVAR_CACHE_DIR" not in os.environ
_CACHE = os.environ.setdefault(
    "APVAR_CACHE_DIR", os.path.join(tempfile.gettempdir(), "apvar-test-cache"))
os.makedirs(_CACHE, exist_ok=True)
if _DEFAULT_CACHE:
    for _pattern in ("sieve_*.npz", "sieve_*_[0-9]*.bin", "sieve_*.tmp"):
        for _path in glob.glob(os.path.join(_CACHE, _pattern)):
            os.remove(_path)

from apvar.arith import Sequence, sieve_all  # noqa: E402
from apvar.windows import build_window  # noqa: E402

# Verdict lines collected by the acceptance gate; replayed after the
# test summary so they survive output capture into piped logs.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance gate")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def table_300():
    return sieve_all(300, 4)


@pytest.fixture(scope="session")
def table_1e4():
    return sieve_all(10**4, 3)


@pytest.fixture(scope="session")
def table_1e5():
    return sieve_all(10**5, 3)


@pytest.fixture(scope="session")
def window():
    return build_window(0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_pm1_sequence(rng, n):
    vals = rng.choice([-1.0, 1.0], size=n)
    return Sequence.from_coeffs(vals)
