"""Set-up of one benchmark run, timed by its parent from process start:
import the apvar commands and build every sieve table a workload reads.

    python3 perfbench/fill_cache.py <empty cache dir> <n>:<k> [<n>:<k> ...]
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    os.environ["APVAR_CACHE_DIR"] = sys.argv[1]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import apvar.cli  # noqa: F401  (the commands every operation runs)
    from apvar.arith import sieve_all

    for spec in sys.argv[2:]:
        n, k = spec.split(":")
        sieve_all(int(n), int(k))
