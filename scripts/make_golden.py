#!/usr/bin/env python3
"""Regenerate the golden reports under tests/golden/.

Usage: PYTHONPATH=src python scripts/make_golden.py

Runs each case below through `apvar.cli.main` in this process and stores
its exit code, stdout, stderr and every file it writes except
`manifest.json` (which holds paths and wall time).  `index.json` records
the cases and the numpy version they were made with;
tests/test_golden.py re-runs them and compares the bytes.  Never edit
the golden files by hand: change a case here and run this script.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from apvar.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"

# name, argv (without --out-dir)
CASES = [
    ("theorem1", "experiment theorem1 --N 30000"),
    # K = 1 clips Q0 and puts R outside its window (KQ0, Q/2K].
    ("theorem1-clipped", "experiment theorem1 --N 20000 --K-exp 0"),
    ("theorem2-second-k2",
     "experiment theorem2 --k 2 --ending second --N 29500 --Q-exp 0.8"),
    ("theorem2-first-k3",
     "experiment theorem2 --k 3 --ending first --N 30000 --Q-exp 0.8"),
    ("theorem1-error", "experiment theorem1 --N 1000 --Q-exp 0.5 --K-exp 0"),
    ("verify-all", "verify all"),
    ("table-variance-d3", "table variance --seq d3 --N 9500 --q-max 300"),
    ("table-residues-k3", "table residues --k 3 --N 20000 --q-max 50"),
    ("table-weights-divisor", "table weights --kind divisor --k 3 --R 100"),
    ("table-ramanujan-json",
     "table ramanujan --q-max 12 --n-max 12 --format json"),
    # --R overrides theorem1's R, which then departs from (KQ0, Q/2K].
    ("theorem1-r-override", "experiment theorem1 --N 20000 --R 300"),
    # The verifier's self-test: three FAIL lines and exit 1.
    ("verify-identities-fault", "verify identities --inject-fault"),
    ("table-variance-lambda", "table variance --seq lambda --N 5000 --q-max 60"),
]


def run_case(argv: list, out_dir: Path) -> tuple[int, str, str, dict]:
    """Exit code, stdout, stderr and {file name: bytes} of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--out-dir", str(out_dir)])
    files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))
             if p.name != "manifest.json"}
    return code, out.getvalue(), err.getvalue(), files


def main_golden() -> int:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    GOLDEN.mkdir(parents=True)
    index = {"numpy": np.__version__, "cases": []}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CASES:
            argv = args.split()
            code, out, err, files = run_case(argv, Path(tmp) / name)
            case_dir = GOLDEN / name
            case_dir.mkdir()
            (case_dir / "stdout").write_bytes(out.encode())
            (case_dir / "stderr").write_bytes(err.encode())
            for fname, data in files.items():
                (case_dir / fname).write_bytes(data)
            index["cases"].append({"name": name, "argv": argv, "exit": code,
                                   "files": sorted(files)})
            print(f"{name}: exit {code}, {len(files)} files")
    (GOLDEN / "index.json").write_text(
        json.dumps(index, indent=2) + "\n", newline="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_golden())
