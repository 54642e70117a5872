"""Golden reports: every case of scripts/make_golden.py, re-run through
`cli.main`, must give the stored exit code, stdout, stderr and output
files byte for byte.  pocketfft may round differently under another
numpy, so a numpy version other than the recorded one fails with both
versions named; there is no tolerance to fall back to."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"


def make_golden():
    """scripts/make_golden.py, loaded from its file."""
    path = ROOT / "scripts" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_reports_are_byte_identical(tmp_path):
    index = json.loads((GOLDEN / "index.json").read_text())
    assert np.__version__ == index["numpy"], (
        f"golden reports were made with numpy {index['numpy']}, this is "
        f"numpy {np.__version__}: regenerate them with "
        f"scripts/make_golden.py and say so in CHANGES.md")
    run_case = make_golden().run_case
    diffs = []
    for case in index["cases"]:
        name, golden = case["name"], GOLDEN / case["name"]
        code, out, err, files = run_case(case["argv"], tmp_path / name)
        if code != case["exit"]:
            diffs.append(f"{name}: exit {code}, golden {case['exit']}")
        for stream, text in (("stdout", out), ("stderr", err)):
            if text.encode() != (golden / stream).read_bytes():
                diffs.append(f"{name}: {stream}")
        if sorted(files) != case["files"]:
            diffs.append(f"{name}: files {sorted(files)}, "
                         f"golden {case['files']}")
        diffs.extend(f"{name}: {f}" for f, data in files.items()
                     if f in case["files"]
                     and data != (golden / f).read_bytes())
    assert not diffs, "outputs differ from tests/golden: " + "; ".join(diffs)


# Runs one case of scripts/make_golden.py (argv[1]) with the argv in
# argv[2] and the output folder argv[3]; prints exit code and streams.
_CHILD = """
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("make_golden", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
code, out, err, _ = module.run_case(json.loads(sys.argv[2]), Path(sys.argv[3]))
print(json.dumps([code, out, err]))
"""


def test_theorem1_golden_under_one_blas_thread(tmp_path):
    """The report's bytes do not follow the BLAS thread count: the
    theorem1 case, run in a fresh process with OpenBLAS held to one
    thread (its pool is sized at import), gives the golden bytes, which
    were made with the default pool.  np.dot of long float vectors splits
    its sum across the pool; the dots that reach a report use arith.dot."""
    index = json.loads((GOLDEN / "index.json").read_text())
    case = next(c for c in index["cases"] if c["name"] == "theorem1")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out_dir = tmp_path / "theorem1"
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "scripts" / "make_golden.py"),
         json.dumps(case["argv"]), str(out_dir)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    code, out, err = json.loads(child.stdout.splitlines()[-1])
    golden = GOLDEN / "theorem1"
    assert code == case["exit"]
    assert out.encode() == (golden / "stdout").read_bytes()
    assert err.encode() == (golden / "stderr").read_bytes()
    for name in case["files"]:
        assert (out_dir / name).read_bytes() == (golden / name).read_bytes(), name
