"""Golden reports: every case of scripts/make_golden.py, re-run through
`cli.main`, must give the stored exit code, stdout, stderr and output
files byte for byte.  pocketfft may round differently under another
numpy, so a numpy version other than the recorded one fails with both
versions named; there is no tolerance to fall back to."""

import importlib.util
import json
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
