"""CLI surface: verification suites, tables, experiments, manifests."""

import json
import os

import pytest

from apvar.cli import main


def run_cli(args, tmp_path, capsys):
    code = main(args + ["--out-dir", str(tmp_path)])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_identities_pass(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "identities"], tmp_path, capsys)
    assert code == 0
    assert "PASS" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "verify identities"
    assert "apvar" in manifest["versions"]


def test_verify_fault_injection(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "identities", "--inject-fault"],
                           tmp_path, capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_windows_suite(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "windows"], tmp_path, capsys)
    assert code == 0


def test_verify_windows_reports_plateau_mass(tmp_path, capsys, monkeypatch):
    """A window whose plateau mass leaves (0.94, 1) fails the suite: at
    eps = 0.1 the mass is 0.90, and `verify windows` names it and exits 1."""
    import apvar.cli
    from apvar.windows import build_window

    monkeypatch.setattr(apvar.cli, "build_window",
                        lambda eps: build_window(0.1))
    code, out, _ = run_cli(["verify", "windows"], tmp_path, capsys)
    assert code == 1
    assert "verify windows: FAIL" in out
    assert any(line.startswith("  plateau mass ")
               for line in out.splitlines())


def test_verify_reports_bad_divisors(tmp_path, capsys, monkeypatch):
    """An H(d) off at one divisor d of q fails Proposition 1's identity,
    and the check names d; `verify identities` prints it and exits 1."""
    from apvar import variance
    from apvar.arith import load_sequence

    exact_h = variance.exp_variance_H
    monkeypatch.setattr(variance, "exp_variance_H",
                        lambda seq, q: exact_h(seq, q) + (q == 6))
    seq = load_sequence("d2", 300)
    assert variance.check_identity_prop1(seq, 5)
    check = variance.check_identity_prop1(seq, 12)
    assert not check.ok and check.bad_divisors == [6]
    code, out, _ = run_cli(["verify", "identities"], tmp_path, capsys)
    assert code == 1
    assert "verify identities: FAIL" in out
    assert "divisor identity failed: seq=d2 q=12 residual=-1 bad=[6]" in out


def test_manifest_config_lists_the_accepted_flags(tmp_path, capsys):
    """A manifest's config is the parsed command line: the flags that
    command accepts, with their values or defaults."""
    for argv, config in (
            (["verify", "windows"], {"command": "verify", "suite": "windows"}),
            (["table", "weights", "--R", "10"],
             {"command": "table", "what": "weights", "kind": "prime", "k": 2,
              "R": "10", "out": None, "format": "csv"})):
        code, _, _ = run_cli(argv, tmp_path, capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == " ".join(argv[:2])
        assert manifest["config"] == config | {"out_dir": str(tmp_path)}


def test_entry_points_run_main(tmp_path):
    """`python -m apvar` reaches the same commands as `main`."""
    import subprocess
    import sys
    from pathlib import Path

    import apvar

    env = dict(os.environ, PYTHONPATH=str(Path(apvar.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "apvar", "verify", "windows", "--out-dir",
         str(tmp_path / "verify")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "verify windows: PASS\n"


def test_table_ramanujan(tmp_path, capsys):
    code, out, _ = run_cli(["table", "ramanujan", "--q-max", "12",
                            "--n-max", "12"], tmp_path, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,n,c_q_n"
    assert len(lines) == 1 + 144
    assert lines[1] == "1,1,1"
    # all integer entries
    assert all(int(line.split(",")[2]) is not None for line in lines[1:])


def test_table_variance_exact_output(tmp_path, capsys):
    code, out, _ = run_cli(["table", "variance", "--seq", "d2", "--N", "1000",
                            "--q-max", "50"], tmp_path, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 51
    assert lines[0] == "q,V,method"
    # exact rationals serialized num/den
    assert "/" in lines[3].split(",")[1]
    assert all(line.split(",")[2] == "exact" for line in lines[1:])


@pytest.mark.parametrize("seq, n", [("lambda", 1000)])
def test_table_variance_float_rows_from_sweep(seq, n, tmp_path, capsys):
    """Lambda, whose sweep is not exact, is tabulated from the sweep's
    floats."""
    from apvar.arith import load_sequence
    from apvar.variance import variance_sweep

    code, out, _ = run_cli(["table", "variance", "--seq", seq, "--N", str(n),
                            "--q-max", "30"], tmp_path, capsys)
    assert code == 0
    sweep = variance_sweep(load_sequence(seq, n), 30)
    assert out.splitlines()[1:] == [f"{q},{sweep.v[q]:.12g},float"
                                    for q in range(1, 31)]


def test_table_variance_exact_rows_follow_sweep(tmp_path, capsys):
    """d_2 at N = 2 * 10^4 has an exact sweep, so every row is the exact
    rational, the per-modulus V(q) of the same sequence."""
    from fractions import Fraction

    from apvar.arith import load_sequence
    from apvar.variance import variance_mod_q, variance_sweep

    n = 20000
    seq = load_sequence("d2", n)
    assert variance_sweep(seq, 30).exact_correlations
    code, out, _ = run_cli(["table", "variance", "--seq", "d2", "--N", str(n),
                            "--q-max", "30"], tmp_path, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(q) for q, _, _ in rows] == list(range(1, 31))
    for q, v, method in rows:
        assert method == "exact", q
        assert Fraction(v) == variance_mod_q(seq, int(q)), q


def test_table_variance_integer_file_rows_are_exact(tmp_path, capsys):
    """A file of integer coefficients gives exact rows, the Fractions of
    variance_mod_q (q = 5: 331/4); one holding 0.5 gives float rows."""
    from fractions import Fraction

    from apvar.arith import load_sequence
    from apvar.variance import variance_mod_q

    path = tmp_path / "ints.csv"
    path.write_text("1,3\n2,-1\n3,4\n5,2\n7,-6\n8,1\n")
    seq = load_sequence(f"file:{path}", 8)
    code, out, _ = run_cli(["table", "variance", "--seq", f"file:{path}",
                            "--N", "8", "--q-max", "6"], tmp_path, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(q) for q, _, _ in rows] == list(range(1, 7))
    for q, v, method in rows:
        assert method == "exact", q
        assert Fraction(v) == variance_mod_q(seq, int(q)), q
    assert rows[4][1] == "331/4"
    path.write_text("1,0.5\n2,1\n")
    code, out, _ = run_cli(["table", "variance", "--seq", f"file:{path}",
                            "--N", "8", "--q-max", "6"], tmp_path, capsys)
    assert code == 0
    assert {line.split(",")[2] for line in out.splitlines()[1:]} == {"float"}


@pytest.mark.parametrize("text", ["1\n2\n3\n", "1,1\n2,nan\n3,2\n",
                                  "1,1\n2,inf\n", "1,1\n2.5,3\n", "",
                                  "# a comment\n", "1,2\n1,5\n"],
                         ids=["one-column", "nan", "inf", "fractional-index",
                              "empty", "comment-only", "repeated-index"])
def test_table_variance_bad_file_fails_cleanly(text, tmp_path, capsys):
    path = tmp_path / "seq.csv"
    path.write_text(text)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["table", "variance", "--seq", f"file:{path}",
                              "--N", "5", "--q-max", "3", "--out", "t.csv"],
                             out_dir, capsys)
    assert code == 2
    assert err.startswith("error: --seq: ")
    assert out == "" and not out_dir.exists()


def test_benchmark_self_test_passes(tmp_path):
    """perfbench/run.py --self-test injects a wrong chain LHS and a wrong
    exact table row, and both must fail their oracles.  It runs in a copy,
    since the harness clears its work directory under its own root."""
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).parents[1]
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info",
                                  ".perfbench_work")
    for name in ("perfbench", "src"):
        shutil.copytree(root / name, tmp_path / name, ignore=skip)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-test PASS"


def test_table_weights_and_determinism(tmp_path, capsys):
    code, out1, _ = run_cli(["table", "weights", "--kind", "prime",
                             "--R", "100"], tmp_path, capsys)
    assert code == 0
    assert len(out1.strip().split("\n")) == 101
    code, out2, _ = run_cli(["table", "weights", "--kind", "prime",
                             "--R", "100"], tmp_path, capsys)
    assert out1 == out2  # byte-identical on identical flags


@pytest.mark.parametrize("r_max", [2, 30, 105])
def test_table_weights_print_no_negative_zero(r_max, tmp_path, capsys):
    """b_R = mu(R) log(R/R) is +0, also where mu(R) = -1."""
    code, out, _ = run_cli(["table", "weights", "--R", str(r_max)], tmp_path,
                           capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == r_max and rows[-1] == f"{r_max},0"
    assert all(row.split(",")[1] != "-0" for row in rows)


def test_table_json_format(tmp_path, capsys):
    code, out, _ = run_cli(["table", "ramanujan", "--q-max", "3",
                            "--n-max", "2", "--format", "json"],
                           tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 6


def test_table_residues(tmp_path, capsys):
    code, out, _ = run_cli(["table", "residues", "--k", "2", "--N", "1e4",
                            "--q-max", "4"], tmp_path, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,k,N,value,error"
    assert len(lines) == 5


def test_table_residues_zero_at_k1(tmp_path, capsys):
    """At k = 1, zeta(s) F_q(s) = sum c_q(n) n^-s is entire for q > 1, so
    its residue is 0: the table runs at N = 10^6, and each q > 1 row is 0
    within its own error, which includes the contour's rounding floor."""
    code, out, _ = run_cli(["table", "residues", "--k", "1", "--N", "1e6",
                            "--q-max", "6"], tmp_path, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][:4] == ["1", "1", "1000000", "1000000"]
    for q, _, _, value, error in rows[1:]:
        assert abs(float(value)) <= float(error), q


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_table_residues_at_least_N(k, tmp_path, capsys):
    """N = 5, the least --N, resolves every modulus q <= N."""
    code, out, _ = run_cli(["table", "residues", "--k", str(k), "--N", "5",
                            "--q-max", "5"], tmp_path, capsys)
    assert code == 0
    assert len(out.splitlines()) == 6


def test_table_range_guard(tmp_path, capsys):
    code, _, err = run_cli(["table", "ramanujan", "--q-max", "99999",
                            "--n-max", "10"], tmp_path, capsys)
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["residues", "--k", "2", "--N", "100", "--q-max", "150"], "--q-max"),
    (["residues", "--N", "1"], "--N"),
    (["variance", "--seq", "d5"], "--seq"),
    (["variance", "--N", "0"], "--N"),
    (["weights", "--R", "1"], "--R"),
    (["weights", "--R", "nan"], "--R"),
    (["residues", "--N", "2"], "--N"),
    (["variance", "--N", "abc"], "--N"),
    (["variance", "--N", "inf"], "--N"),
    (["variance", "--seq", "file:no/such/sequence.csv"], "--seq"),
    (["variance", "--seq", "d2", "--N", "100", "--q-max", "0"], "--q-max"),
    (["ramanujan", "--q-max", "3", "--n-max", "0"], "--n-max"),
    (["residues", "--N", "3"], "--N"),
    (["residues", "--k", "0", "--N", "100", "--q-max", "3"], "--k"),
    (["residues", "--k", "-2", "--N", "100", "--q-max", "3"], "--k"),
    (["weights", "--kind", "divisor", "--k", "1", "--R", "10"], "--k"),
    (["residues", "--k", "1", "--N", "4", "--q-max", "2"], "--N"),
    (["variance", "--N", "12.7"], "--N"),
    (["weights", "--R", "100.5"], "--R"),
    (["residues", "--N", "100.5"], "--N"),
])
def test_table_bad_flags_fail_cleanly(argv, flag, tmp_path, capsys):
    code, out, err = run_cli(["table", *argv, "--out", "t.csv"], tmp_path,
                             capsys)
    assert code == 2
    assert err.startswith("error: ") and flag in err
    assert out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag", [
    (["ramanujan", "--q-max", "10000", "--n-max", "100000"], "--n-max"),
    (["residues", "--N", "2e7", "--q-max", "20000000"], "--q-max"),
    (["variance", "--seq", "d2", "--N", "100", "--q-max", "1000000000000"],
     "--q-max"),
])
def test_table_capacity_fails_before_work(argv, flag, tmp_path, capsys,
                                          monkeypatch):
    """A table past its row or moduli limit exits 2 before computing a
    single row, naming the flag and the limit."""
    from apvar import cli

    def no_work(*args, **kwargs):
        raise AssertionError("table work started past a capacity limit")

    for name in ("ramanujan_row", "residues", "variance_rows",
                 "load_sequence"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(["table", *argv, "--out", "t.csv"], tmp_path,
                             capsys)
    assert code == 2
    assert err.startswith("error: ") and flag in err and "limit" in err
    assert out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, named", [
    (["residues", "--k", "280", "--N", "1e6", "--q-max", "2"], "contour"),
    (["residues", "--k", "1100", "--N", "1e6", "--q-max", "2"], "contour"),
    (["weights", "--kind", "divisor", "--k", "101", "--R", "65536"],
     "int64"),
    (["weights", "--kind", "divisor", "--k", "280", "--R", "1024"],
     "--k=280 --R=1024:"),
    (["residues", "--k", "280", "--N", "1e6", "--q-max", "3"],
     "--k=280 --N=1000000:"),
])
def test_table_past_float_range_fails_cleanly(argv, named, tmp_path, capsys):
    """A --k whose residues leave float64, or whose d_k leaves int64,
    ends with `error:` and exit 2, not nan rows, wrapped values or a
    traceback; the residue table's error names --k and --N, the weights
    table's --k and --R."""
    code, out, err = run_cli(["table", *argv, "--out", "t.csv"], tmp_path,
                             capsys)
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, rows", [
    (["residues", "--k", "3", "--N", "1e6", "--q-max", "400"], 400),
    (["variance", "--seq", "d3", "--N", "9500", "--q-max", "1000"], 1000),
    (["ramanujan", "--q-max", "400", "--n-max", "2500"], 10**6),
])
def test_table_sizes_within_limits_run(argv, rows, tmp_path, capsys):
    """The benchmark's table sizes, and a Ramanujan table at its row limit,
    stay within the capacity limits."""
    code, out, _ = run_cli(["table", *argv], tmp_path, capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + rows


def benchmark_spans():
    """perfbench/spans.py, loaded from its file."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_names_are_bound():
    """perfbench/spans.py wraps these names in apvar.pipeline and
    apvar.cli for a traced run; deleting one breaks that run."""
    import importlib

    spans = benchmark_spans()
    for mod_name, layers in spans.LAYERS.items():
        mod = importlib.import_module(mod_name)
        for _, names in layers.values():
            for name in names:
                assert callable(getattr(mod, name, None)), f"{mod_name}.{name}"


def test_benchmark_table_bytes_of_cached_and_fresh_tables(tmp_path,
                                                         monkeypatch):
    """The traced run counts a sieve table's bytes through every array and
    dk.values(); a table read from the cache counts as a fresh one."""
    from apvar import arith

    table_bytes = benchmark_spans()._table_bytes
    monkeypatch.delenv("APVAR_CACHE_DIR", raising=False)
    fresh = table_bytes((), {}, arith.sieve_all(500, 3))
    monkeypatch.setenv("APVAR_CACHE_DIR", str(tmp_path))
    arith.sieve_all(500, 3)

    def computed(*args):
        raise AssertionError("a cached table computes no array")

    monkeypatch.setattr(arith, "_spf_sieve", computed)
    monkeypatch.setattr(arith, "_spf_recurrence", computed)
    assert table_bytes((), {}, arith.sieve_all(500, 3)) == fresh
    # spf, mu, phi, Lambda, d_2 and d_3 in int32, int8, int32, float64,
    # int16 and int32.
    assert fresh["arith.sieve_bytes"] == 501 * (4 + 1 + 4 + 8 + 2 + 4)


def test_experiment_theorem2_files(tmp_path, capsys):
    code, out, _ = run_cli(
        ["experiment", "theorem2", "--k", "2", "--ending", "second",
         "--N", "2e4", "--Q-exp", "0.8"], tmp_path, capsys)
    assert code == 0
    report = json.loads((tmp_path / "bound_report.json").read_text())
    assert report["schema_version"] == 4
    assert report["chain_sound"] is True
    assert float(report["ratio"]) > 0
    summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 2
    plot = (tmp_path / "plot_data.csv").read_text()
    assert plot.startswith("q,V\n")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"command", "config", "versions", "wall_time_s",
                             "peak_rss_mb", "outputs"}
    assert len(manifest["outputs"]) == 3
    # ru_maxrss of this process so far: at least numpy's import.
    assert isinstance(manifest["peak_rss_mb"], float)
    assert manifest["peak_rss_mb"] > 10.0


def test_experiment_first_ending_plot(tmp_path, capsys):
    code, _, _ = run_cli(
        ["experiment", "theorem2", "--k", "2", "--ending", "first",
         "--N", "2e4", "--Q-exp", "0.8"], tmp_path, capsys)
    assert code == 0
    plot = (tmp_path / "plot_data.csv").read_text()
    assert plot.startswith("alpha,polynomial\n")


def test_experiment_first_ending_plot_spans_r_window(tmp_path, capsys):
    """The plot tabulates the polynomial over R's own window, on 200 points
    of log R; at k = 3 the chain runs at R = sqrt N, the last row."""
    import math

    from apvar.dirichlet import r_window

    n = 2 * 10**4
    code, _, _ = run_cli(
        ["experiment", "theorem2", "--k", "3", "--ending", "first",
         "--N", str(n), "--Q-exp", "0.8"], tmp_path, capsys)
    assert code == 0
    report = json.loads((tmp_path / "bound_report.json").read_text())
    p = report["params"]
    r_lo, r_hi = r_window(n, p["Q0"], p["Q"], p["K"], 0.05)
    assert p["R"] == r_hi == math.sqrt(n)
    lines = (tmp_path / "plot_data.csv").read_text().splitlines()
    assert lines[0] == "alpha,polynomial" and len(lines) == 201
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert lines[1].startswith(f"{math.log(r_lo) / math.log(n):.12g},")
    assert lines[-1] == f"0.5,{report['extras']['polynomial_value']:.12g}"
    assert alphas == sorted(alphas)


@pytest.mark.parametrize("argv", [
    ["theorem1", "--N", "2e4"],
    ["theorem2", "--k", "2", "--ending", "second", "--N", "2e4",
     "--Q-exp", "0.8"],
    ["theorem2", "--k", "3", "--ending", "first", "--N", "2e4",
     "--Q-exp", "0.8"],
])
def test_experiment_resolves_and_sieves_once(argv, tmp_path, capsys,
                                             monkeypatch):
    """One experiment has one parameter point and one sieve table: the
    CLI resolves and sieves once and the runner takes both."""
    import apvar.cli
    import apvar.pipeline

    calls = {"resolve_params": 0, "sieve_all": 0}
    for name in calls:
        original = getattr(apvar.pipeline, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in (apvar.cli, apvar.pipeline):
            monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli(["experiment", *argv], tmp_path, capsys)
    assert code == 0
    assert calls == {"resolve_params": 1, "sieve_all": 1}


def test_experiment_stdout_mirrors_summary_csv(tmp_path, capsys):
    """stdout is the summary.csv header zipped with its row, one
    `name: value` line each."""
    code, out, _ = run_cli(["experiment", "theorem1", "--N", "2e4"],
                           tmp_path, capsys)
    assert code == 0
    header, row = (tmp_path / "summary.csv").read_text().splitlines()
    assert out.splitlines() == [f"{name}: {value}" for name, value
                                in zip(header.split(","), row.split(","))]


def test_experiment_validation_errors(tmp_path, capsys, monkeypatch):
    """Each bad flag exits 2 naming it, before the sieve."""
    import apvar.cli

    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved before the flags were checked")

    monkeypatch.setattr(apvar.cli, "sieve_all", no_sieve)
    code, _, err = run_cli(["experiment", "theorem1", "--Q-exp", "1.2"],
                           tmp_path, capsys)
    assert code == 2
    code, _, err = run_cli(
        ["experiment", "theorem2", "--Q-exp", "0.55", "--delta", "0.1",
         "--N", "1e4"], tmp_path, capsys)
    assert code == 2
    assert "error" in err
    for argv in (["--N", "abc"], ["--N", "inf"], ["--N", "1"],
                 ["--N", "20000.9"],
                 ["--N", "1e4", "--R", "inf"], ["--K-exp", "nan"],
                 ["--K-exp", "700"], ["--K-exp", "-700"],
                 ["--epsilon", "0.3"], ["--Q-exp", "nan"]):
        code, out, err = run_cli(["experiment", "theorem1", *argv],
                                 tmp_path, capsys)
        assert code == 2, argv
        assert err.startswith("error: ") and argv[-2] in err
        assert out == "" and not any(tmp_path.iterdir())
    # --k 20 at N = 7e4: Q N (log N)^399 is past float64.
    for argv in (["--delta", "-1"], ["--delta", "nan"], ["--k", "1"],
                 ["--K-exp", "700"], ["--K-exp", "-700"],
                 ["--N", "7e4", "--Q-exp", "0.8", "--k", "20"]):
        code, out, err = run_cli(["experiment", "theorem2", *argv],
                                 tmp_path, capsys)
        assert code == 2, argv
        assert err.startswith("error: ") and argv[-2] in err
        assert out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, named", [
    (["theorem2", "--ending", "first", "--N", "3e4", "--R", "50"], "--R"),
    (["theorem2", "--ending", "second", "--N", "3e4", "--R", "1e6"],
     "R=1e+06"),
    (["theorem1", "--N", "1e5", "--R", "2e5"], "R=200000"),
    (["theorem2", "--ending", "second", "--N", "3e4", "--R", "20"],
     "(16, 15.4562]: R=20, delta=0.1"),
    (["theorem2", "--ending", "first", "--N", "1e5", "--Q-exp", "0.8",
      "--epsilon", "0.2", "--K-exp", "1"],
     "empty R window [max(Q0 N^eps, KQ0 + 2), min(Q N^-eps, sqrt N)] = "
     "[754.447, 316.228]"),
])
def test_experiment_bad_r_fails_before_sieving(argv, named, tmp_path, capsys,
                                               monkeypatch):
    """An --R the run cannot use (the first ending chooses its own; R must
    lie in (KQ0, N], and leave the second ending a modulus in
    (KQ0, R N^(-delta/4)]), or a first ending whose R window is empty,
    ends with one error naming R, before the sieve."""
    import apvar.cli

    def no_sieve(*args):
        raise AssertionError("sieved before checking --R")
    monkeypatch.setattr(apvar.cli, "sieve_all", no_sieve)
    code, out, err = run_cli(["experiment", *argv], tmp_path, capsys)
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, out_dir, flag", [
    (["table", "ramanujan"], "file/runs", "--out-dir"),
    (["table", "ramanujan", "--out", "t.csv"], "file", "--out-dir"),
    (["verify", "windows"], "file/runs", "--out-dir"),
    (["experiment", "theorem1", "--N", "20000"], "file/runs", "--out-dir"),
    (["table", "weights", "--R", "10", "--out", "sub/t.csv"], "runs",
     "--out"),
    (["table", "weights", "--R", "10", "--out", "."], "runs", "--out"),
    # --out-dir does not exist yet: `..` and `.` are still directories.
    (["table", "weights", "--R", "10", "--out", ".."], "new", "--out"),
    (["table", "weights", "--R", "10", "--out", "."], "new", "--out"),
])
def test_bad_output_paths_fail_before_work(argv, out_dir, flag, tmp_path,
                                           capsys, monkeypatch):
    """An --out-dir below or at a regular file, or an --out the table
    cannot be written to, ends with one error naming the flag before any
    work, and creates nothing."""
    import apvar.cli

    def no_sieve(*args):
        raise AssertionError("sieved before checking the output paths")
    monkeypatch.setattr(apvar.cli, "sieve_all", no_sieve)
    (tmp_path / "file").write_text("")
    (tmp_path / "runs").mkdir()
    code = main(argv + ["--out-dir", str(tmp_path / out_dir)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith(f"error: {flag}=") and out == ""
    assert sorted(os.listdir(tmp_path)) == ["file", "runs"]
    assert not any((tmp_path / "runs").iterdir())


def cli_leaves() -> dict:
    """{"command leaf": (flags, required flags)} read from the parser."""
    import argparse

    from apvar.cli import build_parser

    def subcommands(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))

    leaves = {}
    for command, sub in subcommands(build_parser()).items():
        for name, leaf in subcommands(sub).items():
            actions = {s: a for a in leaf._actions for s in a.option_strings
                       if s.startswith("--") and s != "--help"}
            leaves[f"{command} {name}"] = (
                actions, [s for s, a in actions.items() if a.required])
    return leaves


# The flags each command reads, as the README lists them.
LEAF_FLAGS = {
    "verify identities": "--inject-fault",
    "verify euler": "",
    "verify windows": "",
    "verify all": "--inject-fault",
    "experiment theorem1": "--N --Q-exp --epsilon --K-exp --R",
    "experiment theorem2": ("--N --Q-exp --epsilon --K-exp --R --k --delta "
                            "--ending"),
    "table ramanujan": "--q-max --n-max --out --format",
    "table variance": "--q-max --seq --N --out --format",
    "table weights": "--kind --k --R --out --format",
    "table residues": "--q-max --N --k --out --format",
}


def test_each_leaf_accepts_the_flags_it_reads():
    leaves = cli_leaves()
    assert {name: set(flags) for name, (flags, _) in leaves.items()} == {
        name: {*flags.split(), "--out-dir"}
        for name, flags in LEAF_FLAGS.items()}
    assert {name: required for name, (_, required) in leaves.items()
            if required} == {"table weights": ["--R"]}


def foreign_flags() -> list:
    """For each leaf, and each flag that some other leaf accepts but this
    one does not, that leaf's argv with the flag (and a value if it takes
    one) after the leaf's required flags."""
    leaves = cli_leaves()
    every = {s: a for flags, _ in leaves.values() for s, a in flags.items()}
    return [pytest.param(
        [*name.split(), *(x for s in required for x in (s, "10")), flag,
         *(["1"] if every[flag].nargs != 0 else [])], id=f"{name} {flag}")
        for name, (flags, required) in leaves.items()
        for flag in sorted(every) if flag not in flags]


@pytest.mark.parametrize("argv", [
    ["experiment", "theorem1", "--format", "json"],
    ["table", "variance", "--Q-exp", "0.8"],
    ["table", "weights", "--R", "10", "--delta", "0.2"],
    ["table", "variance", "--epsilon", "0.1"],
    ["table", "residues", "--K-exp", "2"],
    *foreign_flags(),
])
def test_subcommands_reject_flags_they_do_not_read(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, tmp_path, capsys)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_experiment_outputs_are_deterministic(tmp_path, capsys):
    """Identical flags give byte-identical reports, summaries and plots."""
    argv = ["experiment", "theorem2", "--N", "2e4", "--Q-exp", "0.8"]
    for run in ("a", "b"):
        assert main(argv + ["--out-dir", str(tmp_path / run)]) == 0
    for name in ("bound_report.json", "summary.csv", "plot_data.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_cli_and_theorem1_leave_scipy_unloaded(tmp_path):
    """No module of apvar imports scipy: not the CLI, not the chains, not
    `verify windows`."""
    import subprocess
    import sys
    from pathlib import Path

    import apvar

    code = ("import sys\n"
            "import apvar.cli\n"
            "from apvar.arith import sieve_all\n"
            "from apvar.pipeline import (ExperimentConfig, resolve_params,\n"
            "                            run_theorem1)\n"
            "run_theorem1(resolve_params(ExperimentConfig(\n"
            "    experiment='theorem1', n=3000)), sieve_all(3000, 2))\n"
            "apvar.cli.main(['verify', 'windows', '--out-dir', sys.argv[1]])\n"
            "print('scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(apvar.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["verify windows: PASS", "False"]


def test_experiment_plot_rows_from_run_sequence(tmp_path, capsys):
    """Above N = 10^5 the V(q) rows come from the run's own Lambda,
    truncated at 10^5."""
    from apvar.arith import load_sequence
    from apvar.variance import variance_sweep

    code, _, _ = run_cli(["experiment", "theorem1", "--N", "120000"],
                         tmp_path, capsys)
    assert code == 0
    rows = (tmp_path / "plot_data.csv").read_text().splitlines()
    sweep = variance_sweep(load_sequence("lambda", 10**5), 400)
    assert rows == ["q,V"] + [f"{q},{sweep.v[q]:.12g}" for q in range(1, 401)]


@pytest.mark.parametrize("k", [5, 2])
def test_experiment_second_ending_plot_rows_above_1e5(k, tmp_path, capsys):
    """Above N = 10^5 the second ending tabulates V(q) of the run's own
    d_k truncated at 10^5, for any k, d_5 included: the run exits 0 and
    writes its three files and its manifest."""
    from apvar.arith import sieve_all
    from apvar.variance import variance_sweep

    code, _, _ = run_cli(["experiment", "theorem2", "--k", str(k),
                          "--ending", "second", "--N", "110000",
                          "--Q-exp", "0.8"], tmp_path, capsys)
    assert code == 0
    assert {p.name for p in tmp_path.iterdir()} == {
        "bound_report.json", "summary.csv", "plot_data.csv", "manifest.json"}
    rows = (tmp_path / "plot_data.csv").read_text().splitlines()
    sweep = variance_sweep(sieve_all(10**5, k).dk_sequence(k), 400)
    assert rows == ["q,V"] + [f"{q},{sweep.v[q]:.12g}" for q in range(1, 401)]


@pytest.mark.parametrize("argv, name", [
    (["theorem1", "--N", "2e4"], "lambda"),
    (["theorem2", "--k", "2", "--ending", "second", "--N", "2e4",
      "--Q-exp", "0.8"], "d2"),
])
def test_experiment_plot_rows_from_chain_sweep(argv, name, tmp_path, capsys):
    """Up to N = 10^5 the V(q) rows are the chain sweep's own, the same
    bytes as a fresh sweep of the run's sequence; the report carries them
    as its plot table, and its JSON and CSV gain no key for it."""
    from apvar.arith import load_sequence
    from apvar.pipeline import BoundReport
    from apvar.variance import variance_sweep

    code, _, _ = run_cli(["experiment", *argv], tmp_path, capsys)
    assert code == 0
    report = json.loads((tmp_path / "bound_report.json").read_text())
    assert set(report) == {
        "schema_version", "kind", "params", "lhs_variance_sum",
        "minor_integral", "minor_error", "ramanujan_tail", "slack",
        "oterm_allowance", "fitted_oterm_constant", "cs_numerator",
        "cs_denominator", "final_lower_bound", "comparison_target", "ratio",
        "chain_sound", "clips", "regime_departures", "extras"}
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header == ",".join(BoundReport.CSV_FIELDS)
    rows = (tmp_path / "plot_data.csv").read_text().splitlines()
    q_max = min(int(report["params"]["Q"]), 400)
    sweep = variance_sweep(load_sequence(name, 20000), q_max)
    assert rows == ["q,V"] + [f"{q},{sweep.v[q]:.12g}"
                              for q in range(1, q_max + 1)]


def test_euler_tail_bound_covers_partial_sums(table_1e5, monkeypatch):
    """|sum_{n<=x} d_k(n) c_q(n)/n^2 - zeta(2)^k F_q(2)| is the tail past
    x, which _euler_tail_bound must cover at every x; and `verify euler`
    fails at all six (q, k) once its prediction is off by 10%, more than
    B, which is at most 5.5% of the prediction there."""
    import numpy as np

    from apvar import cli
    from apvar.arith import ramanujan_row
    from apvar.dirichlet import euler_F_q, zeta_near_one

    n = table_1e5.n
    for q in (1, 4, 6, 12):
        terms = ramanujan_row(q, n) / np.arange(1, n + 1, dtype=float) ** 2
        for k in (2, 3):
            pred = (zeta_near_one(2.0) ** k * euler_F_q(q, k, 2.0)).real
            partial = np.cumsum(table_1e5.dk[k][1:] * terms)
            for x in (10, 300, 5000, n):
                gap = abs(partial[x - 1] - pred)
                assert gap <= cli._euler_tail_bound(q, k, x), (q, k, x)
    assert cli._verify_euler() == []
    monkeypatch.setattr(cli, "euler_F_q",
                        lambda q, k, s: 1.1 * euler_F_q(q, k, s))
    assert len(cli._verify_euler()) == 6
