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


@pytest.mark.parametrize("seq, n", [("lambda", 1000), ("d2", 20000)])
def test_table_variance_float_rows_from_sweep(seq, n, tmp_path, capsys):
    """Lambda, and integer sequences past N = 10^4, are tabulated from
    the sweep's floats."""
    from apvar.arith import load_sequence
    from apvar.variance import variance_sweep

    code, out, _ = run_cli(["table", "variance", "--seq", seq, "--N", str(n),
                            "--q-max", "30"], tmp_path, capsys)
    assert code == 0
    sweep = variance_sweep(load_sequence(seq, n), 30)
    assert out.splitlines()[1:] == [f"{q},{sweep.v[q]:.12g},float"
                                    for q in range(1, 31)]


def test_table_weights_and_determinism(tmp_path, capsys):
    code, out1, _ = run_cli(["table", "weights", "--kind", "prime",
                             "--R", "100"], tmp_path, capsys)
    assert code == 0
    assert len(out1.strip().split("\n")) == 101
    code, out2, _ = run_cli(["table", "weights", "--kind", "prime",
                             "--R", "100"], tmp_path, capsys)
    assert out1 == out2  # byte-identical on identical flags


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
])
def test_table_bad_flags_fail_cleanly(argv, flag, tmp_path, capsys):
    code, out, err = run_cli(["table", *argv, "--out", "t.csv"], tmp_path,
                             capsys)
    assert code == 2
    assert err.startswith("error: ") and flag in err
    assert out == "" and not any(tmp_path.iterdir())


def test_benchmark_span_names_are_bound():
    """perfbench/spans.py wraps these names in apvar.pipeline and
    apvar.cli for a traced run; deleting one breaks that run."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, layers in spans.LAYERS.items():
        mod = importlib.import_module(mod_name)
        for _, names in layers.values():
            for name in names:
                assert callable(getattr(mod, name, None)), f"{mod_name}.{name}"


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
                             "outputs"}
    assert len(manifest["outputs"]) == 3


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


def test_experiment_validation_errors(tmp_path, capsys):
    code, _, err = run_cli(["experiment", "theorem1", "--Q-exp", "1.2"],
                           tmp_path, capsys)
    assert code == 2
    code, _, err = run_cli(
        ["experiment", "theorem2", "--Q-exp", "0.55", "--delta", "0.1",
         "--N", "1e4"], tmp_path, capsys)
    assert code == 2
    assert "error" in err
    for argv in (["--N", "abc"], ["--N", "inf"], ["--N", "1"],
                 ["--N", "1e4", "--R", "inf"], ["--delta", "nan"],
                 ["--K-exp", "nan"], ["--epsilon", "0.3"],
                 ["--Q-exp", "nan"]):
        code, out, err = run_cli(["experiment", "theorem1", *argv],
                                 tmp_path, capsys)
        assert code == 2, argv
        assert err.startswith("error: ") and argv[-2] in err
        assert out == "" and not any(tmp_path.iterdir())
    for argv in (["--delta", "-1"], ["--k", "1"]):
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


@pytest.mark.parametrize("argv", [
    ["experiment", "theorem1", "--format", "json"],
    ["table", "variance", "--Q-exp", "0.8"],
    ["table", "weights", "--R", "10", "--delta", "0.2"],
    ["table", "variance", "--epsilon", "0.1"],
    ["table", "residues", "--K-exp", "2"],
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
    the window's Fourier transform that `verify windows` checks."""
    import subprocess
    import sys
    from pathlib import Path

    import apvar

    code = ("import sys\n"
            "import apvar.cli\n"
            "from apvar import (ExperimentConfig, resolve_params,\n"
            "                   run_theorem1, sieve_all)\n"
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
