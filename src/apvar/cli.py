"""Command-line front end: verification suites, experiments, tables.

Every invocation writes a run manifest (command echo, versions, wall
time, output paths) into the output directory; identical flags produce
byte-identical CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .arith import (check_lemma1_matrix, load_sequence, ramanujan_row,
                    sieve_all)
from .dirichlet import (TruncationError, check_Fq1_bound, euler_F_q,
                        polynomial_69, r_window, residues, zeta_near_one)
# Bound for perfbench/spans.py, which wraps this name in this module.
from .dirichlet import residue_dk_correlation  # noqa: F401
from .pipeline import (ExperimentConfig, resolve_params, run_theorem1,
                       run_theorem2)
from .variance import check_identity_prop1, variance_rows, variance_sweep
# Bound for perfbench/spans.py, which wraps this name in this module.
from .variance import variance_mod_q  # noqa: F401
from .windows import build_weights, build_window, check_lemma5

MAX_N = 2 * 10**7


def _bounded(flag: str, value, lo: int) -> float:
    """--N or --R as a number in [lo, MAX_N], checked before any work."""
    try:
        x = float(value)
    except ValueError:
        raise ValueError(f"{flag}: not a number: {value!r}") from None
    if not lo <= x <= MAX_N:
        raise ValueError(f"{flag}={value} outside [{lo}, {MAX_N}]")
    return x


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_manifest(out_dir: Path, command: str, config: dict, outputs,
                    wall_time: float):
    import numpy
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": {k: _fmt(v) if isinstance(v, float) else v
                   for k, v in sorted(config.items())
                   if not callable(v)},
        "versions": {"apvar": __version__, "numpy": numpy.__version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": round(wall_time, 3),
        "outputs": [str(p) for p in outputs],
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# verify


def _verify_identities(fault: bool) -> list:
    failures = []
    for q in (12, 30, 45):
        if not check_lemma1_matrix(q, 60, 60, fault=fault):
            failures.append(f"orthogonality identity failed at q={q}")
    n = 300
    table = sieve_all(n, 3)
    for name in ("d2", "d3", "lambda"):
        seq = load_sequence(name, n, table)
        for q in (12, 36, 49):
            chk = check_identity_prop1(seq, q)
            if not chk.ok:
                failures.append(
                    f"divisor identity failed: seq={name} q={q} "
                    f"residual={chk.residual} bad={chk.bad_divisors}")
    window = build_window(0.05)
    weights = build_weights("prime_sieve", 40)
    lhs, rhs, resid = check_lemma5(load_sequence("lambda", n, table),
                                   weights, window)
    if resid > 1e-9:
        failures.append(f"rearrangement identity residual {resid}")
    return failures


def _verify_euler() -> list:
    failures = []
    # Partial Dirichlet sums vs zeta^k F_q at s = 2.
    x = 200000
    tab = sieve_all(x, 3)
    ns2 = np.arange(1, x + 1, dtype=np.float64) ** 2
    for q in (1, 4, 6):
        # One Ramanujan row per q, shared by both k.
        terms = ramanujan_row(q, x) / ns2
        for k in (2, 3):
            direct = float(np.dot(tab.dk[k][1:], terms))
            pred = (zeta_near_one(2.0) ** k * euler_F_q(q, k, 2.0)).real
            if abs(direct - pred) > 5e-3 * abs(pred):
                failures.append(
                    f"Euler product mismatch k={k} q={q}: {direct} vs {pred}")
    for q in (2, 6, 15, 30, 210):
        for k in (2, 3, 4):
            if not check_Fq1_bound(q, k):
                failures.append(f"F_q(1) lower bound failed q={q} k={k}")
    return failures


def _verify_windows() -> list:
    failures = []
    window = build_window(0.05)
    if not 0.94 < window.phi_int < 1.0:
        failures.append(f"plateau mass {window.phi_int} out of range")
    for xi in (0.0, 0.37, 3.2, 17.9, 120.0):
        sum_val = window.phi_hat(xi)
        quad_val = window.phi_hat_quad(xi)
        if abs(sum_val - quad_val) > 1e-12:
            failures.append(f"transform off at xi={xi}: "
                            f"{sum_val} vs {quad_val}")
    return failures


def cmd_verify(args) -> int:
    suites = {
        "identities": lambda: _verify_identities(args.inject_fault),
        "euler": _verify_euler,
        "windows": _verify_windows,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    t0 = time.time()
    failures = []
    for name in names:
        fails = suites[name]()
        status = "PASS" if not fails else "FAIL"
        print(f"verify {name}: {status}")
        for f in fails:
            print(f"  {f}")
        failures.extend(fails)
    out_dir = Path(args.out_dir)
    _write_manifest(out_dir, f"verify {args.suite}",
                    {"suite": args.suite, "inject_fault": args.inject_fault},
                    [], time.time() - t0)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args) -> int:
    t0 = time.time()
    try:
        n = int(_bounded("--N", args.N, 3))
        config = ExperimentConfig(
            experiment=args.kind, n=n, q_exp=args.Q_exp, k=args.k,
            delta=args.delta, epsilon=args.epsilon, k_exp=args.K_exp,
            r_override=None if args.R is None else _bounded("--R", args.R, 2),
            ending=args.ending)
        params = resolve_params(config)    # a bad R fails before the sieve
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = run_theorem1 if args.kind == "theorem1" else run_theorem2
    try:
        table = sieve_all(n, 2 if args.kind == "theorem1" else config.k)
        report = runner(params, table)
    except (ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    report_path = out_dir / "bound_report.json"
    report_path.write_text(report.to_json() + "\n")
    outputs.append(report_path)

    csv_path = out_dir / "summary.csv"
    csv_path.write_text(report.csv_header() + "\n" + report.csv_row() + "\n")
    outputs.append(csv_path)

    plot_path = out_dir / "plot_data.csv"
    with open(plot_path, "w", newline="\n") as fh:
        if args.kind == "theorem2" and args.ending == "first":
            # The polynomial over R's own window, the one the chain scans.
            fh.write("alpha,polynomial\n")
            log_n = math.log(n)
            r_lo, r_hi = r_window(n, params.q0, params.q, params.k_param,
                                  config.epsilon)
            log_rs = np.linspace(math.log(r_lo), math.log(r_hi), 200)
            vals = polynomial_69(config.k, log_n, log_rs,
                                 math.log(params.k_param * params.q0))
            for log_r, val in zip(log_rs, vals):
                fh.write(f"{log_r / log_n:.12g},{val:.12g}\n")
        else:
            fh.write("q,V\n")
            # From the run's own sieve table, truncated at N = 10^5.
            seq_name = "lambda" if args.kind == "theorem1" else f"d{config.k}"
            seq = load_sequence(seq_name, min(n, 10**5), table)
            sweep = variance_sweep(seq, min(int(params.q), 400))
            for q in range(1, sweep.v.size):
                fh.write(f"{q},{sweep.v[q]:.12g}\n")
    outputs.append(plot_path)

    wall = time.time() - t0
    outputs.append(_write_manifest(
        out_dir, f"experiment {args.kind}", vars(args) | {"n": n},
        outputs, wall))
    for name in report.CSV_FIELDS:
        print(f"{name}: {_fmt(getattr(report, name))}")
    return 0


# ---------------------------------------------------------------------------
# table


def _table_rows(args):
    """The header and rows of one table.  Bad flags raise a ValueError
    naming the flag, before any work."""
    rows = []
    if args.what != "weights" and args.q_max < 1:
        raise ValueError(f"--q-max must be at least 1, got {args.q_max}")
    if args.what == "ramanujan":
        if args.n_max < 1:
            raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
        if args.q_max > 10**4 or args.n_max > 10**5:
            raise ValueError("--q-max/--n-max: range too large")
        header = "q,n,c_q_n"
        for q in range(1, args.q_max + 1):
            row = ramanujan_row(q, args.n_max)
            rows.extend(f"{q},{n},{row[n - 1]}"
                        for n in range(1, args.n_max + 1))
    elif args.what == "variance":
        n = int(_bounded("--N", args.N, 1))
        try:
            seq = load_sequence(args.seq, n)
        except (ValueError, OSError) as exc:
            raise ValueError(f"--seq: {exc}") from None
        header = "q,V,method"
        for q, v in enumerate(variance_rows(seq, args.q_max), start=1):
            method = "exact" if isinstance(v, Fraction) else "float"
            rows.append(f"{q},{_fmt(v)},{method}")
    elif args.what == "weights":
        if args.R is None:
            raise ValueError("--R is required")
        if args.kind == "divisor" and args.k < 2:
            raise ValueError(f"--k must be at least 2 for divisor weights, "
                             f"got {args.k}")
        kind = "prime_sieve" if args.kind == "prime" else "divisor_k"
        weights = build_weights(kind, int(_bounded("--R", args.R, 2)), k=args.k)
        header = "r,b_r"
        rows.extend(f"{r},{_fmt(float(b))}" for r, b in weights.to_csv_rows())
    else:
        # The contour |s - 1| = 1/log N keeps 1/4 from s = 0 for N >= 4.
        n = int(_bounded("--N", args.N, 4))
        if args.q_max > n:
            raise ValueError(f"--q-max={args.q_max} exceeds --N={n}")
        if args.k < 1:
            raise ValueError(f"--k must be at least 1, got {args.k}")
        header = "q,k,N,value,error"
        preds = residues(range(1, args.q_max + 1), args.k, n)
        rows.extend(f"{q},{args.k},{n},{pred.value:.12g},{pred.error:.3g}"
                    for q, pred in enumerate(preds, start=1))
    return header, rows


def cmd_table(args) -> int:
    t0 = time.time()
    try:
        header, rows = _table_rows(args)
    except (ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        keys = header.split(",")
        payload = [dict(zip(keys, r.split(","))) for r in rows]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = header + "\n" + "\n".join(rows) + "\n"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.out:
        path = out_dir / args.out
        path.write_text(text, newline="\n")
        outputs = [path]
    else:
        sys.stdout.write(text)
        outputs = []
    _write_manifest(out_dir, f"table {args.what}",
                    {k: v for k, v in vars(args).items() if k != "func"},
                    outputs, time.time() - t0)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apvar",
        description="Variance of arithmetic sequences in progressions: "
                    "identities, spectra, and lower-bound experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--N", default="1e5")
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--R", type=float, default=None)
        p.add_argument("--out-dir", default="apvar_runs")

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("suite",
                          choices=("identities", "euler", "windows", "all"))
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="test hook: perturb one Ramanujan value")
    p_verify.add_argument("--out-dir", default="apvar_runs")
    p_verify.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment", help="full lower-bound chains")
    p_exp.add_argument("kind", choices=("theorem1", "theorem2"))
    p_exp.add_argument("--ending", choices=("first", "second"),
                       default="second")
    p_exp.add_argument("--Q-exp", dest="Q_exp", type=float, default=0.75)
    p_exp.add_argument("--delta", type=float, default=0.1)
    p_exp.add_argument("--epsilon", type=float, default=0.05)
    p_exp.add_argument("--K-exp", dest="K_exp", type=float, default=None)
    common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_tab = sub.add_parser("table", help="deterministic CSV tables")
    p_tab.add_argument("what",
                       choices=("ramanujan", "variance", "weights", "residues"))
    p_tab.add_argument("--q-max", dest="q_max", type=int, default=12)
    p_tab.add_argument("--n-max", dest="n_max", type=int, default=12)
    p_tab.add_argument("--seq", default="d2")
    p_tab.add_argument("--kind", choices=("prime", "divisor"), default="prime")
    p_tab.add_argument("--out", default=None)
    p_tab.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p_tab)
    p_tab.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
