"""Command-line front end: verification suites, experiments, tables.

Every invocation writes a run manifest (command echo, versions, wall
time, peak resident memory, output paths) into the output directory;
identical flags produce byte-identical CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .arith import (CapacityError, check_lemma1_matrix, gamma, load_sequence,
                    ramanujan_row, sieve_all, totient)
from .dirichlet import (TruncationError, check_Fq1_bound, euler_F_q,
                        residues, zeta_near_one)
# Bound for perfbench/spans.py, which wraps this name in this module.
from .dirichlet import residue_dk_correlation  # noqa: F401
from .pipeline import (ExperimentConfig, resolve_params, run_theorem1,
                       run_theorem2)
from .variance import check_identity_prop1, variance_rows
# Bound for perfbench/spans.py, which wraps this name in this module.
from .variance import variance_mod_q  # noqa: F401
from .windows import build_weights, build_window, check_lemma5

MAX_N = 2 * 10**7
MAX_RAMANUJAN_ROWS = 10**6    # --q-max x --n-max, about 120 bytes a row
MAX_RESIDUE_MODULI = 10**5    # --q-max, about 6.4 KB of contour rows each
MAX_VARIANCE_MODULI = 10**6   # --q-max, about 350 bytes and 10 us each


def _bounded(flag: str, value, lo: int) -> float:
    """--N or --R as a number in [lo, MAX_N], checked before any work."""
    try:
        x = float(value)
    except ValueError:
        raise ValueError(f"{flag}: not a number: {value!r}") from None
    if not lo <= x <= MAX_N:
        raise ValueError(f"{flag}={value} outside [{lo}, {MAX_N}]")
    return x


def _bounded_int(flag: str, value, lo: int) -> int:
    """--N or --R as an integer in [lo, MAX_N]: 1e5 is one, 12.7 is not."""
    x = _bounded(flag, value, lo)
    if not x.is_integer():
        raise ValueError(f"{flag}={value} is not an integer")
    return int(x)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_manifest(out_dir: Path, command: str, config: dict, outputs,
                    wall_time: float):
    """manifest.json in `out_dir`.  `peak_rss_mb` is the process's peak
    resident set (ru_maxrss) when the manifest is written, in MB of 2^20
    bytes: for `python -m apvar` that is the run's own peak, but a caller
    that runs main in its own process sees that process's lifetime peak,
    earlier work included."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": {k: _fmt(v) if isinstance(v, float) else v
                   for k, v in sorted(config.items())
                   if not callable(v)},
        "versions": {"apvar": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": round(wall_time, 3),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "outputs": [str(p) for p in outputs],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _out_path(args) -> Path:
    """A table's --out joined to --out-dir, with `.` and `..` resolved
    lexically (os.path.normpath), so that no directory needs to exist."""
    return Path(os.path.normpath(Path(args.out_dir) / args.out))


def _check_out_paths(args) -> None:
    """--out-dir, and a table's --out, checked before any work and without
    creating anything: --out-dir must be a directory or lie below one,
    and --out (_out_path) must name a file, other than --out-dir itself,
    in --out-dir or in a directory that exists."""
    out_dir = Path(args.out_dir)
    found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not found.is_dir():
        raise ValueError(f"--out-dir={args.out_dir}: {found} is a file")
    home = Path(os.path.normpath(out_dir))
    path = _out_path(args) if getattr(args, "out", None) else None
    if path and (path == home or path.is_dir()
                 or not (path.parent == home or path.parent.is_dir())):
        raise ValueError(f"--out={args.out}: not a file in --out-dir or in "
                         f"a directory that exists")


# ---------------------------------------------------------------------------
# verify


def _verify_identities(fault: bool) -> list:
    failures = []
    for q in (12, 30, 45):
        if not check_lemma1_matrix(q, 60, 60, fault=fault):
            failures.append(f"orthogonality identity failed at q={q}")
    table = sieve_all(300, 3)
    seqs = {"d2": table.dk_sequence(2), "d3": table.dk_sequence(3),
            "lambda": table.lambda_sequence()}
    for name, seq in seqs.items():
        for q in (12, 36, 49):
            chk = check_identity_prop1(seq, q)
            if not chk.ok:
                failures.append(
                    f"divisor identity failed: seq={name} q={q} "
                    f"residual={chk.residual} bad={chk.bad_divisors}")
    window = build_window(0.05)
    weights = build_weights("prime_sieve", 40)
    lhs, rhs, resid = check_lemma5(seqs["lambda"], weights, window)
    if resid > 1e-9:
        failures.append(f"rearrangement identity residual {resid}")
    return failures


def _euler_tail_bound(q: int, k: int, x: int) -> float:
    """B = (2 phi(q)/x) sum_{j<k} ((k-1)!/(k-1-j)!) (log x + 1)^(k-1-j),
    a bound on the tail sum_{n>x} d_k(n) |c_q(n)| / n^2 for x >= 1.

    Three facts give it.  First, |c_q(n)| <= phi(q): c_q(n) is a sum of
    phi(q) roots of unity.  Second, D_k(t) = sum_{n<=t} d_k(n) <=
    t (log t + 1)^(k-1) for t >= 1, by induction on k: D_1(t) <= t, and
    D_k(t) = sum_{m<=t} D_(k-1)(t/m) <= t (log t + 1)^(k-2) H(t) with
    H(t) = sum_{m<=t} 1/m <= log t + 1, as log(t/m) <= log t.  Third,
    partial summation: sum_{n>x} d_k(n)/n^2 = -D_k(x)/x^2 +
    2 int_x^oo D_k(t) t^-3 dt <= 2 I_(k-1), where
    I_r = int_x^oo (log t + 1)^r t^-2 dt = (log x + 1)^r / x + r I_(r-1)
    by parts and I_0 = 1/x; unrolled, I_(k-1) is the sum above over x.
    So the tail is at most phi(q) sum_{n>x} d_k(n)/n^2 <= B.
    """
    log1 = math.log(x) + 1.0
    return 2.0 * totient(q) / x * sum(
        math.perm(k - 1, j) * log1 ** (k - 1 - j) for j in range(k))


def _verify_euler() -> list:
    """The partial sums sum_{n<=x} d_k(n) c_q(n)/n^2 against their limit
    zeta(2)^k F_q(2), with x = 2 10^5: the gap must stay within the tail
    bound B (_euler_tail_bound) plus the rounding of both sides.

    Rounding (u = 2^-53, gamma_m = m u/(1 - m u)).  Each term c_q(n)/n^2 is
    one quotient (n^2 is exact below 2^53), and the dot product with d_k
    (exact in float64) adds gamma_x relative to sum |d_k(n) c_q(n)/n^2|,
    so the partial sum is within gamma_(x+1) of that absolute sum, which
    is at most phi(q) zeta(2)^k, as |c_q(n)| <= phi(q).  The
    prediction: zeta(2) by Euler-Maclaurin (cutoff 30, 20 Bernoulli
    terms, remainder below 10^-40) rounds each of its 51 terms a few
    times (the 20 Bernoulli terms are below 10^-3 of the sum), within
    gamma_60 relative, and its k-th power adds
    gamma_k; each local factor of F_q(2) is within the bound of
    dirichlet._local_factors, at most 100 u times T/|value| <= 13 for the
    p^a || q and k here (q in {1, 4, 6}, k <= 3), and F_q has at most two.
    That is under 2^12 u |pred| in all.  Evaluating B takes at most
    2k + 4 roundings, so B is within gamma_(2k+4) B of its value.
    """
    failures = []
    x = 200000
    tab = sieve_all(x, 3)
    ns2 = np.arange(1, x + 1, dtype=np.float64) ** 2
    zeta2 = zeta_near_one(2.0)
    for q in (1, 4, 6):
        # One Ramanujan row per q, shared by both k.
        terms = ramanujan_row(q, x) / ns2
        for k in (2, 3):
            direct = float(np.dot(tab.dk[k][1:], terms))
            pred = (zeta2 ** k * euler_F_q(q, k, 2.0)).real
            bound = _euler_tail_bound(q, k, x)
            rounding = float(
                gamma(x + 1) * totient(q) * (math.pi**2 / 6.0) ** k
                + gamma(2**12) * abs(pred) + gamma(2 * k + 4) * bound)
            if abs(direct - pred) > bound + rounding:
                failures.append(
                    f"Euler product mismatch k={k} q={q}: {direct} vs {pred}, "
                    f"beyond the tail bound {bound:.3g}")
    for q in (2, 6, 15, 30, 210):
        for k in (2, 3, 4):
            if not check_Fq1_bound(q, k):
                failures.append(f"F_q(1) lower bound failed q={q} k={k}")
    return failures


def _verify_windows() -> list:
    mass = build_window(0.05).phi_int
    return [] if 0.94 < mass < 1.0 else [f"plateau mass {mass} out of range"]


def cmd_verify(args) -> tuple[int, list]:
    suites = {
        "identities": lambda: _verify_identities(args.inject_fault),
        "euler": _verify_euler,
        "windows": _verify_windows,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failures = []
    for name in names:
        fails = suites[name]()
        status = "PASS" if not fails else "FAIL"
        print(f"verify {name}: {status}")
        for f in fails:
            print(f"  {f}")
        failures.extend(fails)
    return (1 if failures else 0), []


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args) -> tuple[int, list]:
    # The manifest records the parsed N as n.
    args.n = n = _bounded_int("--N", args.N, 3)
    # theorem1 reads no --k, --delta or --ending: it keeps the defaults.
    config = ExperimentConfig(
        experiment=args.kind, n=n, q_exp=args.Q_exp, epsilon=args.epsilon,
        k_exp=args.K_exp,
        r_override=None if args.R is None else _bounded("--R", args.R, 2),
        **{f: getattr(args, f) for f in ("k", "delta", "ending") if f in args})
    params = resolve_params(config)    # a bad R fails before the sieve
    runner = run_theorem1 if args.kind == "theorem1" else run_theorem2
    report = runner(params, sieve_all(n, config.k))
    header, rows = report.plot
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, text in (
            ("bound_report.json", report.to_json() + "\n"),
            ("summary.csv", report.csv_header() + "\n" + report.csv_row()
             + "\n"),
            ("plot_data.csv", header + "\n" + "".join(
                ",".join(map("{:.12g}".format, row)) + "\n"
                for row in rows.tolist()))):
        path = out_dir / name
        path.write_text(text, newline="\n")
        outputs.append(path)

    for name in report.CSV_FIELDS:
        print(f"{name}: {_fmt(getattr(report, name))}")
    return 0, outputs


# ---------------------------------------------------------------------------
# table: one rows function per table, each returning the header and the
# rows; bad flags raise a ValueError naming the flag, before any work.


def _q_max(args) -> int:
    if args.q_max < 1:
        raise ValueError(f"--q-max must be at least 1, got {args.q_max}")
    return args.q_max


def _ramanujan_rows(args):
    q_max = _q_max(args)
    if args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    if q_max > 10**4 or args.n_max > 10**5:
        raise ValueError("--q-max/--n-max: range too large")
    if q_max * args.n_max > MAX_RAMANUJAN_ROWS:
        raise ValueError(f"--q-max x --n-max = {q_max * args.n_max} "
                         f"rows exceeds the limit {MAX_RAMANUJAN_ROWS}")
    rows = []
    for q in range(1, q_max + 1):
        row = ramanujan_row(q, args.n_max)
        rows.extend(f"{q},{n},{row[n - 1]}" for n in range(1, args.n_max + 1))
    return "q,n,c_q_n", rows


def _variance_rows(args):
    q_max = _q_max(args)
    if q_max > MAX_VARIANCE_MODULI:
        raise ValueError(f"--q-max={q_max} moduli exceeds the limit "
                         f"{MAX_VARIANCE_MODULI}")
    n = _bounded_int("--N", args.N, 1)
    try:
        seq = load_sequence(args.seq, n)
    except (ValueError, OSError) as exc:
        raise ValueError(f"--seq: {exc}") from None
    return "q,V,method", [
        f"{q},{_fmt(v)},{'exact' if isinstance(v, Fraction) else 'float'}"
        for q, v in enumerate(variance_rows(seq, q_max), start=1)]


def _weights_rows(args):
    if args.kind == "divisor" and args.k < 2:
        raise ValueError(f"--k must be at least 2 for divisor weights, "
                         f"got {args.k}")
    kind = "prime_sieve" if args.kind == "prime" else "divisor_k"
    r_max = _bounded_int("--R", args.R, 2)
    try:
        b = build_weights(kind, r_max, k=args.k)
    except CapacityError as exc:
        raise CapacityError(f"--k={args.k} --R={r_max}: {exc}") from None
    # b is float64: each row is _fmt's float form, without a call per row.
    return "r,b_r", [f"{r},{x:.12g}"
                     for r, x in enumerate(b[1:].tolist(), start=1)]


def _residues_rows(args):
    q_max = _q_max(args)
    # The contour |s - 1| = 1/log N keeps 1/4 from s = 0 for N >= 4, but
    # the 64-node rule it is checked with errs by about (1/log N)^64 of
    # the samples: 8e-10 at N = 4, far above the rounding floor
    # 4 gamma_128 = 5.7e-14 that bounds a zero residue (k = 1, q > 1),
    # and about the floor at N = 5, where the worst gap over k <= 10,
    # q <= N is 0.48 of its bound (measured).
    n = _bounded_int("--N", args.N, 5)
    if q_max > n:
        raise ValueError(f"--q-max={q_max} exceeds --N={n}")
    if q_max > MAX_RESIDUE_MODULI:
        raise ValueError(f"--q-max={q_max} moduli exceeds the limit "
                         f"{MAX_RESIDUE_MODULI}")
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    try:
        preds = residues(range(1, q_max + 1), args.k, n)
    except TruncationError as exc:
        raise TruncationError(f"--k={args.k} --N={n}: {exc}") from None
    return "q,k,N,value,error", [
        f"{q},{args.k},{n},{pred.value:.12g},{pred.error:.3g}"
        for q, pred in enumerate(preds, start=1)]


def cmd_table(args) -> tuple[int, list]:
    header, rows = args.rows(args)
    if args.format == "json":
        keys = header.split(",")
        payload = [dict(zip(keys, r.split(","))) for r in rows]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = header + "\n" + "\n".join(rows) + "\n"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.out:
        sys.stdout.write(text)
        return 0, []
    path = _out_path(args)
    path.write_text(text, newline="\n")
    return 0, [path]


# ---------------------------------------------------------------------------

# Each flag's argparse spec; a leaf adds the ones its command reads.
_FLAGS = {
    "--N": dict(default="1e5"),
    "--k": dict(type=int, default=2),
    "--R": dict(type=float, default=None),
    "--Q-exp": dict(dest="Q_exp", type=float, default=0.75),
    "--delta": dict(type=float, default=0.1),
    "--epsilon": dict(type=float, default=0.05),
    "--K-exp": dict(dest="K_exp", type=float, default=None),
    "--ending": dict(choices=("first", "second"), default="second"),
    "--q-max": dict(dest="q_max", type=int, default=12),
    "--n-max": dict(dest="n_max", type=int, default=12),
    "--seq": dict(default="d2"),
    "--kind": dict(choices=("prime", "divisor"), default="prime"),
    "--out": dict(default=None),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--inject-fault": dict(action="store_true",
                           help="test hook: perturb one Ramanujan value"),
    "--out-dir": dict(default="apvar_runs"),
}
# The namespace field that names each command's leaf.
_LEAF = {"verify": "suite", "experiment": "kind", "table": "what"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: one leaf per suite, experiment
    and table, each taking only the flags its command reads."""
    parser = argparse.ArgumentParser(
        prog="apvar",
        description="Variance of arithmetic sequences in progressions: "
                    "identities, spectra, and lower-bound experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(command, help):
        return sub.add_parser(command, help=help).add_subparsers(
            dest=_LEAF[command], required=True)

    def leaf(group, name, flags, **defaults):
        p = group.add_parser(name, allow_abbrev=False)
        for flag in (*flags.split(), "--out-dir"):
            # Only table weights takes --R without a default.
            p.add_argument(flag, **_FLAGS[flag],
                           required=flag == "--R" and name == "weights")
        p.set_defaults(**defaults)

    verify = group("verify", "run property suites")
    for suite, flags in (("identities", "--inject-fault"), ("euler", ""),
                         ("windows", ""), ("all", "--inject-fault")):
        leaf(verify, suite, flags, func=cmd_verify)

    experiment = group("experiment", "full lower-bound chains")
    theorem1 = "--N --Q-exp --epsilon --K-exp --R"
    leaf(experiment, "theorem1", theorem1, func=cmd_experiment)
    leaf(experiment, "theorem2", theorem1 + " --k --delta --ending",
         func=cmd_experiment)

    table = group("table", "deterministic CSV tables")
    for name, flags, rows in (
            ("ramanujan", "--q-max --n-max", _ramanujan_rows),
            ("variance", "--q-max --seq --N", _variance_rows),
            ("weights", "--kind --k --R", _weights_rows),
            ("residues", "--q-max --N --k", _residues_rows)):
        leaf(table, name, flags + " --out --format", func=cmd_table, rows=rows)
    return parser


def main(argv=None) -> int:
    """Run one command.  A bad flag value or output path, a failed
    contour or a table past its capacity ends with `error: ...` and exit
    status 2, writing nothing; otherwise the run's manifest records the
    command's accepted flags and its outputs."""
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        _check_out_paths(args)
        code, outputs = args.func(args)
    except (ValueError, TruncationError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_manifest(Path(args.out_dir),
                    f"{args.command} {getattr(args, _LEAF[args.command])}",
                    vars(args), outputs, time.time() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
