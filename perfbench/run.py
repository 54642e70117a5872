"""One benchmark run of one apvar workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  A run is one fresh process with its
native thread pools capped (see POOL_THREADS).  It (1) times the set-up,
import plus building every sieve table the workload reads into an empty
private APVAR_CACHE_DIR, in SETUP_REPEATS fresh child processes;
(2) repeats the workload's apvar commands, called in-process through
`apvar.cli.main` with the generated flags only, until --seconds have
passed; (3) checks every output against the oracles in `oracles.py`.  With
--trace 1 each round runs once untraced and once with layer spans.  Every
reported time is scaled to the reference speed (see REF_NOMINAL_S).  The
last stdout line is the JSON result; a record of the run is written under
.perfbench_work/runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# Native thread pools (OpenBLAS) are capped at one thread.  With the cap at
# nproc = 2 an idle OpenBLAS worker spins beside the main thread: on a
# shared 2-core machine every operation ran about 20% slower and the
# quartile spread of run_s and cpu_s over seeds rose from ~7% to 9-12%.
POOL_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# The speed of a shared host's CPU drifts with its neighbours' load: a fixed
# pure-Python loop ran 1.0-1.9x its fastest time, in phases of seconds to
# minutes, with CPU time equal to wall time.  So REF_PASSES passes of a fixed
# reference are timed before and after every measured interval, and the
# interval's seconds are divided by (median pass time / REF_NOMINAL_S) raised
# to REF_ELASTICITY.  A pass is half pure-Python integer arithmetic and half
# numpy (a sort and a dot product), because the workloads mix both kinds of
# work.  REF_NOMINAL_S is the median pass time on the host where the bounds
# were set (2 vCPUs of an Intel Xeon, Python 3.11); it only fixes the unit.
# The operations slow less than the passes do, numpy-bound ones most of all
# (see NOTES.md), so the slowdown is taken to the power REF_ELASTICITY.
# Neither constant ever changes, so that runs of two commits compare
# directly.
REF_PASSES = 3
REF_NOMINAL_S = 0.022
REF_ELASTICITY = 0.8
REF_LOOP = 100_000
REF_ARRAY_LEN = 1_000_000


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


# ---------------------------------------------------------------------------
# Run metadata


def _metadata() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "apvar").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"commit": commit, "src_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# Reference speed


class Reference:
    """Times passes of a fixed reference around measured intervals."""

    def __init__(self):
        import numpy

        self._sort = numpy.sort
        self._array = numpy.random.default_rng(0).random(REF_ARRAY_LEN)
        self.last = []

    def passes(self) -> list:
        times = []
        for _ in range(REF_PASSES):
            t0 = time.perf_counter()
            acc = 0
            for i in range(REF_LOOP):
                acc += i * i % 7
            float(self._sort(self._array)[-1] + self._array @ self._array)
            times.append(time.perf_counter() - t0)
        return times

    def start(self) -> None:
        """Passes that open the next measured interval."""
        self.last = self.passes()

    def slowdown(self) -> float:
        """The factor by which the host slowed the interval since the last
        passes: the median of the passes before and after it, over
        REF_NOMINAL_S, to the power REF_ELASTICITY."""
        before, self.last = self.last, self.passes()
        return (statistics.median(before + self.last)
                / REF_NOMINAL_S) ** REF_ELASTICITY


# ---------------------------------------------------------------------------
# Set-up, timed rounds, checks


def _setup(work: Path, tables: list, ref: Reference) -> tuple:
    """Raw times and slowdowns of SETUP_REPEATS cold set-ups; the last one's
    cache serves the run."""
    specs = [f"{n}:{k}" for n, k in sorted(set(tables))]
    times, slowdowns = [], []
    ref.start()
    for i in range(SETUP_REPEATS):
        cache = work / f"cache{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "fill_cache.py"),
                        str(cache), *specs], check=True, timeout=170)
        times.append(time.perf_counter() - t0)
        slowdowns.append(ref.slowdown())
        if i:
            shutil.rmtree(work / f"cache{i - 1}")
    return times, slowdowns, cache


def _collect(op, rc, captured: str) -> dict:
    """What the checks read from one execution of an operation."""
    if rc != 0 or op.kind == "verify":
        return {"rc": rc, "stdout": captured, "files": {}}
    if op.kind in ("theorem1", "theorem2"):
        names = ["bound_report.json", "plot_data.csv"]
    else:
        names = [op.argv[op.argv.index("--out") + 1]]
    try:
        files = {name: (Path(op.out_dir) / name).read_text() for name in names}
    except OSError as exc:
        return {"rc": f"exit 0 without its output: {exc}", "files": {}}
    return {"rc": rc, "files": files}


def _round(ops, cli, ref: Reference, tracer=None) -> list:
    """One timed pass over the operations; outputs are read afterwards.
    wall_s and cpu_s are scaled to the reference speed; raw_* are not."""
    execs = []
    ref.start()
    for op in ops:
        captured = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                if tracer is None:
                    rc = cli.main(list(op.argv))
                else:
                    rc = tracer.span("cli", cli.main, list(op.argv))
        except (Exception, SystemExit) as exc:  # an operation that raises fails
            rc = f"raised {exc!r}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        execs.append((op, rc, captured.getvalue(), wall, cpu, ref.slowdown()))
    return [{"op": op.op_id, "wall_s": wall / slow, "cpu_s": cpu / slow,
             "raw_wall_s": wall, "raw_cpu_s": cpu, "slowdown": slow,
             **_collect(op, rc, text)}
            for op, rc, text, wall, cpu, slow in execs]


def _total(rounds: list, key: str) -> float:
    """Sum over operations of each operation's median over the rounds."""
    per_op = {}
    for rnd in rounds:
        for done in rnd["ops"]:
            per_op.setdefault(done["op"], []).append(done[key])
    return sum(statistics.median(v) for v in per_op.values())


def _oracle_values(ops, executions: list, path: Path, key: str) -> dict:
    """Oracle values per operation, cached on disk per (workload, seed).
    A chain's oracle needs the parameters its report resolved."""
    import oracles

    cached = {}
    if path.exists():
        stored = json.loads(path.read_text())
        if stored.get("key") == key:
            cached = stored["ops"]
    values = {op.op_id: None for op in ops}
    for op in ops:
        hit = cached.get(op.op_id)
        if op.kind in ("residues", "variance"):
            values[op.op_id] = hit or oracles.table_oracle(op)
        elif op.kind != "verify":
            reports = [e["files"]["bound_report.json"] for e in executions
                       if e["op"] == op.op_id and e["rc"] == 0]
            with contextlib.suppress(ValueError, KeyError, TypeError):
                report = json.loads(reports[0]) if reports else None
                if hit is not None and hit["params"] == report["params"]:
                    values[op.op_id] = hit
                elif report is not None:
                    values[op.op_id] = oracles.chain_oracle(op, report)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"key": key, "ops": values}))
    return values


def _check(op, done: dict, oracle) -> list:
    import oracles

    if done["rc"] != 0:
        return [f"exit {done['rc']}"]
    try:
        if op.kind == "verify":
            return oracles.check_verify(done["stdout"])
        if op.kind in ("residues", "variance"):
            return oracles.check_table(op, done["files"], oracle)
        if oracle is None:
            return ["no oracle: the report could not be read"]
        return oracles.check_chain(op, done["files"], oracle)
    except Exception as exc:  # malformed output is a failed operation
        return [f"output unreadable: {exc!r}"]


# ---------------------------------------------------------------------------


def _prepare() -> None:
    """Thread caps and import path; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(POOL_THREADS)
    sys.path.insert(0, str(ROOT / "src"))


def _import_cli():
    import apvar.cli
    import apvar.pipeline

    if Path(apvar.cli.__file__).resolve().parents[1] != ROOT / "src":
        raise RuntimeError(f"apvar imported from {apvar.cli.__file__}")
    return apvar.cli, {"apvar.cli": apvar.cli, "apvar.pipeline": apvar.pipeline}


def _traced_round(ops, cli, ref, tracer, modules) -> dict:
    """A round with layer spans; its self times are scaled to the reference
    speed by the round's overall slowdown."""
    first_span = len(tracer.spans)
    tracer.counts.clear()
    saved = tracer.install(modules)
    try:
        done = _round(ops, cli, ref, tracer)
    finally:
        tracer.uninstall(saved)
    scale = (sum(d["wall_s"] for d in done)
             / sum(d["raw_wall_s"] for d in done))
    layers = {m: v * scale if m.endswith("_s") else v
              for m, v in tracer.layer_metrics(first_span).items()}
    return {"ops": done, "layers": layers}


def run(args) -> int:
    from spans import Tracer
    from workloads import WORK_DIR, generate

    ops = generate(args.workload, args.seed)
    flags_key = hashlib.sha256(json.dumps(
        [op.to_dict() for op in ops], sort_keys=True).encode()).hexdigest()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(WORK_DIR)
    for stale in (work / "run", work / "out"):
        shutil.rmtree(stale, ignore_errors=True)
    (work / "run").mkdir(parents=True)

    tables = [tuple(t) for op in ops for t in op.tables]
    ref = Reference()
    setup_times, setup_slowdowns, cache = _setup(work / "run", tables, ref)
    os.environ["APVAR_CACHE_DIR"] = str(cache)
    cli, modules = _import_cli()
    meta = _metadata()
    cache_files = sorted(p.name for p in cache.iterdir())

    tracer = Tracer(run_id) if args.trace else None
    rounds, traced = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        # Traced rounds alternate between going second and first, so that
        # warm-up does not bias the tracing overhead.
        if tracer is not None and len(rounds) % 2:
            traced.append(_traced_round(ops, cli, ref, tracer, modules))
        rounds.append({"ops": _round(ops, cli, ref)})
        if tracer is not None and len(rounds) % 2:
            traced.append(_traced_round(ops, cli, ref, tracer, modules))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    misses = sorted(set(p.name for p in cache.iterdir()) - set(cache_files))

    t0 = time.perf_counter()
    executions = [done for rnd in rounds + traced for done in rnd["ops"]]
    oracle = _oracle_values(
        ops, executions,
        work / "oracle" / f"{args.workload}-seed{args.seed}.json", flags_key)
    by_id = {op.op_id: op for op in ops}
    failures = []
    for done in executions:
        fails = _check(by_id[done["op"]], done, oracle[done["op"]])
        if fails:
            failures.append({"op": done["op"], "why": fails})
    attempted = len(executions)
    check_s = time.perf_counter() - t0

    if args.trace:
        # Counts repeat exactly from round to round; times take the median.
        layers = {m: statistics.median(t["layers"][m] for t in traced)
                  if m.endswith("_s") else v
                  for m, v in traced[0]["layers"].items()}
        layers["trace_overhead_s"] = (_total(traced, "wall_s")
                                      - _total(rounds, "wall_s"))
        metrics = {m: (v, _unit(m)) for m, v in layers.items()}
    else:
        metrics = {
            "run_s": (_total(rounds, "wall_s"), "s"),
            "cpu_s": (_total(rounds, "cpu_s"), "s"),
            "setup_s": (statistics.median(
                t / slow for t, slow in zip(setup_times, setup_slowdowns)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    record = {
        "run_id": run_id, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "meta": meta,
        "cache": {"setup": "cold", "run": "warm", "tables": cache_files,
                  "missed_in_run": misses},
        "ops": [op.to_dict() for op in ops],
        "reference": {"passes": REF_PASSES, "nominal_s": REF_NOMINAL_S,
                      "elasticity": REF_ELASTICITY},
        "setup": {"raw_s": setup_times, "slowdown": setup_slowdowns},
        "rounds": [{"traced": "layers" in r, "layers": r.get("layers"),
                    "ops": {e["op"]: {k: e[k] for k in (
                        "wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s",
                        "slowdown")} for e in r["ops"]}}
                   for r in rounds + traced],
        "check_s": check_s,
        "attempted": attempted, "failures": failures,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    (work / "runs").mkdir(exist_ok=True)
    if tracer is not None:
        tracer.dump(work / "runs" / f"{run_id}.spans.json")
    (work / "runs" / f"{run_id}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(work / "run")

    print(f"apvar benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={len(rounds)}")
    for key in ("commit", "src_sha256", "nproc", "cpu_model", "python",
                "numpy", "scipy", "thread_caps"):
        print(f"  {key}: {meta[key]}")
    print(f"  sieve cache: cold for set-up, warm for the run "
          f"({len(cache_files)} tables, {len(misses)} missed in the run)")
    for op in ops:
        q = f" Q={op.q:.6g}" if op.q else ""
        print(f"  op {op.op_id}: N={op.n}{q}  apvar {' '.join(op.argv)}")
    slowdowns = [d["slowdown"] for rnd in rounds for d in rnd["ops"]]
    print(f"  unscaled: run {_total(rounds, 'raw_wall_s'):.6f} s, "
          f"cpu {_total(rounds, 'raw_cpu_s'):.6f} s, "
          f"setup {statistics.median(setup_times):.6f} s; host slowdown "
          f"{min(slowdowns):.3f}-{max(slowdowns):.3f} (median "
          f"{statistics.median(slowdowns):.3f}) of reference {REF_NOMINAL_S} s")
    for f in failures:
        print(f"  FAILED {f['op']}: {'; '.join(f['why'])}")
    print(f"  ops_failed_frac: {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted})")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<28} {shown:>18} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()}}))
    return 0


def self_test() -> int:
    """Inject a wrong LHS into a chain report and a wrong row into an exact
    table; both executions must count as failed, their clean twins not."""
    import oracles
    from workloads import WORK_DIR, chain_op, table_op

    cli, _ = _import_cli()
    work = Path(WORK_DIR)
    shutil.rmtree(work / "out", ignore_errors=True)
    os.environ["APVAR_CACHE_DIR"] = str(work / "out" / "cache")
    rng = random.Random("self-test")
    chain = chain_op("selftest-chain", "theorem1", 20_000, 0.75, [], [], rng)
    table = table_op("selftest-table", "variance", 2000, 3, 60,
                     ["--seq", "d3"], [], rng, rows=4)
    done = _round([chain, table], cli, Reference())
    oracle = {"chain": oracles.chain_oracle(
        chain, json.loads(done[0]["files"]["bound_report.json"])),
        "table": oracles.table_oracle(table)}

    report = json.loads(done[0]["files"]["bound_report.json"])
    report["lhs_variance_sum"] *= 1.0 + 1e-6
    bad_chain = dict(done[0], files=dict(done[0]["files"])
                     | {"bound_report.json": json.dumps(report)})
    lines = done[1]["files"]["variance.csv"].splitlines()
    row = table.sample[0]
    q, v, method = lines[row].split(",")
    lines[row] = f"{q},{Fraction(v) + Fraction(1, 7)},{method}"
    bad_table = dict(done[1], files={"variance.csv": "\n".join(lines) + "\n"})

    cases = [("clean chain", chain, done[0], oracle["chain"], False),
             ("clean table", table, done[1], oracle["table"], False),
             ("wrong LHS", chain, bad_chain, oracle["chain"], True),
             ("wrong table row", table, bad_table, oracle["table"], True)]
    failed, ok = 0, True
    for name, op, result, orc, should_fail in cases:
        fails = _check(op, result, orc)
        failed += bool(fails)
        ok &= bool(fails) == should_fail
        print(f"  {name}: {'FAILED ' + '; '.join(fails) if fails else 'passed'}")
    print(f"  ops_failed_frac: {failed / len(cases):.6g} ({failed}/{len(cases)})")
    shutil.rmtree(work / "out")
    print("self-test", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "apvar" / "__init__.py").is_file():
        print(f"error: no apvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    _prepare()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
