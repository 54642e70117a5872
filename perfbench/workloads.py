"""Seeded workload generator: (workload, seed) -> the apvar commands a run times.

The same (workload, seed) always gives byte-identical flag lists.  Each
operation's N is jittered by a factor in [0.95, 1.05]; the operations of
a workload draw their factors from disjoint equal strata of that interval
(in seeded order), so the total work of a run moves less with the seed
than any single operation does.  Every base N keeps the jittered range
inside one power of two of the 16N spectrum grid.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

WORK_DIR = ".perfbench_work"

WORKLOADS = ("lambda-chain", "divisor-chain", "ingredient-tables")


@dataclass
class Op:
    """One CLI invocation and what its oracle needs to know about it."""

    op_id: str
    kind: str                 # theorem1 | theorem2 | verify | residues | variance
    argv: list
    n: int = 0
    q: float = 0.0            # Q = N^Q_exp for the chains
    k: int = 2
    ending: str = ""
    q_max: int = 0
    sample: list = field(default_factory=list)   # table rows the oracle checks
    tables: list = field(default_factory=list)   # (n, k) sieve tables read

    @property
    def out_dir(self) -> str:
        return _out(self.op_id)

    def to_dict(self) -> dict:
        return asdict(self)


def _out(op_id: str) -> str:
    return f"{WORK_DIR}/out/{op_id}"


def _jitters(rng: random.Random, count: int) -> list:
    width = 0.1 / count
    factors = [0.95 + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(factors)
    return factors


def chain_op(op_id, kind, n, q_exp, flags, tables, rng, k=2, ending=""):
    """An `experiment` operation; the oracle checks three seeded rows of
    its V(q) plot table (q <= min(Q, 400))."""
    q = n**q_exp
    argv = ["experiment", kind, *flags, "--N", str(n), "--Q-exp", str(q_exp),
            "--out-dir", _out(op_id)]
    sample = sorted(rng.sample(range(1, min(int(q), 400) + 1), 3))
    return Op(op_id=op_id, kind=kind, argv=argv, n=n, q=q, k=k, ending=ending,
              sample=sample, tables=tables)


def table_op(op_id, what, n, k, q_max, flags, tables, rng, rows):
    """A `table` operation; the oracle checks `rows` seeded rows."""
    argv = ["table", what, *flags, "--N", str(n), "--q-max", str(q_max),
            "--out", f"{what}.csv", "--out-dir", _out(op_id)]
    return Op(op_id=op_id, kind=what, argv=argv, n=n, k=k, q_max=q_max,
              sample=sorted(rng.sample(range(1, q_max + 1), rows)),
              tables=tables)


def generate(workload: str, seed: int) -> list:
    """The operations of one run of `workload`, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "lambda-chain":
        # plot_data re-reads Lambda at min(N, 1e5), hence the second table.
        for i, f in enumerate(_jitters(rng, 2)):
            n = round(100_000 * f)
            ops.append(chain_op(f"t1-{i}", "theorem1", n, 0.75, [],
                                [(n, 2), (min(n, 100_000), 2)], rng))
    elif workload == "divisor-chain":
        # Both endings cost about the same at equal N, so they share strata.
        f_second, f_first = _jitters(rng, 2)
        n = round(30_000 * f_second)
        ops.append(chain_op("t2-second", "theorem2", n, 0.8,
                            ["--k", "2", "--ending", "second"],
                            [(n, 2), (min(n, 100_000), 2)], rng,
                            k=2, ending="second"))
        n = round(30_000 * f_first)
        ops.append(chain_op("t2-first", "theorem2", n, 0.8,
                            ["--k", "3", "--ending", "first"], [(n, 3)], rng,
                            k=3, ending="first"))
    else:
        ops.append(Op(op_id="verify", kind="verify",
                      argv=["verify", "all", "--out-dir", _out("verify")],
                      tables=[(300, 3), (200_000, 3)]))
        n = round(1_000_000 * _jitters(rng, 1)[0])
        ops.append(table_op("residues", "residues", n, 3, 400, ["--k", "3"],
                            [], rng, rows=3))
        # N stays at most 10^4 (EXACT_N_LIMIT), so the rows are exact rationals.
        n = round(9_500 * _jitters(rng, 1)[0])
        ops.append(table_op("variance", "variance", n, 3, 1000,
                            ["--seq", "d3"], [(n, 3)], rng, rows=8))
    return ops
