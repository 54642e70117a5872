"""Layer spans for the traced run.

Each layer's public functions are wrapped where the pipeline and the CLI
see them (the names bound in `apvar.pipeline` and `apvar.cli`), so calls
inside a layer module are not wrapped and the overhead stays small.  The
wrappers are installed only for a traced round and removed afterwards:
untraced rounds run the program untouched.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


def _t_grid(args, kwargs, out):
    return {"circle.grid_points": out.t_grid,
            "circle.spectrum_bytes": out.amplitudes.nbytes}


def _table_bytes(args, kwargs, out):
    arrays = [out.spf, out.mu, out.phi, out.lam, *out.dk.values()]
    return {"arith.sieve_bytes": sum(a.nbytes for a in arrays)}


def _sequence_bytes(args, kwargs, out):
    return {"arith.sieve_bytes": out.values.nbytes}


def _moduli(args, kwargs, out):
    q_max = args[1]
    q_min = args[2] if len(args) > 2 else kwargs.get("q_min", 1)
    return {"variance.moduli": q_max - q_min + 1}


def _corr_moduli(args, kwargs, out):
    return {"arith.correlation_moduli": len(out)}


def _one(key):
    return lambda args, kwargs, out: {key: 1}


# span name, counter, and the functions it covers in each module
LAYERS = {
    "apvar.pipeline": {
        "arith.sieve": (_table_bytes, ["sieve_all"]),
        "arith.correlations": (_corr_moduli, ["ramanujan_correlations"]),
        "circle.spectrum": (_t_grid, ["build_spectrum"]),
        "circle.arcs": (None, ["major_mask", "minor_arc_integral"]),
        "variance.sum": (_moduli, ["variance_total",
                                   "restricted_variance_total"]),
        "variance.per_q": (_one("variance.per_q_calls"), ["variance_mod_q"]),
        "dirichlet.choose_r": (None, ["choose_R_chebyshev"]),
        "dirichlet.residue": (_one("dirichlet.residues"),
                              ["f_q_value", "residue_ramdkeval",
                               "zeta_near_one", "contour_nodes"]),
        "windows.window": (None, ["build_window"]),
        "windows.tilde": (None, ["build_weights", "build_tilde_sequence",
                                 "weight_sum_q"]),
        "pipeline.tail": (None, ["ramanujan_tail"]),
        "pipeline.cs": (None, ["cauchy_schwarz_bound"]),
        "pipeline.bulk_residue": (None, ["bulk_residue_predictions"]),
    },
    "apvar.cli": {
        "pipeline": (None, ["run_theorem1", "run_theorem2"]),
        "arith.sieve": (_table_bytes, ["sieve_all"]),
        "arith.load": (_sequence_bytes, ["load_sequence"]),
        "arith.correlations": (None, ["ramanujan_row", "check_lemma1_matrix"]),
        "variance.per_q": (_one("variance.per_q_calls"),
                           ["variance_mod_q", "check_identity_prop1"]),
        "dirichlet.residue": (_one("dirichlet.residues"),
                              ["residue_dk_correlation", "euler_F_q",
                               "zeta_near_one", "check_Fq1_bound"]),
        "windows.window": (None, ["build_window"]),
        "windows.tilde": (None, ["build_weights", "check_lemma5"]),
    },
}

# Spans whose self time is reported under another layer's name:
# load_sequence is a sieve-table read.
SELF_TIME_AS = {"arith.load": "arith.sieve"}

SPAN_METRICS = ["variance.sum", "variance.per_q", "circle.spectrum",
                "circle.arcs", "pipeline.cs", "pipeline.tail",
                "pipeline.bulk_residue", "pipeline", "arith.sieve",
                "arith.correlations", "windows.window", "windows.tilde",
                "dirichlet.residue", "dirichlet.choose_r", "cli"]
COUNT_METRICS = ["variance.moduli", "variance.per_q_calls",
                 "circle.grid_points", "circle.spectrum_bytes",
                 "arith.sieve_bytes", "arith.correlation_moduli",
                 "dirichlet.residues"]


def self_time_metric(span: str) -> str:
    return f"{span}.self_s" if span in ("pipeline", "cli") else f"{span}_s"


class Tracer:
    """In-memory spans {name, start, end, parent} of one run id, plus the
    counts recorded at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    def span(self, name, fn, *args, count=None, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent})
        self._stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()
        if count is not None:
            self.counts.update(count(args, kwargs, out))
        return out

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, count=count, **kwargs)
        return traced

    def install(self, modules) -> list:
        """Wrap the layer functions; returns what `uninstall` restores."""
        saved = []
        for mod_name, layers in LAYERS.items():
            mod = modules[mod_name]
            for name, (count, funcs) in layers.items():
                for attr in funcs:
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(name, fn, count))
        return saved

    @staticmethod
    def uninstall(saved) -> None:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)

    def layer_metrics(self, first_span: int = 0) -> dict:
        """Self time per layer over spans[first_span:], plus the counts
        recorded since they were last reset."""
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None and s["parent"] >= first_span:
                child[s["parent"]] += s["end"] - s["start"]
        self_s = defaultdict(float)
        for i, s in enumerate(spans, start=first_span):
            name = SELF_TIME_AS.get(s["name"], s["name"])
            self_s[name] += s["end"] - s["start"] - child[i]
        out = {self_time_metric(n): self_s[n] for n in SPAN_METRICS}
        out.update({c: self.counts[c] for c in COUNT_METRICS})
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)
