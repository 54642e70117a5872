#!/usr/bin/env python3
"""Traced memory peaks of one apvar command, per chain stage and in all.

Usage: python scripts/peak_memory.py experiment theorem1 --N 1e6 [flags]

Runs the command in-process through `apvar.cli.main` under `tracemalloc`
and prints, for each chain stage the command entered, the highest
traced total while the stage ran (allocations made before it included),
in MB (2^20 bytes) and in bytes per N, then the same for the whole run.
tracemalloc sees numpy's array buffers, which make up nearly all of a
chain's bytes, but not the FFT library's own scratch space.  A sieve
table is read from APVAR_CACHE_DIR when it holds one (each array on
first use), and sieved in memory otherwise, so the table's arrays count
towards the peak either way, but not always at the same moment: the
README's figures are taken with a warm cache (run the command once
first).
"""

import sys
import tracemalloc
import types

from apvar import arith, cli, pipeline, variance

# (object, attribute, stage name): the functions timed as chain stages.
# A module's function counts when that module's code calls it, a class's
# method at every call.
STAGES = [
    (cli, "sieve_all", "sieve table"),
    (cli, "run_theorem1", "run_theorem1"),
    (cli, "run_theorem2", "run_theorem2"),
    (pipeline, "build_tilde_sequence", "tilde sequence"),
    (pipeline, "_chain_terms", "chain terms"),
    (pipeline, "major_weights", "  major weights"),
    (pipeline, "lag_kernel", "  lag kernel"),
    (arith.LagSpectra, "__init__", "  spectra"),
    (pipeline, "arc_masses", "  arc masses"),
    (arith.LagSpectra, "release", "  autocorrelation"),
    (pipeline, "variance_sweep", "  variance sweep"),
    (pipeline, "ramanujan_tail", "  ramanujan tail"),
    (pipeline, "reduced_class_variances", "reduced-class variances"),
    (variance, "_prime_power_class_squares", "  prime-power classes"),
    (pipeline, "windowed", "windowed"),
    (pipeline, "ramanujan_correlations", "ramanujan correlations"),
    (pipeline, "bulk_residue_predictions", "residue predictions"),
    (pipeline, "_variance_plot", "variance plot"),
]


class Peaks:
    """The traced peak of each stage.  tracemalloc keeps one peak, which
    each stage resets on entry; the stack carries every open stage's
    highest total so far, so that no enclosing stage loses the part of
    its peak that came before a nested reset.

    Stages are entered and left by a profile hook (`hook`, for
    sys.setprofile), not by wrappers: a wrapper would hold its call's
    arguments, so a table a stage drops (run_theorem2's, once d_k's
    sequence is made) would stay alive as it does not in the command."""

    def __init__(self, stages):
        # code object -> (the module namespace it counts from, or None for
        # every caller; the stage name)
        self._stages = {
            getattr(obj, attr).__code__:
                (vars(obj) if isinstance(obj, types.ModuleType) else None,
                 name)
            for obj, attr, name in stages}
        self.peaks: dict = {}
        self.order: list = []
        self._stack: list = [0]

    def _enter(self):
        self._stack[-1] = max(self._stack[-1],
                              tracemalloc.get_traced_memory()[1])
        self._stack.append(0)
        tracemalloc.reset_peak()

    def _leave(self, name):
        peak = max(self._stack.pop(), tracemalloc.get_traced_memory()[1])
        self._stack[-1] = max(self._stack[-1], peak)
        if name not in self.peaks:
            self.order.append(name)
        self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def hook(self, frame, event, arg):
        if event not in ("call", "return"):
            return
        stage = self._stages.get(frame.f_code)
        if stage is None:
            return
        scope, name = stage
        if scope is not None and frame.f_back.f_globals is not scope:
            return
        if event == "call":
            self._enter()
        else:
            self._leave(name)

    def total(self) -> int:
        return max(self._stack[0], tracemalloc.get_traced_memory()[1])


def main(argv: list) -> int:
    n = int(float(argv[argv.index("--N") + 1] if "--N" in argv
                  else cli._FLAGS["--N"]["default"]))
    peaks = Peaks(STAGES)
    tracemalloc.start()
    sys.setprofile(peaks.hook)
    try:
        code = cli.main(argv)
        total = peaks.total()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    print(f"\n{'stage':<28}{'peak MB':>10}{'bytes/N':>10}")
    for name in peaks.order:
        print(f"{name:<28}{peaks.peaks[name] / 2**20:>10.1f}"
              f"{peaks.peaks[name] / n:>10.1f}")
    print(f"{'whole run':<28}{total / 2**20:>10.1f}{total / n:>10.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
