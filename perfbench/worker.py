"""The measured process: import esn_tucker, load the unit configs, run them.

    python3 perfbench/worker.py UNIT.json... --setup-only
    python3 perfbench/worker.py UNIT.json... --seconds S --out RESULT.json
        [--trace --spans SPANS.jsonl]

Each unit config is one slice of a workload's grid (see ``run.py``).
Prints ``ready`` once the package is imported and every config loaded;
``--setup-only`` exits there, so the parent can time set-up alone.
Otherwise the process runs a small warm-up, then the units in rounds,
one unit at a time, for about ``S`` seconds.  Each unit is
``harness.run_experiment`` plus ``harness.summarize``, as behind
``esn-tucker run``.  A fixed numpy reference kernel runs before the
first unit and after every unit, so each unit's time can be compared
with the host's speed at that moment.

Untraced, units run round-robin until the deadline, after at least one
full round.  With ``--trace`` only full rounds run, at least two, and
they alternate untraced and traced, so one process gives both the
tracing overhead and the per-layer times.  The result file holds every
unit's wall time, reference time and CSV; the parent checks the CSVs.
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from dataclasses import replace

import numpy as np

# Reference kernel inputs: fixed, never derived from the workload seed,
# so the kernel does the same work in every run of every workload.
_REF = np.random.default_rng(20170823)
_REF_W = _REF.standard_normal((20, 20)) * 0.2
_REF_U = _REF.standard_normal((20, 300))
_REF_X = _REF.standard_normal((20, 100, 24))


def reference_s():
    """Wall time of a fixed kernel shaped like the program's own work.

    A reservoir-style loop of small matrix-vector products, a Gram
    contraction, a symmetric eigensolve and a thin SVD: the operation
    mix of ``esn.run``, the harness projection and HOOI, in pure numpy.
    It shares no code with the program, so a change to the program does
    not change it.
    """
    start = time.perf_counter()
    for _ in range(20):
        x = np.zeros(20)
        for k in range(_REF_U.shape[1]):
            x = np.tanh(_REF_W @ x + _REF_U[:, k])
        gram = np.einsum("itk,jtk->ij", _REF_X, _REF_X)
        np.linalg.eigh(gram)
        np.linalg.svd(_REF_X.reshape(20, -1), full_matrices=False)
    return time.perf_counter() - start


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def warmup_config(cfg):
    """The first cell of ``cfg`` at one repetition."""
    return replace(cfg, n_grid=cfg.n_grid[:1],
                   activations=cfg.activations[:1], betas=cfg.betas[:1],
                   sigmas=cfg.sigmas[:1], repetitions=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    from esn_tucker import harness
    units = [harness.load_config(path) for path in args.configs]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    harness.summarize(harness.run_experiment(warmup_config(units[0])))
    reference_s()
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()

    runs = []      # one entry per unit run, in order
    rounds = []    # traced rounds: per-layer metrics summed over units
    deadline = time.perf_counter() + args.seconds
    ref_before = reference_s()

    def another_round():
        # traced runs keep to full rounds, so that per-layer sums cover
        # the whole grid; a round starts only if it should end less than
        # half a round past the deadline
        if not runs:
            return True
        if tracer is None:
            return time.perf_counter() < deadline
        if len(runs) < 2 * len(units):
            return True
        typical = sum(r["seconds"] for r in runs[-len(units):])
        return time.perf_counter() + typical / 2 < deadline

    round_index = 0
    while another_round():
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            tracer.install()
            mark = tracer.mark()
        for index, cfg in enumerate(units):
            if (tracer is None and round_index > 0
                    and time.perf_counter() >= deadline):
                break
            start = time.perf_counter()
            csv_text = harness.summarize(harness.run_experiment(cfg))
            seconds = time.perf_counter() - start
            ref_after = reference_s()
            runs.append({"unit": index, "round": round_index,
                         "traced": traced, "seconds": seconds,
                         "ref_s": (ref_before + ref_after) / 2,
                         "csv": csv_text})
            ref_before = ref_after
        if traced:
            tracer.uninstall()
            grid_s = sum(r["seconds"] for r in runs[-len(units):])
            rounds.append(layer_metrics(tracer.summary(mark, grid_s)))
        round_index += 1

    result = {
        "env": environment(),
        "esn_tucker": harness.__file__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "runs": runs,
        "traced_rounds": rounds,
    }
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
