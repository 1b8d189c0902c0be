"""Benchmark of esn-tucker experiment grids, timed end to end.

    python3 perfbench/run.py --workload switching --seed 1 --trace 0

Builds the workload's inputs from ``--seed`` (a grid config, its unit
configs and, for the sample benchmarks, a synthetic corpus), then
starts ``worker.py`` on them: one process, one BLAS thread, one unit
at a time in a closed loop for about ``--seconds`` seconds.  A unit is
one slice of the grid; the units together are the grid.  Every CSV is
checked against the claims the acceptance tests encode.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record goes to
``perfbench/out/``.

``--workload all`` runs the three workloads in turn and merges their
results, each metric prefixed with its workload name.
"""

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
RUN_LIMIT_S = 170.0       # every run ends well within 180 s
SETUP_SAMPLES = 7         # fresh processes timed per run for setup_s

# Why each workload exists is in NOTES.md.  Repetition counts are
# lowered from the acceptance sizes so that a run holds several rounds;
# the per-repetition shapes, which set each layer's share, are unchanged.
# A unit is one (N, activation, beta) slice of the grid with every
# sigma: the speaker loader runs once per run_experiment call, so
# splitting the sigma axis would parse the speaker files once per cell.
WORKLOADS = {
    # SS_CONFIG of tests/test_acceptance.py
    "switching": {
        "config": {
            "dataset": {"kind": "sine_square", "train_patterns": 10,
                        "test_patterns": 10, "segments_per_pattern": 30,
                        "segment_len": 100},
            "methods": ["weights_pointwise", "tensor_perclass"],
            "n_grid": [10, 20, 50],
            "activations": ["tanh", "sin"],
            "betas": [0.0, math.pi / 4],
            "j1_grid": ["max(1, N // 5)"],
            "j2_grid": [5],
            "alpha": 0.5,
            "ridge_lambda": 1e-6,
            "repetitions": 1,
        },
        "tiny": {"n_grid": [10], "activations": ["tanh"], "betas": [0.0],
                 "dataset": {"train_patterns": 2, "test_patterns": 2,
                             "segments_per_pattern": 5}},
    },
    # template_config("usps") on make_digit_file(per_class=80)
    "digits": {
        "template": "usps",
        "config": {"repetitions": 1},
        "tiny": {"n_grid": [10], "j1_grid": [5], "j2_grid": [4],
                 "repetitions": 1, "dataset": {"per_class": 10}},
    },
    # template_config("jv") on make_vowel_files output
    "speakers": {
        "template": "jv",
        "config": {"repetitions": 2},
        "tiny": {"n_grid": [4], "sigmas": [0.0], "repetitions": 1},
    },
}
TENSOR_RULES = ("tensor_global", "tensor_perclass")
READOUT_RULES = ("weights_pointwise", "weights_block")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_package():
    """Import esn_tucker from this checkout's ``src``, never elsewhere."""
    if not (SRC / "esn_tucker" / "__init__.py").is_file():
        raise BenchError(f"no esn_tucker package under {SRC}")
    sys.path.insert(0, str(SRC))
    import esn_tucker
    if Path(esn_tucker.__file__).resolve().parent != SRC / "esn_tucker":
        raise BenchError(f"esn_tucker imported from {esn_tucker.__file__}")


def merged(base, overrides):
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict):
            value = {**out.get(key, {}), **value}
        out[key] = value
    return out


def make_inputs(workload, seed, workdir, tiny=False):
    """Write the workload's grid config, unit configs and corpus files.

    Returns the grid config path and the unit config paths.
    ``master_seed`` and the corpus seed both derive from ``seed``, and
    each unit's master seed from ``master_seed`` and the unit's index,
    so the same seed gives the same inputs.
    """
    from esn_tucker import data, harness
    import numpy as np
    master_seed, corpus_seed = (int(v) for v in np.random.SeedSequence(
        seed).generate_state(2))
    spec = WORKLOADS[workload]
    cfg = {}
    if workload == "digits":
        path = workdir / "digits.txt"
        data.make_digit_file(path, per_class=80, seed=corpus_seed)
        cfg = {"dataset": {"path": str(path)}}
    elif workload == "speakers":
        train, test = workdir / "ae.train", workdir / "ae.test"
        data.make_vowel_files(train, test, seed=corpus_seed)
        cfg = {"dataset": {"train_path": str(train),
                           "test_path": str(test)}}
    if "template" in spec:
        cfg = merged(harness.template_config(spec["template"]), cfg)
    cfg = merged(merged(cfg, spec["config"]), {"master_seed": master_seed})
    if tiny:
        cfg = merged(cfg, spec["tiny"])
    path = workdir / "config.json"
    harness.save_config(harness.ExperimentConfig.from_dict(cfg), path)
    units = []
    slices = itertools.product(cfg["n_grid"], cfg["activations"],
                               cfg["betas"])
    for index, (n, activation, beta) in enumerate(slices):
        unit_seed = np.random.SeedSequence(
            master_seed, spawn_key=(index,)).generate_state(1)[0]
        unit = merged(cfg, {"n_grid": [n], "activations": [activation],
                            "betas": [beta], "master_seed": int(unit_seed)})
        units.append(workdir / f"unit-{index:02d}.json")
        harness.save_config(harness.ExperimentConfig.from_dict(unit),
                            units[-1])
    return path, units


def check_grid(csv_text, cfg):
    """Cells attempted, cells that fail an output check, cells below 100%.

    A cell fails on an error row, a missing or malformed method row, or
    a miss of the claim the acceptance tests make for its dataset.  On
    the sample benchmarks the best global-core rule must reach the block
    readout.  On the switching signal the per-class core rule must be at
    100% test accuracy; ``tests/test_acceptance.py`` lets one repetition
    in five per cell fall short, so up to a fifth of the grid's
    cell-repetitions may be below 100%, and past that allowance every
    cell below 100% fails.
    """
    cells = {(str(n), a, f"{b:.6g}", f"{s:.6g}")
             for n in cfg["n_grid"] for a in cfg["activations"]
             for b in cfg["betas"] for s in cfg["sigmas"]}
    by_cell = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        key = (row["n_nodes"], row["activation"], row["beta"], row["sigma"])
        by_cell.setdefault(key, []).append(row)
    switching = cfg["dataset"]["kind"] == "sine_square"
    failed, below = {}, {}
    for cell in sorted(cells | set(by_cell)):
        test = {}
        problem = None
        for r in by_cell.get(cell, []):
            if r["method"] == "error" or r["error"]:
                problem = f"error row: {r['error']}"
                break
            acc = float(r["mean_accuracy"])
            if not 0.0 <= acc <= 100.0:
                problem = f"{r['method']} accuracy {acc}"
                break
            if r["split"] == "test":
                test.setdefault(r["method"], []).append(acc)
        missing = [m for m in cfg["methods"] if m not in test]
        if problem is None and missing:
            problem = f"no test rows for {missing}"
        if problem is None and switching:
            if min(test["tensor_perclass"]) < 100.0:
                below[cell] = (f"per-class core rule at "
                               f"{min(test['tensor_perclass']):.2f}%")
        elif problem is None:
            tensor = max(test["tensor_global"])
            readout = max(test["weights_block"])
            if tensor < readout:
                problem = (f"global core {tensor:.2f} < block readout "
                           f"{readout:.2f}")
        if problem is not None:
            failed[cell] = problem
    if 5 * len(below) > len(cells) * cfg["repetitions"]:
        failed.update(below)
    return len(cells), failed, below


def mean_accuracy(csv_text, rules):
    accs = [float(r["mean_accuracy"])
            for r in csv.DictReader(io.StringIO(csv_text))
            if r["split"] == "test" and r["method"] in rules]
    return statistics.fmean(accs)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    # one BLAS thread: the matrices are small, and a second OpenBLAS
    # thread spins on the other core without making grids faster
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_setup(units, env, deadline):
    """Seconds from process start until the package and configs are loaded."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           *map(str, units), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                          text=True) as proc:
        try:
            if select.select([proc.stdout], [], [],
                             max(1.0, deadline - time.monotonic()))[0]:
                line = proc.stdout.readline().strip()
            else:
                line = None
            elapsed = time.perf_counter() - start
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            line = None
        if line is None:
            proc.kill()
            proc.wait()
            raise BenchError("set-up process did not finish in time")
    if line != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up process failed ({proc.returncode})")
    return elapsed


def run_worker(units, seconds, trace, rundir, env, deadline):
    out = rundir / "worker.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, units),
           "--seconds", str(seconds), "--out", str(out)]
    if trace:
        cmd += ["--trace", "--spans", str(rundir / "spans.jsonl")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def source_record():
    """Git SHA when available, and the line count and digest of ``src``."""
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            git_sha = sha.stdout.strip() if sha.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        content = path.read_bytes()
        lines += content.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + content)
    return {"git_sha": git_sha, "src_lines": lines,
            "src_sha256": digest.hexdigest()}


def run_benchmark(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (result line, full record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    import_package()
    rundir = OUT / f"{workload}-s{seed}-t{int(trace)}{'-tiny' * tiny}"
    rundir.mkdir(parents=True, exist_ok=True)
    config, units = make_inputs(workload, seed, rundir, tiny)
    with open(config) as fh:
        cfg = json.load(fh)
    env = worker_env()

    setups = []
    if not trace:
        # the imports above compiled the bytecode and filled the caches
        setups = [time_setup(units, env, deadline)
                  for _ in range(SETUP_SAMPLES)]
    result = run_worker(units, seconds, trace, rundir, env, deadline)
    if Path(result["esn_tucker"]).resolve().parent != SRC / "esn_tucker":
        raise BenchError(f"worker imported {result['esn_tucker']}")

    # The first round ran every unit once; their CSVs, joined in unit
    # order, are the grid's CSV, checked as a whole.  Every later run of
    # a unit must repeat the unit's first CSV byte for byte.
    runs = result["runs"]
    first = [r for r in runs if r["round"] == 0]
    if [r["unit"] for r in first] != list(range(len(units))):
        raise BenchError("the first round did not run every unit")
    grid_csv = first[0]["csv"] + "".join(
        r["csv"].split("\n", 1)[1] for r in first[1:])
    n_cells, bad, below = check_grid(grid_csv, cfg)
    index_of = {(str(n), a, f"{b:.6g}"): i
                for i, (n, a, b) in enumerate(itertools.product(
                    cfg["n_grid"], cfg["activations"], cfg["betas"]))}
    bad_in_unit = [0] * len(units)
    for cell in bad:
        bad_in_unit[index_of.get(cell[:3], 0)] += 1
    cells_per_unit = n_cells // len(units)
    attempted = failed = 0
    failures = [f"cell {c}: {why}" for c, why in bad.items()]
    notes = [f"cell {c}: {why}, within the acceptance allowance"
             for c, why in below.items() if c not in bad]
    for r in runs:
        attempted += cells_per_unit
        if r["csv"] == first[r["unit"]]["csv"]:
            failed += bad_in_unit[r["unit"]]
        else:
            failed += cells_per_unit
            failures.append(f"unit {r['unit']} round {r['round']}: CSV "
                            "differs from the unit's first run")

    untraced = [[r for r in runs if r["unit"] == u and not r["traced"]]
                for u in range(len(units))]
    wall_s = sum(statistics.median(r["seconds"] for r in u)
                 for u in untraced)
    if trace:
        traced = result["traced_rounds"]
        metrics = {k: statistics.fmean(t[k] for t in traced)
                   for k in traced[0]}
        metrics["trace.overhead_s"] = metrics["trace.grid_s"] - wall_s
        section = "per_layer"
    else:
        metrics = {
            "grid_ref": sum(statistics.median(r["seconds"] / r["ref_s"]
                                              for r in u)
                            for u in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "acc_tensor_pct": mean_accuracy(grid_csv, TENSOR_RULES),
            "acc_readout_pct": mean_accuracy(grid_csv, READOUT_RULES),
        }
        section = "end_to_end"

    units_of = {m["name"]: m["unit"] for m in load_spec()[section]}
    missing = sorted(set(units_of) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units_of[k]}
                    for k in units_of},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "tiny": tiny,
        "env": {**result["env"], **source_record()},
        "grid_s": wall_s,
        "runs": [{k: v for k, v in r.items() if k != "csv"} for r in runs],
        "setup_s": setups,
        "csv_sha256": hashlib.sha256(grid_csv.encode()).hexdigest(),
        "failures": failures,
        "notes": notes,
        "metrics": metrics,
        "result": line,
    }
    with open(rundir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    with open(rundir / "results.csv", "w") as fh:
        fh.write(grid_csv)
    return line, record


def report(record):
    """Human-readable lines for one workload's record."""
    env = record["env"]
    runs = record["runs"]
    yield (f"# {record['workload']} seed={record['seed']} "
           f"trace={int(record['trace'])}: {len(runs)} unit runs, "
           f"csv sha256 {record['csv_sha256'][:16]}")
    yield (f"# env: nproc={env['nproc']} python={env['python']} "
           f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
           f"blas_threads={env['blas_threads']} git={env['git_sha']} "
           f"src_lines={env['src_lines']}")
    refs = [r["ref_s"] for r in runs]
    yield (f"# grid wall time {record['grid_s']:.3f} s (sum of unit "
           f"medians); reference kernel {min(refs):.4f} to "
           f"{max(refs):.4f} s")
    for name, m in record["result"]["metrics"].items():
        yield f"{name:28s} {m['value']:14.6g} {m['unit']}"
    for failure in record["failures"]:
        yield f"FAILED {failure}"
    for note in record["notes"]:
        yield f"# note: {note}"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time esn-tucker experiment grids end to end.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        seconds = args.seconds or load_spec()["run_seconds"]
        names = sorted(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        lines = {}
        for name in names:
            line, record = run_benchmark(name, args.seed, seconds,
                                         args.trace)
            for text in report(record):
                print(text)
            lines[name] = line
    except (BenchError, OSError, ValueError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(ln["correct"] for ln in lines.values()),
            "attempted": sum(ln["attempted"] for ln in lines.values()),
            "failed": sum(ln["failed"] for ln in lines.values()),
            "metrics": {f"{w}.{k}": v for w, ln in lines.items()
                        for k, v in ln["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
