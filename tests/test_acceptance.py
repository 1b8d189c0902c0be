"""End-to-end acceptance checks for the full pipeline.

Each test prints a single PASS line when its criterion holds:

1. switching-signal: the per-class nearest-core rule reaches 100% test
   accuracy in at least 4 of 5 repetitions in every grid cell,
2. switching-signal: the pointwise readout sits near chance in the
   weakest cell and near-perfect in the strongest,
3. sample benchmarks: the global nearest-core rule beats or matches the
   block readout on the digit corpus (per N) and the speaker corpus
   (per N and noise level),
4. the unit/property suite completes in under a minute,
5. repeated runs under one master seed emit byte-identical CSV.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from esn_tucker import data, harness
from esn_tucker.harness import ExperimentConfig

SS_N_GRID = (10, 20, 50)
SS_ACTIVATIONS = ("tanh", "sin")
SS_BETAS = (0.0, math.pi / 4)

SS_CONFIG = ExperimentConfig(
    dataset={"kind": "sine_square", "train_patterns": 10,
             "test_patterns": 10, "segments_per_pattern": 30,
             "segment_len": 100},
    methods=("weights_pointwise", "tensor_perclass"),
    n_grid=SS_N_GRID,
    activations=SS_ACTIVATIONS,
    betas=SS_BETAS,
    j1_grid=("max(1, N // 5)",),
    j2_grid=(5,),
    alpha=0.5,
    ridge_lambda=1e-6,
    repetitions=5,
    master_seed=0,
)


def run_switching_grid():
    """Per-repetition test accuracies for every switching-signal cell,
    and the grid's wall time in seconds.

    Runs the harness's own (cell, repetition) tasks on its worker pool,
    so every method inside a repetition sees identical draws.  Returns
    ``({(n, activation, beta): {method: [acc per rep]}}, seconds)``.
    """
    cfg = SS_CONFIG
    ds_params, reps = harness._effective(cfg)
    cells = list(itertools.product(cfg.n_grid, cfg.activations, cfg.betas,
                                   cfg.sigmas))
    tasks = [(cell_index, rep, cell) for cell_index, cell in enumerate(cells)
             for rep in range(reps)]
    start = time.monotonic()
    results = harness._map_reps(cfg, ds_params, None, tasks, None)
    seconds = time.monotonic() - start
    out = {}
    for (_, rep, (n, activation, beta, _)), result in zip(tasks, results):
        if isinstance(result, str):
            pytest.fail(f"N={n}, f={activation}, beta={beta:.4g}, "
                        f"repetition {rep}: {result}")
        j1 = harness.resolve_rank(cfg.j1_grid[0], n)
        j2 = harness.resolve_rank(cfg.j2_grid[0], n)
        accs = out.setdefault((n, activation, beta),
                              {"tensor_perclass": [], "weights_pointwise": []})
        accs["tensor_perclass"].append(
            result[("tensor_perclass", j1, j2, "test")])
        accs["weights_pointwise"].append(
            result[("weights_pointwise", 0, 0, "test")])
    return out, seconds


@pytest.fixture(scope="module")
def switching_grid():
    return run_switching_grid()


class TestSwitchingSignal:
    def test_criterion_1_perclass_tensor_is_perfect(self, switching_grid):
        grid, seconds = switching_grid
        for (n, activation, beta), accs in grid.items():
            perfect = sum(a == 100.0 for a in accs["tensor_perclass"])
            cell = f"N={n}, f={activation}, beta={beta:.4g}"
            assert perfect >= 4, (
                f"{cell}: only {perfect}/5 repetitions at 100% "
                f"({accs['tensor_perclass']})"
            )
        # the grid's wall time bounds every cell's
        assert seconds < 120.0, f"switching grid took {seconds:.1f}s"
        print("\ncriterion 1 PASS: per-class nearest-core rule at 100% "
              "test accuracy in >= 4/5 repetitions for all "
              f"{len(grid)} cells")

    def test_criterion_2_pointwise_readout_bands(self, switching_grid):
        grid, _ = switching_grid
        low = np.mean(grid[(10, "sin", 0.0)]["weights_pointwise"])
        high = np.mean(grid[(50, "tanh", math.pi / 4)]["weights_pointwise"])
        assert 48.0 <= low <= 58.0, f"weak-cell accuracy {low:.2f}"
        assert 97.0 <= high <= 100.0, f"strong-cell accuracy {high:.2f}"
        print(f"\ncriterion 2 PASS: pointwise readout at {low:.2f}% "
              f"(N=10, sin, beta=0) and {high:.2f}% (N=50, tanh, "
              "beta=pi/4)")


@pytest.fixture(scope="module")
def digit_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc_digits") / "digits.txt"
    data.make_digit_file(path, per_class=80, seed=1)
    return path


@pytest.fixture(scope="module")
def vowel_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("acc_jv")
    train, test = base / "ae.train", base / "ae.test"
    data.make_vowel_files(train, test, seed=5)
    return train, test


class TestSampleBenchmarks:
    def test_criterion_3a_digits_tensor_beats_readout(self, digit_file):
        cfg = ExperimentConfig.from_dict(harness.template_config("usps"))
        cfg = ExperimentConfig.from_dict(
            {**cfg.to_dict(),
             "dataset": {"kind": "usps", "path": str(digit_file),
                         "per_class": 30}})
        rows = run_experiment_checked(cfg)
        lines = []
        for n in cfg.n_grid:
            tensor = max(r.mean_accuracy for r in rows
                         if r.method == "tensor_global" and r.split == "test"
                         and r.n_nodes == n)
            readout = max(r.mean_accuracy for r in rows
                          if r.method == "weights_block"
                          and r.split == "test" and r.n_nodes == n)
            assert tensor >= readout, (
                f"N={n}: best tensor {tensor:.2f} < readout {readout:.2f}"
            )
            lines.append(f"N={n}: {tensor:.2f} >= {readout:.2f}")
        print("\ncriterion 3a PASS (digits, best tensor vs block readout): "
              + "; ".join(lines))

    def test_criterion_3b_speakers_tensor_beats_readout(self, vowel_files):
        train, test = vowel_files
        cfg = ExperimentConfig.from_dict(harness.template_config("jv"))
        cfg = ExperimentConfig.from_dict(
            {**cfg.to_dict(),
             "dataset": {"kind": "jv", "train_path": str(train),
                         "test_path": str(test), "resample_len": 24,
                         "append_bias_rows": True}})
        rows = run_experiment_checked(cfg)
        lines = []
        for sigma in cfg.sigmas:
            for n in cfg.n_grid:
                tensor = max(r.mean_accuracy for r in rows
                             if r.method == "tensor_global"
                             and r.split == "test" and r.n_nodes == n
                             and r.sigma == sigma)
                readout = max(r.mean_accuracy for r in rows
                              if r.method == "weights_block"
                              and r.split == "test" and r.n_nodes == n
                              and r.sigma == sigma)
                assert tensor >= readout, (
                    f"N={n}, sigma={sigma}: tensor {tensor:.2f} < "
                    f"readout {readout:.2f}"
                )
            lines.append(f"sigma={sigma:g}: ok")
        print("\ncriterion 3b PASS (speakers, tensor vs block readout at "
              "every noise level): " + "; ".join(lines))


def run_experiment_checked(cfg):
    rows = harness.run_experiment(cfg)
    errors = [r for r in rows if r.error]
    assert not errors, f"cells failed: {[r.error for r in errors]}"
    return rows


class TestSuiteProperties:
    def test_criterion_4_property_suite_under_a_minute(self, request):
        modules = ["tests/test_tensor_ops.py", "tests/test_numlin.py",
                   "tests/test_tucker.py", "tests/test_esn.py",
                   "tests/test_classify.py", "tests/test_data.py",
                   "tests/test_harness.py"]
        # tests/conftest.py runs this test last and times the modules as
        # they run; unless all of them ran here, run them again
        totals = request.config.pluginmanager.get_plugin(
            "suite-clock").totals(modules)
        if totals is None:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p",
                 "no:cacheprovider", *modules],
                capture_output=True, text=True)
            elapsed = time.monotonic() - start
            assert proc.returncode == 0, proc.stdout + proc.stderr
        else:
            elapsed, failed = totals
            assert not failed, f"property suite failed: {failed}"
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
        print(f"\ncriterion 4 PASS: property suite green in {elapsed:.1f}s")

    def test_criterion_5_repeat_runs_byte_identical(self):
        cfg = ExperimentConfig(
            dataset={"kind": "sine_square", "train_patterns": 4,
                     "test_patterns": 4, "segments_per_pattern": 5,
                     "segment_len": 60},
            methods=harness.METHODS,
            n_grid=(8, 12),
            activations=("tanh", "sin"),
            betas=(0.0, math.pi / 4),
            j1_grid=(3,),
            j2_grid=(4,),
            ridge_lambda=1e-6,
            repetitions=3,
            master_seed=123,
        )
        first = harness.summarize(harness.run_experiment(cfg))
        second = harness.summarize(harness.run_experiment(cfg))
        assert first.encode() == second.encode()
        print("\ncriterion 5 PASS: repeated runs with one master seed "
              "produce byte-identical CSV")
