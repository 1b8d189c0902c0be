"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/smoke_tests.py

The file name keeps these tests out of the repository's default pytest
collection; they start worker processes and take about half a minute.
"""

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = sorted(run.WORKLOADS)


def values(line):
    return {k: v["value"] for k, v in line["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    line, record = run.run_benchmark(workload, seed=3, seconds=0.1,
                                     trace=False, tiny=True)
    assert line["correct"], record["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    m = values(line)
    assert list(m) == [x["name"] for x in SPEC["end_to_end"]]
    assert all(v > 0 for v in m.values())
    assert len(record["setup_s"]) == run.SETUP_SAMPLES
    assert record["env"]["src_lines"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_grid_time(workload):
    line, record = run.run_benchmark(workload, seed=3, seconds=0.1,
                                     trace=True, tiny=True)
    assert line["correct"], record["failures"]
    m = values(line)
    assert list(m) == [x["name"] for x in SPEC["per_layer"]]
    self_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert self_sum == pytest.approx(m["trace.grid_s"], rel=1e-9)
    assert 0 < m["harness.self_s"] < m["trace.grid_s"]
    assert m["esn.run_calls"] > 0 and m["esn.steps"] > m["esn.run_calls"]
    assert m["tucker.hooi_calls"] > 0
    assert m["tucker.hooi_iters"] >= m["tucker.hooi_calls"]
    assert m["tensor_ops.validate_calls"] > 0
    assert m["classify.block_calls"] > 0
    spans = (run.OUT / f"{workload}-s3-t1-tiny" / "spans.jsonl")
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent"}
    if workload == "switching":
        assert m["data.parse_calls"] == 0
    else:
        assert m["data.parse_calls"] > 0 and m["data.bytes_parsed"] > 0


def test_tracer_rebinds_names_bound_by_import():
    run.import_package()
    from esn_tucker import harness, numlin, tensor_ops, tucker
    import numpy as np
    original = tucker.hooi
    assert harness.hooi is original
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.hooi is tucker.hooi is not original
        assert harness.fit_per_class is tucker.fit_per_class
        assert numlin.as_matrix is tensor_ops.as_matrix
        mark = tracer.mark()
        x = np.random.default_rng(0).standard_normal((6, 5, 4))
        harness.hooi(x, tucker.HooiConfig(ranks=(2, 2)))
    finally:
        tracer.uninstall()
    assert harness.hooi is original
    summary = tracer.summary(mark, grid_s=1.0)
    assert summary["by_name"]["tucker.hooi"]["calls"] == 1
    assert summary["by_name"]["numlin.truncated_svd"]["calls"] >= 2
    assert summary["counters"]["tucker.hooi.iters"] >= 1


HEADER = ("dataset,method,split,n_nodes,activation,beta,j1,j2,sigma,"
          "repetitions,mean_accuracy,std_accuracy,accuracy,degenerate_std,"
          "error")


def table(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


def test_checks_count_failed_cells():
    cfg = {"n_grid": [10], "activations": ["tanh"], "betas": [0.0],
           "sigmas": [0.0], "methods": ["weights_block", "tensor_global"],
           "dataset": {"kind": "usps"}, "repetitions": 1}
    good = table("usps,weights_block,test,10,tanh,0,,,0,1,50,0,x,1,",
                 "usps,tensor_global,test,10,tanh,0,5,4,0,1,60,0,x,1,")
    assert run.check_grid(good, cfg) == (1, {}, {})
    worse = good.replace(",60,", ",40,")
    assert len(run.check_grid(worse, cfg)[1]) == 1
    error = table("usps,error,,10,tanh,0,,,0,0,,,,0,boom")
    assert len(run.check_grid(error, cfg)[1]) == 1
    missing = table("usps,weights_block,test,10,tanh,0,,,0,1,50,0,x,1,")
    assert len(run.check_grid(missing, cfg)[1]) == 1
    rows = list(csv.DictReader(io.StringIO(good)))
    assert run.mean_accuracy(good, run.TENSOR_RULES) == float(
        rows[1]["mean_accuracy"])


def test_switching_check_allows_one_short_cell_in_five():
    cfg = {"n_grid": [10, 20, 30, 40, 50], "activations": ["tanh"],
           "betas": [0.0], "sigmas": [0.0], "methods": ["tensor_perclass"],
           "dataset": {"kind": "sine_square"}, "repetitions": 1}

    def grid(*accs):
        return table(*(f"sine_square,tensor_perclass,test,{n},tanh,0,2,5,0,"
                       f"1,{acc},0,x,1," for n, acc in zip(cfg["n_grid"],
                                                            accs)))

    assert run.check_grid(grid(100, 100, 100, 100, 100), cfg)[1:] == ({}, {})
    cells, failed, below = run.check_grid(grid(100, 99.5, 100, 100, 100),
                                          cfg)
    assert (cells, failed, len(below)) == (5, {}, 1)
    cells, failed, below = run.check_grid(grid(100, 99.5, 100, 98, 100),
                                          cfg)
    assert len(failed) == len(below) == 2


def test_same_seed_gives_same_inputs(tmp_path):
    run.import_package()
    corpora = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / name
        workdir.mkdir()
        config, units = run.make_inputs("digits", seed, workdir)
        grid = json.loads(config.read_text())
        unit_seeds = [json.loads(u.read_text())["master_seed"]
                      for u in units]
        assert [json.loads(u.read_text())["n_grid"] for u in units] == [
            [n] for n in grid["n_grid"]]
        assert len(set(unit_seeds)) == len(units)
        corpora.append(((workdir / "digits.txt").read_bytes(),
                        grid["master_seed"], unit_seeds))
    assert corpora[0] == corpora[1]
    for a, b in zip(corpora[0], corpora[2]):
        assert a != b


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "digits",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
