import concurrent.futures
import ctypes
import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esn_tucker import classify, cli, data, esn, harness, numlin, tensor_ops
from esn_tucker.harness import (ExperimentConfig, ResultRow, resolve_rank,
                                run_experiment, summarize, parse_summary,
                                figure_series, template_config,
                                save_config, load_config)
from esn_tucker.tucker import TuckerModel, fit_per_class, hooi


def tiny_config(**overrides):
    base = dict(
        dataset={"kind": "sine_square", "train_patterns": 4,
                 "test_patterns": 4, "segments_per_pattern": 6,
                 "segment_len": 40},
        methods=("weights_pointwise", "weights_block", "tensor_global"),
        n_grid=(8,),
        activations=("tanh",),
        betas=(0.0,),
        j1_grid=(3,),
        j2_grid=(4,),
        ridge_lambda=1e-6,
        repetitions=2,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_roundtrip_through_dict(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_validation(self):
        with pytest.raises(ValueError, match="dataset kind"):
            tiny_config(dataset={"kind": "mnist"})
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_config(methods=("weights_block", "svm"))
        with pytest.raises(ValueError, match="nonempty"):
            tiny_config(methods=())
        with pytest.raises(ValueError, match="n_grid"):
            tiny_config(n_grid=())
        with pytest.raises(ValueError, match="repetitions"):
            tiny_config(repetitions=0)

    def test_templates_are_valid_configs(self):
        for kind in ("sine_square", "usps", "jv"):
            d = template_config(kind)
            cfg = ExperimentConfig.from_dict(d)
            assert cfg.dataset["kind"] == kind
        with pytest.raises(ValueError, match="unknown template"):
            template_config("other")

    @pytest.mark.parametrize("kind", harness.DATASET_KINDS)
    def test_templates_restate_no_default(self, kind):
        # each template writes out every field and dataset default, and
        # sets only what differs from them
        d = template_config(kind)
        fields = dataclasses.fields(ExperimentConfig)
        assert list(d) == [f.name for f in fields]
        defaults = harness._dataset_defaults(kind)
        needed = [key for key in harness._DATASET_KEYS[kind]
                  if key not in defaults]
        assert list(d["dataset"]) == ["kind", *needed, *defaults]
        assert defaults.items() <= d["dataset"].items()
        paths, settings = harness._TEMPLATES[kind]
        assert list(paths) == needed
        for f in fields:
            if f.name in settings:
                assert settings[f.name] != f.default, f.name

    def test_unknown_keys_named(self):
        # a template saved before hooi_tol was deleted still holds it
        d = template_config("sine_square")
        d["hooi_tol"] = 1e-8
        with pytest.raises(ValueError,
                           match=r"unknown config keys \['hooi_tol'\]"):
            ExperimentConfig.from_dict(d)

    def test_missing_keys_named(self):
        d = template_config("usps")
        del d["dataset"], d["n_grid"]
        with pytest.raises(ValueError,
                           match=r"missing config keys \['dataset', "
                                 r"'n_grid'\]"):
            ExperimentConfig.from_dict(d)

    def test_dataset_must_be_an_object(self):
        d = template_config("usps")
        d["dataset"] = "usps"
        with pytest.raises(ValueError, match="dataset must be an object"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("repetitions", "5"), ("repetitions", 2.5), ("repetitions", True),
        ("master_seed", "x"), ("master_seed", 1.0),
        ("alpha", "0.5"), ("density", None), ("spectral_radius", [0.9]),
        ("scale_in", False), ("ridge_lambda", None),
        ("n_grid", ["10"]), ("n_grid", [10, 20.0]),
        ("betas", ["a"]), ("sigmas", [0.0, None]),
        ("full_paper", 1), ("full_paper", "false"),
        # resolve_rank(True, N) is 1: true ran every cell at rank 1 and
        # false made every cell an error row
        ("j1_grid", [True]), ("j2_grid", [5, False]),
        ("j1_grid", [2.0]), ("j2_grid", [None]), ("j1_grid", [[3]]),
        # a comma split the error row's activation column, and a list
        # reached the grid unhashable
        ("activations", ["ta,nh"]), ("activations", [["tanh", "sin"]]),
        # SeedSequence failed every cell, naming no field
        ("master_seed", -1),
        # make_reservoir failed every cell, naming no field for n_grid
        ("n_grid", [0]), ("n_grid", [10, -1]), ("alpha", 1.5),
        ("alpha", -0.1), ("density", 0.0), ("density", 1.5),
        ("spectral_radius", 0.0), ("spectral_radius", -0.9),
    ])
    def test_wrong_type_named_at_load(self, tmp_path, key, value):
        d = template_config("sine_square")
        d[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=rf"^{key} (entries )?must"):
            load_config(path)

    @pytest.mark.parametrize("key, entry", [
        # each loaded, and then every cell became an error row
        ("j1_grid", "N ** 2"), ("j2_grid", "N // 0"), ("j1_grid", 0),
        ("j2_grid", -3), ("j1_grid", "N - 10"), ("j2_grid", "N - 10"),
        # a RecursionError that named no field
        pytest.param("j1_grid", "+".join(["N"] * 5000),
                     id="j1_grid-5000-term-sum"),
    ])
    def test_bad_rank_entry_named_at_load(self, tmp_path, key, entry):
        # "N - 10" resolves to 40 at N = 50 but to -4 at N = 6
        d = template_config("sine_square")
        d["n_grid"] = [50, 6]
        d[key] = [2, entry]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=rf"^{key} entries must"):
            load_config(path)

    def test_non_object_config_rejected_at_load(self, tmp_path):
        # a list or null failed in dict() with a TypeError, and a list of
        # pairs was taken as a mapping
        path = tmp_path / "cfg.json"
        for body, got in [("[1, 2]", "list"), ("null", "NoneType"),
                          ('[["dataset", 1]]', "list")]:
            path.write_text(body)
            with pytest.raises(ValueError, match=rf"^config must be an "
                                                 rf"object, got {got}$"):
                load_config(path)

    @pytest.mark.parametrize("key, text", [
        ("spectral_radius", "NaN"), ("sigmas", "[Infinity]"),
        ("ridge_lambda", "NaN"), ("scale_in", "Infinity"),
        ("betas", "[NaN]"),
    ])
    def test_nonfinite_real_named_at_load(self, tmp_path, key, text):
        # JSON's NaN and Infinity load as floats; unchecked, each ran the
        # grid into error rows that did not name the field
        d = template_config("sine_square")
        d[key] = "@"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d).replace('"@"', text))
        with pytest.raises(ValueError, match=rf"^{key} (entries )?must "
                                             r".*finite real number"):
            load_config(path)

    def test_numpy_scalars_accepted(self):
        cfg = tiny_config(alpha=np.float64(0.5), ridge_lambda=1,
                          master_seed=np.int64(3), n_grid=(np.int32(8),),
                          betas=(0, np.float32(0.5)),
                          j1_grid=(np.int64(3), "N // 2"))
        assert cfg.master_seed == 3

    def test_repeated_methods_rejected_at_load(self, tmp_path):
        # each repeat fitted every model again and wrote its rows twice
        d = template_config("sine_square")
        d["methods"] = ["tensor_global", "weights_block", "tensor_global"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="methods must not repeat"):
            load_config(path)

    @pytest.mark.parametrize("kind, key", [
        # each loaded, and the run silently used the default
        ("sine_square", "segment_length"), ("sine_square", "train_pattern"),
        ("usps", "train_path"), ("jv", "path"), ("jv", "per_class"),
    ])
    def test_unread_dataset_key_named_at_load(self, tmp_path, kind, key):
        d = template_config(kind)
        d["dataset"][key] = 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=rf"^unknown {kind} dataset "
                                             rf"keys \['{key}'\]"):
            load_config(path)

    @pytest.mark.parametrize("kind, key, value, what", [
        # each loaded and then turned every cell into an error row that
        # named no field, or raised a bare TypeError (per_class)
        ("sine_square", "train_patterns", "10", "an integer >= 1"),
        ("sine_square", "train_patterns", 2.5, "an integer >= 1"),
        ("sine_square", "test_patterns", 0, "an integer >= 1"),
        ("sine_square", "segments_per_pattern", True, "an integer >= 1"),
        ("sine_square", "segment_len", 1, "an integer >= 2"),
        ("usps", "per_class", "30", "an integer >= 1"),
        ("jv", "resample_len", 1, "an integer >= 2"),
        ("jv", "append_bias_rows", 1, "true or false"),
        ("usps", "path", 3, "a string"),
        ("jv", "test_path", None, "a string"),
    ])
    def test_wrong_dataset_value_named_at_load(self, tmp_path, kind, key,
                                               value, what):
        d = template_config(kind)
        d["dataset"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError,
                           match=rf"^dataset {key} must be {what}, got"):
            load_config(path)

    @pytest.mark.parametrize("kind, key", [
        ("usps", "path"), ("jv", "train_path"), ("jv", "test_path"),
    ])
    def test_missing_dataset_path_named_at_load(self, tmp_path, kind, key):
        # a jv config without train_path loaded, then the run raised a
        # bare KeyError
        d = template_config(kind)
        del d["dataset"][key]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=rf"^missing {kind} dataset "
                                             rf"keys \['{key}'\]"):
            load_config(path)

    @pytest.mark.parametrize("full_paper", [False, True])
    def test_dataset_defaults_filled_once(self, full_paper):
        # a run reads every key of its kind; load_jv's defaults are the
        # harness's
        for kind, keys in harness._DATASET_KEYS.items():
            defaults = harness._dataset_defaults(kind)
            given = {"kind": kind, **{key: "x" for key in keys
                                      if key not in defaults}}
            cfg = ExperimentConfig(dataset=given, methods=("weights_block",),
                                   n_grid=(4,), full_paper=full_paper)
            ds_params, reps = harness._effective(cfg)
            overrides = dict(harness._FULL_PAPER[kind]) if full_paper else {}
            assert reps == overrides.pop("repetitions", cfg.repetitions)
            assert ds_params == {**given, **defaults, **overrides}
            assert cfg.dataset == given
        params = inspect.signature(data.load_jv).parameters
        defaults = harness._dataset_defaults("jv")
        assert defaults == {key: params[key].default for key in defaults}

    def test_string_for_list_field_rejected(self):
        # a bare string would otherwise split into its characters
        d = template_config("usps")
        d["methods"] = "weights_block"
        with pytest.raises(ValueError, match="methods must be a list, "
                                             "got str"):
            ExperimentConfig.from_dict(d)


class TestResolveRank:
    def test_integer_passthrough(self):
        assert resolve_rank(7, 50) == 7
        assert resolve_rank(np.int64(7), 50) == 7

    def test_expressions_in_n(self):
        assert resolve_rank("N // 2", 25) == 12
        assert resolve_rank("max(1, N // 5)", 3) == 1
        assert resolve_rank("(3 * N) // 4", 10) == 7
        assert resolve_rank("min(N, 12)", 50) == 12

    def test_template_expressions_resolve(self):
        for kind in ("sine_square", "usps", "jv"):
            cfg = template_config(kind)
            for n in cfg["n_grid"]:
                for expr in cfg["j1_grid"] + cfg["j2_grid"]:
                    assert resolve_rank(expr, n) >= 1

    @pytest.mark.parametrize("expr", [
        "[c for c in ().__class__.__base__.__subclasses__()].__len__()",
        "__import__('os').getpid()",
        "N / 2",
        "N ** 2",
        "N.real",
        "max(N, key=abs)",
        "True",
        "2.5",
        "min()",
        "N // 0",
        "N +",
        # nested too deeply to parse: a RecursionError named no field
        pytest.param("+".join(["N"] * 5000), id="5000-term-sum"),
    ])
    def test_anything_else_is_rejected(self, expr):
        with pytest.raises(ValueError, match="rank expression"):
            resolve_rank(expr, 4)


class TestRunExperiment:
    def test_deterministic_given_master_seed(self):
        rows_a = run_experiment(tiny_config())
        rows_b = run_experiment(tiny_config())
        assert rows_a == rows_b

    def test_master_seed_changes_results(self):
        rows_a = run_experiment(tiny_config(master_seed=7))
        rows_b = run_experiment(tiny_config(master_seed=8))
        assert rows_a != rows_b

    def test_method_subsets_share_randomization(self):
        # a method's numbers must not depend on which other methods run
        full = run_experiment(tiny_config())
        solo = run_experiment(tiny_config(methods=("weights_block",)))
        pick = {(r.method, r.split): r for r in full
                if r.method == "weights_block"}
        for r in solo:
            assert r == pick[(r.method, r.split)]

    def test_row_inventory(self):
        rows = run_experiment(tiny_config())
        combos = {(r.method, r.split) for r in rows}
        assert combos == {(m, s)
                          for m in ("weights_pointwise", "weights_block",
                                    "tensor_global")
                          for s in ("train", "test")}
        for r in rows:
            assert r.repetitions == 2
            assert not r.error
            assert 0.0 <= r.mean_accuracy <= 100.0

    @pytest.mark.parametrize("method, skipped",
                             [("weights_pointwise", "block_labels"),
                              ("weights_block", "step_labels")])
    def test_only_configured_readout_rule_runs(self, monkeypatch, method,
                                               skipped):
        def refuse(*args):
            raise AssertionError(f"{skipped} was computed")

        monkeypatch.setattr(classify, skipped, refuse)
        rows = run_experiment(tiny_config(methods=(method,)), workers=1)
        assert rows and not any(r.error for r in rows)

    def test_tensor_rows_carry_resolved_ranks(self):
        rows = run_experiment(tiny_config(j1_grid=("N // 2",), j2_grid=(4,)))
        tensor = [r for r in rows if r.method == "tensor_global"]
        assert tensor and all(r.j1 == 4 and r.j2 == 4 for r in tensor)
        readout = [r for r in rows if r.method == "weights_block"]
        assert all(r.j1 == 0 and r.j2 == 0 for r in readout)

    def test_failing_cell_yields_error_row(self):
        # rank larger than the segment length cannot be fit
        rows = run_experiment(tiny_config(j2_grid=(1000,)))
        errors = [r for r in rows if r.error]
        assert errors
        assert all(r.method == "error" for r in errors)
        assert all(r.error.startswith("ValueError: ") for r in errors)
        # readout results for the same cell are lost with the cell, so
        # the error row is the only trace
        assert all(math.isnan(r.mean_accuracy) for r in errors)

    def test_single_repetition_flags_degenerate_std(self):
        rows = run_experiment(tiny_config(repetitions=1))
        assert all(r.degenerate_std for r in rows)
        assert all(r.std_accuracy == 0.0 for r in rows)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    data.make_digit_file(base / "digits.txt", per_class=6, seed=2)
    data.make_vowel_files(base / "ae.train", base / "ae.test", seed=2)
    return base


def grid_config(kind, corpus, **overrides):
    """A 2-cell x 2-repetition grid of each dataset kind."""
    datasets = {
        "sine_square": {"kind": "sine_square", "train_patterns": 3,
                        "test_patterns": 3, "segments_per_pattern": 4,
                        "segment_len": 30},
        "usps": {"kind": "usps", "path": str(corpus / "digits.txt"),
                 "per_class": 3},
        "jv": {"kind": "jv", "train_path": str(corpus / "ae.train"),
               "test_path": str(corpus / "ae.test"), "resample_len": 8},
    }
    base = dict(dataset=datasets[kind], methods=harness.METHODS,
                n_grid=(6, 8), j1_grid=(3,), j2_grid=(4,),
                ridge_lambda=1e-4, repetitions=2, master_seed=11)
    if kind == "jv":
        base.update(n_grid=(6,), sigmas=(0.0, 0.1))
    base.update(overrides)
    return ExperimentConfig(**base)


def openblas_thread_getters():
    """``get_num_threads`` of every OpenBLAS library loaded here."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return []
    getters = []
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                getters.append(fn)
                break
    return getters


@pytest.fixture
def pools(monkeypatch):
    """Records every process pool ``run_experiment`` builds."""
    built = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return built


class TestStatesCheckedOnce:
    """A repetition's states are checked once per split, as they leave
    the reservoir, and never again on the way through the grid."""

    @pytest.mark.parametrize("kind", harness.DATASET_KINDS)
    def test_repetition_makes_no_validator_pass(self, kind, corpus,
                                                monkeypatch):
        passes = []
        for module, name in [(tensor_ops, "as_tensor3"),
                             (tensor_ops, "as_matrix"),
                             (numlin, "as_matrix")]:
            check = getattr(module, name)
            monkeypatch.setattr(module, name, lambda a, check=check:
                                passes.append(1) or check(a))
        cfg = grid_config(kind, corpus, j1_grid=(2, 3))
        ds_params, _ = harness._effective(cfg)
        acc = harness._run_rep(cfg, ds_params, 0, 0, (6, "tanh", 0.0, 0.1),
                               harness._read_files(ds_params))
        assert {key[0] for key in acc} == set(harness.METHODS)
        assert {key[1:3] for key in acc if key[1]} == {(2, 4), (3, 4)}
        assert passes == []

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_nonfinite_split_named_in_one_error_row(self, split,
                                                    monkeypatch):
        run, made = esn._run, []

        def poisoned(*args):
            out = run(*args)
            for x in out:
                if len(made) % 2 == ("train", "test").index(split):
                    x[0, 0, 0] = np.nan
                made.append(x)
            return out

        monkeypatch.setattr(esn, "_run", poisoned)
        rows = run_experiment(tiny_config(), workers=1)
        assert [r.error for r in rows] == [
            f"ValueError: {split} states are not finite: the reservoir "
            "overflowed"]

    def test_overflowing_reservoir_gives_one_error_row(self):
        # identity states grow by about 1e200 a step: inf within steps
        rows = run_experiment(tiny_config(activations=("identity",),
                                          spectral_radius=1e200),
                              workers=1)
        assert [r.error for r in rows] == [
            "ValueError: train states are not finite: the reservoir "
            "overflowed"]


class TestGlobalTrainingSplit:
    """The global rule's training samples are its model's own slices:
    their labels come from core identity, with no distance product."""

    def test_training_labels_match_the_scored_split(self):
        # identity bases, so the states are the cores: equal slices with
        # other labels, and a +0.0 / -0.0 pair, put the earliest first
        slices = [[1.0, 2.0, 3.0, 4.0], [5.0, -1.0, 0.5, 2.0],
                  [1.0, 2.0, 3.0, 4.0], [0.0, 1.5, -2.0, 0.0],
                  [-0.0, 1.5, -2.0, -0.0]]
        core = np.array(slices).T.reshape(2, 2, -1)
        labels = np.arange(1, 6)
        model = TuckerModel(u=np.eye(2), v=np.eye(2), core=core,
                            slice_labels=labels, converged=True,
                            iterations=1)
        own = classify._own_slice_labels(model)
        np.testing.assert_array_equal(own, [1, 2, 1, 4, 4])
        np.testing.assert_array_equal(
            own, classify.nearest_core_labels(core, [model]))

    @pytest.mark.parametrize("kind", harness.DATASET_KINDS)
    def test_one_distance_product_per_global_model(self, kind, corpus,
                                                   monkeypatch):
        expanded, expand = [], classify._expand
        monkeypatch.setattr(classify, "_expand", lambda splits, model:
                            expanded.extend([model] * len(splits))
                            or expand(splits, model))
        calls = {}
        for method in ("tensor_global", "tensor_perclass"):
            cfg = grid_config(kind, corpus, methods=(method,),
                              j1_grid=(2, 3))
            ds_params, _ = harness._effective(cfg)
            expanded.clear()
            acc = harness._run_rep(cfg, ds_params, 0, 0,
                                   (6, "tanh", 0.0, 0.1),
                                   harness._read_files(ds_params))
            assert len(acc) == 4              # two rank pairs, two splits
            calls[method] = [sum(m is model for m in expanded)
                             for model in expanded]
        # a global model per pair, scored on the test split alone; each
        # class model on both splits
        assert calls["tensor_global"] == [1, 1]
        assert set(calls["tensor_perclass"]) == {2}
        assert len(calls["tensor_perclass"]) > 4


class TestWorkers:
    @pytest.mark.parametrize("kind", ["sine_square", "usps", "jv"])
    def test_pool_csv_equals_serial(self, kind, corpus, pools):
        cfg = grid_config(kind, corpus)
        serial = summarize(run_experiment(cfg, workers=1))
        assert not pools
        pooled = summarize(run_experiment(cfg, workers=2))
        assert pooled.encode() == serial.encode()
        assert "error" not in {r["method"] for r in parse_summary(serial)}
        if harness._blas_thread_setters():
            assert len(pools) == 1

    def test_workers_run_one_blas_thread(self, corpus, monkeypatch):
        getters = openblas_thread_getters()
        if not getters:
            pytest.skip("no OpenBLAS thread getter in this process")
        # each repetition reports its process's BLAS thread count
        monkeypatch.setattr(harness, "_run_rep", lambda *args: {
            ("weights_block", 0, 0, "test"): float(max(g() for g in getters))})
        rows = run_experiment(grid_config("sine_square", corpus), workers=2)
        assert [r.mean_accuracy for r in rows] == [1.0, 1.0]

    def test_pool_error_rows_equal_serial(self, corpus, pools):
        cfg = grid_config("sine_square", corpus, j2_grid=(1000,))
        serial = run_experiment(cfg, workers=1)
        pooled = run_experiment(cfg, workers=2)
        assert [r.method for r in serial] == ["error", "error"]
        assert summarize(pooled).encode() == summarize(serial).encode()
        assert [r.error for r in pooled] == [r.error for r in serial]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_repetition_names_the_cell(self, corpus, workers,
                                                     monkeypatch):
        real = harness._run_rep

        def fail_late(cfg, ds_params, cell_index, rep, cell, datasets):
            if rep > 0:
                raise ArithmeticError(f"rep {rep}")
            return real(cfg, ds_params, cell_index, rep, cell, datasets)

        monkeypatch.setattr(harness, "_run_rep", fail_late)
        cfg = grid_config("sine_square", corpus, n_grid=(6,), repetitions=3)
        rows = run_experiment(cfg, workers=workers)
        assert [r.error for r in rows] == ["ArithmeticError: rep 1"]

    def test_one_worker_or_one_task_builds_no_pool(self, corpus,
                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse)
        run_experiment(grid_config("sine_square", corpus), workers=1)
        one_task = grid_config("sine_square", corpus, n_grid=(6,),
                               repetitions=1)
        run_experiment(one_task)
        run_experiment(one_task, workers=2)

    def test_workers_below_one_rejected(self, corpus):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(grid_config("sine_square", corpus), workers=0)

    def test_digit_file_parsed_once_per_run(self, corpus, monkeypatch):
        calls = []
        real = data._read_usps
        monkeypatch.setattr(data, "_read_usps",
                            lambda *args: calls.append(args) or real(*args))
        run_experiment(grid_config("usps", corpus), workers=1)
        assert len(calls) == 1

    def test_bad_digit_file_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 0.1 0.2\n")
        cfg = grid_config("usps", tmp_path,
                          dataset={"kind": "usps", "path": str(path),
                                   "per_class": 1})
        with pytest.raises(ValueError, match="bad.txt:1"):
            run_experiment(cfg)


class TestSummarize:
    def make_row(self, **overrides):
        base = dict(dataset="sine_square", method="tensor_global",
                    split="test", n_nodes=10, activation="tanh", beta=0.0,
                    j1=2, j2=5, sigma=0.0, repetitions=5,
                    mean_accuracy=100.0, std_accuracy=0.0)
        base.update(overrides)
        return ResultRow(**base)

    def test_formatted_column(self):
        text = summarize([self.make_row()])
        assert '"100.00 (0.00)"' in text
        text = summarize([self.make_row(mean_accuracy=52.014,
                                        std_accuracy=1.789)])
        assert '"52.01 (1.79)"' in text

    def test_header_and_parse_roundtrip(self):
        rows = [self.make_row(),
                self.make_row(method="weights_block", j1=0, j2=0,
                              mean_accuracy=61.5, std_accuracy=2.25)]
        text = summarize(rows)
        assert text.splitlines()[0] == harness.CSV_HEADER
        records = parse_summary(text)
        assert len(records) == 2
        assert records[0]["accuracy"] == "100.00 (0.00)"
        assert records[1]["method"] == "weights_block"
        assert records[1]["j1"] == ""  # readout rows leave ranks blank
        assert records[1]["mean_accuracy"] == "61.500000"

    def test_error_rows_keep_message_one_line(self):
        row = self.make_row(method="error", repetitions=0,
                            mean_accuracy=float("nan"),
                            std_accuracy=float("nan"),
                            error="bad, cell\ndetails")
        records = parse_summary(summarize([row]))
        assert records[0]["error"] == "bad; cell details"
        assert records[0]["accuracy"] == ""

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            summarize([])

    @pytest.mark.parametrize("edit, got", [
        (lambda line: ",".join(line.split(",")[:5]), 5),
        (lambda line: line + ",extra", 16),
    ], ids=["truncated", "extra-field"])
    def test_summarize_names_a_malformed_line(self, tmp_path, edit, got):
        lines = summarize([self.make_row(), self.make_row(split="train"),
                           self.make_row(sigma=0.1)]).splitlines()
        lines[2] = edit(lines[2])
        path = tmp_path / "results.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"results line 3: expected "
                                             f"15 fields, got {got}"):
            cli.main(["summarize", str(path)])


class TestFigureSeries:
    def test_best_over_ranks_per_n(self):
        def row(n, j1, mean):
            return ResultRow(dataset="usps", method="tensor_global",
                             split="test", n_nodes=n, activation="tanh",
                             beta=0.0, j1=j1, j2=4, sigma=0.0,
                             repetitions=3, mean_accuracy=mean,
                             std_accuracy=1.0)

        rows = [row(10, 2, 60.0), row(10, 5, 72.0), row(25, 2, 80.0)]
        out = figure_series(rows)
        name = "fig_usps_tensor_global_tanh_beta0_sigma0.csv"
        assert list(out) == [name]
        lines = out[name].splitlines()
        assert lines[0] == "x,mean,std"
        assert lines[1].startswith("10,72.000000")
        assert lines[2].startswith("25,80.000000")

    def test_train_and_error_rows_ignored(self):
        train_row = ResultRow(dataset="usps", method="tensor_global",
                              split="train", n_nodes=10, activation="tanh",
                              beta=0.0, j1=2, j2=4, sigma=0.0,
                              repetitions=3, mean_accuracy=99.0,
                              std_accuracy=0.5)
        assert figure_series([train_row]) == {}

    def test_one_series_per_activation_and_beta(self):
        # one file read 90 at N = 10, the best over all three cells
        def row(activation, beta, mean):
            return ResultRow(dataset="sine_square", method="tensor_perclass",
                             split="test", n_nodes=10, activation=activation,
                             beta=beta, j1=2, j2=4, sigma=0.0, repetitions=3,
                             mean_accuracy=mean, std_accuracy=1.0)

        out = figure_series([row("tanh", 0.0, 60.0), row("sin", 0.785, 90.0),
                             row("tanh", 0.785, 70.0)])
        prefix = "fig_sine_square_tensor_perclass_"
        assert {name: text.splitlines()[1:] for name, text in out.items()} == {
            prefix + "sin_beta0.785_sigma0.csv": ["10,90.000000,1.000000"],
            prefix + "tanh_beta0_sigma0.csv": ["10,60.000000,1.000000"],
            prefix + "tanh_beta0.785_sigma0.csv": ["10,70.000000,1.000000"]}


class TestCli:
    def test_gen_run_summarize_cycle(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        assert cli.main(["gen", "--dataset", "sine_square",
                         "-o", str(cfg_path)]) == 0
        # shrink the template to smoke-test scale
        cfg = json.loads(cfg_path.read_text())
        cfg.update(n_grid=[8], activations=["tanh"], betas=[0.0],
                   repetitions=1,
                   methods=["weights_block", "tensor_global"])
        cfg["dataset"].update(train_patterns=3, test_patterns=3,
                              segments_per_pattern=4, segment_len=40)
        cfg_path.write_text(json.dumps(cfg))

        out_path = tmp_path / "results.csv"
        assert cli.main(["run", str(cfg_path), "-o", str(out_path),
                         "--seed", "3"]) == 0
        text = out_path.read_text()
        assert text.splitlines()[0] == harness.CSV_HEADER
        assert len(parse_summary(text)) == 4  # 2 methods x 2 splits

        assert cli.main(["summarize", str(out_path)]) == 0
        table = capsys.readouterr().out
        assert "tensor_global" in table
        assert "weights_block" in table

    def test_run_writes_figure_data(self, tmp_path):
        cfg = tiny_config(methods=("tensor_global",), repetitions=1)
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        fig_dir = tmp_path / "figs"
        out_path = tmp_path / "r.csv"
        assert cli.main(["run", str(cfg_path), "-o", str(out_path),
                         "--figure-data", str(fig_dir)]) == 0
        files = sorted(p.name for p in fig_dir.iterdir())
        assert files == ["fig_sine_square_tensor_global_tanh_beta0_sigma0.csv"]

    def test_seed_override_matches_config_edit(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(master_seed=0), cfg_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["run", str(cfg_path), "-o", str(a), "--seed", "7"])
        save_config(tiny_config(master_seed=7), cfg_path)
        cli.main(["run", str(cfg_path), "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_worker_count_leaves_csv_unchanged(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(n_grid=(6, 8)), cfg_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["run", str(cfg_path), "-o", str(a),
                         "--workers", "1"]) == 0
        assert cli.main(["run", str(cfg_path), "-o", str(b),
                         "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_workers_must_be_a_positive_integer(self, tmp_path, value,
                                                capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", str(tmp_path / "cfg.json"), "--workers",
                      value])
        assert "--workers" in capsys.readouterr().err


def random_dataset(rng, n_samples, n_classes, n_inputs, n_steps):
    """Gaussian whole-sample inputs, every class present."""
    return data.Dataset(
        inputs=np.stack([rng.normal(size=(n_inputs, n_steps))
                         for _ in range(n_samples)], axis=2),
        labels=np.arange(n_samples) % n_classes + 1, n_classes=n_classes)


class TestBatchedPathsMatchPublicRules:
    """Batched states and scoring against per-sample runs and public rules."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(4, 9),
           activation=st.sampled_from(["tanh", "sin"]),
           switching=st.booleans())
    def test_harness_matches_per_sample_rules(self, seed, n_nodes,
                                              activation, switching):
        rng = np.random.default_rng(seed)
        seeds = harness._rep_seeds(seed, 0, 0)
        res_seed, train_seed, test_seed, noise_seed = seeds
        beta, sigma = 0.3, 0.1
        if switching:
            ds_params = {"kind": "sine_square", "train_patterns": 3,
                         "test_patterns": 2, "segments_per_pattern": 4,
                         "segment_len": 10}
            jv_cache = None
            datasets = {"train": data.gen_sine_square(3, 4, 10,
                                                      seed=train_seed),
                        "test": data.gen_sine_square(2, 4, 10,
                                                     seed=test_seed)}
        else:
            ds_params = {"kind": "jv", "train_path": "", "test_path": ""}
            jv_cache = (random_dataset(rng, 9, 3, 2, 7),
                        random_dataset(rng, 6, 3, 2, 7))
            datasets = dict(zip(("train", "test"), jv_cache))
        datasets["test"] = data.add_noise(datasets["test"], sigma,
                                          seed=noise_seed)
        cfg = ExperimentConfig(dataset=ds_params, methods=harness.METHODS,
                               n_grid=(n_nodes,), j1_grid=(2,), j2_grid=(3,),
                               alpha=0.6, ridge_lambda=1e-3, master_seed=seed)
        acc = harness._run_rep(cfg, ds_params, 0, 0,
                               (n_nodes, activation, beta, sigma), jv_cache)
        *split_pairs, n_classes = harness._prepare_rep(
            cfg, ds_params, n_nodes, activation, beta, sigma, seeds, jv_cache)
        prepared = dict(zip(("train", "test"), split_pairs))

        # per-sample runs, switching patterns cut into their segments
        # pattern-major: pattern k of signal b is sample k B + b
        reservoir = esn.make_reservoir(
            n_nodes, datasets["train"].inputs.shape[0],
            alpha=cfg.alpha, beta=beta, activation=activation,
            seed=res_seed)
        units = {}
        for split, ds in datasets.items():
            runs = [esn.run(reservoir, ds.inputs[:, :, b])
                    for b in range(len(ds.labels))]
            if switching:
                units[split] = [(states[:, lo:lo + 10], ds.step_labels[b, lo])
                                for lo in range(0, runs[0].shape[1], 10)
                                for b, states in enumerate(runs)]
            else:
                units[split] = list(zip(runs, ds.labels))
            x, y = prepared[split]
            assert x.shape[2] == len(units[split])
            for b, (states, label) in enumerate(units[split]):
                np.testing.assert_allclose(x[:, :, b], states, rtol=0,
                                           atol=1e-12)
                assert y[b] == label

        def accuracy(hits):
            return pytest.approx(100.0 * np.mean(hits), abs=1e-9)

        # the public rules score the batch's own state matrices
        mats = {split: [(x[:, :, b], label) for b, label in enumerate(y)]
                for split, (x, y) in prepared.items()}
        weights = classify.train_output_weights(
            np.stack([m for m, _ in mats["train"]], axis=2),
            [label for _, label in mats["train"]], cfg.ridge_lambda,
            n_classes=n_classes)
        expected = {}
        for split, pairs in mats.items():
            steps = [[classify.classify_pointwise(weights, m, t).label
                      for t in range(1, m.shape[1] + 1)] for m, _ in pairs]
            if switching:
                hits = [lab == label for (_, label), row in zip(pairs, steps)
                        for lab in row]
            else:
                hits = [np.bincount(row).argmax() == label
                        for (_, label), row in zip(pairs, steps)]
            expected[("weights_pointwise", 0, 0, split)] = accuracy(hits)
            expected[("weights_block", 0, 0, split)] = accuracy(
                [classify.classify_block(weights, m).label == label
                 for m, label in pairs])

        train = mats["train"]
        labels = np.array([label for _, label in train])
        global_model = hooi(np.stack([m for m, _ in train], axis=2),
                            (2, 3), labels)
        class_models = fit_per_class(
            np.stack([m for m, _ in train], axis=2), [(2, 3)], labels)[0]
        rules = {
            "tensor_global": lambda m: classify.classify_global_tensor(
                m, global_model),
            "tensor_perclass": lambda m: classify.classify_perclass_tensor(
                m, class_models),
        }
        for method, rule in rules.items():
            for split, pairs in mats.items():
                expected[(method, 2, 3, split)] = accuracy(
                    [rule(m).label == label for m, label in pairs])
        assert acc == expected


class TestSharedReservoirRun:
    """Both splits step side by side through one recursion."""

    @pytest.mark.parametrize("n_nodes", [6, 20, 50])
    @pytest.mark.parametrize(
        "switching, widths",
        [(True, (3, 3)), (False, (6, 6)), (True, (3, 8)), (False, (3, 8)),
         (True, (20, 50)), (False, (20, 50))],
        ids=["switching", "whole", "switching-3-8", "whole-3-8",
             "switching-20-50", "whole-20-50"])
    def test_equal_splits_match_run_per_split(self, n_nodes, switching,
                                              widths):
        # each split's states are its columns of one run of both splits'
        # samples, switching signals before they are cut into patterns
        seeds = [11, 12, 13, 14]
        beta, sigma = 0.3, 0.1
        if switching:
            ds_params = {"kind": "sine_square", "train_patterns": widths[0],
                         "test_patterns": widths[1],
                         "segments_per_pattern": 7, "segment_len": 10}
            jv_cache = None
            datasets = [data.gen_sine_square(b, 7, 10, seed=seed)
                        for b, seed in zip(widths, seeds[1:3])]
        else:
            ds_params = {"kind": "jv", "train_path": "", "test_path": ""}
            rng = np.random.default_rng(5)
            jv_cache = datasets = [random_dataset(rng, b, 3, 2, 9)
                                   for b in widths]
        cfg = ExperimentConfig(dataset=ds_params, methods=harness.METHODS,
                               n_grid=(n_nodes,), alpha=0.5)
        *pairs, _ = harness._prepare_rep(cfg, ds_params, n_nodes, "tanh",
                                         beta, sigma, seeds, jv_cache)
        reservoir = esn.make_reservoir(
            n_nodes, datasets[0].inputs.shape[0], alpha=cfg.alpha,
            beta=beta, activation="tanh", seed=seeds[0])
        datasets[1] = data.add_noise(datasets[1], sigma, seed=seeds[3])
        whole = esn.run(reservoir, np.concatenate(
            [ds.inputs for ds in datasets], axis=2))
        cols = np.cumsum((0,) + widths)
        for (xs, ys), ds, lo, hi in zip(pairs, datasets, cols[:-1],
                                        cols[1:]):
            x, y = whole[:, :, lo:hi], ds.labels
            if switching:
                n, t, b = x.shape
                x = (x.reshape(n, t // 10, 10, b)
                     .transpose(0, 2, 1, 3).reshape(n, 10, -1))
                y = ds.step_labels[:, ::10].T.ravel()
            np.testing.assert_array_equal(xs, x)
            np.testing.assert_array_equal(ys, y)

    @pytest.mark.parametrize("kind, widths", [
        ("sine_square", (3, 5)), ("usps", (30, 30)), ("jv", (270, 370))])
    def test_one_recursion_per_repetition(self, kind, widths, corpus,
                                          monkeypatch):
        # the digit splits are always of equal width, the others here not
        calls = []
        real_run = esn._run

        def spy(reservoir, batches, *args, **kwargs):
            calls.append([np.shape(a)[2] for a in batches])
            return real_run(reservoir, batches, *args, **kwargs)

        monkeypatch.setattr(esn, "_run", spy)
        cfg = grid_config(kind, corpus)
        ds_params, _ = harness._effective(cfg)
        if kind == "sine_square":
            ds_params["test_patterns"] = 5
        harness._prepare_rep(cfg, ds_params, 8, "tanh", 0.0, 0.1,
                             [1, 2, 3, 4], harness._read_files(ds_params))
        assert calls == [list(widths)]

    def test_peak_memory_of_a_switching_repetition(self):
        # three split-sized arrays: both results and about one more; a
        # time-major buffer of both whole splits would be two more
        import tracemalloc
        cfg = ExperimentConfig.from_dict(template_config("sine_square"))
        ds_params, _ = harness._effective(cfg)
        split_bytes = 50 * 3000 * 10 * 8
        tracemalloc.start()
        try:
            harness._prepare_rep(cfg, ds_params, 50, "tanh", 0.0, 0.0,
                                 [1, 2, 3, 4], None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 3 * split_bytes
