"""Config-driven experiment runner.

Runs parameter grids of repeated randomized trials.  Within one
repetition the reservoir weights, the dataset draw and the test noise
are drawn once and shared by every classification method, so the
methods are compared on identical randomizations.  Per-repetition seeds
derive from the master seed through a counter-based scheme
(``SeedSequence(master_seed, spawn_key=(cell_index, repetition))``), so
results are reproducible and cells are independent.

Each split of a repetition enters as one L x T x B input array
(``data.Dataset``) and leaves the reservoir as one N x T x B state
tensor of its B samples with their labels, scored by the batch rules
of ``classify``.  A switching signal's K patterns are cut into their
segments pattern-major: pattern k of signal b is sample ``k B + b``.
Splits of equal shape step through one reservoir recursion, which
writes each split's states straight into that tensor.

Each (cell, repetition) is one task.  The digit or speaker files are
read once per run, before any task; ``run_experiment`` then evaluates
the tasks inline, or on a pool of forked worker processes that inherit
the run's config and parsed files, each worker with one OpenBLAS
thread.  Where the pool cannot pin OpenBLAS (no ``fork``, no
``sched_getaffinity``, no setter found in a loaded library) the grid
runs inline.  Rows are assembled in cell order from the per-repetition
results, so the CSV is byte-identical for every worker count.  A failing
repetition turns its cell into one error row carrying the first failing
repetition's ``"<Type>: <message>"``.

Accuracy accounting: the switching-signal dataset counts segments (time
steps for the pointwise rule); the whole-sample datasets count samples.
"""

import ast
import csv
import io
import itertools
import json
import math
import numbers
import os
from dataclasses import MISSING, dataclass, asdict, fields

import numpy as np

from . import classify, data, esn
from .tucker import hooi, fit_per_class

METHODS = ("weights_pointwise", "weights_block", "tensor_global",
           "tensor_perclass")
DATASET_KINDS = ("sine_square", "usps", "jv")
# the dataset keys each kind reads, and those it needs
_DATASET_KEYS = {
    "sine_square": ({"train_patterns", "test_patterns",
                     "segments_per_pattern", "segment_len"}, []),
    "usps": ({"path", "per_class"}, ["path"]),
    "jv": ({"train_path", "test_path", "resample_len", "append_bias_rows"},
           ["train_path", "test_path"]),
}
# config fields held as tuples and written to JSON as lists
_TUPLE_FIELDS = {"methods", "n_grid", "activations", "betas", "sigmas",
                 "j1_grid", "j2_grid"}

_INT = (lambda v: isinstance(v, numbers.Integral)
        and not isinstance(v, bool), "an integer")
# JSON's NaN and Infinity load as floats
_REAL = (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
         and math.isfinite(v), "a finite real number")
# bool is an int and resolve_rank(True, N) is 1, so rank entries are typed
_RANK = (lambda v: isinstance(v, str) or _INT[0](v),
         "an integer or a rank-expression string")
# the type of each scalar config field, and of each entry of the list
# fields (methods and activations are checked by name or by use)
_FIELD_TYPES = {
    "n_grid": _INT, "betas": _REAL, "sigmas": _REAL,
    "j1_grid": _RANK, "j2_grid": _RANK,
    "alpha": _REAL, "density": _REAL, "spectral_radius": _REAL,
    "scale_in": _REAL, "ridge_lambda": _REAL,
    "repetitions": _INT, "master_seed": _INT,
    "full_paper": (lambda v: isinstance(v, bool), "true or false"),
}

# full-scale settings activated by the full_paper flag
_FULL_PAPER = {
    "sine_square": {"repetitions": 50, "train_patterns": 20,
                    "test_patterns": 50, "segments_per_pattern": 100},
    "usps": {"repetitions": 40, "per_class": 100},
    "jv": {"repetitions": 20},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Grids, method list and seeds for one experiment run."""

    dataset: dict
    methods: tuple
    n_grid: tuple
    activations: tuple = ("tanh",)
    betas: tuple = (0.0,)
    sigmas: tuple = (0.0,)
    j1_grid: tuple = ("max(1, N // 5)",)
    j2_grid: tuple = (5,)
    alpha: float = 1.0
    density: float = 0.1
    spectral_radius: float = 0.95
    scale_in: float = 1.0
    ridge_lambda: float = 1e-2
    repetitions: int = 5
    master_seed: int = 0
    full_paper: bool = False

    def __post_init__(self):
        if not isinstance(self.dataset, dict):
            raise ValueError("dataset must be an object with a 'kind', got "
                             f"{type(self.dataset).__name__}")
        kind = self.dataset.get("kind")
        if kind not in DATASET_KINDS:
            raise ValueError(f"dataset kind must be one of {DATASET_KINDS}, "
                             f"got {kind!r}")
        read, needed = _DATASET_KEYS[kind]
        unknown = sorted(self.dataset.keys() - read - {"kind"})
        if unknown:
            raise ValueError(f"unknown {kind} dataset keys {unknown}")
        missing = [key for key in needed if key not in self.dataset]
        if missing:
            raise ValueError(f"missing {kind} dataset keys {missing}")
        if not self.methods:
            raise ValueError("method list must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; "
                             f"choose from {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must not repeat, got {self.methods}")
        for name in ("n_grid", "activations", "betas", "sigmas",
                     "j1_grid", "j2_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        for name, (valid, what) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if name in _TUPLE_FIELDS:
                for entry in value:
                    if not valid(entry):
                        raise ValueError(f"{name} entries must each be "
                                         f"{what}, got {entry!r}")
            elif not valid(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in d]
        if missing:
            raise ValueError(f"missing config keys {missing}")
        for name in _TUPLE_FIELDS & d.keys():
            if not isinstance(d[name], (list, tuple)):
                raise ValueError(f"{name} must be a list, got "
                                 f"{type(d[name]).__name__}")
            d[name] = tuple(d[name])
        return cls(**d)

    def to_dict(self):
        d = asdict(self)
        for name in _TUPLE_FIELDS:
            d[name] = list(d[name])
        return d


@dataclass(frozen=True)
class ResultRow:
    """Aggregated accuracy for one grid cell, method and split."""

    dataset: str
    method: str
    split: str
    n_nodes: int
    activation: str
    beta: float
    j1: int
    j2: int
    sigma: float
    repetitions: int
    mean_accuracy: float
    std_accuracy: float
    degenerate_std: bool = False
    error: str = ""


_RANK_OPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
             ast.Mult: lambda a, b: a * b, ast.FloorDiv: lambda a, b: a // b}
_RANK_CALLS = {"min": min, "max": max, "floor": math.floor}


def resolve_rank(expr, n):
    """Evaluate a rank-grid entry, which may be an expression in N.

    Only integers, ``N``, ``+ - * //``, parentheses, ``min``, ``max``
    and ``floor`` are allowed: a config file cannot run code.
    """
    if isinstance(expr, (int, np.integer)):
        return int(expr)

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name) and node.id == "N":
            return n
        if isinstance(node, ast.BinOp) and type(node.op) in _RANK_OPS:
            return _RANK_OPS[type(node.op)](value(node.left),
                                            value(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _RANK_CALLS and not node.keywords):
            return _RANK_CALLS[node.func.id](*map(value, node.args))
        raise ValueError(f"rank expression {expr!r} may not contain "
                         f"{ast.unparse(node)!r}")

    try:
        return int(value(ast.parse(str(expr), mode="eval").body))
    except (SyntaxError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rank expression {expr!r}: {exc}") from exc


def _rep_seeds(master_seed, cell_index, rep):
    """Four independent integer seeds for one repetition of one cell."""
    ss = np.random.SeedSequence(master_seed,
                                spawn_key=(cell_index, rep))
    state = ss.generate_state(4, dtype=np.uint64)
    # order: reservoir, train data, test data, noise
    return [int(v) for v in state]


def _effective(cfg):
    """Dataset parameters and repetition count after the full_paper flag."""
    ds = dict(cfg.dataset)
    reps = cfg.repetitions
    if cfg.full_paper:
        overrides = dict(_FULL_PAPER[ds["kind"]])
        reps = overrides.pop("repetitions")
        ds.update(overrides)
    return ds, reps


# ---------------------------------------------------------------------------
# per-repetition evaluation

def _read_files(ds_params):
    """What a run reads from disk, read once per run: the speaker
    (train, test) datasets, the per-digit image stacks, or None for the
    generated switching signals."""
    kind = ds_params["kind"]
    if kind == "jv":
        return data.load_jv(
            ds_params["train_path"], ds_params["test_path"],
            ds_params.get("resample_len", 24),
            ds_params.get("append_bias_rows", True))
    if kind == "usps":
        return data._read_usps(ds_params["path"],
                               ds_params.get("per_class", 30))
    return None


def _prepare_rep(cfg, ds_params, n_nodes, activation, beta, sigma, seeds,
                 datasets):
    """Draw dataset + reservoir + noise once; run the ESN on everything.

    ``datasets`` is what ``_read_files`` returned.  ``splits`` maps each
    split to its (N x T x B states, B labels) pair; the readout and the
    Tucker models train on the training pair.
    """
    res_seed, train_seed, test_seed, noise_seed = seeds
    kind = ds_params["kind"]
    if kind == "sine_square":
        seg_len = ds_params.get("segment_len", 100)
        ds_tr = data.gen_sine_square(
            ds_params.get("train_patterns", 10),
            ds_params.get("segments_per_pattern", 30),
            seg_len, seed=train_seed)
        ds_te = data.gen_sine_square(
            ds_params.get("test_patterns", 10),
            ds_params.get("segments_per_pattern", 30),
            seg_len, seed=test_seed)
    elif kind == "usps":
        ds_tr, ds_te = data._split_usps(datasets,
                                        ds_params.get("per_class", 30),
                                        seed=train_seed)
    else:  # jv: fixed files, randomization lives in the reservoir and noise
        ds_tr, ds_te = datasets
    ds_te = data.add_noise(ds_te, sigma, seed=noise_seed)

    n_inputs = ds_tr.inputs.shape[0]
    reservoir = esn.make_reservoir(
        n_nodes, n_inputs, density=cfg.density, scale_in=cfg.scale_in,
        spectral_radius=cfg.spectral_radius, alpha=cfg.alpha, beta=beta,
        activation=activation, seed=res_seed)

    # equal-shape splits step through one recursion; switching patterns
    # are cut pattern-major, pattern k of signal b being sample k B + b
    seg = seg_len if kind == "sine_square" else None
    inputs = [ds_tr.inputs, ds_te.inputs]
    groups = ([inputs] if inputs[0].shape == inputs[1].shape
              else [[a] for a in inputs])
    states = [x for group in groups for x in esn._run(reservoir, group, seg)]
    splits = {}
    for split, ds, x in zip(("train", "test"), (ds_tr, ds_te), states):
        y = ds.step_labels[:, ::seg].T.ravel() if seg else ds.labels
        splits[split] = (x, y)
    return {
        "kind": kind,
        "n_classes": ds_tr.n_classes,
        "splits": splits,
    }


def _accuracy(pred_labels, true_labels):
    return 100.0 * float(np.mean(pred_labels == true_labels))


def _eval_weights(rep, weights, methods):
    """Accuracies of the readout rules among ``methods``, per split.

    Whole samples take the majority vote of their pointwise labels.
    """
    rules = {"weights_pointwise": classify.step_labels
             if rep["kind"] == "sine_square" else classify.vote_labels,
             "weights_block": classify.block_labels}
    return {(method, split): _accuracy(rules[method](weights, x), y)
            for split, (x, y) in rep["splits"].items()
            for method in methods if method in rules}


def _eval_tensor(rep, method, ranks):
    """Accuracies of one nearest-core rule at one rank pair, per split."""
    x, y = rep["splits"]["train"]
    if method == "tensor_global":
        models = [hooi(x, ranks, y)]
    else:
        class_ids = np.unique(y)
        # compress keeps each class tensor in C order; a boolean index
        # does not, and hooi would copy it again
        models = fit_per_class([x.compress(y == c, axis=2)
                                for c in class_ids], ranks, class_ids)
    return {(method, split):
            _accuracy(classify.nearest_core_labels(xs, models), ys)
            for split, (xs, ys) in rep["splits"].items()}


def _run_rep(cfg, ds_params, cell_index, rep, cell, datasets):
    """One repetition of one (N, activation, beta, sigma) cell:
    ``{(method, j1, j2, split): accuracy}``, j1 = j2 = 0 for readouts."""
    n_nodes, activation, beta, sigma = cell
    rank_pairs = []
    if any(m.startswith("tensor") for m in cfg.methods):
        for e1, e2 in itertools.product(cfg.j1_grid, cfg.j2_grid):
            pair = (resolve_rank(e1, n_nodes), resolve_rank(e2, n_nodes))
            if pair not in rank_pairs:
                rank_pairs.append(pair)
    seeds = _rep_seeds(cfg.master_seed, cell_index, rep)
    prepared = _prepare_rep(cfg, ds_params, n_nodes, activation, beta,
                            sigma, seeds, datasets)
    acc = {}
    if any(m.startswith("weights") for m in cfg.methods):
        weights = classify.train_output_weights(
            *prepared["splits"]["train"], cfg.ridge_lambda,
            n_classes=prepared["n_classes"])
        for (method, split), value in _eval_weights(prepared, weights,
                                                    cfg.methods).items():
            acc[(method, 0, 0, split)] = value
    for j1, j2 in rank_pairs:
        for method in cfg.methods:
            if method.startswith("tensor"):
                for (_, split), value in _eval_tensor(prepared, method,
                                                      (j1, j2)).items():
                    acc[(method, j1, j2, split)] = value
    return acc


def _rep_result(cfg, ds_params, datasets, cell_index, rep, cell):
    """``_run_rep``'s accuracies, or its failure as ``"<Type>: <message>"``
    text, which crosses a process boundary whatever the exception."""
    try:
        return _run_rep(cfg, ds_params, cell_index, rep, cell, datasets)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _cell_rows(cfg, kind, cell, results):
    """A cell's result rows from its repetitions' results, in repetition
    order; the first failed repetition makes the cell one error row."""
    n_nodes, activation, beta, sigma = cell
    for result in results:
        if isinstance(result, str):
            return [ResultRow(
                dataset=kind, method="error", split="", n_nodes=n_nodes,
                activation=activation, beta=beta, j1=0, j2=0, sigma=sigma,
                repetitions=0, mean_accuracy=float("nan"),
                std_accuracy=float("nan"), error=result)]
    acc = {}  # (method, j1, j2, split) -> list of per-rep accuracies
    for result in results:
        for key, value in result.items():
            acc.setdefault(key, []).append(value)
    rows = []
    for method in cfg.methods:
        for (m, j1, j2, split), values in sorted(acc.items()):
            if m != method:
                continue
            values = np.asarray(values)
            degenerate = len(values) < 2
            rows.append(ResultRow(
                dataset=kind, method=method, split=split,
                n_nodes=n_nodes, activation=activation, beta=beta,
                j1=j1, j2=j2, sigma=sigma, repetitions=len(values),
                mean_accuracy=float(values.mean()),
                std_accuracy=0.0 if degenerate
                else float(values.std(ddof=1)),
                degenerate_std=degenerate,
            ))
    return rows


# ---------------------------------------------------------------------------
# the grid loop

# (cfg, ds_params, datasets) of the run, set in each pool worker
_worker_run = None


def _blas_thread_setters():
    """``set_num_threads`` of every OpenBLAS library loaded in this
    process, found by symbol; empty where none can be found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return []
    setters = []
    for lib in libs:
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads",
                       "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                setters.append(fn)
                break
    return setters


def _init_worker(setters, *run):
    # one BLAS thread per worker: OpenBLAS threads of several workers
    # spin against each other on the shared cores
    global _worker_run
    for set_threads in setters:
        set_threads(1)
    _worker_run = run


def _worker_task(task):
    return _rep_result(*_worker_run, *task)


def _map_reps(cfg, ds_params, datasets, tasks, workers):
    """``_rep_result`` of every (cell_index, rep, cell) task, in order:
    inline, or on ``workers`` forked processes that inherit the run."""
    if workers is None:
        workers = len(os.sched_getaffinity(0)) \
            if hasattr(os, "sched_getaffinity") else 1
    workers = min(workers, len(tasks))
    setters = []
    if workers > 1 and hasattr(os, "fork"):
        setters = _blas_thread_setters()
    if not setters:
        return [_rep_result(cfg, ds_params, datasets, *task)
                for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # fork, not spawn: workers inherit the imported package and the
    # parsed files instead of importing and unpickling them again
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(setters, cfg, ds_params,
                                       datasets)) as pool:
        return list(pool.map(_worker_task, tasks))


def run_experiment(cfg, workers=None):
    """Run every grid cell; a failing cell yields an error row, not a crash.

    Repetitions run on up to ``workers`` processes (default: the CPUs
    this process may use), with rows identical to a serial run's.  A
    file that cannot be read raises.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ds_params, reps = _effective(cfg)
    datasets = _read_files(ds_params)
    cells = list(itertools.product(cfg.n_grid, cfg.activations, cfg.betas,
                                   cfg.sigmas))
    tasks = [(cell_index, rep, cell) for cell_index, cell in enumerate(cells)
             for rep in range(reps)]
    results = _map_reps(cfg, ds_params, datasets, tasks, workers)
    rows = []
    for cell_index, cell in enumerate(cells):
        rows += _cell_rows(cfg, ds_params["kind"], cell,
                           results[cell_index * reps:(cell_index + 1) * reps])
    return rows


# ---------------------------------------------------------------------------
# output

CSV_HEADER = ("dataset,method,split,n_nodes,activation,beta,j1,j2,sigma,"
              "repetitions,mean_accuracy,std_accuracy,accuracy,"
              "degenerate_std,error")


def summarize(rows):
    """Render result rows as CSV with a two-decimal ``mean (std)`` column."""
    if not rows:
        raise ValueError("no rows to summarize")
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        if r.error:
            mean = std = fmt = ""
        else:
            mean = f"{r.mean_accuracy:.6f}"
            std = f"{r.std_accuracy:.6f}"
            fmt = f"{r.mean_accuracy:.2f} ({r.std_accuracy:.2f})"
        error = r.error.replace(",", ";").replace("\n", " ")
        buf.write(
            f"{r.dataset},{r.method},{r.split},{r.n_nodes},{r.activation},"
            f"{r.beta:.6g},{r.j1 or ''},{r.j2 or ''},{r.sigma:.6g},"
            f"{r.repetitions},{mean},{std},\"{fmt}\","
            f"{int(r.degenerate_std)},{error}\n"
        )
    return buf.getvalue()


def parse_summary(text):
    """Read :func:`summarize` output back into a list of dicts; a row
    with more or fewer fields than the header is named by its line."""
    rows = csv.reader(io.StringIO(text))
    header = next(rows, [])
    records = []
    for row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"results line {rows.line_num}: expected "
                             f"{len(header)} fields, got {len(row)}")
        records.append(dict(zip(header, row)))
    return records


def figure_series(rows):
    """Per-figure data files: test accuracy vs N per (dataset, method, sigma).

    For the tensor methods the best mean over the rank grid is taken at
    each N, mirroring how the grid results are plotted.  Returns a dict
    of file name -> CSV text with columns ``x,mean,std``.
    """
    groups = {}
    for r in rows:
        if r.split != "test" or r.error:
            continue
        key = (r.dataset, r.method, r.sigma)
        best = groups.setdefault(key, {})
        prev = best.get(r.n_nodes)
        if prev is None or r.mean_accuracy > prev[0]:
            best[r.n_nodes] = (r.mean_accuracy, r.std_accuracy)
    out = {}
    for (dataset, method, sigma), series in sorted(groups.items()):
        buf = io.StringIO()
        buf.write("x,mean,std\n")
        for n in sorted(series):
            mean, std = series[n]
            buf.write(f"{n},{mean:.6f},{std:.6f}\n")
        out[f"fig_{dataset}_{method}_sigma{sigma:g}.csv"] = buf.getvalue()
    return out


def template_config(kind="sine_square"):
    """A ready-to-edit desk-scale config dict for each dataset kind."""
    if kind == "sine_square":
        cfg = ExperimentConfig(
            dataset={"kind": "sine_square", "train_patterns": 10,
                     "test_patterns": 10, "segments_per_pattern": 30,
                     "segment_len": 100},
            methods=METHODS,
            n_grid=(10, 20, 50),
            activations=("tanh", "sin"),
            betas=(0.0, math.pi / 4),
            j1_grid=("max(1, N // 5)",),
            j2_grid=(5,),
            alpha=0.5,
            ridge_lambda=1e-6,
            repetitions=5,
        )
    elif kind == "usps":
        cfg = ExperimentConfig(
            dataset={"kind": "usps", "path": "digits.txt", "per_class": 30},
            methods=("weights_block", "tensor_global"),
            n_grid=(10, 25, 50),
            activations=("tanh",),
            betas=(math.pi / 4,),
            j1_grid=(5, 10, "N // 2", "(3 * N) // 4"),
            j2_grid=(4, 8, 12),
            repetitions=10,
        )
    elif kind == "jv":
        cfg = ExperimentConfig(
            dataset={"kind": "jv", "train_path": "ae.train",
                     "test_path": "ae.test", "resample_len": 24,
                     "append_bias_rows": True},
            methods=("weights_block", "tensor_global"),
            n_grid=(4, 10, 20),
            activations=("sin",),
            betas=(math.pi / 4,),
            sigmas=(0.0, 0.05, 0.10),
            j1_grid=("max(1, (3 * N) // 4)",),
            j2_grid=(8,),
            repetitions=10,
        )
    else:
        raise ValueError(f"unknown template kind {kind!r}")
    return cfg.to_dict()


def save_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict() if isinstance(cfg, ExperimentConfig) else cfg,
                  fh, indent=2)
        fh.write("\n")


def load_config(path):
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))
