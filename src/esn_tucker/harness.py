"""Config-driven experiment runner.

Runs parameter grids of repeated randomized trials.  Within one
repetition the reservoir weights, the dataset draw and the test noise
are drawn once and shared by every classification method, so the
methods are compared on identical randomizations.  The cells of one
(N, activation, beta) group differ only in the noise sigma added to
the test split, so one repetition serves them all: one reservoir, one
training split and one fit of each rule, tested at every sigma, which
also compares the noise levels on one trained model.  Seeds derive
from the master seed through a counter-based scheme:
``SeedSequence(master_seed, spawn_key=(cell_index, repetition))`` gives
each cell four seeds, the group draws its reservoir and data from its
first cell's, and each sigma its noise from its own cell's.  So results
are reproducible and groups are independent.

Each repetition of a group is one call of ``_run_rep``, in three
steps.  First ``_prepare_rep`` draws the data and runs the reservoir:
each split enters as one L x T x B input array (``data.Dataset``) and
leaves as one N x T x B state tensor of its B samples with their
labels, checked finite there once and then handed only to unchecked
cores.  The training split and the first sigma's test split, whatever
their widths, share one reservoir recursion, which writes each split's
states straight into that tensor; each further sigma's test split is
drawn and run alone once the one before it is scored.  A switching
signal's K patterns are cut into their segments pattern-major: pattern
k of signal b is sample ``k B + b``.  Then the readout is fitted once
and scored by each configured readout rule.  Last, each tensor rule
fits the labelled training tensor at every rank pair of the grid at
once (``tucker._hooi_grid``, ``tucker._fit_per_class``) and scores one
pair at a time; at the last sigma it drops each pair's models once
scored.  The training split is scored at the first sigma only.  A
global model's training samples are its own core slices, so they take
their labels from core identity and only the test split is scored;
each per-class model's side of the scoring product serves both splits.

Each (group, repetition) is one task.  The digit or speaker files are
read once per run, before any task; ``run_experiment`` then evaluates
the tasks inline, or on a pool of forked worker processes that inherit
the run's config and parsed files, each worker with one OpenBLAS
thread.  Where the pool cannot pin OpenBLAS (no ``fork``, no
``sched_getaffinity``, no setter found in a loaded library) the grid
runs inline.  Rows are assembled in cell order from the per-repetition
results, so the CSV is byte-identical for every worker count.  A failing
repetition fails every sigma cell it serves: each of its group's cells
becomes one error row carrying the first failing repetition's
``"<Type>: <message>"``.

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
import reprlib
from dataclasses import MISSING, dataclass, asdict, field, fields

import numpy as np

from . import classify, data, esn, tucker

METHODS = ("weights_pointwise", "weights_block", "tensor_global",
           "tensor_perclass")
DATASET_KINDS = ("sine_square", "usps", "jv")

_INT = (lambda v: isinstance(v, numbers.Integral)
        and not isinstance(v, bool), "an integer")
# JSON's NaN and Infinity load as floats
_REAL = (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
         and math.isfinite(v), "a finite real number")
# bool is an int and resolve_rank(True, N) is 1, so rank entries are typed
_RANK = (lambda v: isinstance(v, str) or _INT[0](v),
         "an integer or a rank-expression string")
_COUNT = (lambda v: _INT[0](v) and v >= 1, "an integer >= 1")
# gen_sine_square and load_jv take no fewer than 2 steps
_LENGTH = (lambda v: _INT[0](v) and v >= 2, "an integer >= 2")
_PATH = (lambda v: isinstance(v, str), "a string")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
# each kind's dataset keys, each with its default (MISSING where a config
# must give it) and its check
_DATASET_KEYS = {
    "sine_square": {"train_patterns": (10, _COUNT),
                    "test_patterns": (10, _COUNT),
                    "segments_per_pattern": (30, _COUNT),
                    "segment_len": (100, _LENGTH)},
    "usps": {"path": (MISSING, _PATH), "per_class": (30, _COUNT)},
    "jv": {"train_path": (MISSING, _PATH), "test_path": (MISSING, _PATH),
           "resample_len": (24, _LENGTH), "append_bias_rows": (True, _BOOL)},
}


def _field(default, check):
    return field(default=default, metadata={"check": check})


def _check_keys(given, defaults, what):
    """Name the unknown keys of ``given``, then the missing ones."""
    unknown = sorted(given.keys() - defaults.keys())
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    missing = [key for key, default in defaults.items()
               if default is MISSING and key not in given]
    if missing:
        raise ValueError(f"missing {what} keys {missing}")


# full-scale settings activated by the full_paper flag
_FULL_PAPER = {
    "sine_square": {"repetitions": 50, "train_patterns": 20,
                    "test_patterns": 50, "segments_per_pattern": 100},
    "usps": {"repetitions": 40, "per_class": 100},
    "jv": {"repetitions": 20},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Grids, method list and seeds for one experiment run.

    Each field carries its default and its (test, description) check.  A
    field annotated ``tuple`` is a list field, checked entry by entry."""

    # left out of the hash, so a config is hashable; still compared
    dataset: dict = field(hash=False)
    # checked by name first, so that every unknown method is named
    methods: tuple = _field(MISSING, (lambda v: v in METHODS,
                                      f"one of {METHODS}"))
    n_grid: tuple = _field(MISSING, _COUNT)
    activations: tuple = _field(
        ("tanh",), (lambda v: isinstance(v, str) and v in esn.ACTIVATIONS,
                    f"one of {sorted(esn.ACTIVATIONS)}"))
    betas: tuple = _field((0.0,), _REAL)
    sigmas: tuple = _field((0.0,), _REAL)
    # rank entries are also resolved at each N of n_grid
    j1_grid: tuple = _field(("max(1, N // 5)",), _RANK)
    j2_grid: tuple = _field((5,), _RANK)
    alpha: float = _field(1.0, (lambda v: _REAL[0](v) and 0 <= v <= 1,
                                "a real number in [0, 1]"))
    density: float = _field(0.1, (lambda v: _REAL[0](v) and 0 < v <= 1,
                                  "a real number in (0, 1]"))
    spectral_radius: float = _field(0.95, (lambda v: _REAL[0](v) and v > 0,
                                           "a finite real number > 0"))
    scale_in: float = _field(1.0, _REAL)
    ridge_lambda: float = _field(1e-2, _REAL)
    repetitions: int = _field(5, _COUNT)
    # SeedSequence takes no negative entropy
    master_seed: int = _field(0, (lambda v: _INT[0](v) and v >= 0,
                                  "a non-negative integer"))
    full_paper: bool = _field(False, _BOOL)

    def __post_init__(self):
        if not isinstance(self.dataset, dict):
            raise ValueError("dataset must be an object with a 'kind', got "
                             f"{type(self.dataset).__name__}")
        kind = self.dataset.get("kind")
        if kind not in DATASET_KINDS:
            raise ValueError(f"dataset kind must be one of {DATASET_KINDS}, "
                             f"got {kind!r}")
        keys = _DATASET_KEYS[kind]
        known = {"kind": kind} | {k: d for k, (d, _) in keys.items()}
        _check_keys(self.dataset, known, f"{kind} dataset")
        checks = [(f"dataset {key}", self.dataset[key], check)
                  for key, (_, check) in keys.items() if key in self.dataset]
        for f in fields(self)[1:]:  # every field after dataset
            value = getattr(self, f.name)
            if f.type is not tuple:
                checks.append((f.name, value, f.metadata["check"]))
                continue
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{f.name} must be a list, got "
                                 f"{type(value).__name__}")
            if not value:
                raise ValueError(f"{f.name} must be nonempty")
            object.__setattr__(self, f.name, tuple(value))
            checks += [(f"{f.name} entries", entry, f.metadata["check"])
                       for entry in value]
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; "
                             f"choose from {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must not repeat, got {self.methods}")
        for label, value, (valid, what) in checks:
            if not valid(value):
                raise ValueError(f"{label} must be {what}, got {value!r}")
        for name in ("j1_grid", "j2_grid"):
            for entry, n in itertools.product(getattr(self, name),
                                              self.n_grid):
                try:
                    rank = resolve_rank(entry, n)
                except ValueError as exc:
                    raise ValueError(f"{name} entries must each resolve "
                                     f"at every N of n_grid: {exc} at "
                                     f"N = {n}") from exc
                if rank < 1:
                    raise ValueError(f"{name} entries must each be a rank "
                                     f">= 1 at every N of n_grid, got "
                                     f"{entry!r}, which is {rank} at "
                                     f"N = {n}")

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object, got "
                             f"{type(d).__name__}")
        _check_keys(d, {f.name: f.default for f in fields(cls)}, "config")
        return cls(**d)

    def to_dict(self):
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in asdict(self).items()}


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
        raise ValueError(f"rank expression {reprlib.repr(expr)} may not "
                         f"contain {reprlib.repr(ast.unparse(node))}")

    try:
        return int(value(ast.parse(str(expr), mode="eval").body))
    except (SyntaxError, TypeError, ZeroDivisionError,
            RecursionError) as exc:
        raise ValueError(f"bad rank expression {reprlib.repr(expr)}: "
                         f"{exc}") from exc


def _rep_seeds(master_seed, cell_index, rep):
    """Four independent integer seeds for one repetition of one cell."""
    ss = np.random.SeedSequence(master_seed,
                                spawn_key=(cell_index, rep))
    state = ss.generate_state(4, dtype=np.uint64)
    # order: reservoir, train data, test data, noise
    return [int(v) for v in state]


def _dataset_defaults(kind):
    """The dataset keys of ``kind`` that have a default, with it."""
    return {key: default for key, (default, _) in _DATASET_KEYS[kind].items()
            if default is not MISSING}


def _effective(cfg):
    """Dataset parameters, defaults filled in, and repetition count after
    the full_paper flag."""
    ds = {**_dataset_defaults(cfg.dataset["kind"]), **cfg.dataset}
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
        return data.load_jv(ds_params["train_path"], ds_params["test_path"],
                            ds_params["resample_len"],
                            ds_params["append_bias_rows"])
    if kind == "usps":
        return data._read_usps(ds_params["path"], ds_params["per_class"])
    return None


def _prepare_rep(cfg, ds_params, n_nodes, activation, beta, sigmas, seeds,
                 datasets):
    """Draw the reservoir, the training split and the clean test split
    once; run the ESN on the training split and on each sigma's noisy
    test split.

    ``seeds`` are the reservoir's, the training draw's and the test
    draw's seed, then one noise seed per sigma of ``sigmas``;
    ``datasets`` is what ``_read_files`` returned.  Returns the training
    split's (N x T x B states, B labels) pair, an iterator over each
    sigma's test split pair, and the class count.  The first sigma's
    test split shares one recursion with the training split; each
    further one is drawn and run alone when the iterator reaches it, so
    a caller that drops each pair before the next holds one at a time.
    """
    res_seed, train_seed, test_seed, *noise_seeds = seeds
    (sigma, noise_seed), *further = zip(sigmas, noise_seeds)
    kind = ds_params["kind"]
    if kind == "sine_square":
        seg_len = ds_params["segment_len"]
        ds_tr = data.gen_sine_square(
            ds_params["train_patterns"], ds_params["segments_per_pattern"],
            seg_len, seed=train_seed)
        ds_te = data.gen_sine_square(
            ds_params["test_patterns"], ds_params["segments_per_pattern"],
            seg_len, seed=test_seed)
    elif kind == "usps":
        ds_tr, ds_te = data._split_usps(datasets, ds_params["per_class"],
                                        seed=train_seed)
    else:  # jv: fixed files, randomization lives in the reservoir and noise
        ds_tr, ds_te = datasets
    # held once per further sigma and let go as each draws its noise, so
    # the clean test split lives no longer than a sigma needs it
    clean = [ds_te] * len(further)

    n_inputs = ds_tr.inputs.shape[0]
    reservoir = esn.make_reservoir(
        n_nodes, n_inputs, density=cfg.density, scale_in=cfg.scale_in,
        spectral_radius=cfg.spectral_radius, alpha=cfg.alpha, beta=beta,
        activation=activation, seed=res_seed)
    # switching patterns are cut pattern-major, pattern k of signal b
    # being sample k B + b
    seg = seg_len if kind == "sine_square" else None

    def stepped(splits):
        """(states, labels) of each (name, dataset) in ``splits``, all
        stepped through one recursion."""
        # an identity reservoir can overflow: checked below, once per split
        with np.errstate(over="ignore", invalid="ignore"):
            states = esn._run(reservoir, [ds.inputs for _, ds in splits],
                              seg)
        pairs = []
        for (split, ds), x in zip(splits, states):
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{split} states are not finite: the "
                                 "reservoir overflowed")
            y = ds.step_labels[:, ::seg].T.ravel() if seg else ds.labels
            pairs.append((x, y))
        return pairs

    pairs = stepped([("train", ds_tr),
                     ("test", data.add_noise(ds_te, sigma, seed=noise_seed))])

    def tests():
        yield pairs.pop()  # popped, so that only the caller holds it
        for sigma, noise_seed in further:
            yield stepped([("test", data.add_noise(clean.pop(), sigma,
                                                   seed=noise_seed))])[0]

    return pairs[0], tests(), ds_tr.n_classes


def _rank_pairs(cfg, n_nodes):
    """The distinct (J1, J2) pairs of the rank grids at N = ``n_nodes``,
    in grid order."""
    return list(dict.fromkeys(
        (resolve_rank(e1, n_nodes), resolve_rank(e2, n_nodes))
        for e1, e2 in itertools.product(cfg.j1_grid, cfg.j2_grid)))


def _run_rep(cfg, ds_params, cell_index, rep, cell, datasets):
    """One repetition of the cells of one (N, activation, beta) group:
    ``cell`` is (N, activation, beta, sigma_1, ..., sigma_S) and
    ``cell_index`` the index of the group's first cell.  Returns one
    ``{(method, j1, j2, split): accuracy}`` per sigma, j1 = j2 = 0 for
    readouts.  The readout and each tensor rule's rank grid are fitted
    once and score every sigma's test split; the training split is
    scored once and its accuracies are reported at every sigma.  Whole
    samples take the majority vote of their pointwise labels."""
    n_nodes, activation, beta, *sigmas = cell
    # the group's draws are its first cell's; each sigma keeps its own
    # cell's noise seed
    seeds = _rep_seeds(cfg.master_seed, cell_index, rep)[:3] + [
        _rep_seeds(cfg.master_seed, cell_index + i, rep)[3]
        for i in range(len(sigmas))]
    train, tests, n_classes = _prepare_rep(
        cfg, ds_params, n_nodes, activation, beta, sigmas, seeds, datasets)

    rules = {"weights_pointwise": classify.step_labels
             if ds_params["kind"] == "sine_square" else classify.vote_labels,
             "weights_block": classify.block_labels}
    readouts = [method for method in cfg.methods if method in rules]
    if readouts:
        weights = classify._train_output_weights(*train, cfg.ridge_lambda,
                                                 n_classes=n_classes)
    x, y = train
    rank_pairs = _rank_pairs(cfg, n_nodes)
    fitted = {}  # tensor method -> each rank pair's models
    results = []
    # not enumerate(tests): its reused result tuple would keep each
    # split alive while the next one runs
    for i in range(len(sigmas)):
        test = next(tests)
        splits = {"test": test} if i else {"train": train, "test": test}
        labels = {}  # (method, j1, j2) -> {split: predicted labels}
        for method in readouts:
            labels[(method, 0, 0)] = {split: rules[method](weights, x)
                                      for split, (x, _) in splits.items()}
        for method in [method for method in cfg.methods
                       if method not in rules]:
            if not i:  # fitted at the first sigma, kept for the others
                fitted[method] = (
                    tucker._fit_per_class(x, rank_pairs, y)
                    if method == "tensor_perclass" else
                    [[model] for model in tucker._hooi_grid(x, rank_pairs,
                                                            y)])
            for j, pair in enumerate(rank_pairs):
                models = fitted[method][j]
                if i == len(sigmas) - 1:
                    # at the last sigma each pair's models are dropped
                    # once scored, so scoring one pair does not hold the
                    # cores of those before it
                    fitted[method][j] = None
                preds = labels[(method, *pair)] = {}
                if method == "tensor_global" and "train" in splits:
                    # its training samples are its own core slices
                    preds["train"] = classify._own_slice_labels(models[0])
                rest = [split for split in splits if split not in preds]
                preds.update(zip(rest, classify._nearest_labels(
                    [splits[split][0] for split in rest], models)))
        acc = {(*key, split): 100.0 * float(np.mean(pred == splits[split][1]))
               for key, preds in labels.items()
               for split, pred in preds.items()}
        if i:  # the training split is scored at the first sigma only
            acc.update((key, value) for key, value in results[0].items()
                       if key[3] == "train")
        results.append(acc)
        del test, splits  # before the next sigma's split is run
    return results


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
    rows = []
    for key in sorted(results[0], key=lambda k: (cfg.methods.index(k[0]), k)):
        method, j1, j2, split = key
        values = np.array([result[key] for result in results])
        degenerate = len(values) < 2
        rows.append(ResultRow(
            dataset=kind, method=method, split=split,
            n_nodes=n_nodes, activation=activation, beta=beta,
            j1=j1, j2=j2, sigma=sigma, repetitions=len(values),
            mean_accuracy=float(values.mean()),
            std_accuracy=0.0 if degenerate else float(values.std(ddof=1)),
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
    groups = list(itertools.product(cfg.n_grid, cfg.activations, cfg.betas))
    n_sigmas = len(cfg.sigmas)
    # a group's cells are cells g S, ..., g S + S - 1 of the grid
    tasks = [(g * n_sigmas, rep, (*group, *cfg.sigmas))
             for g, group in enumerate(groups) for rep in range(reps)]
    results = _map_reps(cfg, ds_params, datasets, tasks, workers)
    rows = []
    for g, group in enumerate(groups):
        group_results = results[g * reps:(g + 1) * reps]
        for i, sigma in enumerate(cfg.sigmas):
            rows += _cell_rows(cfg, ds_params["kind"], (*group, sigma), [
                result if isinstance(result, str) else result[i]
                for result in group_results])
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
        # one line per row; quoted as ``csv`` quotes a field
        error = r.error.replace("\r", " ").replace("\n", " ")
        if "," in error or '"' in error:
            error = '"' + error.replace('"', '""') + '"'
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
    """Per-figure data files: test accuracy vs N, one series per
    dataset, method, activation, beta and sigma.

    For the tensor methods the best mean over the rank grid is taken at
    each N, mirroring how the grid results are plotted.  Returns a dict
    of file name -> CSV text with columns ``x,mean,std``.
    """
    groups = {}
    for r in rows:
        if r.split != "test" or r.error:
            continue
        key = (r.dataset, r.method, r.activation, r.beta, r.sigma)
        best = groups.setdefault(key, {})
        prev = best.get(r.n_nodes)
        if prev is None or r.mean_accuracy > prev[0]:
            best[r.n_nodes] = (r.mean_accuracy, r.std_accuracy)
    out = {}
    for (dataset, method, activation, beta, sigma), series in sorted(
            groups.items()):
        buf = io.StringIO()
        buf.write("x,mean,std\n")
        for n in sorted(series):
            mean, std = series[n]
            buf.write(f"{n},{mean:.6f},{std:.6f}\n")
        beta, sigma = (np.format_float_positional(v, trim="-")
                       for v in (beta, sigma))
        out[f"fig_{dataset}_{method}_{activation}_beta{beta}"
            f"_sigma{sigma}.csv"] = buf.getvalue()
    return out


# each template's data paths and the config fields it sets apart from
# their defaults; template_config writes out every other field's default
_TEMPLATES = {
    "sine_square": ({}, {
        "methods": METHODS, "n_grid": (10, 20, 50),
        "activations": ("tanh", "sin"), "betas": (0.0, math.pi / 4),
        "alpha": 0.5, "ridge_lambda": 1e-6}),
    "usps": ({"path": "digits.txt"}, {
        "methods": ("weights_block", "tensor_global"),
        "n_grid": (10, 25, 50), "betas": (math.pi / 4,),
        "j1_grid": (5, 10, "N // 2", "(3 * N) // 4"),
        "j2_grid": (4, 8, 12), "repetitions": 10}),
    "jv": ({"train_path": "ae.train", "test_path": "ae.test"}, {
        "methods": ("weights_block", "tensor_global"),
        "n_grid": (4, 10, 20), "activations": ("sin",),
        "betas": (math.pi / 4,), "sigmas": (0.0, 0.05, 0.10),
        "j1_grid": ("max(1, (3 * N) // 4)",), "j2_grid": (8,),
        "repetitions": 10}),
}


def template_config(kind="sine_square"):
    """A ready-to-edit desk-scale config dict for each dataset kind,
    every field and dataset key written out."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown template kind {kind!r}")
    paths, settings = _TEMPLATES[kind]
    return ExperimentConfig(
        dataset={"kind": kind, **paths, **_dataset_defaults(kind)},
        **settings).to_dict()


def save_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict() if isinstance(cfg, ExperimentConfig) else cfg,
                  fh, indent=2)
        fh.write("\n")


def load_config(path):
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))
