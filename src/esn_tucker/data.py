"""Dataset generation and ingestion.

Covers the three benchmark inputs:

* sine/square switching signals with per-time-step labels,
* 16x16 grayscale digit images read from a plain-text file
  (one image per line: ``label p0 p1 ... p255``),
* speaker cepstrum utterances in the UCI ``ae`` layout (blocks of
  whitespace-separated 12-coefficient lines, blank line between
  utterances), with per-speaker test block counts in a sidecar file
  ``<test_path>.counts`` (lines ``<speaker> <count>``).

Every generator and loader returns a :class:`Dataset`: its B signals
as one L x T x B array, the layout ``esn.run`` takes.  Loaders reject a
malformed or non-finite file entry with a ``ValueError`` naming
``path:line``.  A digit file is parsed into per-digit image stacks
once, and each seed's splits are drawn from the stacks, so a grid run
parses it once; the parse is one call to numpy's C tokenizer, and only
a file that it rejects or that fails a check is read again line by
line to name the fault.  An ``ae`` file is read in one pass, and all of its
utterances are resampled to the common length together, in one batch
computed with ``np.interp``'s formula; an utterance whose resampled
values overflow is named with its file.  Also provides temporal
resampling of one signal, Gaussian input corruption, and writers that
synthesize stand-in files in both on-disk formats for self-contained
experiments.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

N_SPEAKERS = 9
N_CEPSTRUM = 12
DIGIT_SIZE = 16


@dataclass(frozen=True)
class Dataset:
    """B equal-length input signals as one L x T x B array.

    ``labels`` holds each signal's class id in 1..n_classes;
    ``step_labels`` (B x T) the class of every time step for signals
    whose class switches over time, else None.
    """

    inputs: np.ndarray
    labels: np.ndarray
    n_classes: int
    step_labels: np.ndarray = None

    def __post_init__(self):
        if self.inputs.ndim != 3 or \
                self.labels.shape != (self.inputs.shape[2],):
            raise ValueError(
                f"need L x T x B inputs with B labels, got shapes "
                f"{self.inputs.shape} and {self.labels.shape}"
            )
        _, t, b = self.inputs.shape
        ids = self.labels
        if self.step_labels is not None:
            if self.step_labels.shape != (b, t):
                raise ValueError(f"step labels must be {(b, t)}, got shape "
                                 f"{self.step_labels.shape}")
            ids = np.concatenate([ids, self.step_labels.ravel()])
        if self.n_classes < 2:
            raise ValueError("a dataset needs at least two classes")
        if ids.size and not 1 <= ids.min() <= ids.max() <= self.n_classes:
            raise ValueError(f"labels outside 1..{self.n_classes}")


# ---------------------------------------------------------------------------
# sine vs. square generator

SINE, SQUARE = 1, 2


def gen_sine_square(num_patterns, segments_per_pattern, segment_len=100,
                    seed=0):
    """Generate 1-D signals of randomly ordered sine/square segments.

    Each pattern is a 1 x (segments * segment_len) signal; every segment
    is independently a full sine period or a +/-1 square wave of the same
    period, chosen uniformly.  Step labels mark 1 (sine) or 2 (square);
    a pattern's label is its majority segment kind, ties to sine.
    """
    if num_patterns < 1 or segments_per_pattern < 1 or segment_len < 2:
        raise ValueError("pattern, segment and length counts must be >= 1 "
                         "(segment_len >= 2)")
    rng = np.random.default_rng(seed)
    kinds = rng.integers(SINE, SQUARE + 1,
                         size=(num_patterns, segments_per_pattern))
    wave = np.sin(2.0 * np.pi * np.arange(segment_len) / segment_len)
    # one period of each kind: sine, then square = sign(sin), sign(0) := +1
    periods = np.stack([wave, np.where(wave >= 0.0, 1.0, -1.0)])
    signals = periods[kinds - 1].reshape(num_patterns, -1)      # B x T
    n_square = np.sum(kinds == SQUARE, axis=1)
    return Dataset(
        inputs=signals.T[None],
        labels=np.where(2 * n_square > segments_per_pattern, SQUARE, SINE),
        n_classes=2,
        step_labels=np.repeat(kinds, segment_len, axis=1),
    )


# ---------------------------------------------------------------------------
# shared transforms

def _resample_runs(frames, first, lengths, out):
    """Resample runs of rows of ``frames`` into ``out`` in one batch.

    Signal b is ``frames[first[b]:first[b] + lengths[b]]`` (time down the
    rows, F x C in all); ``out`` is C x T x B and takes each signal on T
    uniform points spanning it.  Every point is ``np.interp``'s value,
    bit for bit on finite frames: a sample itself where the point falls
    on one, else ``(f[j+1] - f[j]) * (x - j) + f[j]``.
    """
    grid = np.linspace(0.0, lengths - 1.0, out.shape[1])        # T x B
    j = np.minimum(grid.astype(np.intp), lengths - 2)
    frac = grid - j
    rows = first + j
    lo = frames.T[:, rows]                                       # C x T x B
    with np.errstate(all="ignore"):     # np.interp raises no FP warnings
        np.subtract(frames.T[:, rows + 1], lo, out=out)
        out *= frac
        out += lo
    np.copyto(out, lo, where=frac == 0.0)
    out[:, -1] = frames[first + lengths - 1].T
    return out


def resample_temporal(m, t_out):
    """Linearly interpolate each row of ``m`` onto ``t_out`` uniform points.

    Endpoints are preserved exactly; affine rows stay affine.  This is
    the single-signal case of ``_resample_runs``, the batched helper
    that also resamples every utterance of ``load_jv``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] < 2:
        raise ValueError("need a 2-D input with at least two time steps")
    if t_out < 2:
        raise ValueError(f"t_out must be >= 2, got {t_out}")
    out = np.empty((m.shape[0], t_out, 1))
    return _resample_runs(m.T, np.zeros(1, np.intp),
                          np.array([m.shape[1]]), out)[:, :, 0]


def add_noise(dataset, sigma, seed=0):
    """Perturb every input entry by independent N(0, sigma^2) noise.

    Labels are untouched; ``sigma = 0`` returns ``dataset`` itself.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0:
        return dataset
    b = dataset.inputs.shape[2]
    noise = np.random.default_rng(seed).normal(
        0.0, sigma, (b,) + dataset.inputs.shape[:2])            # B x L x T
    return replace(dataset, inputs=dataset.inputs + noise.transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# digit image files (USPS-style text format)

def _read_usps(path, per_class):
    """Parse a digit file into one 16 x 16 x count image stack per digit.

    Each image is min-max normalized to [0, 1].  The file is read with
    numpy's C tokenizer, which converts pixels as ``float()`` does.  A
    file it rejects, an empty file, or one that fails a check goes to
    ``_read_usps_lines``, which names the fault (every malformed line
    by ``path:line``, a digit with fewer than ``2 * per_class`` images
    by ``path``) or accepts what ``float()`` accepts and the tokenizer
    does not, such as ``1_0``.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    try:
        with open(path) as fh, warnings.catch_warnings():
            # an empty file is named by the line parser below
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, comments=None, ndmin=2,
                              converters={0: int})
    except ValueError:
        return _read_usps_lines(path, per_class)
    if rows.shape[1] != 1 + DIGIT_SIZE * DIGIT_SIZE:
        return _read_usps_lines(path, per_class)
    labels, images = rows[:, 0], rows[:, 1:]
    lo = images.min(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        span = images.max(axis=1, keepdims=True) - lo
    if not (np.all((labels >= 0) & (labels <= 9)) and np.isfinite(span).all()
            and np.bincount(labels.astype(np.intp), minlength=10).min()
            >= 2 * per_class):
        return _read_usps_lines(path, per_class)
    images -= lo
    np.divide(images, span, out=images, where=span > 0)
    images[span[:, 0] == 0] = 0.0     # where -0.0 - +0.0 left -0.0
    return [np.ascontiguousarray(images[labels == digit].T)
            .reshape(DIGIT_SIZE, DIGIT_SIZE, -1) for digit in range(10)]


def _read_usps_lines(path, per_class):
    """``_read_usps`` one line at a time, converting tokens with
    ``int()`` and ``float()``: names every malformed line by
    ``path:line``, and a digit with fewer than ``2 * per_class`` images
    by ``path``."""
    by_class = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 1 + DIGIT_SIZE * DIGIT_SIZE:
                raise ValueError(
                    f"{path}:{lineno}: expected a label and "
                    f"{DIGIT_SIZE * DIGIT_SIZE} pixels, got "
                    f"{len(parts)} fields"
                )
            try:
                digit = int(parts[0])
                pixels = np.array(parts[1:], dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field") \
                    from exc
            if not 0 <= digit <= 9:
                raise ValueError(f"{path}:{lineno}: digit label {digit} "
                                 "outside 0..9")
            lo, hi = pixels.min(), pixels.max()
            with np.errstate(over="ignore", invalid="ignore"):
                span = hi - lo
            # NaN or infinite pixels, or a range past the largest float
            if not np.isfinite(span):
                raise ValueError(f"{path}:{lineno}: non-finite pixel range")
            if span > 0:
                pixels = (pixels - lo) / span
            else:
                pixels = np.zeros_like(pixels)
            by_class.setdefault(digit, []).append(
                pixels.reshape(DIGIT_SIZE, DIGIT_SIZE)
            )
    stacks = []
    for digit in range(10):
        images = by_class.get(digit, [])
        if len(images) < 2 * per_class:
            raise ValueError(
                f"{path}: digit {digit}: need {2 * per_class} images for "
                f"disjoint splits of {per_class}, file has {len(images)}"
            )
        stacks.append(np.stack(images, axis=2))
    return stacks


def _split_usps(stacks, per_class, seed):
    """The (train, test) splits ``load_usps`` draws from ``_read_usps``
    image stacks for one seed."""
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(stack.shape[2]) for stack in stacks]
    # take returns C order; an index array on the last axis would
    # return image-major memory
    return tuple(
        Dataset(inputs=np.concatenate([np.take(stack, order[part], axis=2)
                                       for stack, order in zip(stacks,
                                                               orders)],
                                      axis=2),
                labels=np.repeat(np.arange(1, 11), per_class),
                n_classes=10)
        for part in (slice(per_class), slice(per_class, 2 * per_class)))


def load_usps(path, per_class, seed=0):
    """Load the (train, test) digit splits from one parse of a text file
    of ``label p0 ... p255`` lines.

    Each image becomes a 16 x 16 matrix (rows spatial, columns temporal),
    min-max normalized to [0, 1].  For a given seed the per-class sample
    order is permuted once; the train split takes the first ``per_class``
    images of each digit and the test split the next ``per_class``, so
    the two splits never overlap.
    """
    return _split_usps(_read_usps(path, per_class), per_class, seed)


# seven-segment layout on a 16x16 canvas: (row slice, column slice)
_SEGMENTS = {
    "top": (slice(2, 4), slice(4, 12)),
    "mid": (slice(7, 9), slice(4, 12)),
    "bot": (slice(12, 14), slice(4, 12)),
    "tl": (slice(3, 8), slice(3, 5)),
    "tr": (slice(3, 8), slice(11, 13)),
    "bl": (slice(8, 13), slice(3, 5)),
    "br": (slice(8, 13), slice(11, 13)),
}
_DIGIT_SEGMENTS = {
    0: ("top", "bot", "tl", "tr", "bl", "br"),
    1: ("tr", "br"),
    2: ("top", "mid", "bot", "tr", "bl"),
    3: ("top", "mid", "bot", "tr", "br"),
    4: ("mid", "tl", "tr", "br"),
    5: ("top", "mid", "bot", "tl", "br"),
    6: ("top", "mid", "bot", "tl", "bl", "br"),
    7: ("top", "tr", "br"),
    8: ("top", "mid", "bot", "tl", "tr", "bl", "br"),
    9: ("top", "mid", "bot", "tl", "tr", "br"),
}


def _render_digit(digit, rng):
    import scipy.ndimage    # only the file writer needs it
    img = np.zeros((DIGIT_SIZE, DIGIT_SIZE))
    for seg in _DIGIT_SEGMENTS[digit]:
        rows, cols = _SEGMENTS[seg]
        img[rows, cols] = rng.uniform(0.7, 1.0)
    img = scipy.ndimage.shift(img, rng.integers(-2, 3, size=2), order=0)
    img = scipy.ndimage.gaussian_filter(img, rng.uniform(0.5, 1.1))
    img = img + rng.normal(0.0, 0.08, img.shape)
    return np.clip(img, 0.0, 1.0)


def make_digit_file(path, per_class, seed=0):
    """Write a synthetic digit file in the documented text format.

    Renders jittered seven-segment glyphs, ``per_class`` images per digit,
    shuffled across classes.  A stand-in for a real scanned-digit corpus.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for digit in range(10):
        for _ in range(per_class):
            img = _render_digit(digit, rng)
            pixels = " ".join(f"{p:.4f}" for p in img.reshape(-1))
            lines.append(f"{digit} {pixels}")
    order = rng.permutation(len(lines))
    with open(path, "w") as fh:
        for idx in order:
            fh.write(lines[idx] + "\n")


# ---------------------------------------------------------------------------
# speaker cepstrum files (UCI `ae` layout)

def _ae_floats(path, fields, first_line):
    """Token rows of the lines from ``first_line`` on as one float array,
    converted as ``float()`` does; names the first non-numeric line."""
    try:
        return np.array(fields, dtype=float)
    except ValueError:
        for lineno, parts in enumerate(fields, start=first_line):
            try:
                np.array(parts, dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric "
                                 "coefficient") from exc
        raise


def _ae_block(path, fields, first_line):
    """One utterance read from lines ``first_line`` onward, as an array."""
    block = _ae_floats(path, fields, first_line)
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{first_line + finite.argmin()}: "
                         "non-finite coefficient")
    if len(block) < 2:
        raise ValueError(f"{path}:{first_line}: an utterance needs at "
                         "least two frames")
    return block


def _parse_ae_blocks(path):
    """The utterance blocks of an ``ae`` file, each frames x coefficients,
    each converted at once at its end; errors come in the order a
    line-by-line parse meets them."""
    blocks, fields = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                if fields:
                    blocks.append(_ae_block(path, fields,
                                            lineno - len(fields)))
                    fields = []
                continue
            if len(parts) != N_CEPSTRUM:
                # a non-numeric line earlier in this utterance comes first
                _ae_floats(path, fields, lineno - len(fields))
                raise ValueError(
                    f"{path}:{lineno}: expected {N_CEPSTRUM} coefficients, "
                    f"got {len(parts)}"
                )
            fields.append(parts)
    if fields:
        blocks.append(_ae_block(path, fields, lineno + 1 - len(fields)))
    return blocks


def _read_counts(path):
    counts = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}:{lineno}"
            if len(parts) != 2:
                raise ValueError(f"{where}: expected '<speaker> <count>'")
            try:
                speaker, count = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{where}: non-integer field") from exc
            if not 1 <= speaker <= N_SPEAKERS:
                raise ValueError(f"{where}: speaker {speaker} outside "
                                 f"1..{N_SPEAKERS}")
            if speaker in counts:
                raise ValueError(f"{where}: repeated speaker {speaker}")
            if count < 0:
                raise ValueError(f"{where}: negative count {count}")
            counts[speaker] = count
    missing = [k for k in range(1, N_SPEAKERS + 1) if k not in counts]
    if missing:
        raise ValueError(f"{path}: missing counts for speakers {missing}")
    return [counts[k] for k in range(1, N_SPEAKERS + 1)]


def _utterances(blocks, counts, resample_len, append_bias_rows, path):
    """Speaker-ordered blocks as one Dataset of resampled utterances."""
    if len(blocks) != sum(counts):
        raise ValueError(
            f"{path}: found {len(blocks)} utterance blocks but speaker "
            f"counts require {sum(counts)}"
        )
    if not blocks:
        raise ValueError(f"{path}: no utterance blocks")
    if resample_len < 2:
        raise ValueError(f"resample_len must be >= 2, got {resample_len}")
    inputs = np.ones((N_CEPSTRUM + 2 * append_bias_rows, resample_len,
                      len(blocks)))                 # bias rows stay ones
    lengths = np.array([len(block) for block in blocks])
    _resample_runs(np.concatenate(blocks), np.cumsum(lengths) - lengths,
                   lengths, inputs[:N_CEPSTRUM])
    # finite neighbours far apart (-1.7e308, 1.7e308) overflow between
    finite = np.isfinite(inputs).all(axis=(0, 1))
    if not finite.all():
        raise ValueError(f"{path}: utterance {finite.argmin() + 1}: "
                         "resampling overflows to a non-finite value")
    return Dataset(inputs=inputs,
                   labels=np.repeat(np.arange(1, N_SPEAKERS + 1), counts),
                   n_classes=N_SPEAKERS)


def load_jv(train_path, test_path, resample_len=24, append_bias_rows=True):
    """Load speaker cepstrum train/test sets from ``ae``-layout files.

    The training file holds 30 consecutive utterance blocks per speaker
    for 9 speakers; the test file's per-speaker block counts come from
    the sidecar ``<test_path>.counts``.  Every utterance is resampled to
    ``resample_len`` columns; ``append_bias_rows`` adds two constant rows
    of ones below the 12 coefficient rows.
    """
    train = _utterances(_parse_ae_blocks(train_path), [30] * N_SPEAKERS,
                        resample_len, append_bias_rows, train_path)
    test_counts = _read_counts(f"{test_path}.counts")
    test = _utterances(_parse_ae_blocks(test_path), test_counts,
                       resample_len, append_bias_rows, test_path)
    return train, test


# per-speaker utterance counts used by the synthetic test file (sum 370)
_SYNTH_TEST_COUNTS = (31, 35, 88, 44, 29, 24, 40, 50, 29)


def _speaker_templates(seed):
    """Smooth per-speaker coefficient trajectories on a unit time grid."""
    rng = np.random.default_rng(seed)
    templates = []
    for _ in range(N_SPEAKERS):
        amps = rng.normal(0.0, 0.5, size=(N_CEPSTRUM, 4))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(N_CEPSTRUM, 3))
        offset = rng.normal(0.0, 0.6, size=N_CEPSTRUM)

        def template(t, amps=amps, phases=phases, offset=offset):
            out = np.empty((N_CEPSTRUM, t.size))
            for c in range(N_CEPSTRUM):
                out[c] = offset[c] + amps[c, 0]
                for h in range(3):
                    out[c] += amps[c, h + 1] * np.sin(
                        2.0 * np.pi * (h + 1) * t + phases[c, h])
            return out

        templates.append(template)
    return templates


def _synth_utterance(template, rng):
    length = int(rng.integers(14, 30))
    t = np.linspace(0.0, 1.0, length)
    warp = rng.uniform(0.9, 1.1)
    values = template(np.clip(t * warp, 0.0, 1.0))
    values = values * rng.normal(1.0, 0.05, size=(N_CEPSTRUM, 1))
    return values + rng.normal(0.0, 0.15, values.shape)


def make_vowel_files(train_path, test_path, seed=0):
    """Write synthetic speaker cepstrum files in the ``ae`` layout.

    Produces 270 training utterances (30 per speaker), 370 test
    utterances with the per-speaker counts recorded in
    ``<test_path>.counts``.  A stand-in for the real recordings.
    """
    rng = np.random.default_rng(seed)
    templates = _speaker_templates(seed)

    def write(path, counts):
        with open(path, "w") as fh:
            for speaker in range(N_SPEAKERS):
                for _ in range(counts[speaker]):
                    values = _synth_utterance(templates[speaker], rng)
                    for col in values.T:
                        fh.write(" ".join(f"{v:.6f}" for v in col) + "\n")
                    fh.write("\n")

    write(train_path, [30] * N_SPEAKERS)
    write(test_path, _SYNTH_TEST_COUNTS)
    with open(f"{test_path}.counts", "w") as fh:
        for speaker, count in enumerate(_SYNTH_TEST_COUNTS, start=1):
            fh.write(f"{speaker} {count}\n")
