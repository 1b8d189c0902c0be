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
as one L x T x B array, the layout ``esn.run`` takes.  Each file, the
sidecar included, is parsed by one call to numpy's C tokenizer
(``_read_rows``), and the first line that it rejects or that fails a
loader's check (a wrong width, a digit label outside 0..9, a non-finite
value, a one-frame utterance, a sidecar speaker outside 1..9 or
repeated, a negative count) raises a ``ValueError`` naming
``path:line``, as does a byte that is not text.
Integer fields (digit labels, the sidecar's speakers and counts) are
ASCII digits with an optional sign.
A digit file is parsed into per-digit image stacks once, and each
seed's splits are drawn from the stacks, so a grid run parses it once.
All of an ``ae`` file's utterances are resampled to the common length
together, in one batch computed with ``np.interp``'s formula; an
utterance whose resampled values overflow is named with its file.  Also
provides Gaussian input corruption, and writers that synthesize
stand-in files in both on-disk formats for self-contained experiments.
The digit writer moves and blurs its glyphs with a numpy filter
(``_shift``, ``_blur``) that gives ``scipy.ndimage``'s ``shift`` and
``gaussian_filter`` bit for bit, so the package needs numpy alone.
"""

import itertools
import math
import re
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


def add_noise(dataset, sigma, seed=0):
    """Perturb every input entry by independent N(0, sigma^2) noise.

    Labels are untouched; ``sigma = 0`` returns ``dataset`` itself.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, "
                         f"got {sigma}")
    if sigma == 0:
        return dataset
    b = dataset.inputs.shape[2]
    noise = np.random.default_rng(seed).normal(
        0.0, sigma, (b,) + dataset.inputs.shape[:2])            # B x L x T
    return replace(dataset, inputs=dataset.inputs + noise.transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# reading rows of numbers, the one parse of every file format

def _tokenize(fh, **kwargs):
    """The rows of whitespace-separated tokens of the lines ``fh``
    yields, at least 2-D, by numpy's C tokenizer; blank lines are
    skipped, and a token it cannot convert, or rows of unequal width,
    raise ``ValueError``.  No lines give no rows and no warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(fh, comments=None, ndmin=2, **kwargs)


def _line_map(fh):
    """The 1-based line number of each non-blank line of ``fh``, none of
    whose lines is empty: the tokenizer's whitespace is exactly
    ``str.isspace``, so entry r is the line of its row r."""
    fh.seek(0)
    return 1 + np.flatnonzero(~np.fromiter(map(str.isspace, fh), bool))


# numpy counts a bad token's row from 0 and a width change's from 1
_TOKENIZER_ROW = re.compile(r"(?:from \d+ to (\d+) )?at row (\d+)")
# an integer field: ASCII digits with an optional sign; int() would
# also read "1_0" as 10 and non-ASCII digits such as "\u0663" as 3
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(token):
    """``token`` as an int, if it matches ``_INTEGER``; else
    ``ValueError``."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _read_rows(path, width, checks, converters=None):
    """The rows of ``width`` numbers in the text file ``path``, read by
    one ``_tokenize`` call.

    ``checks(rows)`` gives (message, bad-row mask) pairs.  The first line
    that the tokenizer rejects, that has not ``width`` fields or that a
    check marks raises ``ValueError`` naming ``path:line``; a tokenizer
    fault with no row names ``path``.  A byte that is not text in the
    file's encoding reads as a lone surrogate, which no number holds.
    """
    with open(path, errors="surrogateescape") as fh:
        try:
            rows = _tokenize(fh, converters=converters)
            first = fault = None
        except ValueError as exc:
            found = _TOKENIZER_ROW.search(str(exc))
            if found is None:
                raise ValueError(f"{path}: {exc}") from exc
            got, row = found.groups()
            first = int(row) - (got is not None)
            fault = (f"expected {width} fields, got {got}" if got
                     else "non-numeric field")
            fh.seek(0)
            # the rows before the rejected one, checked as a whole file's
            rows = _tokenize(itertools.islice(filter(str.strip, fh), first),
                             converters=converters)
        if not len(rows):
            rows = np.empty((0, width))
        if rows.shape[1] != width:
            first, fault = 0, f"expected {width} fields, got {rows.shape[1]}"
        else:
            for message, bad in checks(rows):
                if bad.any() and (first is None or bad.argmax() < first):
                    first, fault = bad.argmax(), message
        if first is None:
            return rows
        raise ValueError(f"{path}:{_line_map(fh)[first]}: {fault}")


# ---------------------------------------------------------------------------
# digit image files (USPS-style text format)

def _normalize_images(rows):
    """Min-max normalize the 256 pixels of each ``label p0 ... p255``
    row to [0, 1] in place; the row checks of a digit file."""
    labels, images = rows[:, 0], rows[:, 1:]
    lo = images.min(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):   # in bad rows
        span = images.max(axis=1, keepdims=True) - lo
        images -= lo
        np.divide(images, span, out=images, where=span > 0)
    images[span[:, 0] == 0] = 0.0     # where -0.0 - +0.0 left -0.0
    # NaN or infinite pixels, or a range past the largest float
    return [("digit label outside 0..9", (labels < 0) | (labels > 9)),
            ("non-finite pixel range", ~np.isfinite(span[:, 0]))]


def _read_usps(path, per_class):
    """Parse a digit file into one 16 x 16 x count image stack per digit.

    Each image is min-max normalized to [0, 1].  A malformed line is
    named by ``path:line`` (``_read_rows``), a digit with fewer than
    ``2 * per_class`` images by ``path``.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    rows = _read_rows(path, 1 + DIGIT_SIZE * DIGIT_SIZE, _normalize_images,
                      converters={0: _integer})
    labels, images = rows[:, 0], rows[:, 1:]
    counts = np.bincount(labels.astype(np.intp), minlength=10)
    if counts.min() < 2 * per_class:
        digit = np.argmax(counts < 2 * per_class)
        raise ValueError(
            f"{path}: digit {digit}: need {2 * per_class} images for "
            f"disjoint splits of {per_class}, file has {counts[digit]}")
    return [np.ascontiguousarray(images[labels == digit].T)
            .reshape(DIGIT_SIZE, DIGIT_SIZE, -1) for digit in range(10)]


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


def _shift(img, offset):
    """A square ``img`` moved by whole pixels, at most 2 per axis, and
    zero-filled, as ``scipy.ndimage.shift(img, offset, order=0)`` is."""
    (r, c), n = 2 - np.asarray(offset), len(img)
    return np.pad(img, 2)[r:r + n, c:c + n]


def _blur(img, sigma):
    """``scipy.ndimage.gaussian_filter(img, sigma)`` bit for bit, for a
    square image and a scalar sigma: ndimage's kernel of radius
    ``int(4 sigma + 0.5)``, its ``reflect`` borders (``np.pad``'s
    ``symmetric``) and its order of sums, the centre tap and then each
    mirrored pair from the outermost in, along axis 0 and then axis 1.
    """
    radius = int(4 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    w = w / w.sum()
    n = len(img)
    for _ in range(2):      # filter axis 0, then axis 0 of the transpose
        pad = np.pad(img, ((radius, radius), (0, 0)), mode="symmetric")
        out = img * w[radius]
        for j in range(radius, 0, -1):
            out = out + (pad[radius - j:n + radius - j]
                         + pad[radius + j:n + radius + j]) * w[radius - j]
        img = out.T
    return img


def _render_digit(digit, rng):
    img = np.zeros((DIGIT_SIZE, DIGIT_SIZE))
    for seg in _DIGIT_SEGMENTS[digit]:
        rows, cols = _SEGMENTS[seg]
        img[rows, cols] = rng.uniform(0.7, 1.0)
    img = _shift(img, rng.integers(-2, 3, size=2))
    img = _blur(img, rng.uniform(0.5, 1.1))
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

def _parse_ae_blocks(path):
    """An ``ae`` file's frames, F x 12 in file order, and each
    utterance's frame count.

    An utterance is a run of consecutive non-blank lines.  A malformed
    frame, a non-finite coefficient or a one-frame utterance is named by
    ``path:line`` (``_read_rows``).
    """
    with open(path, errors="surrogateescape") as fh:
        lines = _line_map(fh)
    # a row starts an utterance where its line does not follow the last
    starts = np.diff(lines, prepend=-1) != 1
    one_frame = starts & np.append(starts[1:], True)
    frames = _read_rows(path, N_CEPSTRUM, lambda rows: [
        ("non-finite coefficient", ~np.isfinite(rows).all(axis=1)),
        ("an utterance needs at least two frames", one_frame[:len(rows)]),
    ])
    return frames, np.diff(np.flatnonzero(starts), append=len(lines))


def _sidecar_checks(rows):
    """The row checks of a ``<speaker> <count>`` sidecar."""
    speakers, counts = rows.T
    repeat = np.ones(len(rows), bool)
    repeat[np.unique(speakers, return_index=True)[1]] = False
    return [(f"speaker outside 1..{N_SPEAKERS}",
             (speakers < 1) | (speakers > N_SPEAKERS)),
            ("repeated speaker", repeat),
            ("negative count", counts < 0)]


def _read_counts(path):
    """The per-speaker counts of a sidecar file, in speaker order; a
    malformed line is named by ``path:line`` (``_read_rows``), a missing
    speaker by ``path``."""
    rows = _read_rows(path, 2, _sidecar_checks, converters=_integer)
    missing = sorted(set(range(1, N_SPEAKERS + 1)) - set(rows[:, 0].tolist()))
    if missing:
        raise ValueError(f"{path}: missing counts for speakers {missing}")
    return [int(count) for count in rows[rows[:, 0].argsort(), 1]]


def _utterances(parsed, counts, resample_len, append_bias_rows, path):
    """A ``_parse_ae_blocks`` result, speaker-ordered, as one Dataset of
    resampled utterances."""
    frames, lengths = parsed
    if len(lengths) != sum(counts):
        raise ValueError(
            f"{path}: found {len(lengths)} utterance blocks but speaker "
            f"counts require {sum(counts)}"
        )
    if not len(lengths):
        raise ValueError(f"{path}: no utterance blocks")
    if resample_len < 2:
        raise ValueError(f"resample_len must be >= 2, got {resample_len}")
    inputs = np.ones((N_CEPSTRUM + 2 * append_bias_rows, resample_len,
                      len(lengths)))                # bias rows stay ones
    _resample_runs(frames, np.cumsum(lengths) - lengths, lengths,
                   inputs[:N_CEPSTRUM])
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
