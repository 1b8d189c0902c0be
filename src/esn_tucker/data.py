"""Dataset generation and ingestion.

Covers the three benchmark inputs:

* sine/square switching signals with per-time-step labels,
* 16x16 grayscale digit images read from a plain-text file
  (one image per line: ``label p0 p1 ... p255``),
* speaker cepstrum utterances in the UCI ``ae`` layout (blocks of
  whitespace-separated 12-coefficient lines, blank line between
  utterances), with per-speaker test block counts in a sidecar file
  ``<test_path>.counts`` (lines ``<speaker> <count>``).

Also provides temporal resampling to a common length, Gaussian input
corruption, and writers that synthesize stand-in files in both on-disk
formats for self-contained experiments.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.ndimage

N_SPEAKERS = 9
N_CEPSTRUM = 12
DIGIT_SIZE = 16


@dataclass(frozen=True)
class LabeledSample:
    """One input signal (L x T) with its class id and optional per-step ids."""

    values: np.ndarray
    label: int
    sample_id: str
    pointwise_labels: np.ndarray = None

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("sample values must be a 2-D array")
        if self.pointwise_labels is not None and \
                self.pointwise_labels.shape != (self.values.shape[1],):
            raise ValueError(
                "pointwise labels must have one entry per time step"
            )

    @property
    def n_steps(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class Dataset:
    """A list of labeled samples with labels in 1..n_classes."""

    samples: tuple
    n_classes: int
    name: str

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("a dataset needs at least two classes")
        for s in self.samples:
            if not 1 <= s.label <= self.n_classes:
                raise ValueError(
                    f"sample {s.sample_id} has label {s.label} outside "
                    f"1..{self.n_classes}"
                )

    def __len__(self):
        return len(self.samples)

    def labels(self):
        return np.array([s.label for s in self.samples], dtype=int)


# ---------------------------------------------------------------------------
# sine vs. square generator

SINE, SQUARE = 1, 2


def _segment(kind, segment_len):
    t = np.arange(segment_len)
    wave = np.sin(2.0 * np.pi * t / segment_len)
    if kind == SINE:
        return wave
    return np.where(wave >= 0.0, 1.0, -1.0)  # sign(sin), sign(0) := +1


def gen_sine_square(num_patterns, segments_per_pattern, segment_len=100,
                    seed=0, name="sine_square"):
    """Generate 1-D signals of randomly ordered sine/square segments.

    Each pattern is a 1 x (segments * segment_len) signal; every segment
    is independently a full sine period or a +/-1 square wave of the same
    period, chosen uniformly.  Per-time-step labels mark 1 (sine) or
    2 (square).
    """
    if num_patterns < 1 or segments_per_pattern < 1 or segment_len < 2:
        raise ValueError("pattern, segment and length counts must be >= 1 "
                         "(segment_len >= 2)")
    rng = np.random.default_rng(seed)
    samples = []
    for j in range(num_patterns):
        kinds = rng.integers(1, 3, size=segments_per_pattern)
        signal = np.concatenate([_segment(k, segment_len) for k in kinds])
        labels = np.repeat(kinds, segment_len)
        samples.append(LabeledSample(
            values=signal[None, :],
            label=int(np.bincount(kinds).argmax()),
            sample_id=f"{name}-{j}",
            pointwise_labels=labels,
        ))
    return Dataset(samples=tuple(samples), n_classes=2, name=name)


# ---------------------------------------------------------------------------
# shared transforms

def resample_temporal(m, t_out):
    """Linearly interpolate each row of ``m`` onto ``t_out`` uniform points.

    Endpoints are preserved exactly; affine rows stay affine.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] < 2:
        raise ValueError("need a 2-D input with at least two time steps")
    if t_out < 2:
        raise ValueError(f"t_out must be >= 2, got {t_out}")
    t_in = m.shape[1]
    if t_out == t_in:
        return m.copy()
    grid = np.linspace(0.0, t_in - 1.0, t_out)
    return np.vstack([np.interp(grid, np.arange(t_in), row) for row in m])


def add_noise(dataset, sigma, seed=0):
    """Perturb every input entry by independent N(0, sigma^2) noise.

    Labels are untouched; ``sigma = 0`` returns an identical copy.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0:
        return dataset
    rng = np.random.default_rng(seed)
    noisy = tuple(
        replace(s, values=s.values + rng.normal(0.0, sigma, s.values.shape))
        for s in dataset.samples
    )
    return replace(dataset, samples=noisy)


# ---------------------------------------------------------------------------
# digit image files (USPS-style text format)

def load_usps(path, per_class, seed=0):
    """Load the (train, test) digit splits from one parse of a text file
    of ``label p0 ... p255`` lines.

    Each image becomes a 16 x 16 matrix (rows spatial, columns temporal),
    min-max normalized to [0, 1].  For a given seed the per-class sample
    order is permuted once; the train split takes the first ``per_class``
    images of each digit and the test split the next ``per_class``, so
    the two splits never overlap.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
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
                pixels = np.array([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field") \
                    from exc
            if not 0 <= digit <= 9:
                raise ValueError(f"{path}:{lineno}: digit label {digit} "
                                 "outside 0..9")
            lo, hi = pixels.min(), pixels.max()
            if hi > lo:
                pixels = (pixels - lo) / (hi - lo)
            else:
                pixels = np.zeros_like(pixels)
            by_class.setdefault(digit, []).append(
                pixels.reshape(DIGIT_SIZE, DIGIT_SIZE)
            )
    rng = np.random.default_rng(seed)
    train, test = [], []
    for digit in range(10):
        images = by_class.get(digit, [])
        if len(images) < 2 * per_class:
            raise ValueError(
                f"digit {digit}: need {2 * per_class} images for disjoint "
                f"splits of {per_class}, file has {len(images)}"
            )
        order = rng.permutation(len(images))
        for k, idx in enumerate(order[:2 * per_class]):
            (train if k < per_class else test).append(LabeledSample(
                values=images[idx],
                label=digit + 1,
                sample_id=f"digit{digit}-{idx}",
            ))
    return tuple(Dataset(samples=tuple(samples), n_classes=10, name="usps")
                 for samples in (train, test))


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

def _parse_ae_blocks(path):
    blocks = []
    current = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                if current:
                    blocks.append(np.array(current))
                    current = []
                continue
            parts = stripped.split()
            if len(parts) != N_CEPSTRUM:
                raise ValueError(
                    f"{path}:{lineno}: expected {N_CEPSTRUM} coefficients, "
                    f"got {len(parts)}"
                )
            try:
                current.append([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric "
                                 "coefficient") from exc
    if current:
        blocks.append(np.array(current))
    return blocks


def _read_counts(path):
    counts = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected "
                                 "'<speaker> <count>'")
            counts[int(parts[0])] = int(parts[1])
    missing = [k for k in range(1, N_SPEAKERS + 1) if k not in counts]
    if missing:
        raise ValueError(f"{path}: missing counts for speakers {missing}")
    return [counts[k] for k in range(1, N_SPEAKERS + 1)]


def _blocks_to_samples(blocks, counts, resample_len, append_bias_rows, tag,
                       path):
    if len(blocks) != sum(counts):
        raise ValueError(
            f"{path}: found {len(blocks)} utterance blocks but speaker "
            f"counts require {sum(counts)}"
        )
    samples = []
    pos = 0
    for speaker, count in enumerate(counts, start=1):
        for j in range(count):
            block = blocks[pos]
            pos += 1
            values = resample_temporal(block.T, resample_len)
            if append_bias_rows:
                values = np.vstack([values,
                                    np.ones((2, values.shape[1]))])
            samples.append(LabeledSample(
                values=values,
                label=speaker,
                sample_id=f"{tag}-sp{speaker}-{j}",
            ))
    return samples


def load_jv(train_path, test_path, resample_len=24, append_bias_rows=True):
    """Load speaker cepstrum train/test sets from ``ae``-layout files.

    The training file holds 30 consecutive utterance blocks per speaker
    for 9 speakers; the test file's per-speaker block counts come from
    the sidecar ``<test_path>.counts``.  Every utterance is resampled to
    ``resample_len`` columns; ``append_bias_rows`` adds two constant rows
    of ones below the 12 coefficient rows.
    """
    train_blocks = _parse_ae_blocks(train_path)
    train = _blocks_to_samples(train_blocks, [30] * N_SPEAKERS,
                               resample_len, append_bias_rows, "jv-train",
                               train_path)
    test_counts = _read_counts(f"{test_path}.counts")
    test_blocks = _parse_ae_blocks(test_path)
    test = _blocks_to_samples(test_blocks, test_counts, resample_len,
                              append_bias_rows, "jv-test", test_path)
    return (
        Dataset(samples=tuple(train), n_classes=N_SPEAKERS, name="jv-train"),
        Dataset(samples=tuple(test), n_classes=N_SPEAKERS, name="jv-test"),
    )


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
