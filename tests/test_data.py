import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esn_tucker import data


class TestDataset:
    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="L x T x B"):
            data.Dataset(np.zeros((2, 3)), np.ones(3, int), 2)
        with pytest.raises(ValueError, match="B labels"):
            data.Dataset(np.zeros((1, 3, 4)), np.ones(3, int), 2)
        with pytest.raises(ValueError, match="step labels"):
            data.Dataset(np.zeros((1, 3, 4)), np.ones(4, int), 2,
                         step_labels=np.ones((3, 4), int))

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            data.Dataset(np.zeros((1, 3, 2)), np.array([1, 3]), 2)
        with pytest.raises(ValueError, match="outside 1..2"):
            data.Dataset(np.zeros((1, 3, 2)), np.array([1, 2]), 2,
                         step_labels=np.array([[1, 1, 1], [2, 0, 2]]))
        with pytest.raises(ValueError, match="two classes"):
            data.Dataset(np.zeros((1, 3, 2)), np.array([1, 1]), 1)


class TestSineSquare:
    def test_shapes_and_label_range(self):
        ds = data.gen_sine_square(6, 5, segment_len=40, seed=0)
        assert ds.labels.shape == (6,)
        assert ds.n_classes == 2
        assert ds.inputs.shape == (1, 200, 6)
        assert ds.step_labels.shape == (6, 200)
        assert set(np.unique(ds.step_labels)) <= {1, 2}

    def test_sine_segment_is_one_period(self):
        # a pure-sine segment must match sin(2 pi t / len) exactly
        ds = data.gen_sine_square(20, 1, segment_len=50, seed=1)
        t = np.arange(50)
        expected = np.sin(2.0 * np.pi * t / 50)
        sine = ds.inputs[0, :, ds.labels == 1]
        assert sine.size  # seed produces at least one
        np.testing.assert_allclose(sine[0], expected, atol=1e-12)

    def test_square_segment_is_plus_minus_one(self):
        ds = data.gen_sine_square(20, 1, segment_len=50, seed=1)
        square = ds.inputs[0, :, ds.labels == 2]
        assert square.size
        vals = square[0]
        assert set(np.unique(vals)) == {-1.0, 1.0}
        # first half-period positive, second negative (the t = len/2
        # sample sits on the zero crossing and may land on either side)
        assert np.all(vals[:25] == 1.0)
        assert np.all(vals[26:] == -1.0)

    def test_segment_means_near_zero(self):
        ds = data.gen_sine_square(10, 8, segment_len=100, seed=2)
        assert np.all(np.abs(ds.inputs.mean(axis=(0, 1))) < 0.02)

    def test_labels_switch_only_at_segment_boundaries(self):
        ds = data.gen_sine_square(10, 6, segment_len=30, seed=3)
        switches = np.nonzero(np.diff(ds.step_labels, axis=1))[1] + 1
        assert switches.size and np.all(switches % 30 == 0)

    def test_deterministic(self):
        a = data.gen_sine_square(5, 4, seed=9)
        b = data.gen_sine_square(5, 4, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.step_labels, b.step_labels)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            data.gen_sine_square(0, 3)
        with pytest.raises(ValueError):
            data.gen_sine_square(3, 3, segment_len=1)


class TestResample:
    def test_identity_when_length_matches(self):
        m = np.random.default_rng(0).normal(size=(3, 10))
        out = data.resample_temporal(m, 10)
        np.testing.assert_array_equal(out, m)
        assert out is not m  # always a copy

    def test_constant_rows_stay_constant(self):
        m = np.full((2, 7), 4.5)
        np.testing.assert_allclose(data.resample_temporal(m, 13), 4.5)

    def test_ramp_stays_affine_with_exact_endpoints(self):
        m = np.arange(8.0)[None, :]
        out = data.resample_temporal(m, 15)
        np.testing.assert_allclose(out[0], np.linspace(0.0, 7.0, 15),
                                   atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            data.resample_temporal(np.zeros((2, 1)), 5)
        with pytest.raises(ValueError):
            data.resample_temporal(np.zeros((2, 5)), 1)


class TestAddNoise:
    def test_sigma_zero_is_identity(self):
        ds = data.gen_sine_square(3, 2, seed=0)
        assert data.add_noise(ds, 0.0) is ds

    def test_noise_variance_matches_sigma(self):
        ds = data.gen_sine_square(2, 10, segment_len=500, seed=1)
        sigma = 0.3
        noisy = data.add_noise(ds, sigma, seed=2)
        diffs = (noisy.inputs - ds.inputs).ravel()
        assert diffs.size >= 10_000
        assert diffs.std() == pytest.approx(sigma, rel=0.05)
        assert abs(diffs.mean()) < 0.05 * sigma + 0.01

    def test_labels_untouched(self):
        ds = data.gen_sine_square(3, 4, seed=3)
        noisy = data.add_noise(ds, 0.5, seed=4)
        np.testing.assert_array_equal(noisy.labels, ds.labels)
        np.testing.assert_array_equal(noisy.step_labels, ds.step_labels)

    def test_negative_sigma_rejected(self):
        ds = data.gen_sine_square(2, 2, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            data.add_noise(ds, -0.1)


@pytest.fixture(scope="module")
def digit_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("digits") / "digits.txt"
    data.make_digit_file(path, per_class=6, seed=0)
    return path


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("jv")
    train, test = base / "ae.train", base / "ae.test"
    data.make_vowel_files(train, test, seed=0)
    return train, test


class TestDigitFile:
    def test_loader_roundtrip(self, digit_path):
        train, test = data.load_usps(digit_path, per_class=3)
        assert train.labels.shape == test.labels.shape == (30,)
        assert train.n_classes == 10
        counts = np.bincount(train.labels, minlength=11)
        assert all(counts[1:] == 3)
        assert train.inputs.shape == (16, 16, 30)
        assert train.inputs.min() >= 0.0 and train.inputs.max() <= 1.0

    def test_splits_disjoint(self, digit_path):
        train, test = data.load_usps(digit_path, per_class=3, seed=5)
        # the synthetic images are noisy, so distinct images differ
        images = lambda ds: {ds.inputs[:, :, b].tobytes()
                             for b in range(ds.inputs.shape[2])}
        assert len(images(train)) == len(images(test)) == 30
        assert not images(train) & images(test)

    def test_split_deterministic_per_seed(self, digit_path):
        a = data.load_usps(digit_path, per_class=2, seed=7)
        b = data.load_usps(digit_path, per_class=2, seed=7)
        for split_a, split_b in zip(a, b):
            np.testing.assert_array_equal(split_a.inputs, split_b.inputs)
            np.testing.assert_array_equal(split_a.labels, split_b.labels)

    def test_normalization_spans_unit_interval(self, digit_path):
        train, _ = data.load_usps(digit_path, per_class=3)
        np.testing.assert_allclose(train.inputs.max(axis=(0, 1)), 1.0)
        np.testing.assert_allclose(train.inputs.min(axis=(0, 1)), 0.0,
                                   atol=1e-12)

    def test_pixels_match_per_value_parse(self, digit_path):
        # reference: float() per pixel, then min-max scaling; per_class=3
        # of the file's 6 images per digit puts every image in a split
        expected = set()
        for line in digit_path.read_text().splitlines():
            pixels = np.array([float(p) for p in line.split()[1:]])
            lo, hi = pixels.min(), pixels.max()
            expected.add(((pixels - lo) / (hi - lo)).tobytes())
        loaded = {ds.inputs[:, :, b].tobytes()
                  for ds in data.load_usps(digit_path, per_class=3)
                  for b in range(ds.inputs.shape[2])}
        assert loaded == expected

    def test_too_few_images_rejected(self, digit_path):
        with pytest.raises(ValueError, match="digit 0"):
            data.load_usps(digit_path, per_class=4)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 0.1 0.2\n")
        with pytest.raises(ValueError, match="bad.txt:1"):
            data.load_usps(path, per_class=1)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 " + " ".join(["x"] * 256) + "\n")
        with pytest.raises(ValueError, match="non-numeric"):
            data.load_usps(path, per_class=1)

    @pytest.mark.parametrize("extremes", ["nan", "inf", "-inf",
                                          "-1.7e308 1.7e308"])
    def test_non_finite_pixel_reports_location(self, tmp_path, extremes):
        # the min-max scaling once zeroed an image with a NaN pixel and
        # made one whose range overflows NaN
        path = tmp_path / "bad.txt"
        good = ["0.5"] * 256
        bad = extremes.split() + good[len(extremes.split()):]
        path.write_text(f"3 {' '.join(good)}\n3 {' '.join(bad)}\n")
        with pytest.raises(ValueError, match="bad.txt:2: non-finite"):
            data.load_usps(path, per_class=1)


class TestVowelFiles:
    def test_split_sizes(self, paths):
        train, test = data.load_jv(*paths)
        assert train.labels.shape == (270,)
        assert test.labels.shape == (370,)
        assert train.n_classes == test.n_classes == 9
        counts = np.bincount(train.labels, minlength=10)
        assert all(counts[1:] == 30)

    def test_resampled_shape_with_bias_rows(self, paths):
        train, test = data.load_jv(*paths, resample_len=24)
        for ds in (train, test):
            assert ds.inputs.shape[:2] == (14, 24)
            np.testing.assert_array_equal(ds.inputs[12:], 1.0)

    def test_bias_rows_optional(self, paths):
        train, _ = data.load_jv(*paths, resample_len=20,
                                append_bias_rows=False)
        assert train.inputs.shape == (12, 20, 270)

    def test_test_counts_come_from_sidecar(self, paths):
        _, test = data.load_jv(*paths)
        counts = np.bincount(test.labels, minlength=10)[1:]
        np.testing.assert_array_equal(counts, data._SYNTH_TEST_COUNTS)

    def test_missing_sidecar_rejected(self, paths, tmp_path):
        train, test = paths
        orphan = tmp_path / "ae.test"
        orphan.write_text(test.read_text())
        with pytest.raises(FileNotFoundError):
            data.load_jv(train, orphan)

    def test_wrong_coefficient_count_reports_location(self, paths,
                                                      tmp_path):
        train, _ = paths
        bad = tmp_path / "ae.train"
        bad.write_text("0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match="ae.train:1"):
            data.load_jv(bad, train)

    def test_non_finite_coefficient_reports_location(self, paths,
                                                     tmp_path):
        train, _ = paths
        bad = tmp_path / "ae.train"
        frame = " ".join(["0.5"] * 12)
        bad.write_text(f"{frame}\n{frame}\n\n{frame}\n"
                       f"{frame[:-3]}inf\n")
        with pytest.raises(ValueError, match="ae.train:5: non-finite"):
            data.load_jv(bad, train)

    def test_single_frame_utterance_reports_location(self, paths,
                                                     tmp_path):
        train, _ = paths
        bad = tmp_path / "ae.train"
        frame = " ".join(["0.5"] * 12)
        bad.write_text(f"{frame}\n{frame}\n\n\n{frame}\n\n")
        with pytest.raises(ValueError, match="ae.train:5: .* two frames"):
            data.load_jv(bad, train)

    def test_empty_test_file_rejected(self, paths, tmp_path):
        train, _ = paths
        empty = tmp_path / "ae.test"
        empty.write_text("")
        (tmp_path / "ae.test.counts").write_text(
            "".join(f"{k} 0\n" for k in range(1, 10)))
        with pytest.raises(ValueError, match="ae.test: no utterance"):
            data.load_jv(train, empty)

    @pytest.mark.parametrize("line, problem", [
        ("x 3", "non-integer"),
        ("1 3.5", "non-integer"),
        ("1 40", "repeated speaker 1"),
        ("10 3", "speaker 10 outside 1..9"),
        ("0 3", "speaker 0 outside"),
        ("2 -1", "negative count -1"),
    ])
    def test_bad_sidecar_line_reports_location(self, paths, tmp_path, line,
                                               problem):
        train, test = paths
        copy = tmp_path / "ae.test"
        copy.write_text(test.read_text())
        sidecar = tmp_path / "ae.test.counts"
        good = (test.parent / "ae.test.counts").read_text().splitlines()
        # the bad line replaces speaker 2's line or, for a repeat of
        # speaker 1, follows all nine
        if "repeated" in problem:
            good.append(line)
            where = 10
        else:
            good[1] = line
            where = 2
        sidecar.write_text("\n".join(good) + "\n")
        with pytest.raises(ValueError,
                           match=f"ae.test.counts:{where}: {problem}"):
            data.load_jv(train, copy)

    def test_count_mismatch_rejected(self, paths, tmp_path):
        train, test = paths
        short = tmp_path / "ae.test"
        # keep only the first utterance block
        blocks = test.read_text().split("\n\n")
        short.write_text(blocks[0] + "\n\n")
        sidecar = tmp_path / "ae.test.counts"
        sidecar.write_text((test.parent / "ae.test.counts").read_text())
        with pytest.raises(ValueError, match="blocks"):
            data.load_jv(train, short)

    def test_deterministic(self, tmp_path):
        a_train, a_test = tmp_path / "a.train", tmp_path / "a.test"
        b_train, b_test = tmp_path / "b.train", tmp_path / "b.test"
        data.make_vowel_files(a_train, a_test, seed=3)
        data.make_vowel_files(b_train, b_test, seed=3)
        assert a_train.read_text() == b_train.read_text()
        assert a_test.read_text() == b_test.read_text()


# ---------------------------------------------------------------------------
# fuzzed files: a loader returns well-formed arrays or raises ValueError
# naming the file

FIELDS = st.sampled_from(["0", "1", "0.25", "-3.5e2", "7", "1e400", "nan",
                          "inf", "-inf", "x", "1,5", "0x1", "", "-1", "12"])
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)


def mutated_fields(draw, fields):
    """Change or append one to three fields; now and then drop the last."""
    fields = list(fields)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(fields)))
        if k == len(fields):
            fields.append(draw(FIELDS))
        else:
            fields[k] = draw(FIELDS)
    if fields and draw(st.integers(0, 9)) == 0:
        fields.pop()
    return " ".join(fields)


def edit_lines(draw, lines, new_lines):
    """Mutate, insert, repeat or delete one to three lines of ``lines``."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["mutate", "insert", "repeat", "delete"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, draw(new_lines))
        elif op == "mutate":
            lines[i] = mutated_fields(draw, lines[i].split())
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


def expect_path_in_error(load, path):
    try:
        return load()
    except ValueError as exc:
        assert str(path) in str(exc)
        return None


# three distinct, non-constant images per digit
DIGIT_LINES = [f"{d} " + " ".join(f"{(k * (d + 1) + c) % 11 / 10:.2f}"
                                  for k in range(256))
               for d in range(10) for c in range(3)]


@st.composite
def digit_files(draw):
    new_lines = st.sampled_from(DIGIT_LINES + [""])
    return edit_lines(draw, DIGIT_LINES, new_lines)


FRAME = " ".join(f"{0.1 * k - 0.5:.2f}" for k in range(data.N_CEPSTRUM))


@st.composite
def ae_test_files(draw):
    """An ``ae`` file with its ``.counts`` sidecar, both perturbed."""
    counts = draw(st.lists(st.integers(0, 2), min_size=data.N_SPEAKERS,
                           max_size=data.N_SPEAKERS))
    frames = []
    for n in range(sum(counts)):
        frames += [FRAME] * (2 + n % 2) + [""]
    sidecar = "".join(f"{k} {c}\n" for k, c in enumerate(counts, start=1))
    if draw(st.booleans()):  # a bad sidecar stops the load before the file
        pairs = st.builds(lambda a, b: f"{a} {b}", FIELDS, FIELDS)
        sidecar = edit_lines(draw, sidecar.splitlines(), pairs)
    return edit_lines(draw, frames, st.sampled_from([FRAME, "", " "])), \
        sidecar


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A scratch directory holding a valid training file of short
    utterances, 30 per speaker, so that each jv example loads fast."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "ae.train").write_text(f"{FRAME}\n{FRAME}\n\n" * 270)
    return path


class TestFuzzedFiles:
    @FUZZ
    @given(text=digit_files())
    def test_digit_file(self, fuzz_dir, text):
        path = fuzz_dir / "digits.txt"
        path.write_text(text)
        splits = expect_path_in_error(
            lambda: data.load_usps(path, per_class=1), path)
        for ds in splits or ():
            assert ds.inputs.shape == (16, 16, 10)
            # no accepted image is constant, so each spans [0, 1] exactly
            np.testing.assert_array_equal(ds.inputs.min(axis=(0, 1)), 0.0)
            np.testing.assert_array_equal(ds.inputs.max(axis=(0, 1)), 1.0)
            np.testing.assert_array_equal(ds.labels, np.arange(1, 11))

    @FUZZ
    @given(files=ae_test_files())
    def test_ae_file_and_sidecar(self, fuzz_dir, files):
        train, test = fuzz_dir / "ae.train", fuzz_dir / "ae.test"
        test.write_text(files[0])
        (fuzz_dir / "ae.test.counts").write_text(files[1])
        splits = expect_path_in_error(lambda: data.load_jv(train, test),
                                      test)
        if splits is not None:
            ds = splits[1]
            assert ds.inputs.shape[:2] == (14, 24)
            assert np.all(np.isfinite(ds.inputs))
            assert np.all(np.diff(ds.labels) >= 0)
