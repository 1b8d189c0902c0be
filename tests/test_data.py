import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esn_tucker import data, harness


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

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sigma_rejected(self, sigma):
        # NaN and inf used to return non-finite inputs
        ds = data.gen_sine_square(2, 2, seed=0)
        with pytest.raises(ValueError, match="sigma must be .*finite"):
            data.add_noise(ds, sigma)


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
                                          "-1.7e308 1.7e308",
                                          pytest.param(" ".join(["inf"] * 256),
                                                       id="all-inf")])
    def test_non_finite_pixel_reports_location(self, tmp_path, extremes):
        # the min-max scaling once zeroed an image with a NaN pixel and
        # made one whose range overflows NaN
        path = tmp_path / "bad.txt"
        good = ["0.5"] * 256
        bad = extremes.split() + good[len(extremes.split()):]
        path.write_text(f"3 {' '.join(good)}\n3 {' '.join(bad)}\n")
        with pytest.raises(ValueError, match="bad.txt:2: non-finite"):
            data.load_usps(path, per_class=1)

    @pytest.mark.parametrize("seed, per_class", [(0, 2), (1, 3), (2, 5)])
    def test_valid_file_never_reaches_line_parser(self, tmp_path,
                                                  monkeypatch, seed,
                                                  per_class):
        path = tmp_path / "digits.txt"
        data.make_digit_file(path, per_class=per_class, seed=seed)
        # a valid digit file needs no line numbers
        monkeypatch.setattr(data, "_line_map", refuse("the line map"))
        stacks = one_tokenizer_parse(monkeypatch,
                                     lambda: data._read_usps(path,
                                                             per_class // 2))
        assert [(s.shape, s.tobytes()) for s in stacks] == \
            line_parser_stacks(path)
        assert all(stack.flags.c_contiguous for stack in stacks)

    def test_constant_image_is_positive_zeros(self, tmp_path):
        # -0.0 - +0.0 is -0.0: a constant image of mixed zeros, whichever
        # zero its minimum is, must still load as +0.0 everywhere
        path = tmp_path / "digits.txt"
        mixed = ["3 " + " ".join(zeros * 128)
                 for zeros in (["0", "-0"], ["-0", "0"])]
        path.write_text("\n".join(DIGIT_LINES + mixed) + "\n")
        stacks = data._read_usps(path, per_class=1)
        assert stacks[3][:, :, -2:].tobytes() == bytes(8 * 256 * 2)

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"])
    def test_empty_file_rejected_without_warning(self, tmp_path, text):
        # pytest turns warnings into errors, so a loadtxt warning about
        # the missing data would fail this test
        path = tmp_path / "empty.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="digit 0: need 2 images for "
                           "disjoint splits of 1, file has 0"):
            data.load_usps(path, per_class=1)


# evaluated in the child interpreter: the scipy modules it has loaded
LOADED_SCIPY = ("sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.'))")


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports this esn_tucker;
    fail with its standard error if it fails."""
    src = str(Path(data.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy_ndimage(tmp_path):
    # only the digit file writer needs scipy.ndimage
    run_fresh("import sys\n"
              "from esn_tucker import data, harness\n"
              f"assert not {LOADED_SCIPY}, {LOADED_SCIPY}\n"
              "assert 'scipy.ndimage' not in sys.modules\n"
              "data.make_digit_file(sys.argv[1], per_class=2)\n"
              "assert data.load_usps(sys.argv[1], per_class=1)[0]"
              ".inputs.shape == (16, 16, 10)\n",
              tmp_path / "digits.txt")


def test_run_path_loads_no_scipy(tmp_path):
    # a readout fit and a grid of every method run on numpy alone
    cfg = harness.ExperimentConfig(
        dataset={"kind": "sine_square", "train_patterns": 2,
                 "test_patterns": 2, "segments_per_pattern": 4,
                 "segment_len": 20},
        methods=harness.METHODS, n_grid=(6,), j1_grid=(3,), j2_grid=(4,),
        ridge_lambda=1e-4, repetitions=1, master_seed=3)
    harness.save_config(cfg, tmp_path / "config.json")
    run_fresh("import sys\n"
              "import numpy as np\n"
              "import esn_tucker\n"
              "x = np.random.default_rng(0).normal(size=(4, 5, 6))\n"
              "esn_tucker.train_output_weights(x, [1, 2] * 3, 1e-3)\n"
              "cfg = esn_tucker.load_config(sys.argv[1])\n"
              "assert esn_tucker.run_experiment(cfg, workers=1)\n"
              f"assert not {LOADED_SCIPY}, {LOADED_SCIPY}\n",
              tmp_path / "config.json")


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

    def test_non_numeric_coefficient_reports_its_line(self, paths,
                                                      tmp_path):
        train, _ = paths
        bad = tmp_path / "ae.train"
        frame = " ".join(["0.5"] * 12)
        bad_frame = " ".join(["0.5", "x"] + ["0.5"] * 10)
        bad.write_text(f"{frame}\n{frame}\n\n{frame}\n{frame}\n"
                       f"{bad_frame}\n{frame}\n\n")
        with pytest.raises(ValueError, match="ae.train:6: non-numeric"):
            data.load_jv(bad, train)

    @pytest.mark.parametrize("text, where", [
        # non-finite in utterance 1, wrong width in utterance 2
        ("{f}\n{inf}\n\n{f}\n{short}\n\n", "2: non-finite"),
        # non-numeric before a wrong width in the same utterance
        ("{f}\n{f}\n\n{f}\n{x}\n{f}\n{short}\n\n", "5: non-numeric"),
        # a non-finite value before a wrong width in the same utterance
        ("{f}\n{f}\n\n{nan}\n{f}\n{short}\n\n", "4: non-finite"),
    ], ids=["non-finite-first", "non-numeric-first", "width-first"])
    def test_errors_reported_in_file_order(self, paths, tmp_path, text,
                                           where):
        # the first line that fails any check
        train, _ = paths
        bad = tmp_path / "ae.train"
        ones = ["0.5"] * 11
        bad.write_text(text.format(
            f=" ".join(ones + ["0.5"]), inf=" ".join(ones + ["inf"]),
            nan=" ".join(ones + ["nan"]), x=" ".join(["x"] + ones),
            short=" ".join(ones[:8])))
        with pytest.raises(ValueError, match=f"ae.train:{where}"):
            data.load_jv(bad, train)

    def test_resampling_overflow_names_the_utterance(self, paths,
                                                    tmp_path):
        # finite neighbours whose difference overflows: every interior
        # point of the resampled line would be inf
        train, test = paths
        bad = tmp_path / "ae.train"
        blocks = train.read_text().split("\n\n")
        rest = " ".join(["0.5"] * 11)
        blocks[2] = f"-1.7e308 {rest}\n1.7e308 {rest}"
        bad.write_text("\n\n".join(blocks))
        with pytest.raises(ValueError,
                           match="ae.train: utterance 3: resampling"):
            data.load_jv(bad, test, resample_len=5)

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

    # each id names the line and its fault, each problem the message
    @pytest.mark.parametrize("line, problem", [
        pytest.param("x 3", "non-numeric field", id="x 3-non-integer"),
        pytest.param("1 3.5", "non-numeric field", id="1 3.5-non-integer"),
        pytest.param("1 40", "repeated speaker",
                     id="1 40-repeated speaker 1"),
        pytest.param("10 3", "speaker outside 1..9",
                     id="10 3-speaker 10 outside 1..9"),
        pytest.param("0 3", "speaker outside 1..9",
                     id="0 3-speaker 0 outside"),
        pytest.param("2 -1", "negative count", id="2 -1-negative count -1"),
        # int() reads both, as 10 and 3
        pytest.param("2 1_0", "non-numeric field", id="2 1_0-non-integer"),
        pytest.param("2 \u0663", "non-numeric field",
                     id="2 \u0663-non-integer"),
        ("2 3 4", "expected 2 fields, got 3"),
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

    def test_blank_sidecar_misses_every_speaker(self, paths, tmp_path):
        train, test = paths
        copy = tmp_path / "ae.test"
        copy.write_text(test.read_text())
        (tmp_path / "ae.test.counts").write_text(" \n\t\n\n")
        with pytest.raises(ValueError, match=re.escape(
                "ae.test.counts: missing counts for speakers "
                "[1, 2, 3, 4, 5, 6, 7, 8, 9]")):
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

    def test_resample_len_below_two_rejected(self, paths):
        with pytest.raises(ValueError, match="resample_len must be >= 2"):
            data.load_jv(*paths, resample_len=1)

    def test_deterministic(self, tmp_path):
        a_train, a_test = tmp_path / "a.train", tmp_path / "a.test"
        b_train, b_test = tmp_path / "b.train", tmp_path / "b.test"
        data.make_vowel_files(a_train, a_test, seed=3)
        data.make_vowel_files(b_train, b_test, seed=3)
        assert a_train.read_text() == b_train.read_text()
        assert a_test.read_text() == b_test.read_text()


def interp_reference(block, t):
    """One utterance (frames x coefficients) resampled row by row."""
    n = len(block)
    return np.vstack([np.interp(np.linspace(0, n - 1, t), np.arange(n), row)
                      for row in block.T])


@pytest.fixture(scope="module")
def random_utterances(tmp_path_factory):
    """``ae`` train and test files of random utterances, 2 to 40 frames
    long, one of each length in {2, 7, 24, 40} and some zero values of
    either sign; returns the paths and each file's blocks."""
    rng = np.random.default_rng(11)
    test_counts = [2, 1, 3, 1, 2, 1, 1, 2, 1]
    base = tmp_path_factory.mktemp("jv_random")
    out = []
    for name, n_blocks in (("ae.train", 30 * data.N_SPEAKERS),
                           ("ae.test", sum(test_counts))):
        lengths = rng.integers(2, 41, size=n_blocks)
        lengths[:4] = (2, 7, 24, 40)
        blocks = []
        for n in lengths:
            block = rng.normal(0.0, 2.0, size=(n, data.N_CEPSTRUM))
            block[rng.random(block.shape) < 0.1] = 0.0
            block[rng.random(block.shape) < 0.1] = -0.0
            blocks.append(block)
        (base / name).write_text("".join(
            "".join(" ".join(map(repr, row)) + "\n"
                    for row in block.tolist()) + "\n"
            for block in blocks))
        out.append(blocks)
    (base / "ae.test.counts").write_text(
        "".join(f"{k} {c}\n" for k, c in enumerate(test_counts, start=1)))
    return base / "ae.train", base / "ae.test", out


class TestVowelResampling:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("resample_len", [2, 7, 24, 40])
    def test_matches_interp_per_utterance_bit_for_bit(
            self, random_utterances, resample_len, bias):
        train, test, blocks = random_utterances
        loaded = data.load_jv(train, test, resample_len=resample_len,
                              append_bias_rows=bias)
        for ds, file_blocks in zip(loaded, blocks):
            expected = np.stack(
                [np.vstack([interp_reference(block, resample_len)]
                           + [np.ones((2, resample_len))] * bias)
                 for block in file_blocks], axis=2)
            assert ds.inputs.shape == expected.shape
            np.testing.assert_array_equal(ds.inputs, expected)
            # np.interp returns a sample itself, zero sign included
            np.testing.assert_array_equal(np.signbit(ds.inputs),
                                          np.signbit(expected))


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


# tokens, separators and blank lines that numpy's C tokenizer and
# int()/float() might read differently
ODD_TOKEN_LIST = ["1_0", "\u0663", "+1e0", "nan", "inf", "0x1p3", "3.0", "1e1",
                  "#", "-0", "3_0", "10", "-1"]
ODD_TOKENS = st.sampled_from(ODD_TOKEN_LIST)
SEPARATORS = st.sampled_from([" ", "\t", "\x0c", " \t "])
BLANK_LINES = st.sampled_from(["", "   ", "\t", "\x0c"])


@st.composite
def odd_digit_files(draw):
    """``DIGIT_LINES`` with odd tokens in the label or pixel fields,
    fields added or dropped, odd separators and blank lines; now and
    then an empty file."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    rows = [line.split() for line in DIGIT_LINES]
    for _ in range(draw(st.integers(1, 3))):
        # mostly same-width edits: a wrong width ends every parse alike
        op = draw(st.sampled_from(["pixel", "label", "blank", "pixel",
                                   "label", "blank", "add", "drop"]))
        row = draw(st.sampled_from([row for row in rows if row]))
        if op == "label":
            row[0] = draw(ODD_TOKENS)
        elif op == "pixel":
            row[draw(st.integers(1, len(row) - 1))] = draw(ODD_TOKENS)
        elif op == "add":
            row.append(draw(ODD_TOKENS))
        elif op == "drop":
            row.pop()
        else:
            rows.insert(draw(st.integers(0, len(rows))), [])
    return "\n".join(draw(SEPARATORS).join(row) if row
                     else draw(BLANK_LINES) for row in rows) + "\n"


def refuse(what):
    def called(*args, **kwargs):
        raise AssertionError(f"{what} was called")
    return called


def one_tokenizer_parse(monkeypatch, load):
    """``load()``, asserting that it tokenizes the file once: a valid
    file never takes the fault path, which parses the rows before a
    rejected line again."""
    calls = []

    def tokenize(*args, **kwargs):
        calls.append(args)
        return tokenize_once(*args, **kwargs)

    tokenize_once = data._tokenize
    with monkeypatch.context() as patch:
        patch.setattr(data, "_tokenize", tokenize)
        result = load()
    assert len(calls) == 1
    return result


def ascii_int(token):
    """``int()`` of an integer field, refusing the non-ASCII digits and
    the ``_`` that ``int()`` alone accepts."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


def line_parser_stacks(path):
    """The reference line parser of digit files: each digit's images in
    an accepted file, as (shape, bytes), by ``ascii_int()`` of each
    label and ``float()`` of each pixel, min-max scaled, in file order."""
    images = [[] for _ in range(10)]
    with open(path) as fh:
        for line in fh:
            if line.split():
                label, *fields = line.split()
                pixels = np.array([float(p) for p in fields])
                lo, hi = pixels.min(), pixels.max()
                images[ascii_int(label)].append(
                    (pixels - lo) / (hi - lo) if hi > lo else np.zeros(256))
    stacks = [np.stack(stack, axis=1).reshape(16, 16, -1) for stack in images]
    return [(stack.shape, stack.tobytes()) for stack in stacks]


def line_parser_frames(path):
    """The reference line parser of ``ae`` files: an accepted file's
    frames (shape and bytes), by ``float()`` of each coefficient, and
    its runs of non-blank lines."""
    with open(path) as fh:
        lines = fh.readlines()
    frames = np.array([[float(v) for v in line.split()] for line in lines
                       if line.strip()]).reshape(-1, data.N_CEPSTRUM)
    runs = itertools.groupby(lines, key=str.isspace)
    return frames.shape, frames.tobytes(), [len(list(run))
                                            for blank, run in runs
                                            if not blank]


def utterance_start(lines, n):
    """The index of the first line of the run of non-blank lines that
    holds line ``n`` (1-based)."""
    k = n - 1
    while k and lines[k - 1].strip():
        k -= 1
    return k


def load_or_first_fault(load, path, cut):
    """``load(path)``, or None if it raises ``ValueError`` naming
    ``path``.  A ``path:n`` error must name the first faulty line: line n
    is non-blank, and the file cut to its first ``cut(lines, n)`` lines
    loads or raises naming no line."""
    try:
        return load(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        where = re.match(re.escape(f"{path}:") + r"(\d+): ", str(exc))
    if where:
        n = int(where[1])
        with open(path) as fh:
            lines = fh.readlines()
        assert lines[n - 1].strip()
        head = path.with_name(f"head-{path.name}")
        head.write_text("".join(lines[:cut(lines, n)]))
        try:
            load(head)
        except ValueError as exc:
            assert not re.match(re.escape(f"{head}:") + r"\d", str(exc))
    return None


def check_digit_file(path, per_class):
    stacks = load_or_first_fault(lambda p: data._read_usps(p, per_class),
                                 path, lambda lines, n: n - 1)
    if stacks is not None:
        assert [(s.shape, s.tobytes()) for s in stacks] == \
            line_parser_stacks(path)
        assert all(stack.flags.c_contiguous for stack in stacks)


def check_ae_file(path):
    parsed = load_or_first_fault(data._parse_ae_blocks, path,
                                 utterance_start)
    if parsed is not None:
        frames, lengths = parsed
        assert frames.dtype == float and lengths.dtype == np.intp
        assert (frames.shape, frames.tobytes(), lengths.tolist()) == \
            line_parser_frames(path)


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


# three utterances of two, three and two frames, no two frames alike
AE_ROWS = [[f"{0.1 * k - 0.05 * n:.2f}" for k in range(data.N_CEPSTRUM)]
           for n in range(7)]
AE_BLANKS = (2, 5)   # AE_ROWS indices where a new utterance starts


def ae_text(rows):
    """``rows`` as ``ae`` lines, a blank line before each new utterance."""
    return "".join("\n" * (k in AE_BLANKS) + " ".join(row) + "\n"
                   for k, row in enumerate(rows))


def with_token(token):
    """``AE_ROWS`` with ``token`` in place of one coefficient."""
    rows = [list(row) for row in AE_ROWS]
    rows[3][5] = token
    return rows


@st.composite
def odd_ae_files(draw):
    """``AE_ROWS`` in utterances with odd tokens, fields added or
    dropped, frames dropped (leaving one-frame utterances), odd
    separators, blank lines and line ends, and now and then no final
    line end; now and then an empty file."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    rows = [list(row) for row in AE_ROWS]
    for k in reversed(AE_BLANKS):
        rows.insert(k, [])
    for _ in range(draw(st.integers(1, 3))):
        # mostly same-width edits: a wrong width ends every parse alike
        op = draw(st.sampled_from(["token"] * 4 + ["blank"] * 3
                                  + ["frame", "add", "drop"]))
        frames = [row for row in rows if row]
        if op == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif op == "frame" and frames:
            rows.remove(draw(st.sampled_from(frames)))
        elif frames:
            row = draw(st.sampled_from(frames))
            if op == "token":
                row[draw(st.integers(0, len(row) - 1))] = draw(ODD_TOKENS)
            elif op == "add":
                row.append(draw(ODD_TOKENS))
            else:
                row.pop()
    lines = [draw(SEPARATORS).join(row) if row else draw(BLANK_LINES)
             for row in rows]
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
            for _ in lines]
    if draw(st.integers(0, 4)) == 0:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


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
    # each digit has three lines: per_class 2 meets the image count check
    @given(text=odd_digit_files(), per_class=st.sampled_from([1, 1, 1, 2]))
    def test_digit_parse_matches_line_parser(self, fuzz_dir, text,
                                            per_class):
        path = fuzz_dir / "odd_digits.txt"
        path.write_text(text, encoding="utf-8")
        check_digit_file(path, per_class)

    @pytest.mark.parametrize("field", [0, 1])
    @pytest.mark.parametrize("token", ODD_TOKEN_LIST)
    def test_odd_token_parse_matches_line_parser(self, tmp_path, token,
                                                  field):
        rows = [line.split() for line in DIGIT_LINES]
        rows[0][field] = token
        path = tmp_path / "digits.txt"
        path.write_text("\n".join(map(" ".join, rows)) + "\n",
                        encoding="utf-8")
        check_digit_file(path, 1)
        if field == 0 and token != "-0":
            # no other odd token is a label in 0..9, "\u0663" included
            with pytest.raises(ValueError, match=re.escape(f"{path}:1: ")):
                data._read_usps(path, 1)

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

    @FUZZ
    @given(text=odd_ae_files())
    def test_ae_parse_matches_line_parser(self, fuzz_dir, text):
        path = fuzz_dir / "odd.ae"
        # newline="" keeps each CR and CRLF as drawn
        path.write_text(text, encoding="utf-8", newline="")
        check_ae_file(path)

    @pytest.mark.parametrize("text", [
        ae_text([row[:11] for row in AE_ROWS]),
        ae_text([row + ["1"] for row in AE_ROWS]),
        ae_text(AE_ROWS).replace(" ", "\x1c").replace("\n\n", "\n\x85\n"),
        "\n\n\n", " \t\n\x0c\n",
    ] + [ae_text(with_token(token)) for token in ODD_TOKEN_LIST],
        ids=["all-11-wide", "all-13-wide", "odd-whitespace", "blank",
             "whitespace"] + ODD_TOKEN_LIST)
    def test_ae_file_matches_line_parser(self, tmp_path, text):
        path = tmp_path / "odd.ae"
        path.write_text(text, encoding="utf-8")
        check_ae_file(path)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_ae_file_never_reaches_line_parser(self, tmp_path,
                                                     monkeypatch, seed):
        train, test = tmp_path / "ae.train", tmp_path / "ae.test"
        data.make_vowel_files(train, test, seed=seed)
        for path in (train, test):
            frames, lengths = one_tokenizer_parse(
                monkeypatch, lambda: data._parse_ae_blocks(path))
            assert (frames.shape, frames.tobytes(), lengths.tolist()) == \
                line_parser_frames(path)
        assert data.load_jv(train, test)[1].inputs.shape == (14, 24, 370)


# ---------------------------------------------------------------------------
# a fault's file line: numpy's tokenizer counts rows past blank lines, and
# each loader maps its rows back to lines

def padded_text(groups):
    """``groups`` of rows as lines, each group after a blank, a
    whitespace-only and a form-feed line; returns the text and the line
    of each row."""
    lines, where = [], []
    for group in groups:
        lines += ["", "   ", "\t\x0c"]
        for row in group:
            lines.append(" ".join(row))
            where.append(len(lines))
    return "\n".join(lines) + "\n", where


LOADERS = {
    "digits": (lambda p: data._read_usps(p, 1), 257,
               lambda rows: [[row] for row in rows],
               [line.split() for line in DIGIT_LINES]),
    # utterances of two, three and two frames
    "ae": (data._parse_ae_blocks, 12,
           lambda rows: [rows[:2], rows[2:5], rows[5:]], AE_ROWS),
}


class TestFaultLocation:
    @pytest.mark.parametrize("fault, row, message", [
        ("token", 3, "non-numeric field"),
        ("width", 5, "expected {width} fields, got {short}"),
        ("first-width", 0, "expected {width} fields, got {short}"),
    ], ids=["token", "width", "first-width"])
    @pytest.mark.parametrize("loader", LOADERS)
    def test_tokenizer_fault_names_its_line(self, tmp_path, loader, fault,
                                            row, message):
        # a bad token's row counts from 0 in numpy's message, a width
        # change's from 1, and a first row of the wrong width is named
        # by the rows read before the width change
        load, width, group, good = LOADERS[loader]
        rows = [list(r) for r in good]
        if fault == "token":
            rows[row][1] = "x"
        else:
            rows[row].pop()
        text, where = padded_text(group(rows))
        path = tmp_path / "bad.txt"
        path.write_text(text)
        expected = message.format(width=width, short=width - 1)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{where[row]}: {expected}")):
            load(path)

    @pytest.mark.parametrize("loader", LOADERS)
    def test_tokenizer_fault_without_row_names_the_file(
            self, tmp_path, monkeypatch, loader):
        load, _, group, good = LOADERS[loader]
        path = tmp_path / "file.txt"
        path.write_text(padded_text(group(good))[0])

        def reject(fh, **kwargs):
            raise ValueError("no row given")

        monkeypatch.setattr(data, "_tokenize", reject)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: no row given")):
            load(path)

    # the counts case reads integer fields, hence its id
    @pytest.mark.parametrize("reader, message", [
        ("digits", "non-numeric field"), ("ae", "non-numeric field"),
        pytest.param("counts", "non-numeric field",
                     id="counts-non-integer field")])
    def test_undecodable_byte_names_its_line(self, tmp_path, reader,
                                             message):
        # the bytes read as characters no number holds; the digit and ae
        # faults lie past the first decoded chunk, after lines ended by
        # \r\n, \r and \n
        if reader == "digits":
            lines, bad = DIGIT_LINES * 4, 100
        elif reader == "ae":
            lines, bad = [FRAME, FRAME, ""] * 300, 800
        else:
            lines, bad = [f"{k} 3" for k in range(1, 10)], 4
        ends = [("\n", "\r\n", "\r")[k % 3] for k in range(len(lines))]
        raw = "".join(map(str.__add__, lines, ends)).encode()
        # the bad line's first character becomes the bytes ff e9
        head = len("".join(map(str.__add__, lines[:bad - 1], ends)))
        path = tmp_path / "file.txt"
        path.write_bytes(raw[:head] + b"\xff\xe9" + raw[head + 1:])
        load = {"digits": lambda: data._read_usps(path, 1),
                "ae": lambda: data._parse_ae_blocks(path),
                "counts": lambda: data._read_counts(path)}[reader]
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:{bad}: {message}")):
            load()
