import numpy as np
import pytest

from esn_tucker import data


class TestSineSquare:
    def test_shapes_and_label_range(self):
        ds = data.gen_sine_square(6, 5, segment_len=40, seed=0)
        assert len(ds) == 6
        assert ds.n_classes == 2
        for s in ds.samples:
            assert s.values.shape == (1, 200)
            assert s.pointwise_labels.shape == (200,)
            assert set(np.unique(s.pointwise_labels)) <= {1, 2}

    def test_sine_segment_is_one_period(self):
        # a pure-sine segment must match sin(2 pi t / len) exactly
        ds = data.gen_sine_square(20, 1, segment_len=50, seed=1)
        t = np.arange(50)
        expected = np.sin(2.0 * np.pi * t / 50)
        sine = [s for s in ds.samples if s.label == 1]
        assert sine  # seed produces at least one
        np.testing.assert_allclose(sine[0].values[0], expected, atol=1e-12)

    def test_square_segment_is_plus_minus_one(self):
        ds = data.gen_sine_square(20, 1, segment_len=50, seed=1)
        square = [s for s in ds.samples if s.label == 2]
        assert square
        vals = square[0].values[0]
        assert set(np.unique(vals)) == {-1.0, 1.0}
        # first half-period positive, second negative (the t = len/2
        # sample sits on the zero crossing and may land on either side)
        assert np.all(vals[:25] == 1.0)
        assert np.all(vals[26:] == -1.0)

    def test_segment_means_near_zero(self):
        ds = data.gen_sine_square(10, 8, segment_len=100, seed=2)
        for s in ds.samples:
            assert abs(s.values.mean()) < 0.02

    def test_labels_switch_only_at_segment_boundaries(self):
        ds = data.gen_sine_square(10, 6, segment_len=30, seed=3)
        for s in ds.samples:
            switches = np.nonzero(np.diff(s.pointwise_labels))[0] + 1
            assert all(sw % 30 == 0 for sw in switches)

    def test_deterministic(self):
        a = data.gen_sine_square(5, 4, seed=9)
        b = data.gen_sine_square(5, 4, seed=9)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.values, sb.values)
            np.testing.assert_array_equal(sa.pointwise_labels,
                                          sb.pointwise_labels)

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
        diffs = np.concatenate([
            (a.values - b.values).ravel()
            for a, b in zip(noisy.samples, ds.samples)
        ])
        assert diffs.size >= 10_000
        assert diffs.std() == pytest.approx(sigma, rel=0.05)
        assert abs(diffs.mean()) < 0.05 * sigma + 0.01

    def test_labels_untouched(self):
        ds = data.gen_sine_square(3, 4, seed=3)
        noisy = data.add_noise(ds, 0.5, seed=4)
        for a, b in zip(noisy.samples, ds.samples):
            assert a.label == b.label
            np.testing.assert_array_equal(a.pointwise_labels,
                                          b.pointwise_labels)

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
        assert len(train) == len(test) == 30
        assert train.n_classes == 10
        counts = np.bincount(train.labels(), minlength=11)
        assert all(counts[1:] == 3)
        for s in train.samples:
            assert s.values.shape == (16, 16)
            assert s.values.min() >= 0.0 and s.values.max() <= 1.0

    def test_splits_disjoint(self, digit_path):
        train, test = data.load_usps(digit_path, per_class=3, seed=5)
        train_ids = {s.sample_id for s in train.samples}
        test_ids = {s.sample_id for s in test.samples}
        assert not train_ids & test_ids

    def test_split_deterministic_per_seed(self, digit_path):
        a = data.load_usps(digit_path, per_class=2, seed=7)
        b = data.load_usps(digit_path, per_class=2, seed=7)
        for split_a, split_b in zip(a, b):
            assert [s.sample_id for s in split_a.samples] == \
                   [s.sample_id for s in split_b.samples]

    def test_normalization_spans_unit_interval(self, digit_path):
        train, _ = data.load_usps(digit_path, per_class=3)
        for s in train.samples:
            assert s.values.max() == pytest.approx(1.0)
            assert s.values.min() == pytest.approx(0.0)

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


class TestVowelFiles:
    def test_split_sizes(self, paths):
        train, test = data.load_jv(*paths)
        assert len(train) == 270
        assert len(test) == 370
        assert train.n_classes == test.n_classes == 9
        counts = np.bincount(train.labels(), minlength=10)
        assert all(counts[1:] == 30)

    def test_resampled_shape_with_bias_rows(self, paths):
        train, test = data.load_jv(*paths, resample_len=24)
        for s in list(train.samples) + list(test.samples):
            assert s.values.shape == (14, 24)
            np.testing.assert_array_equal(s.values[12:], np.ones((2, 24)))

    def test_bias_rows_optional(self, paths):
        train, _ = data.load_jv(*paths, resample_len=20,
                                append_bias_rows=False)
        assert train.samples[0].values.shape == (12, 20)

    def test_test_counts_come_from_sidecar(self, paths):
        _, test = data.load_jv(*paths)
        counts = np.bincount(test.labels(), minlength=10)[1:]
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
