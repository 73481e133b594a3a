import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subalign.datasets import (
    Domain,
    DomainShift,
    SynthSpec,
    center_columns,
    center_columns_in_place,
    load_csv,
    save_csv,
    synth_shifted_gaussians,
)
from subalign.errors import ConfigurationError, ParseError


def _nn_accuracy(source, target):
    # exhaustive 1-NN oracle used only by tests
    d2 = (
        np.sum(target.samples**2, axis=0)[None, :]
        + np.sum(source.samples**2, axis=0)[:, None]
        - 2.0 * source.samples.T @ target.samples
    )
    pred = source.labels[np.argmin(d2, axis=0)]
    return float(np.mean(pred == target.hidden_labels()))


class TestSynth:
    def test_identical_distributions_transfer_well(self):
        accs = []
        for seed in range(20):
            spec = SynthSpec(D=2, n_s=40, n_t=40, seed=seed)
            source, target = synth_shifted_gaussians(spec)
            accs.append(_nn_accuracy(source, target))
        assert np.mean(accs) >= 0.9

    def test_quarter_turn_breaks_naive_transfer(self):
        accs = []
        for seed in range(20):
            spec = SynthSpec(
                D=2, n_s=40, n_t=40, seed=seed,
                domain_shift=DomainShift(rotation_angle=math.pi / 2),
            )
            source, target = synth_shifted_gaussians(spec)
            accs.append(_nn_accuracy(source, target))
        assert np.mean(accs) <= 0.6

    def test_single_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            synth_shifted_gaussians(SynthSpec(n_s=1))

    def test_determinism_bitwise(self):
        spec = SynthSpec(D=3, seed=17)
        s1, t1 = synth_shifted_gaussians(spec)
        s2, t2 = synth_shifted_gaussians(spec)
        assert np.array_equal(s1.samples, s2.samples)
        assert np.array_equal(t1.samples, t2.samples)
        assert np.array_equal(s1.labels, s2.labels)

    @staticmethod
    def _reference_draws(spec):
        """The generator written out in full: means[:, classes] + sigma * Z
        for both domains, then copy, rotate, scale and translate the target."""
        rng = np.random.default_rng(spec.seed)
        means = np.zeros((spec.D, spec.class_count))
        means[0] = (np.arange(spec.class_count) - (spec.class_count - 1) / 2.0) * spec.class_separation
        label_values = np.array([-1, 1]) if spec.class_count == 2 else np.arange(spec.class_count)
        draws = []
        for n in (spec.n_s, spec.n_t):
            classes = rng.integers(0, spec.class_count, size=n)
            X = means[:, classes] + spec.noise_sigma * rng.standard_normal((spec.D, n))
            draws.append((X, label_values[classes]))
        shift, X = spec.domain_shift, draws[1][0].copy()
        if spec.D >= 2 and shift.rotation_angle != 0.0:
            c, s = math.cos(shift.rotation_angle), math.sin(shift.rotation_angle)
            top = X[:2].copy()
            X[0] = c * top[0] - s * top[1]
            X[1] = s * top[0] + c * top[1]
        X *= shift.scale
        t = np.full(spec.D, shift.translation)
        draws[1] = (X + t[:, None], draws[1][1])
        return draws

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shift, sigma, classes", [
        (DomainShift(), 1.0, 2),
        (DomainShift(rotation_angle=0.7, translation=-2.25, scale=1.3), 1.0, 3),
        (DomainShift(rotation_angle=0.7, translation=0.5, scale=0.8), 0.0, 3),
        (DomainShift(), 0.0, 2),
        (DomainShift(), 2.5, 2),
        (DomainShift(scale=1.3), 1.0, 2),
        (DomainShift(translation=2.0), 1.0, 3),
    ])
    def test_samples_match_reference_formula_bitwise(self, seed, shift, sigma, classes):
        spec = SynthSpec(D=4, n_s=50, n_t=60, class_count=classes, domain_shift=shift,
                         noise_sigma=sigma, seed=seed)
        for domain, (X, y) in zip(synth_shifted_gaussians(spec), self._reference_draws(spec)):
            # tobytes also tells +0.0 from -0.0
            assert domain.samples.tobytes() == X.tobytes()
            assert np.array_equal(domain.labels, y)

    def test_shift_leaves_its_input_unchanged(self):
        X = np.random.default_rng(8).standard_normal((3, 10))
        before = X.copy()
        out = X.copy()
        DomainShift(rotation_angle=0.4, translation=1.0, scale=2.0)._apply_in_place(out)
        assert np.array_equal(X, before)
        assert not np.shares_memory(out, X)
        assert not np.array_equal(out, X)

    @pytest.mark.parametrize("shift", [
        DomainShift(rotation_angle=0.7, translation=-2.25, scale=1.3),
        DomainShift(rotation_angle=4.2, translation=0.5, scale=0.8),
        DomainShift(scale=0.8),
        DomainShift(translation=-1.0),
    ])
    def test_in_place_target_shift_matches_apply_bitwise(self, shift):
        # the draws do not depend on the shift, so the unshifted target is the
        # raw draw that synth_shifted_gaussians shifts in place
        spec = SynthSpec(D=4, n_s=20, n_t=30, seed=6)
        _, raw = synth_shifted_gaussians(spec)
        _, target = synth_shifted_gaussians(SynthSpec(D=4, n_s=20, n_t=30, seed=6, domain_shift=shift))
        shifted = raw.samples.copy()
        shift._apply_in_place(shifted)
        assert target.samples.tobytes() == shifted.tobytes()
        assert not np.array_equal(target.samples, raw.samples)

    def test_identity_shift_makes_no_pass(self):
        # adding a zero translation would turn the -0.0 entry into +0.0
        X = np.random.default_rng(10).standard_normal((3, 12))
        X[1, 4] = -0.0
        out = X.copy()
        DomainShift()._apply_in_place(out)
        assert out.tobytes() == X.tobytes()

    def test_target_labels_hidden(self):
        _, target = synth_shifted_gaussians(SynthSpec())
        assert target.visible_labels is None
        assert target.hidden_labels().shape == (target.n,)


class TestCsv:
    def test_orientation(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        dom = load_csv(str(p))
        assert dom.samples.shape == (4, 3)
        assert dom.samples[0, 1] == 5.0

    def test_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0.5,-1\n3.0,4.0,0.5,1\n")
        dom = load_csv(str(p), label_column=4)
        assert dom.samples.shape == (3, 2)
        assert list(dom.labels) == [-1, 1]

    @pytest.mark.parametrize("column", [0, -1, 4])
    def test_label_column_outside_the_row_rejected(self, tmp_path, column):
        """Column 0 used to drop the last feature and return no labels, and
        a column past the width raised a bare IndexError."""
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,-1\n3.0,4.0,1\n")
        with pytest.raises(ConfigurationError, match=f"label_column {column} outside 1..3"):
            load_csv(str(p), label_column=column)

    def test_non_integer_label_column_rejected(self, tmp_path):
        """The label column 0.5, 1.7, 1 loaded as [0, 1, 1]."""
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0.5\n3.0,4.0,1.7\n5.0,6.0,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(str(p), label_column=3)
        assert str(err.value) == f"{p}: label column 3: labels must be integers, got 0.5"

    def test_whole_number_label_cells_load(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,1.0\n3.0,4.0,-1\n")
        assert load_csv(str(p), label_column=3).labels.tolist() == [1, -1]

    def test_parse_error_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,abc\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(str(p))

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError):
            load_csv(str(p))

    def test_header_autodetect(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        dom = load_csv(str(p))
        assert dom.samples.shape == (2, 2)

    @pytest.mark.parametrize(
        "text, label_column, error, message",
        [
            ("", None, ParseError, "empty file"),
            ("\n\n", 2, ParseError, "empty file"),
            # a header alone read "label_column 3 outside 1..0 (the column
            # count)" for 3 columns, or "samples must be a 2-d matrix" without
            # a label column, naming no file
            ("a,b,label\n\n", 3, ParseError, "no data rows"),
            ("a,b,label\n", None, ParseError, "no data rows"),
            ("a,b\n1,2\n3,4,5\n", None, ParseError, "ragged row 3 (expected 2 cells)"),
            ("1,2\n\n3,x\n", None, ParseError, "non-numeric cell 'x' in row 2"),
            # a first row with a number is data, not a header: it was dropped
            ("1,x\n2,3\n4,5\n", None, ParseError, "non-numeric cell 'x' in row 1"),
            ("h,h\n1,2\n 3 ,0x10\n", None, ParseError, "non-numeric cell '0x10' in row 3"),
            # numbered column names, as pandas writes them by default, make
            # the header a data row: such columns must be renamed
            ("0,1,label\n1.5,2,1\n3,4,-1\n", 3, ParseError, "non-numeric cell 'label' in row 1"),
            ("1,2\n3,4,5\n", 3, ConfigurationError,
             "label_column 3 outside 1..2 (the column count)"),
            ("1,2\n3,4.5\n", 2, ParseError, "label column 2: labels must be integers, got 4.5"),
            # these three named neither file nor row: "need D >= 1 and n >= 2,
            # got D=2, n=1" and "samples contain NaN/Inf entries"
            ("a,b\n1,2\n", None, ParseError, "1 data row (a domain needs at least 2)"),
            ("a,b\n1,2\n3,nan\n4,inf\n", None, ParseError, "non-finite cell nan in row 3"),
            ("1,2\n3,4\n\n5,-inf\n", 2, ParseError, "non-finite cell -inf in row 3"),
        ],
    )
    def test_messages_name_the_file_and_row(self, tmp_path, text, label_column, error, message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(error) as err:
            load_csv(str(p), label_column=label_column)
        assert str(err.value) == f"{p}: {message}"

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = ["1_000", " 2 ", "1e-400", "-0", ".5", "1.", "4.9e-324", "\uff11", "+7"]
        p = tmp_path / "d.csv"
        p.write_text(",".join(cells) + "\n" + ",".join(reversed(cells)) + "\n", encoding="utf-8")
        dom = load_csv(str(p))
        expect = np.array([[float(c) for c in cells], [float(c) for c in reversed(cells)]]).T
        assert dom.samples.tobytes() == expect.tobytes()

    def test_load_holds_rows_not_cells(self, tmp_path):
        """Holding every cell as a str and then as a float peaked at about
        16 times the array. The row arrays (8 D bytes each plus about 100
        bytes of header) with the stacked samples, and then the samples with
        the features cut from them, hold about twice the array at a time."""
        D, n = 64, 2000
        rng = np.random.default_rng(0)
        p = tmp_path / "d.csv"
        save_csv(Domain(rng.standard_normal((D, n)), rng.integers(0, 2, n)), str(p))
        tracemalloc.start()
        try:
            dom = load_csv(str(p), label_column=D + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dom.samples.shape == (D, n)
        assert peak <= 4 * 8 * (D + 1) * n

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        dom = Domain(rng.standard_normal((3, 5)), rng.choice([-1, 1], 5))
        path = tmp_path_factory.mktemp("csv") / "rt.csv"
        save_csv(dom, str(path))
        back = load_csv(str(path), label_column=4)
        assert np.allclose(back.samples, dom.samples, atol=1e-15)
        assert np.array_equal(back.labels, dom.labels)


class TestCentering:
    def test_identical_columns(self):
        col = np.array([1.0, -2.0, 3.0])
        dom = Domain(np.tile(col[:, None], 4))
        centered, mean = center_columns(dom)
        assert np.allclose(centered.samples, 0.0)
        assert np.allclose(mean, col)

    def test_already_centered(self):
        X = np.array([[1.0, -1.0], [2.0, -2.0]])
        centered, _ = center_columns(Domain(X))
        assert np.allclose(centered.samples, X, atol=1e-12)

    def test_random_matrix_sums(self):
        rng = np.random.default_rng(0)
        centered, _ = center_columns(Domain(rng.standard_normal((5, 20))))
        assert np.all(np.abs(centered.samples.sum(axis=1)) <= 1e-10)


    def test_copy_leaves_its_input_unchanged(self):
        X = np.random.default_rng(9).standard_normal((4, 15)) + 3.0
        dom = Domain(X.copy())
        centered, _ = center_columns(dom)
        assert np.array_equal(dom.samples, X)
        assert not np.shares_memory(centered.samples, dom.samples)

    def test_in_place_matches_copy_bitwise(self):
        X = np.random.default_rng(10).standard_normal((4, 15)) * 2.0 - 1.5
        centered, mean = center_columns(Domain(X.copy()))
        dom = Domain(X.copy())
        samples = dom.samples
        mean_in_place = center_columns_in_place(dom)
        assert dom.samples is samples
        assert mean_in_place.tobytes() == mean.tobytes()
        assert dom.samples.tobytes() == centered.samples.tobytes()


class TestDomainValidation:
    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            Domain(np.array([[1.0, np.nan]]))

    def test_label_length_checked(self):
        with pytest.raises(ConfigurationError):
            Domain(np.ones((2, 3)), labels=[1, -1])

    @pytest.mark.parametrize("labels, bad", [
        ([0.5, 1.9, -0.7], "0.5"), ([0.0, np.nan, 1.0], "nan"), ([1.0, 0.0, -np.inf], "-inf"),
    ])
    def test_non_integer_labels_rejected(self, labels, bad):
        """The int cast stored [0.5, 1.9, -0.7] as [0, 1, 0]."""
        with pytest.raises(ConfigurationError, match=f"labels must be integers, got {bad}"):
            Domain(np.ones((2, 3)), labels=labels)

    def test_whole_float_labels_kept(self):
        dom = Domain(np.ones((2, 3)), labels=np.array([1.0, -1.0, 2.0]))
        assert dom.labels.dtype == int and dom.labels.tolist() == [1, -1, 2]

    def test_rotation_range(self):
        with pytest.raises(ConfigurationError):
            SynthSpec(domain_shift=DomainShift(rotation_angle=7.0)).validate()
