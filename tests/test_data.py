import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vrkit import (
    Dataset,
    Problem,
    SyntheticSpec,
    gen_separable,
    parse_libsvm,
    serialize_libsvm,
)

from criterion_helpers import datasets_equal

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "make_fixtures", ROOT / "scripts" / "make_fixtures.py"
)
make_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixtures)


class TestParse:
    def test_single_row(self):
        dataset = parse_libsvm("+1 1:0.5 3:-2")
        assert dataset.n == 1 and dataset.d == 3
        assert dataset.labels[0] == 1.0
        row = dataset.features.toarray()[0]
        np.testing.assert_allclose(row, [0.5, 0.0, -2.0])

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError, match="empty dataset"):
            parse_libsvm("")

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n+1 1:1\n   \n-1 2:1\n"
        dataset = parse_libsvm(text)
        assert dataset.n == 2 and dataset.d == 2

    def test_crlf_accepted(self):
        dataset = parse_libsvm("+1 1:1\r\n-1 1:2\r\n")
        assert dataset.n == 2

    def test_label_recoding(self):
        zero_one = parse_libsvm("0 1:1\n1 1:2")
        np.testing.assert_array_equal(zero_one.labels, [-1.0, 1.0])

        one_two = parse_libsvm("1 1:1\n2 1:2")
        np.testing.assert_array_equal(one_two.labels, [-1.0, 1.0])

        keep = parse_libsvm("+1 1:1\n-1 1:2")
        np.testing.assert_array_equal(keep.labels, [1.0, -1.0])

        regression = parse_libsvm("0.25 1:1\n-3.5 1:2")
        np.testing.assert_array_equal(regression.labels, [0.25, -3.5])

    def test_malformed_inputs_raise(self):
        with pytest.raises(ValueError, match="label"):
            parse_libsvm("abc 1:1")
        with pytest.raises(ValueError, match="malformed"):
            parse_libsvm("+1 1x2")
        with pytest.raises(ValueError, match="malformed"):
            parse_libsvm("+1 1:zzz")
        with pytest.raises(ValueError, match="non-increasing"):
            parse_libsvm("+1 3:1 2:1")
        with pytest.raises(ValueError, match="non-increasing"):
            parse_libsvm("+1 2:1 2:2")
        with pytest.raises(ValueError, match="1-based"):
            parse_libsvm("+1 0:1")

    def test_non_finite_label_names_its_line(self):
        with pytest.raises(ValueError, match="line 3: non-finite label"):
            parse_libsvm("+1 1:1\n\nnan 1:1\n-inf 1:2\n")

    def test_non_finite_feature_names_its_line(self):
        with pytest.raises(ValueError, match="line 1: non-finite feature value"):
            parse_libsvm("+1 1:nan 2:1\n")
        # the first bad line wins, label or feature
        with pytest.raises(ValueError, match="line 3: non-finite feature value"):
            parse_libsvm("# c\n+1\n-1 1:2 2:inf\ninf 1:1\n")

    def test_dimension_override_pads(self):
        dataset = parse_libsvm("+1 1:1", d=10)
        assert dataset.d == 10
        with pytest.raises(ValueError):
            parse_libsvm("+1 5:1", d=3)

    def test_explicit_zero_values_survive(self):
        dataset = parse_libsvm("+1 1:0.0 2:3")
        assert dataset.features.nnz == 2
        again = parse_libsvm(serialize_libsvm(dataset))
        assert datasets_equal(dataset, again)


class TestSerialize:
    def test_single_row(self):
        dataset = parse_libsvm("+1 1:0.5")
        assert serialize_libsvm(dataset) == "+1 1:0.5\n"

    def test_empty_feature_row(self):
        dense = np.array([[0.0, 0.0]])
        dataset = Dataset(features=sp.csr_matrix(dense), labels=np.array([-1.0]))
        assert serialize_libsvm(dataset) == "-1\n"

    def test_roundtrip_on_awkward_floats(self):
        values = [0.1, 1e-300, 1.7976931348623157e308, -2.5000000000000004, 3.0]
        text = "+1 " + " ".join(f"{i+1}:{v!r}" for i, v in enumerate(values))
        dataset = parse_libsvm(text)
        again = parse_libsvm(serialize_libsvm(dataset))
        assert datasets_equal(dataset, again)


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.integers(min_value=1, max_value=6))
    rows = []
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    for _ in range(n):
        cols = draw(st.sets(st.integers(min_value=0, max_value=d - 1), max_size=d))
        rows.append({c: draw(values) for c in sorted(cols)})
    # keep labels in the fixed-point set of the recoding rules
    labels = draw(
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
    )
    matrix = sp.lil_matrix((n, d))
    for i, row in enumerate(rows):
        for c, v in row.items():
            matrix[i, c] = v
    return Dataset(features=sp.csr_matrix(matrix), labels=np.array(labels)), d


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(payload=datasets())
    def test_parse_serialize_identity(self, payload):
        dataset, d = payload
        text = serialize_libsvm(dataset)
        again = parse_libsvm(text, d=d)
        assert datasets_equal(dataset, again)
        assert serialize_libsvm(again) == text


class TestSyntheticData:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=1, d=5)
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=5, mislabel_fraction=1.5)
        for margin in (0.0, -1.0, float("nan"), float("inf"), 3.3, 50.0):
            with pytest.raises(ValueError, match="margin"):
                SyntheticSpec(n=10, d=5, margin=margin)

    def test_largest_reachable_margin_still_draws(self):
        spec = SyntheticSpec(n=20, d=3, margin=3.2, seed=2)
        dataset, w_star = gen_separable(spec)
        assert (dataset.labels * (dataset.features @ w_star)).min() >= 3.2

    def test_separable_by_construction(self):
        spec = SyntheticSpec(n=200, d=10, mislabel_fraction=0.0, margin=0.25, seed=4)
        dataset, w_star = gen_separable(spec)
        assert np.linalg.norm(w_star) == pytest.approx(1.0)
        margins = dataset.labels * (dataset.features @ w_star)
        assert margins.min() >= 0.25

    def test_total_flip_separated_by_negated_vector(self):
        spec = SyntheticSpec(n=100, d=8, mislabel_fraction=1.0, margin=0.1, seed=9)
        dataset, w_star = gen_separable(spec)
        margins = dataset.labels * (dataset.features @ (-w_star))
        assert margins.min() >= 0.1

    def test_mislabel_count_exact(self):
        for frac in (0.0, 0.1, 0.2, 0.37):
            spec = SyntheticSpec(n=203, d=6, mislabel_fraction=frac, seed=1)
            dataset, w_star = gen_separable(spec)
            clean = np.sign(dataset.features @ w_star)
            assert int((clean != dataset.labels).sum()) == int(np.floor(frac * 203))

    def test_determinism(self):
        spec = SyntheticSpec(n=150, d=12, mislabel_fraction=0.2, seed=77)
        first, w1 = gen_separable(spec)
        second, w2 = gen_separable(spec)
        assert datasets_equal(first, second)
        np.testing.assert_array_equal(w1, w2)

    def test_different_seeds_differ(self):
        a, _ = gen_separable(SyntheticSpec(n=50, d=5, seed=0))
        b, _ = gen_separable(SyntheticSpec(n=50, d=5, seed=1))
        assert not datasets_equal(a, b)

    def test_interpolation_objective_reaches_zero(self):
        # with zero mislabeling the scaled true vector fits the hinge exactly
        spec = SyntheticSpec(n=300, d=10, mislabel_fraction=0.0, margin=0.2, seed=6)
        dataset, w_star = gen_separable(spec)
        problem = Problem(dataset=dataset, loss="squared_hinge", l2_reg=0.0)
        certificate = w_star / spec.margin
        assert problem.loss_value(certificate) == pytest.approx(0.0, abs=1e-12)

    def test_serialized_synthetic_roundtrips(self):
        spec = SyntheticSpec(n=40, d=7, mislabel_fraction=0.1, seed=13)
        dataset, _ = gen_separable(spec)
        again = parse_libsvm(serialize_libsvm(dataset), d=spec.d)
        assert datasets_equal(dataset, again)


@pytest.mark.parametrize("name", sorted(make_fixtures.FIXTURES))
def test_bundled_fixture_regenerates_byte_for_byte(name):
    # the goldens and the protocol benchmark are built on these files
    text = make_fixtures.fixture_text(make_fixtures.FIXTURES[name])
    assert text.encode("utf-8") == (ROOT / "datasets" / name).read_bytes()
