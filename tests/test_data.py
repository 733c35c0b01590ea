import importlib.util
import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vrkit import (
    Dataset,
    Problem,
    SyntheticSpec,
    data,
    gen_separable,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
)

from conftest import same_bits
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

    def test_index_that_does_not_fit_int32_names_its_line(self):
        # the CSR matrix stores indices as int32; 2**31 and beyond used to
        # escape as an OverflowError from numpy
        with pytest.raises(ValueError, match="line 2: feature index 3000000000 does not fit"):
            parse_libsvm("+1 1:1\n-1 3000000000:1\n")
        with pytest.raises(ValueError, match="line 1: feature index 2147483648 does not fit"):
            parse_libsvm("+1 2147483648:1")
        with pytest.raises(ValueError, match=f"line 1: feature index {2**70} does not fit"):
            parse_libsvm(f"+1 {2**70}:1")
        assert parse_libsvm("+1 2147483647:1").d == 2**31 - 1

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


def reference_parse_libsvm(source, d=None):
    """The token-by-token parser that the bulk one replaced, kept as the
    reference; its one change is the int32 check on feature indices."""
    labels, linenos, indptr, indices, values = [], [], [0], [], []
    max_index = 0
    lines = io.StringIO(source) if isinstance(source, str) else source
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric label {tokens[0]!r}") from None
        linenos.append(lineno)
        prev_idx = 0
        for token in tokens[1:]:
            head, sep, tail = token.partition(":")
            if not sep:
                raise ValueError(f"line {lineno}: malformed token {token!r}")
            try:
                idx = int(head)
                val = float(tail)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed token {token!r}") from None
            if idx < 1:
                raise ValueError(f"line {lineno}: feature index {idx} is not 1-based")
            if idx >= 2**31:  # the one addition: numpy raised OverflowError below
                raise ValueError(
                    f"line {lineno}: feature index {idx} does not fit int32 (must be < 2**31)")
            if idx <= prev_idx:
                raise ValueError(
                    f"line {lineno}: non-increasing feature index {idx} after {prev_idx}"
                )
            prev_idx = idx
            indices.append(idx - 1)
            values.append(val)
            max_index = max(max_index, idx)
        indptr.append(len(indices))

    if not labels:
        raise ValueError("empty dataset")
    dim = max_index if d is None else int(d)
    if dim < max_index:
        raise ValueError(f"explicit dimension {dim} smaller than max index {max_index}")
    values = np.asarray(values, dtype=np.float64)
    raw_labels = np.asarray(labels, dtype=np.float64)
    bad = ~np.isfinite(raw_labels)
    bad[np.searchsorted(indptr, np.flatnonzero(~np.isfinite(values)), side="right") - 1] = True
    if bad.any():
        row = int(np.argmax(bad))
        what = "feature value" if np.isfinite(raw_labels[row]) else "label"
        raise ValueError(f"line {linenos[row]}: non-finite {what}")
    matrix = sp.csr_matrix(
        (values, np.asarray(indices, dtype=np.int32), np.asarray(indptr, dtype=np.int32)),
        shape=(len(labels), dim),
    )
    return Dataset(features=matrix, labels=data._recode_labels(raw_labels))


def _outcome(parse, *args, **kwargs):
    try:
        return parse(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """The same bits, dtypes and shape, or the same error type and message."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Dataset)
    a, b = got.features, want.features
    assert a.shape == b.shape
    for x, y in ((a.data, b.data), (got.labels, want.labels)):
        assert x.dtype == y.dtype and same_bits(x, y)
    for x, y in ((a.indices, b.indices), (a.indptr, b.indptr)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def assert_parses_like_reference(source, d=None):
    assert_same_outcome(_outcome(parse_libsvm, source, d=d),
                        _outcome(reference_parse_libsvm, source, d=d))


# chunk sizes in characters of feature text: one line per chunk, a few
# lines per chunk, and the library's own
CHUNK_SIZES = [1, 7, data._CHUNK_CHARS]

FIXED_CASES = {
    "two-colon and no-colon token": "+1 1:2:3 4\n",
    "empty value": "+1 1:\n",
    "empty index": "+1 :1\n",
    "zero index": "+1 0:1\n",
    "negative index": "+1 -2:1\n",
    "repeated index": "+1 2:1 2:1\n",
    "decreasing index": "+1 1:1 3:1\n-1 3:1 2:1\n",
    "label with colon": "1:2 3:4\n",
    "bare colon": "+1 1:1 :\n",
    "tabs": "+1\t1:2\t3:4\n-1\t2:1\n",
    "non-breaking space": "+1\xa01:2\xa03:4\n",
    "underscores and exponents": "+1 1_0:1e0 11:2_0.5\n",
    "comments and blank lines": "# head\n\n+1 1:1\n   \n  # 1:x\n-1 2:1\n",
    "row with no features": "+1\n-1 1:1\n+1   \n",
    "only feature-less rows": "+1\n-1\n",
    "malformed after non-finite": "+1 1:nan\n-1 1:1\n-1 x\n",
    "non-finite after fine lines": "+1 1:1\n-1 1:1 2:inf\n",
    "non-finite label": "+1 1:1\nnan 1:1\n",
    "index beyond int32": "+1 1:1\n-1 2147483648:1\n",
    "index beyond int64": f"+1 {2**64}:1\n",
    "bad label": "abc 1:1\n",
    "only comments": "# nothing\n\n",
    "carriage return inside a line": "+1 1:1\r2:2\n",
}


# generated LIBSVM text: well-formed lines with increasing indices (whose
# values may be non-finite), and up to two lines with the faults the parser names
_SEPARATORS = st.sampled_from([" ", "\t", "\xa0", "  "])
_GOOD_LINE = st.one_of(
    st.sampled_from(["", "  ", "# c 1:x"]),
    st.builds(lambda label, cols, values, sep: sep.join(
                  [label, *(f"{c}:{v}" for c, v in zip(sorted(cols), values))]),
              st.sampled_from(["+1", "-1", "0", "2", "0.5"]),
              st.sets(st.integers(1, 12), max_size=6),
              st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats()).map(repr),
                       min_size=6, max_size=6),
              _SEPARATORS),
)
_ODD_LINE = st.builds(
    lambda label, tokens, sep: sep.join([label, *tokens]),
    st.sampled_from(["+1", "-1", "nan", "inf", "abc", "1:2"]),
    st.lists(st.one_of(
        st.builds("{}:{}".format,
                  st.one_of(st.integers(-1, 12),
                            st.sampled_from([2**31 - 1, 2**31, 2**64, "", "1_0", "+3", "x"])),
                  st.one_of(st.floats().map(repr),
                            st.sampled_from(["1", "-0.0", "1e400", "1_0", "", "z", ":"]))),
        st.sampled_from(["4", ":", "1:2:3", "::"])), max_size=5),
    _SEPARATORS)


@st.composite
def libsvm_texts(draw):
    lines = draw(st.lists(_GOOD_LINE, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINE))
    return "\n".join(lines)


class TestBulkParseMatchesReference:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("text", FIXED_CASES.values(), ids=FIXED_CASES.keys())
    def test_fixed_case(self, text, chunk, monkeypatch):
        monkeypatch.setattr(data, "_CHUNK_CHARS", chunk)
        assert_parses_like_reference(text)
        assert_parses_like_reference(text.splitlines(keepends=True))

    def test_fixed_cases_show_what_they_name(self):
        # pin a few outcomes, so the reference cannot drift with the library
        assert _outcome(parse_libsvm, FIXED_CASES["two-colon and no-colon token"]) == (
            ValueError, "line 1: malformed token '1:2:3'")
        assert _outcome(parse_libsvm, FIXED_CASES["malformed after non-finite"]) == (
            ValueError, "line 3: malformed token 'x'")
        indices = parse_libsvm(FIXED_CASES["underscores and exponents"]).features.indices
        assert indices.tolist() == [9, 10]

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_endings_through_load_libsvm(self, newline, chunk, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_CHUNK_CHARS", chunk)
        path = tmp_path / "data.libsvm"

        def reference_load(path):
            with open(path, encoding="utf-8") as handle:
                return reference_parse_libsvm(handle)

        lines = ["# c", "+1 1:0.5 3:-2", "", "-1 2:1", "+1", "-1 1:1 2:1 3:1"]
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode("utf-8"))
        assert load_libsvm(path).n == 4
        assert_same_outcome(load_libsvm(path), reference_load(path))
        path.write_bytes(newline.join(lines + ["-1 2:1 1:1"]).encode("utf-8"))
        assert _outcome(load_libsvm, path) == (
            ValueError, "line 7: non-increasing feature index 1 after 2")
        assert_same_outcome(_outcome(load_libsvm, path), _outcome(reference_load, path))

    def test_bad_line_wins_over_a_failing_source(self):
        def source(bad):
            yield "+1 1:1\n"
            yield "-1 x\n" if bad else "-1 2:1\n"
            raise OSError("read failed")

        with pytest.raises(ValueError, match="line 2: malformed token 'x'"):
            parse_libsvm(source(True))
        with pytest.raises(OSError, match="read failed"):
            parse_libsvm(source(False))

    def test_only_the_bad_chunk_is_rescanned(self, monkeypatch):
        monkeypatch.setattr(data, "_CHUNK_CHARS", 1)  # one line per chunk
        checked = []
        real = data._check_line
        monkeypatch.setattr(data, "_check_line",
                            lambda lineno, line: (checked.append(lineno), real(lineno, line)))
        parse_libsvm("+1 1:1\n-1 2:1\n+1 1:1\n")
        assert checked == []
        with pytest.raises(ValueError, match="line 3: malformed"):
            parse_libsvm("+1 1:1\n-1 2:1\n+1 1x1\n-1 1:1\n")
        assert checked == [3]

    @settings(max_examples=300, deadline=None)
    @given(text=libsvm_texts(), chunk=st.sampled_from(CHUNK_SIZES), d=st.sampled_from([None, 12]))
    def test_generated_text(self, text, chunk, d):
        with mock.patch.object(data, "_CHUNK_CHARS", chunk):
            assert_parses_like_reference(text, d=d)

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet="0123456789:.-+e \t\n\r#_nai\xa0x", max_size=60),
           chunk=st.sampled_from(CHUNK_SIZES))
    def test_generated_noise(self, text, chunk):
        with mock.patch.object(data, "_CHUNK_CHARS", chunk):
            assert_parses_like_reference(text)


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
