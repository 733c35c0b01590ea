"""Dataset ingestion: LIBSVM text format and synthetic separable data.

The LIBSVM format is one example per line, ``<label> <idx>:<val> ...`` with
1-based, strictly increasing feature indices below 2**31 (the CSR matrix
stores them as int32).  Blank lines and lines starting with ``#`` are
skipped.  Binary labels are recoded to {-1, +1}: {0, 1} and {1, 2} map to
{-1, +1}; {-1, +1} is kept; anything else (regression targets) is kept
verbatim.

The parser reads line by line but converts tokens in bulk, one chunk of
about 64 KiB of feature text at a time.  A chunk that fails a check is
re-scanned line by line, so an error names the first bad line with the
same message a token-by-token parse gives.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp

from .problems import Dataset

# gen_separable keeps a standard-normal candidate row with probability
# erfc(margin / sqrt 2); a margin that needs more candidates than this per
# kept row on average is rejected (it would stall the draw).
MAX_CANDIDATES_PER_ROW = 1000

# parse_libsvm converts the tokens of about this many characters of feature
# text at a time: enough to amortise the per-chunk calls, small enough that
# the chunk's temporary lists add little to the peak memory of a parse.
_CHUNK_CHARS = 64 * 1024
# Feature indices are stored as int32 in the CSR matrix.
_INDEX_LIMIT = 2**31


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a linearly separable dataset with controlled label noise.

    ``mislabel_fraction`` flips exactly ``floor(fraction * n)`` labels at
    distinct uniformly chosen positions; 0 keeps the data separable with
    the requested margin.  ``margin`` must be finite, > 0, and reachable:
    its acceptance rate erfc(margin / sqrt 2) must be at least
    1 / ``MAX_CANDIDATES_PER_ROW`` (a margin of about 3.29 at most).
    """

    n: int
    d: int
    mislabel_fraction: float = 0.0
    margin: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not 0.0 <= self.mislabel_fraction <= 1.0:
            raise ValueError("mislabel_fraction must be in [0, 1]")
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ValueError(f"margin must be finite and > 0, got {self.margin!r}")
        if math.erfc(self.margin / math.sqrt(2.0)) * MAX_CANDIDATES_PER_ROW < 1.0:
            raise ValueError(
                f"margin {self.margin!r} keeps fewer than 1 in {MAX_CANDIDATES_PER_ROW} "
                "standard-normal candidate rows; use a smaller margin")


def _iter_lines(source: str | IO[str] | Iterable[str]) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def parse_libsvm(source: str | IO[str] | Iterable[str], d: int | None = None) -> Dataset:
    """Parse LIBSVM text (a string of content, open file, or line iterable).

    Lines are read one at a time, but their ``idx:val`` tokens are
    converted in bulk, about ``_CHUNK_CHARS`` characters of feature text at
    a time, through the same ``int`` and ``float`` a token-by-token parse
    uses.  A chunk that fails any check is re-scanned line by line, so the
    error names the first bad line with that parse's message; a source that
    raises while lines are read still lets a bad line read before it raise
    first.  The feature dimension is the maximum observed index unless an
    explicit ``d`` override pads it.  Raises ``ValueError`` on malformed
    tokens, indices that are not 1-based, do not fit int32 (2**31 or more)
    or do not increase within a row, a non-finite label or feature value,
    or an empty dataset.
    """
    linenos: list[int] = []
    chunks: list[tuple[np.ndarray, ...]] = []
    pending: list[tuple[int, str, str]] = []  # (lineno, label, features) to convert
    size = 0
    try:
        for lineno, raw in enumerate(_iter_lines(source), start=1):
            fields = raw.split(None, 1)
            if not fields or fields[0].startswith("#"):
                continue
            features = fields[1] if len(fields) > 1 else ""
            linenos.append(lineno)
            pending.append((lineno, fields[0], features))
            size += len(features)
            if size >= _CHUNK_CHARS:
                full, pending, size = pending, [], 0
                chunks.append(_convert_chunk(full))
    finally:
        # also when the source fails: a bad line read before then raises first
        if pending:
            chunks.append(_convert_chunk(pending))

    if not linenos:
        raise ValueError("empty dataset")
    raw_labels, indices, data, lengths = (np.concatenate(part) for part in zip(*chunks))
    max_index = int(indices.max()) + 1 if indices.size else 0
    dim = max_index if d is None else int(d)
    if dim < max_index:
        raise ValueError(f"explicit dimension {dim} smaller than max index {max_index}")

    indptr = np.zeros(len(linenos) + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(lengths)
    # one vectorised check after parsing; the first bad row names its line
    bad = ~np.isfinite(raw_labels)
    bad[np.searchsorted(indptr, np.flatnonzero(~np.isfinite(data)), side="right") - 1] = True
    if bad.any():
        row = int(np.argmax(bad))
        what = "feature value" if np.isfinite(raw_labels[row]) else "label"
        raise ValueError(f"line {linenos[row]}: non-finite {what}")
    matrix = sp.csr_matrix((data, indices, indptr), shape=(len(linenos), dim))
    return Dataset(features=matrix, labels=_recode_labels(raw_labels))


def _convert_chunk(lines: list[tuple[int, str, str]]) -> tuple[np.ndarray, ...]:
    """Labels, 0-based int32 indices, values and row lengths of one chunk of
    ``(lineno, label, features)`` lines.

    Where the bulk conversion rejects the chunk, :func:`_check_line` names
    its first bad line.
    """
    converted = _bulk_convert(lines)
    if converted is None:
        for lineno, label, features in lines:
            _check_line(lineno, f"{label} {features}")
        raise RuntimeError(f"lines {lines[0][0]}-{lines[-1][0]}: rejected in bulk but not alone")
    return converted


def _bulk_convert(lines: list[tuple[int, str, str]]) -> tuple[np.ndarray, ...] | None:
    """The chunk converted with one join and split, or None if any check fails.

    The tokens go through the same ``int`` and ``float`` as
    :func:`_check_line`, so both accept exactly the same text.
    """
    _, labels, features = zip(*lines)
    text = " ".join(features)
    tokens = text.split()
    # a row's length is its line's colon count, once every token holds one
    lengths = np.array(list(map(str.count, features, repeat(":"))), dtype=np.int64)
    pairs = text.replace(":", " ").split()  # a token with an empty side gives one field
    if not (set(map(str.count, tokens, repeat(":"))) <= {1}
            and lengths.sum() == len(tokens) and len(pairs) == 2 * len(tokens)):
        return None
    try:
        label_values = np.array(list(map(float, labels)), dtype=np.float64)
        index = np.array(list(map(int, pairs[0::2])), dtype=np.int64)
        values = np.array(list(map(float, pairs[1::2])), dtype=np.float64)
    except (ValueError, OverflowError):  # a token int or float rejects, or one beyond int64
        return None
    # as in _check_line, each index must exceed the one before it in its row,
    # or 0 at the row's start; so it is also >= 1
    previous = np.zeros(index.size + 1, dtype=np.int64)
    previous[1:] = index
    previous[np.cumsum(lengths) - lengths] = 0
    if index.size and not ((index > previous[:-1]).all() and index.max() < _INDEX_LIMIT):
        return None
    return label_values, (index - 1).astype(np.int32), values, lengths


def _check_line(lineno: int, line: str) -> None:
    """Raise the ``ValueError`` for the first bad token of one line, if any."""
    tokens = line.split()
    try:
        float(tokens[0])
    except ValueError:
        raise ValueError(f"line {lineno}: non-numeric label {tokens[0]!r}") from None
    prev_idx = 0
    for token in tokens[1:]:
        head, sep, tail = token.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: malformed token {token!r}")
        try:
            idx = int(head)
            float(tail)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed token {token!r}") from None
        if idx < 1:
            raise ValueError(f"line {lineno}: feature index {idx} is not 1-based")
        if idx >= _INDEX_LIMIT:
            raise ValueError(
                f"line {lineno}: feature index {idx} does not fit int32 (must be < 2**31)")
        if idx <= prev_idx:
            raise ValueError(
                f"line {lineno}: non-increasing feature index {idx} after {prev_idx}"
            )
        prev_idx = idx


def _recode_labels(labels: np.ndarray) -> np.ndarray:
    distinct = set(np.unique(labels).tolist())
    for pair in ({-1.0, 1.0}, {0.0, 1.0}, {1.0, 2.0}):
        if distinct <= pair:  # the smaller label becomes -1, the larger +1
            return np.where(labels == min(pair), -1.0, 1.0)
    return labels


def load_libsvm(path) -> Dataset:
    """Read a LIBSVM file from disk (UTF-8, LF or CRLF line endings)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_libsvm(handle)


def _format_value(v: float) -> str:
    return repr(float(v))


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of :func:`parse_libsvm` up to float formatting.

    Values use the shortest round-trippable decimal representation, so
    ``parse_libsvm(serialize_libsvm(ds))`` reproduces ``ds`` exactly.
    Note that raw {0, 1} or {1, 2} labels would be recoded on reparse;
    parsed and generated datasets never carry them.
    """
    feats = dataset.features
    lines = []
    for i in range(dataset.n):
        label = float(dataset.labels[i])
        if label == 1.0:
            head = "+1"
        elif label == -1.0:
            head = "-1"
        else:
            head = _format_value(label)
        start, stop = feats.indptr[i], feats.indptr[i + 1]
        parts = [head]
        parts.extend(
            f"{feats.indices[j] + 1}:{_format_value(feats.data[j])}"
            for j in range(start, stop)
        )
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_libsvm(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(serialize_libsvm(dataset))


def gen_separable(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Draw a linearly separable dataset and its unit-norm separating vector.

    Features are i.i.d. standard normal, rows resampled until the prediction
    margin against the ground-truth vector is at least ``spec.margin``;
    labels are the sign of that prediction, then ``floor(fraction * n)``
    labels are flipped at distinct uniform positions.  Uses the PCG64
    generator, so results are reproducible across runs for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    w_star = rng.standard_normal(spec.d)
    w_star /= np.linalg.norm(w_star)

    rows = np.empty((spec.n, spec.d))
    margins = np.empty(spec.n)
    have = 0
    while have < spec.n:
        need = spec.n - have
        cand = rng.standard_normal((need, spec.d))
        z = cand @ w_star
        keep = np.abs(z) >= spec.margin
        kept = int(keep.sum())
        rows[have : have + kept] = cand[keep]
        margins[have : have + kept] = z[keep]
        have += kept

    labels = np.sign(margins)
    flips = int(np.floor(spec.mislabel_fraction * spec.n))
    if flips > 0:
        positions = rng.choice(spec.n, size=flips, replace=False)
        labels[positions] *= -1.0

    dataset = Dataset(features=rows, labels=labels)
    return dataset, w_star
