"""Property tests for the one ranking rule: `evalmetrics.rank_rows` ranks an
image's (Q, N) score block in one stable argsort of -scores, and each row
must come out as the per-query sort did, ties, signed zeros and the refusal
of a non-finite score included."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from scrc.errors import InputError  # noqa: E402
from scrc.evalmetrics import RankedResult, rank_candidates, rank_rows  # noqa: E402

# a few values drawn often, so that rows hold ties, and 0.0 next to -0.0
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 3.0, 5e-324, -1e300])
SCORE = st.one_of(TIED, TIED, st.floats(allow_nan=False, allow_infinity=False))


def per_query_order(row: list[float]) -> list[int]:
    """The rule as a Python sort of one query's scores."""
    return sorted(range(len(row)), key=lambda i: (-row[i], i))


@st.composite
def score_blocks(draw, with_non_finite: bool):
    """A (Q, N) float64 block; with_non_finite puts NaN or an infinity at one
    random cell, and returns the candidate index the refusal names."""
    q, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    block = np.array(draw(st.lists(SCORE, min_size=q * n, max_size=q * n))).reshape(q, n)
    if not with_non_finite:
        return block, None
    row, col = draw(st.integers(0, q - 1)), draw(st.integers(0, n - 1))
    block[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return block, col


@given(score_blocks(with_non_finite=False))
def test_block_ranks_as_each_query_sorted_alone(drawn):
    block, _ = drawn
    want = [per_query_order(row) for row in block.tolist()]
    assert rank_rows(block).tolist() == want
    assert [rank_candidates(row) for row in block.tolist()] == want
    boxes = np.arange(4.0 * block.shape[1]).reshape(-1, 4)
    for row, order in zip(block.tolist(), want):
        ranked = RankedResult.build("q", "img", boxes, row, boxes[0]).boxes
        assert np.array_equal(ranked, boxes[order])


@given(score_blocks(with_non_finite=True))
def test_non_finite_score_names_its_candidate(drawn):
    block, col = drawn
    message = f"^non-finite score at candidate {col}$"
    with pytest.raises(InputError, match=message):
        rank_rows(block)
    (bad_row,) = [row for row in block.tolist() if not np.isfinite(row).all()]
    with pytest.raises(InputError, match=message):
        rank_candidates(bad_row)
    with pytest.raises(InputError, match=message):
        RankedResult.build("q", "img", np.ones((block.shape[1], 4)), bad_row, np.ones(4))
