"""Stable reductions: hand values, shift invariance, error contracts.

The lse and softmax cases read a ColumnPass over one column."""

import numpy as np
import pytest

from energyfuse.numeric import ColumnPass, ContractError, as_matrix, column_pass, sigmoid

LN2 = 0.6931471805599453
LSE_2_0 = 2.1269280110429727  # log(e^2 + 1), 40-digit evaluation rounded


def lse(x) -> np.ndarray:
    return ColumnPass(x).lse


def softmax(x) -> np.ndarray:
    return ColumnPass(x).prob


def test_lse_equal_entries():
    assert abs(lse([0.0, 0.0])[0, 0] - LN2) < 1e-15


def test_lse_huge_entries_do_not_overflow():
    assert abs(lse([1000.0, 1000.0])[0, 0] - (1000.0 + LN2)) < 1e-12


def test_lse_hand_value():
    assert abs(lse([2.0, 0.0])[0, 0] - LSE_2_0) < 1e-15


def test_lse_bounds_max():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.normal(size=rng.integers(1, 12)) * 10
        assert lse(x)[0, 0] >= x.max()


def test_lse_shift_invariance():
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.normal(size=6) * 20
        c = float(rng.normal() * 50)
        shifted = lse(x + c)[0, 0] - lse(x)[0, 0]
        assert abs(shifted - c) < 1e-12 * max(1.0, abs(c))


def test_lse_empty_rejected():
    with pytest.raises(ContractError):
        lse([])


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax([0.0, 0.0])[:, 0], [0.5, 0.5], atol=1e-15)


def test_softmax_hand_value():
    p = softmax([1.0, 0.0])[:, 0]
    assert abs(p[0] - 0.7310585786300049) < 1e-15
    assert abs(p[1] - 0.2689414213699951) < 1e-15


def test_softmax_sums_to_one_and_positive():
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = rng.normal(size=rng.integers(2, 16)) * 30
        p = softmax(x)[:, 0]
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.normal(size=5) * 10
        c = float(rng.normal() * 40)
        np.testing.assert_allclose(softmax(x + c), softmax(x), atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ContractError):
        softmax([])
    empty = np.zeros((0, 3))
    with pytest.raises(ContractError, match="^column pass over zero rows$"):
        column_pass(empty, out=empty)


def _logit_cases():
    """Random logits, columns at +-1e3 and tied columns."""
    rng = np.random.default_rng(13)
    big = rng.normal(size=(4, 6)) + np.array([1e3, -1e3, 1e3, -1e3, 0.0, 1e3])
    tied = np.repeat(rng.normal(size=(1, 5)), 3, axis=0)
    tied[:, 0] = 2.5
    return [rng.normal(size=(k, n)) * 5.0 for k, n in ((2, 1), (3, 17), (7, 40))] + [
        big,
        tied,
        np.full((5, 4), -1e3),
    ]


def _by_definition(x) -> tuple:
    """The column lse and softmax written out: m = x.max(0), e = exp(x - m),
    s = e.sum(0), giving m + log(s) and e / s."""
    m = x.max(axis=0, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=0, keepdims=True)
    return m + np.log(s), e / s


@pytest.mark.parametrize("prob_first", [False, True])
def test_column_pass_reads_the_bytes_of_lse_cols_and_softmax_cols(prob_first):
    """The pass gives the bytes of the column lse and softmax as written out
    in _by_definition, and x - lse as log_prob, in either read order; it
    leaves its logits alone."""
    for x in _logit_cases():
        x0 = x.copy()
        want_lse, want_prob = _by_definition(x)
        cols = ColumnPass(x)
        assert cols.x is x
        if prob_first:
            assert cols.prob.tobytes() == want_prob.tobytes()
        assert cols.lse.tobytes() == want_lse.tobytes()
        assert cols.prob.tobytes() == want_prob.tobytes()
        assert cols.log_prob.tobytes() == (x - want_lse).tobytes()
        # kept, not redone
        assert cols.lse is cols.lse and cols.prob is cols.prob
        assert cols.log_prob is cols.log_prob
        np.testing.assert_array_equal(x, x0)


def test_column_pass_refuses_other_logits_and_zero_rows():
    x = np.zeros((3, 4))
    ColumnPass(x).check_over(x)
    with pytest.raises(ContractError, match="^the column pass was made over other logits$"):
        ColumnPass(x).check_over(x.copy())
    with pytest.raises(ContractError, match="^column pass over zero rows$"):
        ColumnPass(np.zeros((0, 4))).lse


def test_softmax_cols_out_matches_out_of_place_bit_for_bit():
    """The Hopfield attention's softmax, column_pass(x, out=x) and then
    x /= total, gives the bytes of ColumnPass(x).prob; a pass without
    out= over x leaves x alone."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(7, 5)) * 30.0
    x0 = x.copy()
    want = softmax(x)
    np.testing.assert_array_equal(x, x0)
    fresh = np.empty_like(x)
    _, e, total = column_pass(x, out=fresh)
    assert e is fresh
    assert np.array_equal(fresh / total, want)
    np.testing.assert_array_equal(x, x0)
    _, e, total = column_pass(x, out=x)  # in place
    assert e is x
    x /= total
    assert np.array_equal(x, want)


def test_as_matrix_promotes_vectors_to_columns():
    assert as_matrix([1.0, 2.0]).shape == (2, 1)
    with pytest.raises(ContractError):
        as_matrix(np.zeros((2, 2, 2)))


def test_sigmoid_tails_are_stable():
    out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert out[0] == 0.0
    assert out[1] == 0.5
    assert out[2] == 1.0
    assert np.all(np.isfinite(out))


def test_sigmoid_matches_definition_in_active_range():
    x = np.linspace(-20, 20, 101)
    np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)
