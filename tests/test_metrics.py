import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emosam.metrics import WindowRecord, accuracy, discrimination
from oracles import counting_accuracy, counting_discrimination

binary_arrays = hnp.arrays(np.uint8, st.integers(1, 500), elements=st.integers(0, 1))


def test_accuracy_identity():
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0


def test_accuracy_half():
    assert accuracy([1, 1, 1, 1], [1, 0, 1, 0]) == 0.5


def test_accuracy_random_matches_counter(rng):
    preds = rng.integers(0, 2, 200)
    labels = rng.integers(0, 2, 200)
    assert accuracy(preds, labels) == counting_accuracy(preds, labels)


@pytest.mark.parametrize("bad", [([], []), ([1, 0], [1]), ([1], [1, 0])])
def test_accuracy_rejects_bad_shapes(bad):
    with pytest.raises(ValueError):
        accuracy(*bad)


def test_discrimination_extreme_case():
    preds = [1, 1, 0, 0]
    groups = [1, 1, 0, 0]
    assert discrimination(preds, groups).value == 1.0


def test_discrimination_hand_count():
    # protected rate 3/4, unprotected rate 1/4
    preds = [1, 1, 1, 0, 1, 0, 0, 0]
    groups = [1, 1, 1, 1, 0, 0, 0, 0]
    result = discrimination(preds, groups)
    assert result.value == pytest.approx(0.5, abs=1e-12)
    assert not result.degenerate


def test_discrimination_single_group_degenerate():
    result = discrimination([1, 0, 1], [1, 1, 1])
    assert result == (0.0, True)


def test_discrimination_rejects_mismatch():
    with pytest.raises(ValueError):
        discrimination([1, 0], [1])


@given(preds=binary_arrays, data=st.data())
@settings(max_examples=200, deadline=None)
def test_discrimination_matches_counting_oracle(preds, data):
    groups = data.draw(
        hnp.arrays(np.uint8, preds.size, elements=st.integers(0, 1))
    )
    got = discrimination(preds, groups)
    want_value, want_degenerate = counting_discrimination(preds, groups)
    assert got.degenerate == want_degenerate
    assert abs(got.value - want_value) <= 1e-12
    assert -1.0 <= got.value <= 1.0


@given(preds=binary_arrays, data=st.data())
@settings(max_examples=100, deadline=None)
def test_discrimination_group_swap_negates(preds, data):
    groups = data.draw(
        hnp.arrays(np.uint8, preds.size, elements=st.integers(0, 1))
    )
    forward = discrimination(preds, groups)
    backward = discrimination(preds, 1 - groups)
    assert forward.degenerate == backward.degenerate
    assert forward.value == pytest.approx(-backward.value, abs=1e-15)


@given(preds=binary_arrays, data=st.data())
@settings(max_examples=100, deadline=None)
def test_metrics_permutation_invariant(preds, data):
    groups = data.draw(
        hnp.arrays(np.uint8, preds.size, elements=st.integers(0, 1))
    )
    labels = data.draw(
        hnp.arrays(np.uint8, preds.size, elements=st.integers(0, 1))
    )
    perm = data.draw(st.permutations(range(preds.size)))
    perm = np.asarray(perm)
    assert accuracy(preds, labels) == accuracy(preds[perm], labels[perm])
    assert discrimination(preds, groups) == discrimination(preds[perm], groups[perm])


@pytest.mark.parametrize("groups", ["mixed", "protected only", "unprotected only"])
def test_stacked_metrics_equal_per_row_metrics(rng, groups):
    # A stack of prediction rows, as the weight search scores a swarm sweep,
    # must give every row exactly the floats that scoring it alone gives,
    # including windows that hold one group only.
    n = 37
    window_groups = {"mixed": rng.integers(0, 2, n), "protected only": np.ones(n), "unprotected only": np.zeros(n)}
    g = window_groups[groups]
    labels = rng.integers(0, 2, n)
    votes = rng.integers(0, 2, (50, n)).astype(np.uint8)
    votes[0], votes[1] = labels, 1 - labels
    acc, disc = accuracy(votes, labels), discrimination(votes, g)
    assert acc.shape == disc.value.shape == (50,)
    assert acc.tolist() == [accuracy(row, labels) for row in votes]
    assert disc.value.tolist() == [discrimination(row, g).value for row in votes]
    assert disc.degenerate == (groups != "mixed") == discrimination(votes[0], g).degenerate
    # one row still scores Python floats, which window CSVs print as before
    assert type(accuracy(votes[2], labels)) is float and type(discrimination(votes[2], g).value) is float
    # a stack whose rows are not as long as the window
    for bad in (votes[:, :-1], np.hstack([votes, votes[:, :1]])):
        with pytest.raises(ValueError):
            accuracy(bad, labels)
        with pytest.raises(ValueError):
            discrimination(bad, g)


def test_window_record_roundtrip():
    record = WindowRecord(
        window=3,
        accuracy=0.75,
        discrimination=-0.125,
        abs_discrimination=0.125,
        triggered=True,
        pareto_size=7,
        wall_time_ms=12.5,
    )
    row = record.to_csv_row()
    assert row[0] == "3"
    assert float(row[1]) == 0.75
    assert float(row[2]) == -0.125
    assert abs(float(row[2])) == float(row[3])
    assert row[4] == "1"
    assert row[5] == "7"
