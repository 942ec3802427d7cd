import dataclasses
import math
import struct
import tracemalloc
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chunk, predict_one, version_3_snapshot
from emosam import samknn
from emosam.samknn import (
    _BLOCK_ELEMENTS,
    FrozenChunkPredictor,
    MemoryBank,
    _candidate_sizes,
    _kmeans,
    _window_errors,
    check_weights,
    clean,
)
from emosam.stream import _FEATURE_BOUND, BiasStreamConfig, GroupRates, generate_bias_stream
from oracles import (
    _radius_sq,
    _row_sq_dists,
    _stable_vote,
    brute_clean_mask,
    brute_knn_vote,
    interleaved_error,
    reference_fit_chunk,
    reference_interleaved_errors,
    reference_skybands,
    sam_reference_predict,
)


def bank_with_stm(features, labels, dim=None, k=5, **kwargs) -> MemoryBank:
    features = np.asarray(features, dtype=np.float64)
    bank = MemoryBank(dim or features.shape[1], k=k, **kwargs)
    bank.replace_stm(features, np.asarray(labels, dtype=np.uint8))
    return bank


# -- weights and distances ------------------------------------------------------


@given(data=st.data(), c=st.floats(0.05, 1.0))
@settings(max_examples=60, deadline=None)
def test_scaling_weights_scales_distances_and_keeps_predictions(data, c):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    feats = rng.random((30, 3))
    labels = rng.integers(0, 2, 30).astype(np.uint8)
    alpha = rng.random(3)
    bank = bank_with_stm(feats, labels, k=3, min_stm_size=4)
    x = rng.random(3)
    # the kernel's order-defined squared distances of x to the memory
    base = samknn._sq_dists(x[None], feats.T, alpha * alpha)
    np.testing.assert_allclose(samknn._sq_dists(x[None], feats.T, (c * alpha) ** 2), c * c * base, rtol=1e-9)
    assert predict_one(bank, x, alpha) == predict_one(bank, x, c * alpha)


def test_check_weights_validation():
    assert check_weights(np.array([0.0, 0.5, 1.0]), 3).shape == (3,)
    with pytest.raises(ValueError):
        check_weights(np.array([0.5, 1.5]), 2)
    with pytest.raises(ValueError):
        check_weights(np.array([0.5, np.nan]), 2)
    with pytest.raises(ValueError):
        check_weights(np.array([0.5, 0.5]), 3)


# -- prediction ------------------------------------------------------------------


def test_predict_nearest_neighbor_by_hand():
    bank = bank_with_stm([[0.0, 0.0], [1.0, 1.0]], [0, 1], k=1, min_stm_size=2)
    assert predict_one(bank, np.array([0.1, 0.1]), np.ones(2)) == 0


def test_predict_masked_feature_by_hand():
    bank = bank_with_stm([[0.0, 0.0], [1.0, 1.0]], [0, 1], k=1, min_stm_size=2)
    # first feature masked out, so only the second coordinate matters
    assert predict_one(bank, np.array([0.1, 0.9]), np.array([0.0, 1.0])) == 1


def test_predict_vote_tie_goes_to_one():
    bank = bank_with_stm([[0.0], [0.2], [0.4], [0.6]], [0, 1, 0, 1], k=4, min_stm_size=5)
    assert predict_one(bank, np.array([0.3]), np.ones(1)) == 1


def test_predict_distance_tie_prefers_earlier_position():
    # two points equidistant from the query with opposite labels; k=1 must
    # take the earlier memory entry
    bank = bank_with_stm([[0.4], [0.6]], [0, 1], k=1, min_stm_size=2)
    assert predict_one(bank, np.array([0.5]), np.ones(1)) == 0
    bank2 = bank_with_stm([[0.6], [0.4]], [1, 0], k=1, min_stm_size=2)
    assert predict_one(bank2, np.array([0.5]), np.ones(1)) == 1


def test_predict_rejects_empty_stm_and_bad_shape():
    bank = MemoryBank(2)
    with pytest.raises(ValueError, match="empty STM"):
        FrozenChunkPredictor(np.array([[0.1, 0.2]]), bank)
    bank.replace_stm(np.array([[0.1, 0.2]]), np.array([1], dtype=np.uint8))
    for bad in (np.array([[0.1]]), np.array([0.1, 0.2]), np.zeros((1, 1, 2))):
        with pytest.raises(ValueError, match="shape"):
            FrozenChunkPredictor(bad, bank)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_unit_weight_prediction_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 200))
    feats = rng.random((n, 3))
    labels = rng.integers(0, 2, n).astype(np.uint8)
    bank = bank_with_stm(feats, labels, min_stm_size=6)
    for _ in range(5):
        x = rng.random(3)
        assert predict_one(bank, x, np.ones(3)) == sam_reference_predict(bank, x)


def test_weighted_prediction_matches_brute_force(rng):
    feats = rng.random((40, 4))
    labels = rng.integers(0, 2, 40).astype(np.uint8)
    bank = bank_with_stm(feats, labels, min_stm_size=6)
    for _ in range(10):
        x = rng.random(4)
        alpha = rng.random(4)
        assert predict_one(bank, x, alpha) == brute_knn_vote(x, feats, labels, 5, alpha)


def test_sub_classifier_choice_follows_trackers():
    stm_f = np.array([[0.0, 0.0], [0.1, 0.0]])
    stm_l = np.array([0, 0], dtype=np.uint8)
    ltm_f = np.array([[0.9, 0.9], [1.0, 1.0]])
    ltm_l = np.array([1, 1], dtype=np.uint8)
    bank = MemoryBank(2, k=1, min_stm_size=2)
    bank.replace_stm(stm_f, stm_l)
    bank.replace_ltm(ltm_f, ltm_l)

    # favor the LTM tracker; the query sits nearest the STM points, yet the
    # LTM sub-classifier's answer must win
    bank._trackers["ltm"] = [10.0, 10.0]
    bank._trackers["stm"] = [1.0, 10.0]
    bank._trackers["combined"] = [1.0, 10.0]
    assert predict_one(bank, np.array([0.0, 0.1]), np.ones(2)) == 1

    # tie order prefers the STM
    bank._trackers["stm"] = [10.0, 10.0]
    assert predict_one(bank, np.array([0.0, 0.1]), np.ones(2)) == 0


# -- batch predictor ---------------------------------------------------------------


def predict_in_blocks(predictor, alphas, block_elements=None):
    """``predictor.predict(alphas)`` with the kernel's row blocks capped at ``block_elements``, if given."""
    if block_elements is None:
        return predictor.predict(alphas)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samknn, "_BLOCK_ELEMENTS", block_elements)
        return predictor.predict(alphas)


@pytest.mark.parametrize("budget", [None, 1])
def test_batch_predictions_equal_single_queries(rng, budget):
    feats = rng.random((50, 3))
    labels = rng.integers(0, 2, 50).astype(np.uint8)
    bank = bank_with_stm(feats, labels, min_stm_size=6)
    queries = rng.random((20, 3))
    predictor = FrozenChunkPredictor(queries, bank)
    for alpha in (np.ones(3), rng.random(3), np.zeros(3)):
        batch = predict_in_blocks(predictor, alpha, budget)
        single = [predict_one(bank, queries[i], alpha) for i in range(len(queries))]
        np.testing.assert_array_equal(batch, single)


GRID_WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_kernel_votes_match_brute_oracle_on_ties(data):
    # integer-grid points and dyadic weights keep every distance exact, so
    # the many duplicate and tied distances are ties for the oracle too
    d = data.draw(st.integers(1, 4), label="d")
    m = data.draw(st.integers(1, 25), label="m")
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, m + 3), label="k")  # k >= m included
    grid = st.integers(0, 2)
    mem = np.array(data.draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=m, max_size=m)), dtype=float)
    queries = np.array(data.draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), dtype=np.uint8)
    # 1 to 41 weight vectors, the swarm sizes a sweep passes
    S = data.draw(st.integers(1, 40), label="S")
    rows = data.draw(st.lists(st.lists(GRID_WEIGHTS, min_size=d, max_size=d), min_size=S, max_size=S))
    alphas = np.array(rows + [[0.0] * d])  # an all-zero member every time
    bank = bank_with_stm(mem, labels, k=k, min_stm_size=k + 1, stm_cap=max(m, 1))
    want = [[brute_knn_vote(q, mem, labels, k, a) for q in queries] for a in alphas]
    for block_rows in (1, 7, None):
        budget = None if block_rows is None else block_rows * m
        got = predict_in_blocks(FrozenChunkPredictor(queries, bank), alphas, budget)
        assert got.shape == (len(alphas), n)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("d", [8, 13, 108])
def test_votes_do_not_depend_on_block_shape(d):
    # The memory's last point copies an earlier one with the opposite label,
    # so the two tie exactly; a reduction whose rounding followed the block
    # shape put different gaps between them in different blocks and flipped
    # votes at k = 3.
    rng = np.random.default_rng(d)
    for _ in range(300):
        m, n = int(rng.integers(6, 40)), int(rng.integers(2, 30))
        mem = rng.normal(size=(m, d))
        labels = rng.integers(0, 2, m).astype(np.uint8)
        j = int(rng.integers(m - 1))
        mem[-1], labels[-1] = mem[j], 1 - labels[j]
        bank = bank_with_stm(mem, labels, k=3, min_stm_size=4)
        queries = rng.normal(size=(n, d))
        alphas = np.vstack([np.ones(d), rng.random(d)])
        want = [[predict_one(bank, q, a) for q in queries] for a in alphas]
        for budget in (None, 1):
            np.testing.assert_array_equal(predict_in_blocks(FrozenChunkPredictor(queries, bank), alphas, budget), want)


def python_sq_sums(points, memory, w):
    """Squared weighted distances as Python floats, added left to right over features."""
    out = np.empty((len(points), len(memory)))
    for i, x in enumerate(points.tolist()):
        for j, y in enumerate(memory.tolist()):
            total = 0.0
            for wf, xf, yf in zip(w.tolist(), x, y):
                total += wf * ((yf - xf) * (yf - xf))
            out[i, j] = total
    return out


def assert_kernel_votes_equal_vote_rows(mem, labels, queries, alphas, k):
    # Reference: _vote_rows on each query's distances in memory position order.
    m, d = mem.shape
    positive = labels == 1
    want = np.array([samknn._vote_rows(python_sq_sums(queries, mem, a * a), positive, k) for a in alphas])
    bank = bank_with_stm(mem, labels, k=k, min_stm_size=k + 1, stm_cap=m)
    for block_rows in (1, 7, None):
        # a block of r rows holds one vector's distance plane, r * m values
        budget = None if block_rows is None else block_rows * m
        np.testing.assert_array_equal(predict_in_blocks(FrozenChunkPredictor(queries, bank), alphas, budget), want)
    got = [[predict_one(bank, q, a) for q in queries] for a in alphas]
    np.testing.assert_array_equal(got, want)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_votes_equal_vote_rows_on_tied_grids(data):
    # Integer grids tie many distances across labels, so the order a vote
    # takes between a tied positive and negative is position order; label
    # counts cover one-label-short memories and k >= m.
    d = data.draw(st.integers(1, 4), label="d")
    m = data.draw(st.integers(1, 25), label="m")
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, min(m + 3, 9)), label="k")
    npos = data.draw(st.integers(0, m), label="npos")
    labels = np.array(data.draw(st.permutations([1] * npos + [0] * (m - npos))), dtype=np.uint8)
    grid = st.integers(0, 2)
    mem = np.array(data.draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=m, max_size=m)), dtype=float)
    queries = np.array(data.draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float)
    rows = data.draw(st.lists(st.lists(GRID_WEIGHTS, min_size=d, max_size=d), min_size=1, max_size=3))
    assert_kernel_votes_equal_vote_rows(mem, labels, queries, np.array(rows + [[0.0] * d]), k)


def on_binary_grid(x, scale):
    """x rounded to multiples of 2^-30 times scale's binary magnitude.

    Grid values up to 2^20 times scale add and subtract exactly, so a memory
    point built as a grid query plus a grid offset lies exactly that offset
    away from the query.
    """
    step = math.floor(math.log2(scale)) - 30
    return np.ldexp(np.round(np.ldexp(x, -step)), step)


def near_tie_memory(rng, d, scale, pairs, n=4):
    """Memory where every query's nearest points are exact ties under equal weights.

    Query q (n of them, 64 * scale apart on a line) meets ``pairs`` pairs
    q + v (label 1) and q + perm(v) (label 0), shuffled into the memory.
    Under equal weights the two exact distances of a pair are equal, so only
    the rounding of the sums decides which comes first. Returns the memory,
    its labels and the queries.
    """
    queries = np.repeat(on_binary_grid(64 * scale * np.arange(n), scale)[:, None], d, axis=1)
    offsets = on_binary_grid(scale * rng.normal(size=(n, pairs, d)), scale)
    offsets = np.concatenate([offsets, rng.permuted(offsets, axis=2)], axis=1)
    mem = queries[:, None, :] + offsets
    assert np.array_equal(mem - queries[:, None, :], offsets)
    labels = np.tile(np.repeat(np.array([1, 0], dtype=np.uint8), pairs), n)
    shuffle = rng.permutation(len(labels))
    return mem.reshape(-1, d)[shuffle], labels[shuffle], queries


@pytest.mark.parametrize("k", [1, 5])
def test_screen_keeps_order_defined_votes_on_near_ties(k):
    # With (k + 1) // 2 pairs per query, the t-th nearest positive and the
    # u-th nearest negative are always a pair, so every vote rests on how
    # two equal exact sums round. A screen that trusted the BLAS sums, whose
    # order and fused products round differently, flips some of these votes.
    rng = np.random.default_rng(k)
    for d in (3, 8, 13):
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(12):
                mem, labels, queries = near_tie_memory(rng, d, scale, (k + 1) // 2)
                alphas = np.vstack([np.full(d, rng.random()), np.full(d, rng.random()), np.ones(d)])
                assert_kernel_votes_equal_vote_rows(mem, labels, queries, alphas, k)


def test_screen_keeps_order_defined_votes_with_underflowing_weights():
    # alpha <= 1e-160 squares to a subnormal or zero weight, so the products
    # keep few significant bits and tie often; only the screen's absolute
    # margin covers their rounding. Some vectors mix such weights with
    # ordinary ones, and near-tie memories under equal subnormal weights
    # make the order-defined sums of a pair tie exactly where the BLAS sums
    # may not.
    rng = np.random.default_rng(7)
    for trial in range(90):
        d = int(rng.choice([1, 3, 8, 13]))
        k = int(rng.choice([1, 3, 5]))
        if trial % 3 == 2:
            mem, labels, queries = near_tie_memory(rng, d, 1.0, (k + 1) // 2)
            alphas = np.vstack([np.full(d, rng.random() * 1e-160), np.full(d, rng.random() * 1e-158)])
            assert_kernel_votes_equal_vote_rows(mem, labels, queries, alphas, k)
            continue
        m, n = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        if trial % 3:
            mem, queries = rng.integers(0, 3, (m, d)).astype(float), rng.integers(0, 3, (n, d)).astype(float)
        else:
            mem, queries = rng.normal(size=(m, d)), rng.normal(size=(n, d))
        labels = rng.integers(0, 2, m).astype(np.uint8)
        alphas = rng.random((3, d)) * np.array([[1e-160], [1e-162], [1e-170]])
        alphas[2, rng.random(d) < 0.5] = rng.random()
        assert_kernel_votes_equal_vote_rows(mem, labels, queries, alphas, k)


def test_screen_keeps_order_defined_votes_at_the_feature_bound():
    # Gaps of up to 2e100 square to 4e200: the relative margin must hold at
    # the top of the range, next to features of ordinary size.
    rng = np.random.default_rng(9)
    values = np.array([-_FEATURE_BOUND, _FEATURE_BOUND, -0.5 * _FEATURE_BOUND, 0.0, 1.0])
    for trial in range(60):
        d = int(rng.choice([1, 3, 8, 13]))
        m, n = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        k = int(rng.choice([1, 3, 5]))
        mem, queries = rng.choice(values, (m, d)), rng.choice(values, (n, d))
        mem[: m // 2] += rng.random((m // 2, d))
        labels = rng.integers(0, 2, m).astype(np.uint8)
        alphas = np.vstack([rng.random((2, d)), np.ones(d)])
        assert_kernel_votes_equal_vote_rows(mem, labels, queries, alphas, k)


def planes_at_the_error_bound(npos, push, reach=None, memory=None):
    """A screen hook whose planes sit at the edge of the documented error bound.

    The planes take consecutive columns of the memory, as the screen's own
    planes do. Each element is the order-defined sum of the centred query
    and memory point (Python floats added left to right, as ``_sq_dists``
    adds them), moved by 2(rho0 * T + A0), the bound the ``_screen_margin``
    docstring puts between a screened value and its order-defined one
    (rho0 = (2d + 9) u, A0 = (2 sum M' + 8d + 8) s,
    T = sum_f w_f (|x'_f| + M'_f)^2, u the plane dtype's unit roundoff and
    s its subnormal step), and rounded back inside it in the planes' dtype:
    up for the first ``npos`` columns and down for the rest when ``push``
    is 1, the other way when it is -1. ``memory`` is the centred float64
    memory (d, cols), by default the operand's first d rows, and M' is
    ``reach``, by default that memory's. Exact rational arithmetic
    throughout.
    """

    def hook(xc, w, xn, aug, planes):
        d = xc.shape[1]
        points = (aug[:d] if memory is None else memory).T.tolist()
        if reach is None:
            M = [max(abs(Fraction(point[f])) for point in points) for f in range(d)]
        else:
            M = [Fraction(v) for v in reach.tolist()]
        dtype = planes[0].dtype
        info = np.finfo(dtype)
        rho0 = (2 * d + 9) * Fraction(float(info.eps)) / 2
        a0 = (2 * sum(M) + 8 * d + 8) * Fraction(float(info.smallest_subnormal))
        ends = np.cumsum([plane.shape[1] for plane in planes])
        for i, x in enumerate(xc.tolist()):
            scale = sum(Fraction(wf) * (abs(Fraction(xf)) + mf) ** 2 for wf, xf, mf in zip(w.tolist(), x, M))
            bound = 2 * (rho0 * scale + a0)
            row = np.empty(ends[-1], dtype=dtype)
            for j, dist in enumerate(python_sq_sums(np.array([x]), np.array(points[: ends[-1]]), w)[0].tolist()):
                target = Fraction(dist) + (bound if (j < npos) == (push > 0) else -bound)
                g = dtype.type(float(target))
                while abs(Fraction(float(g)) - Fraction(dist)) > bound:
                    g = np.nextafter(g, dtype.type(-np.inf if Fraction(float(g)) > dist else np.inf))
                row[j] = g
            for plane, part in zip(planes, np.split(row, ends[:-1])):
                plane[i] = part

    return hook


def kernel_planes_at_the_error_bound(screen, push, dtypes=None):
    """:func:`planes_at_the_error_bound` for the kernel, whose screen reaches the whole memory.

    ``screen`` is the memory's float64 screen operand (``_label_ordered``).
    The kernel screens each row block's positive columns and its negative
    ones in one call, the positive plane first, so positives go up and
    negatives down when ``push`` is 1. Each call's dtype is appended to
    ``dtypes``.
    """
    d = len(screen.centre)

    def hook(xc, w, xn, aug, planes):
        if dtypes is not None:
            dtypes.append(planes[0].dtype)
        # aug is the kernel's copy in the planes' dtype; D comes from the float64 memory
        return planes_at_the_error_bound(planes[0].shape[1], push, screen.reach, screen.aug[:d])(xc, w, xn, aug, planes)

    return hook


def certify_nothing(*args):
    """A stand-in for the kernel's screen whose NaN planes certify no vote."""
    for plane in args[-1]:
        plane.fill(np.nan)


def count_fallback_rows(mp):
    """Patch the kernel's fallback distances to count the rows it recomputes; returns the count list.

    Only weighted calls count: the kernel's fallback is the one caller that
    passes weights.
    """
    sq_dists, rows = samknn._sq_dists, []

    def counted(points, memory_t, w=None):
        if w is not None:
            rows.append(len(points))
        return sq_dists(points, memory_t, w)

    mp.setattr(samknn, "_sq_dists", counted)
    return rows


def record_plane_dtypes(mp):
    """Patch the screen to record the dtype of every plane it writes; returns the set of dtypes."""
    screen_planes, dtypes = samknn._screen_planes, set()
    mp.setattr(samknn, "_screen_planes", lambda *args: dtypes.add(args[-1][0].dtype) or screen_planes(*args))
    return dtypes


def test_screen_votes_hold_with_planes_at_the_edge_of_the_error_bound():
    # Every plane element sits as far from its order-defined sum as the
    # documented bound allows, towards a flipped vote: positives up and
    # negatives down, then the other way, rounded into the float32 planes
    # the kernel uses here. Near-tie memories make the t-th positive and the u-th negative
    # of each row a pair with equal exact sums, so a margin smaller than
    # twice the bound on each side certifies a wrong vote. Weights near
    # 1e-20 square to float32 subnormals (normal in float64), and those of
    # 1e-160 or less to float64 subnormals or zero: there the absolute term
    # A covers the rounding. Ordinary weights need the relative term rho.
    rng = np.random.default_rng(11)
    for trial in range(18):
        d, k = (1, 3, 8, 13)[trial % 4], (1, 3, 5)[trial % 3]
        mem, labels, queries = near_tie_memory(rng, d, 1.0, (k + 1) // 2)
        screen = samknn._label_ordered(mem, labels).screen
        centre = screen.centre
        # grid data: centring is exact, so the exact centred sum is D itself
        for v in np.vstack([mem, queries]):
            assert all(Fraction(float(a - c)) == Fraction(a) - Fraction(c) for a, c in zip(v.tolist(), centre.tolist()))
        subnormal32 = np.full(d, (0.5 + rng.random()) * 1e-20)
        tiny = np.full(d, rng.random() * 1e-160)
        mixed = np.where(rng.random(d) < 0.5, rng.random() * 1e-161, rng.random())
        mixed32 = np.where(rng.random(d) < 0.5, rng.random() * 1e-20, rng.random())
        alphas = np.vstack([np.full(d, rng.random()), subnormal32, tiny, mixed, mixed32])
        assert (1e-45 < subnormal32**2).all() and (subnormal32**2 < np.finfo(np.float32).tiny).all()
        positive = labels == 1
        want = np.array([samknn._vote_rows(python_sq_sums(queries, mem, a * a), positive, k) for a in alphas])
        bank = bank_with_stm(mem, labels, k=k, min_stm_size=k + 1, stm_cap=len(mem))
        for push in (1, -1):
            dtypes = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(samknn, "_screen_planes", kernel_planes_at_the_error_bound(screen, push, dtypes))
                fallback = count_fallback_rows(mp)
                np.testing.assert_array_equal(FrozenChunkPredictor(queries, bank).predict(alphas), want)
            assert set(dtypes) == {np.dtype(np.float32)}
            assert sum(fallback) > 0  # the pushed near ties fell inside the margin


def test_screen_certifies_offset_and_scaled_streams():
    # Centring keeps the margin proportional to the data's spread: a stream
    # like the reference one, shifted by 1e6 or scaled by 1e-3, sends at most
    # 1% of (vector, row) pairs to the fallback, with every vote exact. So
    # does one scaled by 1e30 or 1e-30, whose squared spread lies outside
    # float32's range, so the kernel screens it in float64 planes; the
    # others fit float32 planes. Integer grids, whose exact ties only
    # position decides, still reach the fallback.
    config = BiasStreamConfig(
        n_instances=500, proxy_strength=0.8, base_rates=GroupRates(0.65, 0.35), seed=11, window_size=500
    )
    (chunk,) = generate_bias_stream(config)
    rng = np.random.default_rng(3)
    mem, labels, queries = chunk.features[:400], chunk.labels[:400], chunk.features[400:]
    alphas = np.vstack([np.ones(chunk.n_features), rng.random((2, chunk.n_features))])
    grid_mem, grid_queries = rng.integers(0, 3, (40, 3)).astype(float), rng.integers(0, 3, (60, 3)).astype(float)
    grid_alphas = np.vstack([np.ones(3), rng.choice([0.5, 1.0], (2, 3))])
    for (mem, labels, queries), alphas, offset, dtype in (
        ((mem + 1e6, labels, queries + 1e6), alphas, True, np.float32),
        ((mem * 1e-3, labels, queries * 1e-3), alphas, True, np.float32),
        ((mem * 1e30, labels, queries * 1e30), alphas, True, np.float64),
        ((mem * 1e-30, labels, queries * 1e-30), alphas, True, np.float64),
        ((grid_mem, rng.integers(0, 2, 40), grid_queries), grid_alphas, False, np.float32),
    ):
        want = np.array([samknn._vote_rows(python_sq_sums(queries, mem, a * a), labels == 1, 5) for a in alphas])
        bank = bank_with_stm(mem, labels, k=5, stm_cap=len(mem))
        with pytest.MonkeyPatch.context() as mp:
            dtypes = record_plane_dtypes(mp)
            fallback = count_fallback_rows(mp)
            np.testing.assert_array_equal(FrozenChunkPredictor(queries, bank).predict(alphas), want)
        assert dtypes == {np.dtype(dtype)}
        if offset:
            assert sum(fallback) <= 0.01 * want.size
        else:
            assert sum(fallback) > 0


def test_float32_casts_and_products_keep_subnormals():
    # The float32 margin assumes IEEE rounding without flush-to-zero: a
    # float64 value cast into float32 lands on its subnormal grid, and BLAS's
    # float32 products and sums keep subnormal inputs, products and results.
    # A build that flushed them would leave the absolute term short. The
    # products go through the screen's own call, column slices of the
    # operand and two planes from one call included.
    step = 2.0**-149
    wide = np.array([step, 3 * step, 2.5 * step, 2.0**-127 + step, -(2.0**-140) * 5])
    cast = wide.astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(cast, [step, 3 * step, 2 * step, 2.0**-127 + step, -(2.0**-140) * 5])
    rng = np.random.default_rng(4)
    r, d, m = 70, 8, 300
    xc = rng.integers(-3, 4, (r, d)) * 2.0**-140  # subnormal in float32
    w = np.full(d, 0.5)
    memory = rng.integers(-3, 4, (d, m)) * 2.0**-3
    # a row of ones, then a norms row of zeros
    op = np.vstack([memory, np.ones((1, m)), np.zeros((1, m))]).astype(np.float32)
    plane = np.empty((r, m), dtype=np.float32)
    for parts in ([slice(0, m)], [slice(1, m - 2)], [slice(0, 120), slice(120, m)]):
        cols = slice(parts[0].start, parts[-1].stop)
        samknn._screen_planes(xc, w, np.zeros(r), op[:, cols], [plane[:, part] for part in parts])
        got = plane[:, cols]
        # small multiples of 2^-143: every product and sum is exact, and most are subnormal
        want = (-2 * w * xc) @ memory[:, cols]
        assert (np.abs(want) < np.finfo(np.float32).tiny).mean() > 0.5 and np.count_nonzero(want) > 0.9 * want.size
        np.testing.assert_array_equal(got.astype(np.float64), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, -1.0000001e100])
def test_bank_entry_points_reject_unbounded_features(bad):
    # Features beyond _FEATURE_BOUND could overflow a squared gap to inf,
    # and a zero weight would turn that into 0 * inf = NaN; no entry point
    # lets one into a memory or a query.
    ok = np.array([[0.0, 1.0], [_FEATURE_BOUND, 0.5], [-_FEATURE_BOUND, 0.0]])
    worse = ok.copy()
    worse[1, 0] = bad
    labels = np.array([0, 1, 0], dtype=np.uint8)
    bank = bank_with_stm(ok, labels, k=1, min_stm_size=2)
    blob = bank.to_bytes()
    for replace in (bank.replace_stm, bank.replace_ltm):
        with pytest.raises(ValueError, match="magnitude"):
            replace(worse, labels)
    assert bank.to_bytes() == blob
    # the STM's first feature value starts after the magic, head, trackers and count
    at = 4 + struct.calcsize(samknn._SNAPSHOT_HEAD) + 3 * 16 + 4 + 8 * 2
    assert np.frombuffer(blob[at : at + 8], dtype="<f8")[0] == _FEATURE_BOUND
    with pytest.raises(ValueError, match="magnitude"):
        MemoryBank.from_bytes(_resealed(blob[:at] + struct.pack("<d", bad) + blob[at + 8 :]))
    query = np.array([bad, 0.5])
    with pytest.raises(ValueError, match="magnitude"):
        predict_one(bank, query, np.ones(2))
    with pytest.raises(ValueError, match="magnitude"):
        FrozenChunkPredictor(np.vstack([ok, query]), bank)
    assert predict_one(bank, ok[1], np.zeros(2)) == 0


def test_every_distance_is_the_left_to_right_feature_sum():
    # Maintenance distances, and the kernel distances every vote rests on,
    # must equal plain Python-float sums added left to right over the
    # features, for any block shape: ragged memory sizes, one-row and
    # one-point blocks, up to the 108 features of one-hot data. The kernel's
    # BLAS planes only screen votes, so its votes must equal _vote_rows on the
    # Python sums, and each row it recomputes (captured from the fallback's
    # weighted _sq_dists calls) must get exactly those sums. A screen that
    # certifies nothing (NaN planes) sends every row to the fallback. Mixed
    # labels and k = 1 give every query a screened vote whenever the memory
    # has two or more points.
    rng = np.random.default_rng(5)
    sq_dists = samknn._sq_dists
    for trial in range(40):
        d = int(rng.choice([1, 3, 8, 13, 20, 64, 108]))
        m, n = int(rng.integers(1, 400)), int(rng.integers(1, 24))
        if trial % 6 == 0:
            m = 1
        mem, queries = rng.normal(size=(m, d)), rng.normal(size=(n, d))
        alpha = rng.random(d)
        want = python_sq_sums(queries, mem, alpha * alpha)
        unweighted = python_sq_sums(queries, mem, np.ones(d))
        labels = (np.arange(m) % 2).astype(np.uint8)
        bank = bank_with_stm(mem, labels, k=1, min_stm_size=2, stm_cap=m)
        want_votes = samknn._vote_rows(want, labels == 1, 1)
        exact_rows = {row.tobytes() for row in want}
        for rows in (1, 3, n):
            got = np.vstack([samknn._sq_dists(queries[b : b + rows], mem.T) for b in range(0, n, rows)])
            np.testing.assert_array_equal(got, unweighted)
            if m == 1:
                continue  # one memory point: the vote needs no distance
            for screen in (samknn._screen_planes, certify_nothing):
                seen = []

                def capture(points, memory_t, w=None):
                    plane = sq_dists(points, memory_t, w)
                    if w is not None:
                        seen.append(plane.copy())
                    return plane

                predictor = FrozenChunkPredictor(queries, bank)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(samknn, "_sq_dists", capture)
                    mp.setattr(samknn, "_screen_planes", screen)
                    mp.setattr(samknn, "_BLOCK_ELEMENTS", rows * m)
                    votes = predictor.predict(alpha)
                np.testing.assert_array_equal(votes, want_votes)
                if screen is certify_nothing:
                    np.testing.assert_array_equal(np.vstack(seen), want)
                else:
                    assert all(row.tobytes() in exact_rows for plane in seen for row in plane)
    # The absorb's exact survivor sums gather pairs of rows: whole blocks,
    # one row's pairs, one pair, either order, and chunks of one pair each.
    for d in (1, 3, 8, 13, 108):
        m, n = int(rng.integers(1, 60)), int(rng.integers(1, 9))
        queries, mem = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        points = np.vstack([queries, mem])
        want = python_sq_sums(queries, mem, np.ones(d))
        rows, cols = np.divmod(rng.permutation(n * m), m)
        np.testing.assert_array_equal(samknn._pair_sums(points, rows, n + cols), want[rows, cols])
        np.testing.assert_array_equal(samknn._pair_sums(points, n + cols, rows), want[rows, cols])
        np.testing.assert_array_equal(samknn._pair_sums(points, np.zeros(m, np.intp), n + np.arange(m)), want[0])
        one = samknn._pair_sums(points, np.array([n - 1]), np.array([n + m - 1]))
        np.testing.assert_array_equal(one, want[-1:, -1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(samknn, "_BLOCK_ELEMENTS", 1)
            np.testing.assert_array_equal(samknn._pair_sums(points, rows, n + cols), want[rows, cols])


def test_stacked_row_equals_single_vector_call(rng):
    feats = rng.random((300, 4))
    labels = rng.integers(0, 2, 300).astype(np.uint8)
    bank = bank_with_stm(feats, labels, min_stm_size=6, stm_cap=300)
    predictor = FrozenChunkPredictor(rng.random((90, 4)), bank)
    alphas = np.vstack([rng.random((4, 4)), np.zeros(4), [0.0, 1.0, 0.0, 0.5]])
    stacked = predict_in_blocks(predictor, alphas, 7 * 300)
    assert stacked.shape == (6, 90) and stacked.dtype == np.uint8
    for s, alpha in enumerate(alphas):
        single = predictor.predict(alpha)
        assert single.shape == (90,)
        np.testing.assert_array_equal(stacked[s], single)


def test_batch_predictor_rejects_bad_weight_shapes(rng):
    bank = bank_with_stm(rng.random((20, 3)), rng.integers(0, 2, 20), min_stm_size=6)
    predictor = FrozenChunkPredictor(rng.random((5, 3)), bank)
    for bad in (np.ones(2), np.ones((2, 2)), np.ones((1, 2, 3)), np.float64(1.0)):
        with pytest.raises(ValueError):
            predictor.predict(bad)
    # a stack of weight vectors is S calls in one, never one vote
    assert FrozenChunkPredictor(np.zeros((1, 3)), bank).predict(np.ones((2, 3))).shape == (2, 1)
    empty = predictor.predict(np.empty((0, 3)))
    assert empty.shape == (0, 5) and empty.dtype == np.uint8


def test_batch_predictor_frozen_against_later_fits(rng):
    feats = rng.random((30, 3))
    labels = rng.integers(0, 2, 30).astype(np.uint8)
    # stm_cap 30: the fit below evicts every row the predictors were built
    # from, and the bank's arrays must not change under them
    bank = bank_with_stm(feats, labels, min_stm_size=6, stm_cap=30)
    queries = rng.random((8, 3))
    predictors = [(FrozenChunkPredictor(queries, bank), budget) for budget in (None, 1)]
    before = [predict_in_blocks(p, np.ones(3), budget) for p, budget in predictors]
    chunk = make_chunk(rng.random((40, 3)), rng.integers(0, 2, 40), rng.integers(0, 2, 40))
    bank.fit_chunk(chunk)
    for (predictor, budget), want in zip(predictors, before):
        np.testing.assert_array_equal(predict_in_blocks(predictor, np.ones(3), budget), want)


def test_screen_products_stay_below_blas_threading_size(rng, monkeypatch):
    # A larger BLAS product may run on BLAS's own threads when the BLAS
    # thread count is unset, and such products were seen to stall.
    matmul, sizes = np.matmul, []

    def counted(a, b, **kwargs):
        # a stacked product of G items is G BLAS calls of one item's size
        sizes.extend([a.shape[-2] * a.shape[-1] * b.shape[-1]] * (a.size // (a.shape[-2] * a.shape[-1])))
        return matmul(a, b, **kwargs)

    m, d = 3000, 8
    bank = bank_with_stm(rng.random((m, d)), rng.integers(0, 2, m), min_stm_size=6, stm_cap=m)
    predictor = FrozenChunkPredictor(rng.random((40, d)), bank)
    alphas = rng.random((30, d))
    want = predictor.predict(alphas)
    monkeypatch.setattr(np, "matmul", counted)
    np.testing.assert_array_equal(predictor.predict(alphas), want)
    # one (rows, d + 2) @ (d + 2, m) product per weight vector and row block, stacked or not
    assert sum(sizes) == 40 * m * (d + 2) * 30 and max(sizes) <= samknn._SCREEN_CALL


def test_screen_products_keep_every_vote(rng):
    # Each block screens one weight vector in one call, its positive columns
    # and then its negative ones, with that vector's memory norms in the
    # operand's last row; the votes are the order-defined ones on integer
    # grids (exact ties) and on continuous data. The 30 queries make one
    # block, so each vector makes one call.
    screen_planes = samknn._screen_planes
    for m, d, S, grid in ((40, 3, 7, True), (60, 8, 12, False), (25, 13, 5, True)):
        make = (lambda shape: rng.integers(0, 3, shape).astype(float)) if grid else rng.random
        mem, queries = make((m, d)), make((30, d))
        labels = rng.integers(0, 2, m).astype(np.uint8)
        alphas = np.vstack([np.ones(d), rng.random((S - 1, d))])
        want = np.array([samknn._vote_rows(python_sq_sums(queries, mem, a * a), labels == 1, 3) for a in alphas])
        predictor = FrozenChunkPredictor(queries, bank_with_stm(mem, labels, k=3, min_stm_size=4, stm_cap=m))
        seen = []

        def recorded(xc, w, xn, op, planes):
            seen.append((op.shape, [plane.shape[1] for plane in planes]))
            return screen_planes(xc, w, xn, op, planes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(samknn, "_screen_planes", recorded)
            np.testing.assert_array_equal(predictor.predict(alphas), want)
        npos = int(np.count_nonzero(labels == 1))
        assert seen == [((d + 2, m), [npos, m - npos])] * S


def test_kernel_scratch_is_one_block(rng):
    # the whole query x memory difference tensor would take n*m*d*8 bytes:
    # 19 MB for the small case and 77 MB for the large one
    d = 8
    peaks = []
    for n, m in ((300, 1000), (600, 2000)):
        bank = bank_with_stm(rng.random((m, d)), rng.integers(0, 2, m), min_stm_size=6, stm_cap=m)
        predictor = FrozenChunkPredictor(rng.random((n, d)), bank)
        alphas = rng.random((4, d))
        tracemalloc.start()
        try:
            predictor.predict(alphas)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one vector's distance planes (one budget) and a copy of the memory operand
    assert max(peaks) < 1.5 * 8 * _BLOCK_ELEMENTS, max(peaks) / (8 * _BLOCK_ELEMENTS)
    assert peaks[1] < 1.5 * peaks[0]


def test_fallback_scratch_stays_within_one_block(rng):
    # A screen that certifies nothing sends every row of every block to the
    # fallback. It recomputes the rows in chunks beside the kernel's block,
    # so the peak stays under the one-block bound above, with one vector
    # (blocks of many rows) or several. Recomputing a block's rows at once
    # would take about four blocks with one vector, two with four. The
    # call certifies once over its 3 blocks and sends each vector's rows to
    # the fallback in one call.
    d, m, n = 8, 2000, 300
    bank = bank_with_stm(rng.random((m, d)), rng.integers(0, 2, m), min_stm_size=6, stm_cap=m)
    predictor = FrozenChunkPredictor(rng.random((n, d)), bank)
    for S in (1, 4):
        alphas = rng.random((S, d))
        want = predictor.predict(alphas)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(samknn, "_screen_planes", certify_nothing)
            fallback = count_fallback_rows(mp)
            exact_votes, calls = samknn._exact_votes, []
            mp.setattr(samknn, "_exact_votes", lambda *args: calls.append(len(args[0])) or exact_votes(*args))
            tracemalloc.start()
            try:
                votes = predictor.predict(alphas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(votes, want)
        assert sum(fallback) == S * n
        assert -(-n // (_BLOCK_ELEMENTS // m)) == 3 and calls == [n] * S
        assert peak < 1.5 * 8 * _BLOCK_ELEMENTS, peak / (8 * _BLOCK_ELEMENTS)


# -- fitting ------------------------------------------------------------------------


def test_fit_first_chunk_fills_stm_only(rng):
    chunk = make_chunk(rng.random((40, 3)), rng.integers(0, 2, 40), rng.integers(0, 2, 40))
    bank = MemoryBank(3)
    bank.fit_chunk(chunk)
    assert bank.stm_size == 40
    assert bank.ltm_size == 0


def test_caps_hold_through_long_stream(rng):
    bank = MemoryBank(3, stm_cap=100, ltm_cap=100, min_stm_size=20)
    for t in range(12):
        n = 120
        chunk = make_chunk(rng.random((n, 3)), rng.integers(0, 2, n), rng.integers(0, 2, n), t + 1)
        bank.fit_chunk(chunk)
        assert bank.stm_size <= 100
        assert bank.ltm_size <= 100


def test_fit_is_deterministic(rng):
    chunks = [
        make_chunk(rng.random((80, 3)), rng.integers(0, 2, 80), rng.integers(0, 2, 80), t + 1)
        for t in range(4)
    ]
    hashes = []
    for _ in range(2):
        bank = MemoryBank(3, stm_cap=60, ltm_cap=60, min_stm_size=10, seed=5)
        for chunk in chunks:
            bank.fit_chunk(chunk)
        hashes.append(bank.state_hash())
    assert hashes[0] == hashes[1]


def test_tracker_updates_use_decay():
    bank = MemoryBank(1, k=1, min_stm_size=2, tracker_decay=0.5)
    chunk = make_chunk([[0.0], [0.0], [0.0]], [0, 0, 0], [1, 1, 1])
    bank.fit_chunk(chunk)
    # first instance sees an empty STM: no tracker update; the next two both
    # predict 1 correctly -> correct/total = (0.5*1+1)/(0.5*1+1) = 1.0
    assert bank.tracker_accuracy("stm") == pytest.approx(1.0)
    assert bank._trackers["stm"][1] == pytest.approx(1.5)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fit_chunk_matches_per_instance_reference(data):
    # integer-grid features make many exact distance ties; tiny caps force
    # STM evictions, LTM drops and compression within a few windows, and
    # windows may be shorter than k, down to one row
    d = data.draw(st.integers(1, 3), label="d")
    k = data.draw(st.integers(1, 5), label="k")
    kwargs = dict(
        k=k,
        stm_cap=data.draw(st.integers(1, 15), label="stm_cap"),
        ltm_cap=data.draw(st.integers(2, 9), label="ltm_cap"),
        min_stm_size=data.draw(st.integers(k + 1, k + 3), label="min_stm_size"),
        seed=3,
    )
    grid = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    chunks = []
    for t, n in enumerate(data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=6), label="windows")):
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        feats = data.draw(st.lists(grid, min_size=n, max_size=n))
        chunks.append(make_chunk(feats, data.draw(bits), data.draw(bits), t + 1))
    reference = MemoryBank(d, **kwargs)
    want = []
    for chunk in chunks:
        reference_fit_chunk(reference, chunk)
        want.append(reference.state_hash())
    # one-row blocks, blocks of about 7 rows, and the default budget
    for budget in (1, 7 * d * (kwargs["stm_cap"] + 7), None):
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(samknn, "_BLOCK_ELEMENTS", budget)
            bank = MemoryBank(d, **kwargs)
            for chunk, expected in zip(chunks, want):
                bank.fit_chunk(chunk)
                assert bank.state_hash() == expected


def test_fit_chunk_matches_reference_at_the_feature_bound(monkeypatch):
    # Chunk caps feature magnitudes at _FEATURE_BOUND. Coordinates of 1e200
    # overflowed squared gaps to inf, which broke this equality and made
    # k-means seeding divide inf by inf; at the bound every sum stays finite.
    # A window whose STM and rows spread a feature over the bound leaves
    # float32's range, so the absorb screens it in float64 planes: its
    # operand cast to float32 would overflow.
    rng = np.random.default_rng(8)
    dtypes = record_plane_dtypes(monkeypatch)
    for _ in range(60):
        d, k = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        kwargs = dict(k=k, stm_cap=int(rng.integers(1, 16)), ltm_cap=int(rng.integers(2, 10)), min_stm_size=k + 1, seed=3)
        bank, reference = MemoryBank(d, **kwargs), MemoryBank(d, **kwargs)
        for t in range(int(rng.integers(1, 7))):
            n = int(rng.integers(1, 25))
            feats = rng.integers(0, 3, (n, d)).astype(float)
            far = rng.random((n, d)) < 0.4
            feats[far] = rng.choice([-_FEATURE_BOUND, _FEATURE_BOUND], int(far.sum()))
            chunk = make_chunk(feats, rng.integers(0, 2, n), rng.integers(0, 2, n), t + 1)
            at_bound = np.ptp(np.vstack([bank.stm_features, feats]), axis=0).max() >= _FEATURE_BOUND
            dtypes.clear()
            with np.errstate(all="raise"):
                bank.fit_chunk(chunk)
            if at_bound:
                assert dtypes == {np.dtype(np.float64)}
            reference_fit_chunk(reference, chunk)
            assert bank.state_hash() == reference.state_hash()


def test_fit_chunk_matches_reference_on_long_stream(rng):
    # continuous features with a concept flip halfway: STM shrinks, cleaning
    # and k-means compression all run on distinct distances
    kwargs = dict(k=5, stm_cap=90, ltm_cap=40, min_stm_size=12, seed=7)
    bank, reference = MemoryBank(3, **kwargs), MemoryBank(3, **kwargs)
    passes = 0
    for t in range(24):
        x = rng.random((45, 3))
        labels = (x[:, 0] + 0.2 * rng.random(45) > 0.6).astype(np.uint8)
        if t >= 12:
            labels = 1 - labels
        chunk = make_chunk(x, rng.integers(0, 2, 45), labels, t + 1)
        bank.fit_chunk(chunk)
        reference_fit_chunk(reference, chunk)
        assert bank.state_hash() == reference.state_hash()
        passes = bank.compress_count
    assert passes > 0


def reference_like_chunks(transform, n_instances=600, window=100):
    """Windows of a reference-like stream (drift halfway) with ``transform`` applied to the features."""
    config = BiasStreamConfig(
        n_instances=n_instances, proxy_strength=0.8, base_rates=GroupRates(0.65, 0.35),
        drift_points=(n_instances // 2,), seed=11, window_size=window,
    )
    return [make_chunk(transform(c.features), c.groups, c.labels, c.index) for c in generate_bias_stream(config)]


@pytest.mark.parametrize(
    "scale, dtype", [(1.0, np.float32), (1e30, np.float64), (1e-30, np.float64)], ids=["plain", "x1e30", "x1e-30"]
)
def test_absorb_screens_in_float64_planes_outside_float32s_range(scale, dtype):
    # The absorb takes the kernel's dtype rule: float32 planes where every
    # window row's unit-weight scale U lies in [2^-126, 2^126], float64
    # otherwise. Reference-like data fit; scaled by 1e30 or 1e-30 their U
    # leaves that range. Either way the bank must equal the per-instance
    # reference after every window, with no floating-point warning.
    chunks = reference_like_chunks(lambda x: x * scale, n_instances=400)
    kwargs = dict(k=5, stm_cap=250, ltm_cap=60, min_stm_size=20, seed=4)
    reference, want = MemoryBank(chunks[0].n_features, **kwargs), []
    for chunk in chunks:
        reference_fit_chunk(reference, chunk)
        want.append(reference.state_hash())
    bank = MemoryBank(chunks[0].n_features, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        dtypes = record_plane_dtypes(mp)
        for chunk, expected in zip(chunks, want):
            with np.errstate(all="raise"):
                bank.fit_chunk(chunk)
            assert bank.state_hash() == expected
    assert dtypes == {np.dtype(dtype)}


def count_pair_sums(mp):
    """Patch the absorb's exact survivor sums to count the pairs they compute; returns the count list."""
    pair_sums, pairs = samknn._pair_sums, []

    def counted(points, i, j):
        pairs.append(len(i))
        return pair_sums(points, i, j)

    mp.setattr(samknn, "_pair_sums", counted)
    return pairs


@pytest.mark.parametrize("stream", ["offset", "scaled", "grid"])
def test_screened_absorb_matches_reference(stream):
    # The absorb screens its STM distances with BLAS products and computes
    # order-defined sums only for band and radius candidates, so the bank
    # must equal the per-instance reference after every window: far from
    # zero (+1e6), at small scale (x1e-3), and on an integer grid, whose
    # exact ties only position decides. The drift cuts the STM and fills
    # the LTM, so the cleaning radii and the LTM votes run.
    if stream == "grid":
        # labels follow the features, with a flip for the second half, so
        # evicted points survive cleaning into the LTM
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, (600, 3)).astype(float)
        y = (x.sum(axis=1) + rng.integers(0, 2, 600) > 3).astype(np.uint8)
        y[300:] ^= 1
        parts = zip(np.split(x, 6), np.split(rng.integers(0, 2, 600), 6), np.split(y, 6))
        chunks = [make_chunk(f, g, l, t + 1) for t, (f, g, l) in enumerate(parts)]
    else:
        chunks = reference_like_chunks((lambda x: x + 1e6) if stream == "offset" else (lambda x: x * 1e-3))
    kwargs = dict(k=5, stm_cap=250, ltm_cap=60, min_stm_size=20, seed=4)
    bank, reference = MemoryBank(chunks[0].n_features, **kwargs), MemoryBank(chunks[0].n_features, **kwargs)
    ltm_seen = 0
    with pytest.MonkeyPatch.context() as mp:
        pairs = count_pair_sums(mp)
        for chunk in chunks:
            bank.fit_chunk(chunk)
            reference_fit_chunk(reference, chunk)
            assert bank.state_hash() == reference.state_hash()
            ltm_seen = max(ltm_seen, bank.ltm_size)
    assert ltm_seen > 0  # radii and LTM votes ran
    assert sum(pairs) > 0  # the exact survivor path ran


def assert_bands_hold_their_skybands(bank, features, labels):
    """Check a fitted bank's STM bands; the STM must be the last points of ``features`` and ``labels``.

    Each band's codes, read as predecessor positions, are in strict
    (order-defined distance, position) order and carry their point's label,
    with the padding after them. They hold every member of the point's
    k-skyband over its predecessors still in the STM (``reference_skybands``,
    uncut) that sorts at or before the last kept code, and every member
    where the band is not full. Returns the re-fit's errors from the bands
    at every halving window size down to k + 1, which must equal the
    per-instance oracle's.
    """
    k, n, end = bank.k, bank.stm_size, samknn._BAND_END
    start = len(labels) - n
    np.testing.assert_array_equal(bank.stm_features, features[start:])
    np.testing.assert_array_equal(bank.stm_labels, labels[start:])
    for i, band in enumerate(bank._stm_band, start):
        codes = band[band != end]
        assert (band[len(codes) :] == end).all()
        pos = i - (codes >> 1)
        assert ((0 <= pos) & (pos < i)).all()
        np.testing.assert_array_equal(codes & 1, labels[pos])
        keys = list(zip(_row_sq_dists(features[i], features[pos]).tolist(), pos.tolist()))
        assert keys == sorted(set(keys))
        dist = _row_sq_dists(features[i], features[start:i])
        row = (dist, (2 * (i - np.arange(start, i)) + labels[start:i]).astype(np.int32))
        [members] = reference_skybands([row], k, max(1, i - start), end)
        member_pos = i - (members[members != end] >> 1)
        if len(codes) == samknn._BAND_LEN:
            member_pos = [p for p in member_pos if (dist[p - start], p) <= keys[-1]]
        assert set(member_pos) <= set(pos.tolist())
    f, y = features[start:], labels[start:]
    sizes = _candidate_sizes(n, k + 1)
    errors = _window_errors(bank._stm_band, f, y, sizes, k)
    assert errors == reference_interleaved_errors(f, y, sizes, k)
    return errors


def fit_trace(chunks, kwargs, sizes):
    """Fit ``chunks`` with samknn's module sizes patched to ``sizes``.

    Checks the STM bands after every window (:func:`assert_bands_hold_their_skybands`)
    and returns, after every window, the state hash, the re-fit's errors
    from the bands at every halving window size, and the window's STM, LTM
    and combined votes (the last two only with an LTM).
    """
    vote_rows, stm_rows, absorb = samknn._vote_rows, samknn._stm_rows, MemoryBank._absorb
    stm_votes, store_votes, trace = [], [], []

    def recorder(into):
        return lambda *a: into.append(vote_rows(*a)) or into[-1]

    def traced_absorb(*args):
        # the absorb's votes only, not the length re-fit's (_exact_votes)
        samknn._vote_rows = recorder(store_votes)
        try:
            return absorb(*args)
        finally:
            samknn._vote_rows = vote_rows

    def traced_stm_rows(*args):
        outer, samknn._vote_rows = samknn._vote_rows, recorder(stm_votes)
        try:
            return stm_rows(*args)
        finally:
            samknn._vote_rows = outer

    with pytest.MonkeyPatch.context() as mp:
        for name, value in sizes.items():
            mp.setattr(samknn, name, value)
        mp.setattr(MemoryBank, "_absorb", traced_absorb)
        mp.setattr(samknn, "_stm_rows", traced_stm_rows)
        bank = MemoryBank(chunks[0].n_features, **kwargs)
        for t, chunk in enumerate(chunks):
            # the STM half votes STM rows; with an LTM, each LTM block then votes LTM and combined
            kinds = 2 if bank.ltm_size else 0
            stm_votes.clear()
            store_votes.clear()
            bank.fit_chunk(chunk)
            by_kind = [np.concatenate(stm_votes)] + [np.concatenate(store_votes[j::2]) for j in range(kinds)]
            seen = chunks[: t + 1]
            errors = assert_bands_hold_their_skybands(
                bank, np.vstack([c.features for c in seen]), np.concatenate([c.labels for c in seen])
            )
            trace.append((bank.state_hash(), errors, by_kind))
    return trace


@pytest.mark.parametrize("stream", ["grid", "offset"])
def test_absorb_is_the_same_at_any_block_size_and_flush_point(stream):
    # Row blocks (the plane budget) only batch the absorb's work: one-row
    # blocks, blocks of a few rows with one-pair chunks, and the default
    # sizes must give the same window votes, the per-instance reference's
    # state after every window, and bands that hold every point's nearest
    # skyband members in order, so the re-fit's errors are equal at every
    # window size. The band bytes may differ: a band is its row's
    # candidates, which depend on the blocks. The grid's windows exceed its
    # STM cap, so rows evicted in-window get no band.
    if stream == "grid":
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, (600, 3)).astype(float)
        y = (x.sum(axis=1) + rng.integers(0, 2, 600) > 3).astype(np.uint8)
        y[300:] ^= 1
        parts = zip(np.split(x, 6), np.split(rng.integers(0, 2, 600), 6), np.split(y, 6))
        chunks = [make_chunk(f, g, l, t + 1) for t, (f, g, l) in enumerate(parts)]
        kwargs = dict(k=5, stm_cap=80, ltm_cap=60, min_stm_size=20, seed=4)
    else:
        chunks = reference_like_chunks(lambda x: x + 1e6)
        kwargs = dict(k=5, stm_cap=250, ltm_cap=60, min_stm_size=20, seed=4)
    reference = MemoryBank(chunks[0].n_features, **kwargs)
    want = []
    for chunk in chunks:
        reference_fit_chunk(reference, chunk)
        want.append(reference.state_hash())
    default = fit_trace(chunks, kwargs, {})
    assert [t[0] for t in default] == want
    assert any(len(t[2]) == 3 for t in default)  # the LTM votes ran
    for sizes in ({"_BLOCK_ELEMENTS": 1}, {"_PLANE_SHARE": 1 << 9, "_GATHER_SHARE": _BLOCK_ELEMENTS}):
        got = fit_trace(chunks, kwargs, sizes)
        for (state, errors, votes), (want_state, want_errors, want_votes) in zip(got, default, strict=True):
            assert state == want_state
            assert errors == want_errors
            for vote, want_vote in zip(votes, want_votes, strict=True):
                np.testing.assert_array_equal(vote, want_vote)


def test_screened_absorb_holds_with_planes_at_the_edge_of_the_error_bound():
    # Every screened STM distance sits as far from its order-defined sum as
    # the documented bound allows: the older half of a plane's columns up and
    # the newer half down, then the reverse. Integer grids tie many exact
    # distances, so a slack smaller than the bound drops band members (a
    # tied later point looks strictly closer) or radius entries, and the
    # bank leaves the per-instance reference. The grids fit float32, so the
    # absorb screens them in float32 planes, pushed by float32's bound; their
    # centred coordinates (whole and half units) are exact in the float32
    # operand the hook reads.
    rng = np.random.default_rng(13)
    dtypes = []
    for trial in range(6):
        d, k = (1, 2, 3)[trial % 3], (1, 3, 5)[trial % 3]
        x = rng.integers(0, 3, (120, d)).astype(float)
        y = (x.sum(axis=1) + rng.integers(0, 2, 120) > d).astype(np.uint8)
        y[60:] ^= 1
        parts = zip(np.split(x, 4), np.split(rng.integers(0, 2, 120), 4), np.split(y, 4))
        chunks = [make_chunk(f, g, l, t + 1) for t, (f, g, l) in enumerate(parts)]
        kwargs = dict(k=k, stm_cap=50, ltm_cap=20, min_stm_size=k + 5, seed=1)
        for push in (1, -1):

            def hook(xc, w, xn, aug, planes):
                dtypes.append(planes[0].dtype)
                return planes_at_the_error_bound(aug.shape[-1] // 2, push)(xc, w, xn, aug, planes)

            bank, reference = MemoryBank(d, **kwargs), MemoryBank(d, **kwargs)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(samknn, "_screen_planes", hook)
                for chunk in chunks:
                    bank.fit_chunk(chunk)
                    reference_fit_chunk(reference, chunk)
                    assert bank.state_hash() == reference.state_hash()
    assert set(dtypes) == {np.dtype(np.float32)}


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_vote_rows_votes_over_each_rows_finite_entries(data):
    # +inf marks no point: each row votes over its finite entries as the
    # stable (distance, position) vote does, with none, fewer than k,
    # exactly k and more than k of them, on an integer grid that ties many
    # distances, and with one label mask for every row or one per row.
    k = data.draw(st.integers(1, 6))
    n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 14))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dist2 = rng.integers(0, 4, (n, m)).astype(float)
    for row in dist2:
        live = data.draw(st.sampled_from([0, k - 1, k, k + 1, m]))
        row[rng.permutation(m)[min(live, m) :]] = np.inf
    positive = rng.random((n, m) if data.draw(st.booleans()) else m) < 0.5
    got = samknn._vote_rows(dist2, positive, k)
    for i, row in enumerate(dist2):
        live = row != np.inf
        labels = np.broadcast_to(positive, dist2.shape)[i, live].astype(np.uint8)
        assert got[i] == _stable_vote(row[live], labels, k)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_radii_sq_is_each_rows_radius_over_its_finite_entries(data):
    # The k-th smallest finite entry, the largest with fewer than k, and
    # -inf (nothing inside) with none.
    k = data.draw(st.integers(1, 6))
    n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 14))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dist2 = rng.integers(0, 4, (n, m)) / 2
    for row in dist2:
        live = data.draw(st.sampled_from([0, k - 1, k, k + 1, m]))
        row[rng.permutation(m)[min(live, m) :]] = np.inf
    got = samknn._kth_finite(dist2.copy(), k)
    for i, row in enumerate(dist2):
        live = row[row != np.inf]
        assert got[i] == (_radius_sq(live, k) if live.size else -np.inf)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_select_equals_partition(data):
    # The kernel's order statistics, peeled by rounds of argmin, are
    # np.partition's elements: on 2-D and 3-D inputs, for the first, the
    # last and every q between, on integer-grid ties, +inf entries and
    # signed zeros.
    lead = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2), label="lead")
    width = data.draw(st.integers(1, 12), label="width")
    picks = {1, width, min(width, 6), min(width, 7)}
    q = data.draw(st.sampled_from(sorted(picks)) | st.integers(1, width), label="q")
    values = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.inf]) | st.floats(-1.0, 4.0)
    size = math.prod(lead) * width
    side = np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(*lead, width)
    want = np.partition(side, q - 1, axis=-1)[..., q - 1]
    got = samknn._kth_smallest(side.copy(), q)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_radius_candidates_keep_the_order_defined_radius():
    # Screened values within delta of the order-defined ones, those up to
    # each row's k-th pushed up and the rest down, with near ties closer
    # than 2 delta: a row's candidates (its slack 2.5 delta) must still hold
    # every entry up to its k-th order-defined value, so the radius over
    # their order-defined values is the row's radius. A row's entries are
    # its own label's columns; NaN marks columns outside its slice and the
    # plane's padding to whole chunks. Each row's order-defined bound on its
    # k-th is unknown (+inf: every entry is kept), the k-th of a random
    # subset of its entries (+inf if the subset holds fewer than k), or the
    # k-th itself; rows that need no radius (-inf) keep nothing.
    rng = np.random.default_rng(14)
    delta = 1e-12
    for trial in range(300):
        k, r, w = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 40))
        exact = np.round(4 * rng.random((r, w)), 1) + 1e-13 * rng.integers(0, 3, (r, w))
        col_labels, row_labels = rng.integers(0, 2, w), rng.integers(0, 2, r)
        inside = rng.random((r, w)) < 0.9
        needless = rng.random(r) < 0.2
        entries = (col_labels == row_labels[:, None]) & inside
        masked = np.where(entries, exact, np.inf)
        kth = np.sort(masked, axis=1)[:, min(k, w) - 1]
        plane = np.full((r, -(-w // 8) * 8), np.nan)
        plane[:, :w] = np.where(inside, exact + np.where(exact <= kth[:, None], delta, -delta), np.nan)
        mins = samknn._chunk_minima(plane)
        subset = np.sort(np.where(entries & (rng.random((r, w)) < 0.7), exact, np.inf), axis=1)[:, min(k, w) - 1]
        want = samknn._kth_finite(np.where(entries & ~needless[:, None], exact, np.inf), k)
        for bound in (np.full(r, np.inf), subset, kth):
            bound = np.where(needless, -np.inf, bound)
            slack = np.full(r, 2.5 * delta)
            calls = []

            def recorded(rows, cols):
                calls.append((rows, cols))
                return exact[rows, cols]

            table = samknn._radius_candidates(plane, mins, col_labels, row_labels, bound + slack, recorded)
            [(rows, cols)] = calls
            assert entries[rows, cols].all() and not needless[rows].any()
            assert table.shape[0] == r
            np.testing.assert_array_equal(samknn._kth_finite(table, k), want)


@pytest.mark.parametrize("stream", ["plain", "offset", "grid"])
def test_rebuilt_bands_equal_the_bands_a_stepped_bank_carries(stream):
    # With no eviction and no length cut, each STM point's band was built in
    # the absorb against all its predecessors; rebuilding it from the STM
    # alone (replace_stm, from_bytes) screens against another operand and
    # other blocks. Its codes may differ, but each band must hold the
    # point's nearest skyband members in order, so the re-fit's errors are
    # the stepped bank's at every window size.
    if stream == "grid":
        chunks = _grid_stream(np.random.default_rng(6), 2, 4, 60)
    else:
        chunks = reference_like_chunks((lambda x: x + 1e6) if stream == "offset" else (lambda x: x), 240, 60)
    total = sum(len(c) for c in chunks)
    bank = MemoryBank(chunks[0].n_features, k=5, stm_cap=total, min_stm_size=total)
    for chunk in chunks:
        bank.fit_chunk(chunk)
    assert bank.stm_size == total
    restored = MemoryBank.from_bytes(bank.to_bytes())
    replaced = MemoryBank(bank.dim, k=5, stm_cap=total, min_stm_size=total)
    replaced.replace_stm(bank.stm_features, bank.stm_labels)
    want = assert_bands_hold_their_skybands(bank, bank.stm_features, bank.stm_labels)
    assert assert_bands_hold_their_skybands(restored, bank.stm_features, bank.stm_labels) == want
    assert assert_bands_hold_their_skybands(replaced, bank.stm_features, bank.stm_labels) == want


def test_replace_stm_changes_only_the_stm():
    # from_bytes replaces the LTM after the STM, so only a direct call shows
    # that rebuilding the bands leaves the bank's own LTM (which cleaning
    # against the new STM would cut) and trackers alone.
    chunks = reference_like_chunks(lambda x: x, 900, 100)
    bank = MemoryBank(chunks[0].n_features, k=5, stm_cap=200, ltm_cap=400, min_stm_size=20)
    for chunk in chunks[:8]:
        bank.fit_chunk(chunk)
    ltm = bank.ltm_features.tobytes(), bank.ltm_labels.tobytes()
    trackers = {name: list(pair) for name, pair in bank._trackers.items()}
    assert bank.ltm_size > 0 and all(c > 0.0 for c, _ in trackers.values())
    new = chunks[8]
    bank.replace_stm(new.features, new.labels)
    assert (bank.ltm_features.tobytes(), bank.ltm_labels.tobytes()) == ltm
    assert bank._trackers == trackers
    np.testing.assert_array_equal(bank.stm_features, new.features)
    np.testing.assert_array_equal(bank.stm_labels, new.labels)
    restored = MemoryBank.from_bytes(bank.to_bytes())
    np.testing.assert_array_equal(bank._stm_band, restored._stm_band)


def test_fit_chunk_peak_memory_does_not_grow_with_window_times_stm():
    # The fit holds state linear in STM + window (2n points here): the
    # combined features C, their (d + 2)-row screen operand and the window's
    # bands, 8 * (2d + 2) + 4 * _BAND_LEN bytes a point, allowed twice over.
    # Everything else works in blocks of fixed budgets. A whole window x STM
    # float64 plane would add 8 n^2 bytes: 2 MB for the small case and 32 MB
    # for the large one.
    # With a 5% minority label, most minority rows hold fewer than k
    # same-label band candidates, and their radius keeps every same-label
    # entry of their slice; that case stays under the same cap.
    rng = np.random.default_rng(0)
    d = 16

    def fit_peak(n, positive_rate):
        def labels(size):
            return (rng.random(size) < positive_rate).astype(np.uint8)

        bank = MemoryBank(d, stm_cap=n, ltm_cap=n, min_stm_size=n // 4)
        bank.replace_stm(rng.random((n, d)), labels(n))
        bank.replace_ltm(rng.random((n // 10, d)), rng.integers(0, 2, n // 10))
        chunk = make_chunk(rng.random((n, d)), rng.integers(0, 2, n), labels(n))
        tracemalloc.start()
        try:
            bank.fit_chunk(chunk)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sizes = (500, 2000)
    peaks = [fit_peak(n, 0.5) for n in sizes]
    assert max(peaks) < 2.5 * 8 * _BLOCK_ELEMENTS
    per_point = 2 * (8 * (2 * d + 2) + 4 * samknn._BAND_LEN)
    assert peaks[1] - peaks[0] < per_point * 2 * (sizes[1] - sizes[0])
    assert fit_peak(sizes[1], 0.05) < 2.5 * 8 * _BLOCK_ELEMENTS


# -- cleaning ------------------------------------------------------------------------


def test_clean_removes_contradicting_duplicate():
    reference = np.array([[0.5, 0.5], [0.52, 0.5], [0.8, 0.8]])
    ref_labels = np.array([1, 1, 1], dtype=np.uint8)
    target = np.array([[0.5, 0.5], [0.9, 0.1]])
    target_labels = np.array([0, 0], dtype=np.uint8)
    keep = clean(target, target_labels, reference, ref_labels, k=2)
    assert keep[0] == False  # noqa: E712  (inside a reference ball, wrong label)
    assert keep[1] == True  # noqa: E712


def test_clean_keeps_matching_labels(rng):
    reference = rng.random((20, 2))
    target = rng.random((15, 2))
    ones = np.ones(20, dtype=np.uint8)
    keep = clean(target, np.ones(15, dtype=np.uint8), reference, ones)
    assert keep.all()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_clean_matches_brute_oracle(seed):
    # Continuous points and an integer grid (many tied distances); both
    # labels, references of one label only, targets of one label only and
    # no target at all; default row blocks and blocks of one reference row.
    rng = np.random.default_rng(seed)
    n_ref = int(rng.integers(2, 30))
    n_tgt = int(rng.integers(1, 30))
    k = int(rng.integers(1, 6))
    for grid in (False, True):
        make = (lambda shape: rng.integers(0, 3, shape).astype(float)) if grid else rng.random
        reference, target = make((n_ref, 2)), make((n_tgt, 2))
        ref_labels = rng.integers(0, 2, n_ref).astype(np.uint8)
        target_labels = rng.integers(0, 2, n_tgt).astype(np.uint8)
        cases = [
            (target, target_labels, reference, ref_labels),
            (target, target_labels, reference, np.full(n_ref, ref_labels[0])),
            (target, np.full(n_tgt, target_labels[0]), reference, ref_labels),
            (target[:0], target_labels[:0], reference, ref_labels),
        ]
        for case in cases:
            want = brute_clean_mask(*case, k)
            np.testing.assert_array_equal(clean(*case, k), want)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(samknn, "_BLOCK_ELEMENTS", 1)
                np.testing.assert_array_equal(clean(*case, k), want)


# -- STM size adaptation ----------------------------------------------------------


def test_candidate_sizes_respect_minimum():
    assert _candidate_sizes(60, 50) == [60]
    assert _candidate_sizes(200, 50) == [200, 100, 50]
    assert _candidate_sizes(40, 50) == [40]


def test_interleaved_errors_match_oracle(rng):
    feats = rng.random((80, 2))
    labels = rng.integers(0, 2, 80).astype(np.uint8)
    sizes = _candidate_sizes(80, 10)
    bank = bank_with_stm(feats, labels, k=3, min_stm_size=10, stm_cap=80)
    got = _window_errors(bank._stm_band, feats, labels, sizes, 3)
    want = [interleaved_error(feats, labels, s, 3) for s in sizes]
    assert got == pytest.approx(want, abs=1e-12)


def refit(bank: MemoryBank) -> int:
    """Re-fit the STM length with nothing evicted, as after a window; the adopted size."""
    empty = bank.stm_features[:0]
    bank._adapt_and_flush(empty, bank.stm_labels[:0])
    return bank.stm_size


def test_stationary_stm_keeps_full_window(rng):
    # perfectly separable labels: error 0 at every size, tie -> largest
    feats = np.vstack([rng.random((60, 1)) * 0.3, 0.7 + rng.random((60, 1)) * 0.3])
    labels = np.array([0] * 60 + [1] * 60, dtype=np.uint8)
    order = rng.permutation(120)
    bank = bank_with_stm(feats[order], labels[order], min_stm_size=20, stm_cap=200)
    assert refit(bank) == 120
    assert bank.ltm_size == 0


def test_concept_flip_shrinks_stm(rng):
    # first half labels f(x), second half labels 1-f(x): suffix windows
    # excluding the stale half score strictly better
    n_half = 60
    x = rng.random((2 * n_half, 1))
    rule = (x[:, 0] > 0.5).astype(np.uint8)
    labels = np.concatenate([1 - rule[:n_half], rule[n_half:]]).astype(np.uint8)
    bank = bank_with_stm(x, labels, min_stm_size=10, stm_cap=200)
    adopted = refit(bank)
    assert adopted <= math.ceil(2 * n_half / 2)
    # every dropped point contradicts the kept window, so cleaning discards all
    assert bank.ltm_size == 0


def test_consistent_prefix_survives_to_ltm(rng):
    # left region keeps label 0 across the flip, right region inverts; after
    # the shrink only left-region prefix points pass cleaning into the LTM
    n_half = 60
    left = rng.random((n_half, 1)) * 0.35
    right = 0.65 + rng.random((n_half, 1)) * 0.35
    feats = np.vstack([left[: n_half // 2], right[: n_half // 2],
                       left[n_half // 2 :], right[n_half // 2 :]])
    labels = np.concatenate([
        np.zeros(n_half // 2), np.ones(n_half // 2),   # old concept
        np.zeros(n_half // 2), np.zeros(n_half // 2),  # right region flipped
    ]).astype(np.uint8)
    order_first = rng.permutation(n_half)
    order_second = n_half + rng.permutation(n_half)
    order = np.concatenate([order_first, order_second])
    bank = bank_with_stm(feats[order], labels[order], min_stm_size=10, stm_cap=200)
    # the second-half window is perfectly self-consistent (error 0), the full
    # window is not, and ties favour the larger size: exactly the half wins
    assert refit(bank) == n_half
    assert bank.ltm_size > 0
    # survivors must all be consistent with the new concept: label 0
    assert not bank.ltm_labels.any()
    assert (bank.ltm_features[:, 0] < 0.5).all()


# -- LTM compression ----------------------------------------------------------------


def test_compress_noop_at_cap(rng):
    bank = MemoryBank(2, ltm_cap=30, min_stm_size=6)
    feats = rng.random((30, 2))
    bank.replace_ltm(feats, np.zeros(30, dtype=np.uint8))
    bank.compress_ltm()
    np.testing.assert_array_equal(bank.ltm_features, feats)


def test_compress_halves_single_class(rng):
    bank = MemoryBank(2, ltm_cap=40, min_stm_size=6)
    bank.replace_ltm(rng.random((80, 2)), np.ones(80, dtype=np.uint8))
    bank.compress_ltm()
    assert bank.ltm_size == 40  # ceil(80/2)
    assert set(np.unique(bank.ltm_labels)) == {1}


def test_compress_duplicated_points_are_fixed_points():
    point = np.array([0.25, 0.75])
    bank = MemoryBank(2, ltm_cap=4, min_stm_size=6)
    bank.replace_ltm(np.tile(point, (8, 1)), np.zeros(8, dtype=np.uint8))
    bank.compress_ltm()
    assert bank.ltm_size == 4
    np.testing.assert_allclose(bank.ltm_features, np.tile(point, (4, 1)))


def test_kmeans_peak_memory_does_not_grow_with_n_m_d():
    # a points x centers x dims tensor would take n*m*d*8 bytes: about 10 MB
    # for the small case and 164 MB for the large one. k-means holds state
    # linear in n: the transposed points (8d bytes a point), the n/2 centers
    # in three copies (the centers, their transpose and the update: 12d
    # bytes a point) and a few n-vectors (assignments, seeding distances and
    # probabilities, 48 bytes), allowed twice over. Everything else works in
    # blocks of a fixed budget. One points x centers float64 plane would add
    # 4 n^2 bytes: 0.6 MB for the small case and 10 MB for the large one.
    rng = np.random.default_rng(0)
    d = 16
    sizes, peaks = (400, 1600), []
    for n in sizes:
        points = rng.random((n, d))
        tracemalloc.start()
        try:
            _kmeans(points, n // 2, np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 3 * 8 * _BLOCK_ELEMENTS
    per_point = 2 * (8 * d + 12 * d + 48)
    assert peaks[1] - peaks[0] < per_point * (sizes[1] - sizes[0])


def test_compress_is_seeded(rng):
    feats = rng.random((100, 2))
    labels = rng.integers(0, 2, 100).astype(np.uint8)
    sizes = []
    hashes = []
    for _ in range(2):
        bank = MemoryBank(2, ltm_cap=50, min_stm_size=6, seed=9)
        bank.replace_ltm(feats, labels)
        bank.compress_ltm()
        sizes.append(bank.ltm_size)
        hashes.append(bank.state_hash())
    assert sizes[0] == sizes[1] <= 50
    assert hashes[0] == hashes[1]


# -- snapshots -------------------------------------------------------------------


def test_snapshot_roundtrip(rng):
    bank = MemoryBank(3, stm_cap=50, ltm_cap=50, min_stm_size=10, seed=3)
    for t in range(3):
        chunk = make_chunk(rng.random((60, 3)), rng.integers(0, 2, 60), rng.integers(0, 2, 60), t + 1)
        bank.fit_chunk(chunk)
    clone = MemoryBank.from_bytes(bank.to_bytes())
    assert clone.state_hash() == bank.state_hash()
    x = rng.random(3)
    alpha = rng.random(3)
    assert predict_one(clone, x, alpha) == predict_one(bank, x, alpha)


def test_bank_state_depends_on_features_and_labels_only():
    # Groups steer nothing in the memories: fitting the reference stream with
    # every group inverted leaves the same bank, bytes and votes alike,
    # through evictions, length cuts and compression passes.
    config = BiasStreamConfig.from_json(Path(__file__).parents[1] / "manifests" / "reference_stream.json")
    chunks = generate_bias_stream(dataclasses.replace(config, window_size=100))[:80]
    banks = [MemoryBank(config.n_features, stm_cap=120, ltm_cap=6) for _ in range(2)]
    alphas = np.random.default_rng(5).random((3, config.n_features))
    for chunk in chunks:
        banks[0].fit_chunk(chunk)
        banks[1].fit_chunk(make_chunk(chunk.features, 1 - chunk.groups, chunk.labels, chunk.index))
        assert banks[0].to_bytes() == banks[1].to_bytes()
        assert banks[0].state_hash() == banks[1].state_hash()
        votes = [FrozenChunkPredictor(chunk.features, bank).predict(alphas) for bank in banks]
        np.testing.assert_array_equal(votes[0], votes[1])
    assert banks[0].compress_count > 0 and banks[0].ltm_size > 0


def test_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        MemoryBank.from_bytes(b"not a snapshot at all")


def _fitted_snapshot(rng) -> bytes:
    bank = MemoryBank(2, stm_cap=30, ltm_cap=30, min_stm_size=8, seed=4)
    bank.fit_chunk(make_chunk(rng.random((20, 2)), rng.integers(0, 2, 20), rng.integers(0, 2, 20)))
    bank.replace_ltm(rng.random((12, 2)), rng.integers(0, 2, 12))
    return bank.to_bytes()


def test_snapshot_rejects_every_truncation(rng):
    blob = _fitted_snapshot(rng)
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            MemoryBank.from_bytes(blob[:cut])


def test_snapshot_rejects_trailing_bytes(rng):
    blob = _fitted_snapshot(rng)
    MemoryBank.from_bytes(blob)
    for extra in (b"\0", b"SAMB" + blob[4:12]):
        with pytest.raises(ValueError, match="trailing"):
            MemoryBank.from_bytes(blob + extra)


def test_snapshot_rejects_version_2_layout(rng):
    # Version 2 carried one more header byte, a per-instance adaptation flag;
    # version 3 a group byte per stored point, between its features and label.
    blob = _fitted_snapshot(rng)
    head = 4 + struct.calcsize(samknn._SNAPSHOT_HEAD)
    fields = list(struct.unpack(samknn._SNAPSHOT_HEAD, blob[4:head]))
    assert fields[0] == 4
    fields[0] = 2
    old = blob[:4] + struct.pack(samknn._SNAPSHOT_HEAD + "B", *fields, 0) + blob[head:]
    with pytest.raises(ValueError, match="unsupported snapshot version 2"):
        MemoryBank.from_bytes(_resealed(old))
    bank = MemoryBank.from_bytes(blob)
    v3 = version_3_snapshot(blob)
    assert len(v3) == len(blob) + bank.stm_size + bank.ltm_size
    with pytest.raises(ValueError, match="unsupported snapshot version 3"):
        MemoryBank.from_bytes(v3)


def test_replace_rejects_mismatched_or_non_binary_arrays():
    bank = MemoryBank(2)
    for args in (
        (np.zeros((3, 2)), [0, 1]),
        (np.zeros((2, 2)), [0, 7]),
        (np.zeros((2, 2)), [[0, 1]]),
    ):
        for replace in (bank.replace_stm, bank.replace_ltm):
            with pytest.raises(ValueError):
                replace(*args)
    assert bank.stm_size == bank.ltm_size == 0


def _resealed(blob: bytes) -> bytes:
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def test_snapshot_rejects_non_binary_labels_and_checksum_mismatch(rng):
    bank = bank_with_stm(rng.random((12, 2)), rng.integers(0, 2, 12), min_stm_size=6)
    blob = bank.to_bytes()
    assert MemoryBank.from_bytes(_resealed(blob)).state_hash() == bank.state_hash()
    # The STM labels are the last 12 bytes before the LTM count and the checksum.
    bad = bytearray(blob)
    bad[-8 - 12] = 7
    with pytest.raises(ValueError, match="0 or 1"):
        MemoryBank.from_bytes(_resealed(bytes(bad)))
    with pytest.raises(ValueError, match="checksum"):
        MemoryBank.from_bytes(bytes(bad))


@pytest.mark.parametrize("pair", [(math.nan, 1.0), (-3.0, 1.0), (5.0, 1.0), (math.inf, math.inf)])
def test_snapshot_rejects_impossible_trackers(rng, pair):
    # A fit's decayed (correct, total) sums start at (0, 0) and never let
    # correct pass total; a pair that no fit leaves would read as a tracked
    # accuracy of NaN, -3 or 5.
    blob = _fitted_snapshot(rng)
    at = 4 + struct.calcsize(samknn._SNAPSHOT_HEAD)
    for tracker in range(3):
        start = at + 16 * tracker
        with pytest.raises(ValueError, match="trackers"):
            MemoryBank.from_bytes(_resealed(blob[:start] + struct.pack("<2d", *pair) + blob[start + 16 :]))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_snapshot_with_one_flipped_byte_is_rejected_or_exact(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    blob = _fitted_snapshot(rng)
    bank = MemoryBank.from_bytes(blob)
    flipped = bytearray(blob)
    flipped[data.draw(st.integers(0, len(blob) - 1), label="at")] ^= data.draw(st.integers(1, 255), label="xor")
    try:
        clone = MemoryBank.from_bytes(bytes(flipped))
    except ValueError:
        return
    assert clone.to_bytes() == blob and clone.state_hash() == bank.state_hash()


# -- carried STM bands ------------------------------------------------------------


def _grid_stream(rng, d, windows, n, grid=3):
    return [
        make_chunk(rng.integers(0, grid, (n, d)), rng.integers(0, 2, n), rng.integers(0, 2, n), t + 1)
        for t in range(windows)
    ]


def test_snapshot_midstream_continues_like_uninterrupted_bank(rng):
    # The bands are not in the snapshot: the restored bank rebuilds them from
    # its STM and must then fit every later window exactly as the original.
    kwargs = dict(k=3, stm_cap=70, ltm_cap=30, min_stm_size=8, seed=2)
    chunks = _grid_stream(rng, 2, 8, 40)
    whole, resumed = MemoryBank(2, **kwargs), None
    for t, chunk in enumerate(chunks):
        whole.fit_chunk(chunk)
        if t == 2:
            resumed = MemoryBank.from_bytes(whole.to_bytes())
        elif resumed is not None:
            resumed.fit_chunk(chunk)
            assert resumed.state_hash() == whole.state_hash()
    assert whole.stm_size < kwargs["stm_cap"]  # the length re-fit cut the STM


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fitted_bands_hold_the_nearest_skyband_members_in_order(data):
    # A band is its row's candidates sorted by (distance, position) and cut
    # at _BAND_LEN. Integer grids tie many distances; windows may exceed the
    # STM cap, so rows are evicted in-window; the length re-fit cuts the
    # STM; blocks run from one row to the default budget; and bands cut at
    # 2 or 5 codes make the re-fit fall back to distances.
    d = data.draw(st.integers(1, 3), label="d")
    k = data.draw(st.integers(1, 5), label="k")
    band_len = data.draw(st.sampled_from([2, 5, 64]), label="band_len")
    budget = data.draw(st.sampled_from([1, 1 << 7, _BLOCK_ELEMENTS]), label="budget")
    stm_cap = data.draw(st.integers(k + 2, 40), label="stm_cap")
    grid = data.draw(st.integers(2, 4), label="grid")
    windows = data.draw(st.integers(1, 4), label="windows")
    n = data.draw(st.integers(1, 60), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    chunks = _grid_stream(rng, d, windows, n, grid)
    features = np.vstack([c.features for c in chunks])
    labels = np.concatenate([c.labels for c in chunks])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samknn, "_BAND_LEN", band_len)
        mp.setattr(samknn, "_BLOCK_ELEMENTS", budget)
        bank = MemoryBank(d, k=k, stm_cap=stm_cap, ltm_cap=9, min_stm_size=k + 1, seed=1)
        for t, chunk in enumerate(chunks):
            bank.fit_chunk(chunk)
            assert_bands_hold_their_skybands(bank, features[: (t + 1) * n], labels[: (t + 1) * n])


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_band_errors_match_reference_after_prefix_drops(data):
    # Integer grids tie many distances; dropping a prefix leaves band entries
    # of points no longer in the STM, which must fall off.
    d = data.draw(st.integers(1, 3), label="d")
    k = data.draw(st.integers(1, 5), label="k")
    n = data.draw(st.integers(k + 2, 60), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    feats = rng.integers(0, 3, (n, d)).astype(float)
    labels = rng.integers(0, 2, n).astype(np.uint8)
    bank = bank_with_stm(feats, labels, k=k, min_stm_size=k + 1, stm_cap=n)
    bands = bank._stm_band
    for drop in sorted(data.draw(st.lists(st.integers(0, n - k - 2), min_size=1, max_size=4), label="drops")):
        f, y = feats[drop:], labels[drop:]
        sizes = _candidate_sizes(len(y), k + 1)
        assert _window_errors(bands[drop:], f, y, sizes, k) == reference_interleaved_errors(f, y, sizes, k)


def test_adversarial_stream_cuts_bands_and_falls_back_to_distances(monkeypatch):
    # 150 points on axis 0, then one point far out on each other axis: for
    # those, distance grows with position, so every predecessor is in the
    # band and the kept 64 are the oldest. Windows that start past them must
    # recompute those rows from distances.
    d, line = 8, 150
    feats = np.zeros((line + d - 1, d))
    feats[:line, 0] = np.arange(line)
    feats[line:, 1:] = 1000.0 * np.eye(d - 1)
    labels = (np.arange(len(feats)) % 3 == 0).astype(np.uint8)
    chunks = [make_chunk(feats[:100], labels[:100] ^ 1, labels[:100], 1),
              make_chunk(feats[100:], labels[100:] ^ 1, labels[100:], 2)]
    kwargs = dict(k=3, stm_cap=400, ltm_cap=400, min_stm_size=10)
    fallbacks = []
    exact = samknn._exact_votes
    monkeypatch.setattr(samknn, "_exact_votes", lambda *a, **kw: fallbacks.append(len(a[0])) or exact(*a, **kw))
    bank, reference = MemoryBank(d, **kwargs), MemoryBank(d, **kwargs)
    for chunk in chunks:
        bank.fit_chunk(chunk)
        reference_fit_chunk(reference, chunk)
        assert bank.state_hash() == reference.state_hash()
    assert (bank._stm_band[line:] != samknn._BAND_END).all()
    assert sum(fallbacks) > 0


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fit_chunk_matches_reference_with_short_bands(data):
    # Bands cut at 3 entries and candidate lists at 6 make the exact-row
    # fallback and the candidate cap run all the time.
    d = data.draw(st.integers(1, 3), label="d")
    k = data.draw(st.integers(1, 3), label="k")
    kwargs = dict(k=k, stm_cap=data.draw(st.integers(5, 40), label="stm_cap"), ltm_cap=9, min_stm_size=k + 1, seed=1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    chunks = _grid_stream(rng, d, data.draw(st.integers(1, 4), label="windows"), data.draw(st.integers(1, 30), label="n"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samknn, "_BAND_LEN", 3)
        mp.setattr(samknn, "_BAND_CANDIDATES", 6)
        bank, reference = MemoryBank(d, **kwargs), MemoryBank(d, **kwargs)
        for chunk in chunks:
            bank.fit_chunk(chunk)
            reference_fit_chunk(reference, chunk)
            assert bank.state_hash() == reference.state_hash()


def test_band_state_is_linear_in_stm_size():
    # Carried bands take _BAND_LEN codes per STM point; a pairwise block
    # would take STM^2 floats (128 MB at 4000 points).
    rng = np.random.default_rng(3)
    d = 4
    kept, peaks = [], []
    for n in (1000, 4000):
        features, labels = rng.random((n, d)), rng.integers(0, 2, n)
        bank = MemoryBank(d, stm_cap=n)
        tracemalloc.start()
        try:
            bank.replace_stm(features, labels)
            kept.append(tracemalloc.get_traced_memory()[0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert bank._stm_band.nbytes == n * samknn._BAND_LEN * 4
        # features, labels and bands; little else stays
        assert kept[-1] < n * (8 * d + 1 + 4 * samknn._BAND_LEN) + 64 * 1024
    assert peaks[1] < kept[1] + 3 * 8 * _BLOCK_ELEMENTS
