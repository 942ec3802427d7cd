import math
import os
import struct
import sys
import threading
import time
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chunk
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
    brute_clean_mask,
    brute_knn_vote,
    interleaved_error,
    reference_fit_chunk,
    reference_interleaved_errors,
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
    # the kernel's squared distances of x to the memory, one (d, 1, m) block
    sq = ((feats - x) ** 2).T[:, None, :]
    base = samknn._feature_sums(alpha * alpha, sq)
    np.testing.assert_allclose(samknn._feature_sums((c * alpha) ** 2, sq), c * c * base, rtol=1e-9)
    assert bank.predict(x, alpha) == bank.predict(x, c * alpha)


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
    assert bank.predict(np.array([0.1, 0.1]), np.ones(2)) == 0


def test_predict_masked_feature_by_hand():
    bank = bank_with_stm([[0.0, 0.0], [1.0, 1.0]], [0, 1], k=1, min_stm_size=2)
    # first feature masked out, so only the second coordinate matters
    assert bank.predict(np.array([0.1, 0.9]), np.array([0.0, 1.0])) == 1


def test_predict_vote_tie_goes_to_one():
    bank = bank_with_stm([[0.0], [0.2], [0.4], [0.6]], [0, 1, 0, 1], k=4, min_stm_size=5)
    assert bank.predict(np.array([0.3]), np.ones(1)) == 1


def test_predict_distance_tie_prefers_earlier_position():
    # two points equidistant from the query with opposite labels; k=1 must
    # take the earlier memory entry
    bank = bank_with_stm([[0.4], [0.6]], [0, 1], k=1, min_stm_size=2)
    assert bank.predict(np.array([0.5]), np.ones(1)) == 0
    bank2 = bank_with_stm([[0.6], [0.4]], [1, 0], k=1, min_stm_size=2)
    assert bank2.predict(np.array([0.5]), np.ones(1)) == 1


def test_predict_rejects_empty_stm_and_bad_shape():
    bank = MemoryBank(2)
    with pytest.raises(ValueError):
        bank.predict(np.array([0.1, 0.2]), np.ones(2))
    bank.replace_stm(np.array([[0.1, 0.2]]), np.array([1], dtype=np.uint8))
    with pytest.raises(ValueError):
        bank.predict(np.array([0.1]), np.ones(2))


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
        assert bank.predict(x, np.ones(3)) == sam_reference_predict(bank, x)


def test_weighted_prediction_matches_brute_force(rng):
    feats = rng.random((40, 4))
    labels = rng.integers(0, 2, 40).astype(np.uint8)
    bank = bank_with_stm(feats, labels, min_stm_size=6)
    for _ in range(10):
        x = rng.random(4)
        alpha = rng.random(4)
        assert bank.predict(x, alpha) == brute_knn_vote(x, feats, labels, 5, alpha)


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
    assert bank.predict(np.array([0.0, 0.1]), np.ones(2)) == 1

    # tie order prefers the STM
    bank._trackers["stm"] = [10.0, 10.0]
    assert bank.predict(np.array([0.0, 0.1]), np.ones(2)) == 0


# -- batch predictor ---------------------------------------------------------------


@pytest.mark.parametrize("budget", [None, 1])
def test_batch_predictions_equal_single_queries(rng, budget):
    feats = rng.random((50, 3))
    labels = rng.integers(0, 2, 50).astype(np.uint8)
    bank = bank_with_stm(feats, labels, min_stm_size=6)
    queries = rng.random((20, 3))
    kwargs = {} if budget is None else {"budget": budget}
    predictor = FrozenChunkPredictor(queries, bank, **kwargs)
    for alpha in (np.ones(3), rng.random(3), np.zeros(3)):
        batch = predictor.predict(alpha)
        single = [bank.predict(queries[i], alpha) for i in range(len(queries))]
        np.testing.assert_array_equal(batch, single)


GRID_WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_stacked_predictions_match_brute_oracle_on_ties(data):
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
    rows = data.draw(st.lists(st.lists(GRID_WEIGHTS, min_size=d, max_size=d), min_size=1, max_size=4))
    alphas = np.array(rows + [[0.0] * d])  # an all-zero member every time
    bank = bank_with_stm(mem, labels, k=k, min_stm_size=k + 1, stm_cap=max(m, 1))
    want = [[brute_knn_vote(q, mem, labels, k, a) for q in queries] for a in alphas]
    for block_rows in (1, 7, None):
        kwargs = {} if block_rows is None else {"budget": block_rows * m * len(alphas)}
        got = FrozenChunkPredictor(queries, bank, **kwargs).predict(alphas)
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
        want = [[bank.predict(q, a) for q in queries] for a in alphas]
        for kwargs in ({}, {"budget": 1}):
            np.testing.assert_array_equal(FrozenChunkPredictor(queries, bank, **kwargs).predict(alphas), want)


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
        # a block of r rows holds its S distance planes, r * m * S values
        kwargs = {} if block_rows is None else {"budget": block_rows * m * len(alphas)}
        np.testing.assert_array_equal(FrozenChunkPredictor(queries, bank, **kwargs).predict(alphas), want)
    got = [[bank.predict(q, a) for q in queries] for a in alphas]
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


def planes_at_the_error_bound(npos, push):
    """A screen hook whose planes sit at the edge of the documented error bound.

    Each element is the exact weighted squared distance D of the centred
    query and memory point, moved by rho0 * T + A0 (the ``_weighted_votes``
    docstring: rho0 = (2d + 7) 2^-53, A0 = (2 sum M' + 8d + 8) 2^-1074,
    T = sum_f w_f (|x'_f| + M'_f)^2) and rounded back inside it: up for the
    ``npos`` positive columns and down for the rest when ``push`` is 1,
    the other way when it is -1. Exact rational arithmetic throughout.
    """

    def hook(xc, w, xn, aug, mn, planes):
        d = xc.shape[1]
        memory = [[Fraction(v) for v in point] for point in aug[:d].T.tolist()]
        reach = [max(abs(point[f]) for point in memory) for f in range(d)]
        rho0 = Fraction(2 * d + 7, 2**53)
        a0 = (2 * sum(reach) + 8 * d + 8) / Fraction(2**1074)
        for s, ws in enumerate(w.tolist()):
            ws = [Fraction(v) for v in ws]
            for i, x in enumerate(xc.tolist()):
                x = [Fraction(v) for v in x]
                bound = rho0 * sum(wf * (abs(xf) + mf) ** 2 for wf, xf, mf in zip(ws, x, reach)) + a0
                for j, point in enumerate(memory):
                    exact = sum(wf * (yf - xf) ** 2 for wf, xf, yf in zip(ws, x, point))
                    g = float(exact + (bound if (j < npos) == (push > 0) else -bound))
                    if abs(Fraction(g) - exact) > bound:
                        g = math.nextafter(g, -math.inf if g > exact else math.inf)
                    planes[s, i, j] = g
        return planes

    return hook


def count_fallback_rows(mp):
    """Patch the kernel's fallback reduction to count the rows it recomputes; returns the count list."""
    feature_sums, rows = samknn._feature_sums, []

    def counted(w, sq):
        rows.append(sq.shape[1])
        return feature_sums(w, sq)

    mp.setattr(samknn, "_feature_sums", counted)
    return rows


def test_screen_votes_hold_with_planes_at_the_edge_of_the_error_bound():
    # Every plane element sits as far from the exact sum as the documented
    # bound allows, towards a flipped vote: positives up and negatives down,
    # then the other way. Near-tie memories make the t-th positive and the
    # u-th negative of each row a pair with equal exact sums, so a margin
    # smaller than twice the bound on each side certifies a wrong vote.
    # Weights of 1e-160 or less square to subnormals, where only the
    # absolute term A covers the rounding; ordinary weights need the
    # relative term rho.
    rng = np.random.default_rng(11)
    for trial in range(18):
        d, k = (1, 3, 8, 13)[trial % 4], (1, 3, 5)[trial % 3]
        mem, labels, queries = near_tie_memory(rng, d, 1.0, (k + 1) // 2)
        centre = samknn._label_ordered(mem, labels).centre
        # grid data: centring is exact, so the exact centred sum is D itself
        for v in np.vstack([mem, queries]):
            assert all(Fraction(float(a - c)) == Fraction(a) - Fraction(c) for a, c in zip(v.tolist(), centre.tolist()))
        tiny = np.full(d, rng.random() * 1e-160)
        mixed = np.where(rng.random(d) < 0.5, rng.random() * 1e-161, rng.random())
        alphas = np.vstack([np.full(d, rng.random()), tiny, mixed])
        positive = labels == 1
        want = np.array([samknn._vote_rows(python_sq_sums(queries, mem, a * a), positive, k) for a in alphas])
        bank = bank_with_stm(mem, labels, k=k, min_stm_size=k + 1, stm_cap=len(mem))
        for push in (1, -1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(samknn, "_screen_planes", planes_at_the_error_bound(int(positive.sum()), push))
                fallback = count_fallback_rows(mp)
                np.testing.assert_array_equal(FrozenChunkPredictor(queries, bank).predict(alphas), want)
            assert sum(fallback) > 0  # the pushed near ties fell inside the margin


def test_screen_certifies_offset_and_scaled_streams():
    # Centring keeps the margin proportional to the data's spread: a stream
    # like the reference one, shifted by 1e6 or scaled by 1e-3, sends at most
    # 1% of (vector, row) pairs to the fallback, with every vote exact.
    # Integer grids, whose exact ties only position decides, still reach it.
    config = BiasStreamConfig(
        n_instances=500, proxy_strength=0.8, base_rates=GroupRates(0.65, 0.35), seed=11, window_size=500
    )
    (chunk,) = generate_bias_stream(config)
    rng = np.random.default_rng(3)
    mem, labels, queries = chunk.features[:400], chunk.labels[:400], chunk.features[400:]
    alphas = np.vstack([np.ones(chunk.n_features), rng.random((2, chunk.n_features))])
    grid_mem, grid_queries = rng.integers(0, 3, (40, 3)).astype(float), rng.integers(0, 3, (60, 3)).astype(float)
    grid_alphas = np.vstack([np.ones(3), rng.choice([0.5, 1.0], (2, 3))])
    for (mem, labels, queries), alphas, offset in (
        ((mem + 1e6, labels, queries + 1e6), alphas, True),
        ((mem * 1e-3, labels, queries * 1e-3), alphas, True),
        ((grid_mem, rng.integers(0, 2, 40), grid_queries), grid_alphas, False),
    ):
        want = np.array([samknn._vote_rows(python_sq_sums(queries, mem, a * a), labels == 1, 5) for a in alphas])
        bank = bank_with_stm(mem, labels, k=5, stm_cap=len(mem))
        with pytest.MonkeyPatch.context() as mp:
            fallback = count_fallback_rows(mp)
            np.testing.assert_array_equal(FrozenChunkPredictor(queries, bank).predict(alphas), want)
        if offset:
            assert sum(fallback) <= 0.01 * want.size
        else:
            assert sum(fallback) > 0


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
        bank.predict(query, np.ones(2))
    with pytest.raises(ValueError, match="magnitude"):
        FrozenChunkPredictor(np.vstack([ok, query]), bank)
    assert bank.predict(ok[1], np.zeros(2)) == 0


def test_every_distance_is_the_left_to_right_feature_sum():
    # Maintenance distances, and the kernel distances every vote rests on,
    # must equal plain Python-float sums added left to right over the
    # features, for any block shape: ragged memory sizes, one-row and
    # one-point blocks, up to the 108 features of one-hot data. The kernel's
    # BLAS planes only screen votes, so its votes must equal _vote_rows on the
    # Python sums, and each row it recomputes (captured where the fallback
    # reduces a row's block) must get exactly those sums. A screen that
    # certifies nothing (NaN planes) sends every row to the fallback. Mixed
    # labels and k = 1 give every query a screened vote whenever the memory
    # has two or more points.
    rng = np.random.default_rng(5)
    feature_sums = samknn._feature_sums

    def certify_nothing(*args):
        planes = args[-1]
        planes.fill(np.nan)
        return planes

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
        kernel_order = np.argsort(labels != 1, kind="stable")
        want_votes = samknn._vote_rows(want, labels == 1, 1)
        exact_rows = {row.tobytes() for row in want[:, kernel_order]}
        for rows in (1, 3, n):
            buf = np.empty(rows * m * d)
            got = np.vstack([samknn._sq_dists(queries[b : b + rows], mem.T, buf) for b in range(0, n, rows)])
            np.testing.assert_array_equal(got, unweighted)
            if m == 1:
                continue  # one memory point: the vote needs no distance
            for screen in (samknn._screen_planes, certify_nothing):
                seen = []

                def capture(w, sq):
                    plane = feature_sums(w, sq)
                    seen.append(plane.copy())
                    return plane

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(samknn, "_feature_sums", capture)
                    mp.setattr(samknn, "_screen_planes", screen)
                    # one worker: threads would append their rows interleaved
                    mp.setattr(samknn, "_cpu_count", lambda: 1)
                    votes = FrozenChunkPredictor(queries, bank, budget=rows * m).predict(alpha)
                np.testing.assert_array_equal(votes, want_votes)
                if screen is certify_nothing:
                    np.testing.assert_array_equal(np.vstack(seen), want[:, kernel_order])
                else:
                    assert all(row.tobytes() in exact_rows for plane in seen for row in plane)


def test_stacked_row_equals_single_vector_call(rng):
    feats = rng.random((300, 4))
    labels = rng.integers(0, 2, 300).astype(np.uint8)
    bank = bank_with_stm(feats, labels, min_stm_size=6, stm_cap=300)
    predictor = FrozenChunkPredictor(rng.random((90, 4)), bank, budget=7 * 300 * 6)
    alphas = np.vstack([rng.random((4, 4)), np.zeros(4), [0.0, 1.0, 0.0, 0.5]])
    stacked = predictor.predict(alphas)
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
    with pytest.raises(ValueError):
        bank.predict(np.zeros(3), np.ones((2, 3)))


def test_batch_predictor_frozen_against_later_fits(rng):
    feats = rng.random((30, 3))
    labels = rng.integers(0, 2, 30).astype(np.uint8)
    # stm_cap 30: the fit below evicts every row the predictors were built
    # from, and the bank's arrays must not change under them
    bank = bank_with_stm(feats, labels, min_stm_size=6, stm_cap=30)
    queries = rng.random((8, 3))
    predictors = [FrozenChunkPredictor(queries, bank), FrozenChunkPredictor(queries, bank, budget=1)]
    before = [p.predict(np.ones(3)) for p in predictors]
    chunk = make_chunk(rng.random((40, 3)), rng.integers(0, 2, 40), rng.integers(0, 2, 40))
    bank.fit_chunk(chunk)
    for predictor, want in zip(predictors, before):
        np.testing.assert_array_equal(predictor.predict(np.ones(3)), want)


# -- kernel threads -----------------------------------------------------------------


def predict_at_workers(workers, queries, bank, alphas, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samknn, "_cpu_count", lambda: workers)
        mp.setattr(samknn, "_THREAD_WORK", 1)
        return FrozenChunkPredictor(queries, bank, **kwargs).predict(alphas)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_worker_votes_equal_one_worker_on_tied_grids(data):
    # Integer grids tie many distances, so blocks on any worker take the
    # _vote_rows fallback.
    d = data.draw(st.integers(1, 4), label="d")
    m = data.draw(st.integers(2, 25), label="m")
    n = data.draw(st.integers(1, 30), label="n")
    k = data.draw(st.integers(1, min(m + 3, 9)), label="k")
    grid = st.integers(0, 2)
    mem = np.array(data.draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=m, max_size=m)), dtype=float)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), dtype=np.uint8)
    queries = np.array(data.draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float)
    rows = data.draw(st.lists(st.lists(GRID_WEIGHTS, min_size=d, max_size=d), min_size=1, max_size=3))
    alphas = np.array(rows + [[0.0] * d, [0.0] + [1.0] * (d - 1)])
    bank = bank_with_stm(mem, labels, k=k, min_stm_size=k + 1, stm_cap=m)
    for budget in (1, 7 * m * len(alphas), _BLOCK_ELEMENTS):
        want = predict_at_workers(1, queries, bank, alphas, budget=budget)
        for workers in (2, 3):
            np.testing.assert_array_equal(predict_at_workers(workers, queries, bank, alphas, budget=budget), want)


def test_worker_exception_in_a_later_block_reaches_caller(rng):
    bank = bank_with_stm(rng.random((40, 3)), rng.integers(0, 2, 40), min_stm_size=6)
    queries = rng.random((30, 3))
    caller = threading.current_thread()
    screen_planes = samknn._screen_planes
    worker_in_block = threading.Event()
    over = []

    def off_caller(fail):
        def patched(*args):
            if threading.current_thread() is caller:
                # hold the caller's first block until a worker has taken one
                assert worker_in_block.wait(10)
                return screen_planes(*args)
            over.append(np.geterr()["over"])
            worker_in_block.set()
            if fail:
                raise ArithmeticError("worker failed")
            return screen_planes(*args)

        return patched

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samknn, "_screen_planes", off_caller(True))
        with pytest.raises(ArithmeticError, match="worker failed"):
            predict_at_workers(3, queries, bank, np.ones(3), budget=40)
        # the caller's numpy error state holds in the workers' blocks too
        worker_in_block.clear()
        over.clear()
        mp.setattr(samknn, "_screen_planes", off_caller(False))
        with np.errstate(over="raise"):
            predict_at_workers(3, queries, bank, np.ones(3), budget=40)
    assert over and set(over) == {"raise"}
    assert threading.active_count() == before


def test_worker_votes_hold_under_rapid_thread_switching(rng):
    # More workers than cores, switching threads every microsecond: a block
    # lost, run twice or written by the wrong worker would leave wrong votes.
    m, d = 300, 4
    bank = bank_with_stm(rng.integers(0, 3, (m, d)).astype(float), rng.integers(0, 2, m), min_stm_size=6, stm_cap=m)
    queries = rng.integers(0, 3, (97, d)).astype(float)
    alphas = rng.choice([0.0, 0.5, 1.0], (6, d))
    budget = 3 * m * len(alphas)
    want = predict_at_workers(1, queries, bank, alphas, budget=budget)
    assert 0 < want.mean() < 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    runs = 0
    try:
        deadline = time.monotonic() + 2.0
        while runs < 100 and time.monotonic() < deadline:
            np.testing.assert_array_equal(predict_at_workers(4, queries, bank, alphas, budget=budget), want)
            runs += 1
    finally:
        sys.setswitchinterval(interval)
    assert runs > 0


def test_worker_threads_start_only_with_cpus_and_row_blocks(rng, monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    bank = bank_with_stm(rng.random((50, 3)), rng.integers(0, 2, 50), min_stm_size=6)
    queries = rng.random((20, 3))
    alphas = rng.random((2, 3))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_cpu = FrozenChunkPredictor(queries, bank, budget=1).predict(alphas)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    FrozenChunkPredictor(queries, bank, budget=1).predict(alphas)
    monkeypatch.setattr(samknn, "_cpu_count", lambda: 3)
    # 20 x 50 x 3 x 2 = 6000 weighted differences: two threads need 2 x 3000
    monkeypatch.setattr(samknn, "_THREAD_WORK", 3001)
    FrozenChunkPredictor(queries, bank, budget=1).predict(alphas)
    monkeypatch.setattr(samknn, "_THREAD_WORK", 1)
    bank.predict(queries[0], alphas[0])
    FrozenChunkPredictor(queries, bank).predict(alphas)  # one row block
    assert started == []
    monkeypatch.setattr(samknn, "_THREAD_WORK", 3000)
    np.testing.assert_array_equal(FrozenChunkPredictor(queries, bank, budget=1).predict(alphas), one_cpu)
    assert 1 <= len(started) <= 2  # the pool may hand a finished thread the next call
    assert not any(thread.is_alive() for thread in started)


def test_worker_threads_run_bound_to_their_own_cpus(rng, monkeypatch):
    bank = bank_with_stm(rng.random((40, 3)), rng.integers(0, 2, 40), min_stm_size=6)
    queries = rng.random((30, 3))
    want = predict_at_workers(1, queries, bank, np.ones(3), budget=40)
    if hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2:
        cpus = sorted(os.sched_getaffinity(0))
        before = os.sched_getaffinity(0)
        caller = threading.current_thread()
        screen_planes = samknn._screen_planes
        bound = {"caller": set(), "worker": set()}

        def record(fail):
            # both threads hold a block at once before either goes on
            both_in_a_block = threading.Barrier(2, timeout=10)
            waited = set()

            def patched(*args):
                me = threading.current_thread()
                if me not in waited:
                    waited.add(me)
                    both_in_a_block.wait()
                bound["caller" if me is caller else "worker"].add(frozenset(os.sched_getaffinity(0)))
                if fail and me is caller:
                    raise ArithmeticError("caller failed")
                return screen_planes(*args)

            return patched

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(samknn, "_screen_planes", record(False))
            np.testing.assert_array_equal(predict_at_workers(2, queries, bank, np.ones(3), budget=40), want)
            assert bound == {"caller": {frozenset(cpus[:1])}, "worker": {frozenset(cpus[1:2])}}
            assert os.sched_getaffinity(0) == before
            mp.setattr(samknn, "_screen_planes", record(True))
            with pytest.raises(ArithmeticError, match="caller failed"):
                predict_at_workers(2, queries, bank, np.ones(3), budget=40)
            assert os.sched_getaffinity(0) == before

    # binding is best effort: a refused request, or a platform with no CPU
    # affinity, leaves the threads unbound and the votes unchanged
    def refuse(pid, mask):
        raise OSError("refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    np.testing.assert_array_equal(predict_at_workers(3, queries, bank, np.ones(3), budget=40), want)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    np.testing.assert_array_equal(predict_at_workers(3, queries, bank, np.ones(3), budget=40), want)


def test_screen_products_stay_below_blas_threading_size(rng, monkeypatch):
    # A larger BLAS product may run on BLAS's own threads, which compete with
    # the kernel's threads for the CPUs when the BLAS thread count is unset.
    matmul, sizes = np.matmul, []

    def counted(a, b, **kwargs):
        sizes.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, **kwargs)

    m, d = 3000, 8
    bank = bank_with_stm(rng.random((m, d)), rng.integers(0, 2, m), min_stm_size=6, stm_cap=m)
    predictor = FrozenChunkPredictor(rng.random((40, d)), bank)
    alphas = rng.random((30, d))
    want = predictor.predict(alphas)
    monkeypatch.setattr(np, "matmul", counted)
    np.testing.assert_array_equal(predictor.predict(alphas), want)
    # one (rows, d + 2) @ (d + 2, m) product per weight vector and row block
    assert sum(sizes) == 40 * m * (d + 2) * 30 and max(sizes) <= samknn._SCREEN_CALL


def test_stacked_call_scratch_is_one_block_per_worker(rng):
    # the whole query x memory difference tensor would take n*m*d*8 bytes:
    # 19 MB for the small case and 77 MB for the large one
    d, workers = 8, 3
    peaks = []
    for n, m in ((300, 1000), (600, 2000)):
        bank = bank_with_stm(rng.random((m, d)), rng.integers(0, 2, m), min_stm_size=6, stm_cap=m)
        predictor = FrozenChunkPredictor(rng.random((n, d)), bank)
        alphas = rng.random((4, d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(samknn, "_cpu_count", lambda: workers)
            mp.setattr(samknn, "_THREAD_WORK", 1)
            tracemalloc.start()
            try:
                predictor.predict(alphas)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    # each worker: its S distance planes (one budget) and its copy of the memory operand
    assert max(peaks) < workers * 1.5 * 8 * _BLOCK_ELEMENTS
    assert peaks[1] < 1.5 * peaks[0]


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


def test_fit_chunk_matches_reference_at_the_feature_bound():
    # Chunk caps feature magnitudes at _FEATURE_BOUND. Coordinates of 1e200
    # overflowed squared gaps to inf, which broke this equality and made
    # k-means seeding divide inf by inf; at the bound every sum stays finite.
    rng = np.random.default_rng(8)
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
            with np.errstate(all="raise"):
                bank.fit_chunk(chunk)
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


def test_fit_chunk_peak_memory_does_not_grow_with_window_times_stm():
    # whole window x (STM + window) difference tensors would take
    # n*2n*d*8 bytes: 64 MB for the small case and 1 GB for the large one
    rng = np.random.default_rng(0)
    d = 16
    peaks = []
    for n in (500, 2000):
        bank = MemoryBank(d, stm_cap=n, ltm_cap=n, min_stm_size=n // 4)
        bank.replace_stm(rng.random((n, d)), rng.integers(0, 2, n))
        bank.replace_ltm(rng.random((n // 10, d)), rng.integers(0, 2, n // 10))
        chunk = make_chunk(rng.random((n, d)), rng.integers(0, 2, n), rng.integers(0, 2, n))
        tracemalloc.start()
        try:
            bank.fit_chunk(chunk)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 3 * 8 * _BLOCK_ELEMENTS
    assert peaks[1] < 1.5 * peaks[0]


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
    rng = np.random.default_rng(seed)
    n_ref = int(rng.integers(2, 30))
    n_tgt = int(rng.integers(1, 30))
    reference = rng.random((n_ref, 2))
    ref_labels = rng.integers(0, 2, n_ref).astype(np.uint8)
    target = rng.random((n_tgt, 2))
    target_labels = rng.integers(0, 2, n_tgt).astype(np.uint8)
    k = int(rng.integers(1, 6))
    got = clean(target, target_labels, reference, ref_labels, k)
    want = brute_clean_mask(target, target_labels, reference, ref_labels, k)
    np.testing.assert_array_equal(got, want)


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


def test_stationary_stm_keeps_full_window(rng):
    # perfectly separable labels: error 0 at every size, tie -> largest
    feats = np.vstack([rng.random((60, 1)) * 0.3, 0.7 + rng.random((60, 1)) * 0.3])
    labels = np.array([0] * 60 + [1] * 60, dtype=np.uint8)
    order = rng.permutation(120)
    bank = bank_with_stm(feats[order], labels[order], min_stm_size=20, stm_cap=200)
    assert bank.adapt_stm_size() == 120
    assert bank.ltm_size == 0


def test_concept_flip_shrinks_stm(rng):
    # first half labels f(x), second half labels 1-f(x): suffix windows
    # excluding the stale half score strictly better
    n_half = 60
    x = rng.random((2 * n_half, 1))
    rule = (x[:, 0] > 0.5).astype(np.uint8)
    labels = np.concatenate([1 - rule[:n_half], rule[n_half:]]).astype(np.uint8)
    bank = bank_with_stm(x, labels, min_stm_size=10, stm_cap=200)
    adopted = bank.adapt_stm_size()
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
    assert bank.adapt_stm_size() == n_half
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
    # for the small case and 164 MB for the large one
    rng = np.random.default_rng(0)
    peaks = []
    for n in (400, 1600):
        points = rng.random((n, 16))
        tracemalloc.start()
        try:
            _kmeans(points, n // 2, np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 3 * 8 * _BLOCK_ELEMENTS
    assert peaks[1] < 1.5 * peaks[0]


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
    assert clone.predict(x, alpha) == bank.predict(x, alpha)


def test_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        MemoryBank.from_bytes(b"not a snapshot at all")


def _fitted_snapshot(rng) -> bytes:
    bank = MemoryBank(2, stm_cap=30, ltm_cap=30, min_stm_size=8, seed=4)
    bank.fit_chunk(make_chunk(rng.random((20, 2)), rng.integers(0, 2, 20), rng.integers(0, 2, 20)))
    bank.replace_ltm(rng.random((12, 2)), rng.integers(0, 2, 12), rng.integers(0, 2, 12))
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
    # Version 2 carried one more header byte, a per-instance adaptation flag.
    blob = _fitted_snapshot(rng)
    head = 4 + struct.calcsize(samknn._SNAPSHOT_HEAD)
    fields = list(struct.unpack(samknn._SNAPSHOT_HEAD, blob[4:head]))
    assert fields[0] == 3
    fields[0] = 2
    old = blob[:4] + struct.pack(samknn._SNAPSHOT_HEAD + "B", *fields, 0) + blob[head:]
    with pytest.raises(ValueError, match="unsupported snapshot version 2"):
        MemoryBank.from_bytes(_resealed(old))


def test_replace_rejects_mismatched_or_non_binary_arrays():
    bank = MemoryBank(2)
    for args in (
        (np.zeros((3, 2)), [0, 1]),
        (np.zeros((2, 2)), [0, 1], [0, 1, 1]),
        (np.zeros((2, 2)), [0, 7]),
        (np.zeros((2, 2)), [0, 1], [0, 2]),
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
    monkeypatch.setattr(samknn, "_exact_votes", lambda *a: fallbacks.append(len(a[3])) or exact(*a))
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
        # features, groups, labels and bands; little else stays
        assert kept[-1] < n * (8 * d + 2 + 4 * samknn._BAND_LEN) + 64 * 1024
    assert peaks[1] < kept[1] + 3 * 8 * _BLOCK_ELEMENTS
