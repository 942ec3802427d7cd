"""Self-adjusting two-memory KNN with per-feature distance weights.

Two instance stores back every prediction. The short-term memory (STM) is a
FIFO window over the most recent instances whose length is re-fitted after
every chunk by comparing the interleaved test-then-train error of suffix
windows of halving size. The long-term memory (LTM) accumulates what the STM
discards, kept consistent with the STM by a radius-based cleaning rule and
bounded by per-class k-means compression. Three sub-classifiers (STM only,
LTM only, both together) are tracked with exponentially decayed prequential
accuracy; predictions come from whichever currently looks best.

Distances are Euclidean with one non-negative weight per feature:

    dist(a, b; alpha) = sqrt(sum_f alpha_f^2 (a_f - b_f)^2)

so all-ones weights reproduce plain Euclidean distance, and scaling every
weight by a constant rescales all distances without changing any neighbor
set. Memory management (tracker updates, cleaning, size adaptation,
compression) always runs unweighted; weights only steer predictions.

Every squared distance in this module, weighted or not, is defined by one
formula added in a fixed order: ``sum_f w_f * (m_f - x_f)^2`` with
``w_f = alpha_f^2`` (1 when unweighted), left to right over the features.
Cleaning, k-means, the absorb's LTM distances, the re-fit's fallback rows
and the prediction kernel's fallback compute it for a block of points
against a whole memory (:func:`_sq_dists`): the memory is passed
transposed as (d, m), and each feature in turn writes its (r, m) plane of
terms and adds it to the sums. The window absorb and the band rebuild
compute it only for the (point, STM point) pairs a screen leaves open,
gathering both rows of each pair and adding the features' columns in order
(:func:`_pair_sums`). A distance is therefore the same float whichever
block, row, pair or code path computes it, equal to the plain left-to-right
float sum. Each block's distances hold at most ``_BLOCK_ELEMENTS`` float64
values (at least one row), and no scratch grows with the number of
features, so memory stays bounded however large rows times memory grows.

Prediction and maintenance share one screen: a memory centred on each
feature's mid-range as a (d + 2, m) product operand
(:func:`_screen_operand`), one stacked BLAS product per group of weight
vectors and row block (:func:`_screen_planes`), and a per-row margin E
(:func:`_screen_margin`)
that bounds how far a screened distance may lie from its order-defined one.
Both only compare distances, so a comparison the margin decides needs no
order-defined sum.

Every weighted prediction goes through one kernel, and every vote it returns
equals the vote of the order-defined distances; BLAS only screens. The
kernel takes the memory label-ordered, label-1 points first and each label
in position order, and centred on each feature's mid-range. For each of the
S weight vectors w of a stack, BLAS matrix products of a query block's
rows ``[-2 w x', |x'|^2_w, 1]`` with the memory's columns
``[m'; 1; |m'|^2_w]`` write that vector's distances by the expansion
``|x' - m'|^2_w = |x'|^2_w + |m'|^2_w - 2 <w x', m'>``, with no difference
block; their rounding follows the block shape and the BLAS build. The
products of G vectors go out as one stacked call against G copies of the
memory's columns, each copy holding its vector's norms, with G bounded by
the operand's share of the block budget (``_OPERAND_SHARE``). With
kk = min(k, m) a row votes 1 iff the t-th nearest positive,
t = ceil(kk / 2), comes before the u-th nearest negative, u = kk - t + 1.
So the products write each label side of a block as its own C-contiguous
plane, positives (S, r, npos) and negatives (S, r, m - npos), and the t-th
smallest of each positive row and the u-th smallest of each negative row
(:func:`_kth_smallest`, which peels row minima with ``argmin``) give the
two order statistics ``a`` and ``b`` of every (weight vector, row) pair. The
BLAS sums and the order-defined ones both lie within a proven error of the
exact sums, relative to a per-row scale of the centred data plus a
subnormal-sized absolute term, so where ``a`` and ``b`` are farther apart
than that margin the vote is certified; every other pair (near ties, and
exact ties that position decides) recomputes its row's order-defined
distances (:func:`_sq_dists`, a few uncertain rows at a time), puts them
back in position order and votes through :func:`_vote_rows`. A label too
short for its quota makes the vote a constant. Memories and queries hold
features of magnitude at most ``stream._FEATURE_BOUND``, so every distance
is finite. The kernel runs its row blocks one after another on the calling
thread, reusing one block buffer and one stack of memory operands. A row's
votes depend on that row alone, so they are the same whatever the block
shape, the group size or BLAS's thread count: a one-row
:class:`FrozenChunkPredictor` and one over a whole window agree bit for
bit.

Memory maintenance absorbs a whole window at once and matches the
instance-by-instance loop bit for bit. With C the STM followed by the window,
the STM that instance i is tested against is a sliding slice of C. An LTM
point's removal by cleaning at step i depends only on x_i, on that slice and
on the point itself, never on another removal, so one first-drop step per
LTM point gives the LTM of every step. A block of window rows screens its
distances to C (unweighted, C centred as one operand) and keeps, with a
slack of 2E per row, a superset of each row's k-skyband in its slice; the
minima of the plane's 8-column chunks drop most columns unread. Rows whose
label still meets an undropped LTM point of the other label also keep the
same-label entries their cleaning radius can rest on: those within the
slack of the k-th smallest same-label band candidate, which bounds the
k-th smallest same-label distance, or all of them where the row has fewer
than k same-label candidates. Only these get order-defined distances;
the bands, the STM votes and the radius (the exact k-th smallest,
:func:`_kth_smallest`) come from them. The LTM votes are row votes over
each block's order-defined distances to the LTM (:func:`_sq_dists`).

Maintenance tables are ragged, and +inf marks no point (no distance is
+inf, as features are bounded): one row vote (:func:`_vote_rows`) and one
radius (:func:`_radii_sq`) read every such table.

Every STM point also carries its k-skyband: the predecessors p with fewer
than k points between p and it that are strictly closer to it. For any
suffix of the STM, a point's k nearest earlier points in it (ties to the
earlier position) are the first k band members inside the suffix, taken in
stable (distance, position) order. So the STM length re-fit, which scores
each halving suffix window by test-then-train error, reads every vote from
the bands, and the window absorb votes each row's STM slice (alone and with
the LTM) from the candidates its band is built from. A band is kept as at
most ``_BAND_LEN`` codes ``2 * (i - p) + label``, nearest first, so the
points the STM drops fall off the front with no update. A row whose cut
band holds fewer than k members inside a window recomputes that vote from
distances. Bands are derived state: new rows get theirs from the candidates
the absorb screens anyway, and replacing or restoring the STM rebuilds them
in one blocked, screened pass; they are in neither the snapshot nor
:meth:`MemoryBank.state_hash`.

Determinism: k-nearest ties are broken toward the earlier memory position,
class-vote ties toward label 1, and compression draws from a generator
seeded by (bank seed, pass counter), so identical inputs give identical
banks and predictions.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
import zlib
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .stream import Chunk, check_binary, check_features

__all__ = [
    "DEFAULT_K",
    "DEFAULT_STM_CAP",
    "DEFAULT_LTM_CAP",
    "DEFAULT_MIN_STM",
    "DEFAULT_TRACKER_DECAY",
    "check_weights",
    "clean",
    "MemoryBank",
    "FrozenChunkPredictor",
]

DEFAULT_K = 5
DEFAULT_STM_CAP = 5000
DEFAULT_LTM_CAP = 5000
DEFAULT_MIN_STM = 50
DEFAULT_TRACKER_DECAY = 0.995

_COMPRESS_TAG = 4
_SNAPSHOT_MAGIC = b"SAMB"
_SNAPSHOT_VERSION = 3
_SNAPSHOT_HEAD = "<IIIIIIdqQ"

# Largest number of float64 elements in one row block of the kernel's S
# distance planes (S, r, m). The kernel recomputes the rows its screen leaves
# open beside its block in chunks of a _GATHER_SHARE-th as many distances, so
# a kernel call peaks at about one block. Cleaning, the re-fit's fallback
# rows and k-means run in row blocks of at most this many squared
# differences (rows x memory x features), one block at a time. The size is
# not a cache fit (a 2 MiB block does not fit beside its memory in a 2 MiB
# L2 per core). Kernel sweeps on such a core (d = 8; 250 x 315 and
# 250 x 1000 with S = 20, 1000 x 3096 with S = 10 and S = 1) ran 2^16
# elements 1.2-2.3x slower than the best size, while 2^17 to 2^20 traded
# places from run to run on a busy host, 2^18 within 1.0-1.6x of the best.
_BLOCK_ELEMENTS = 1 << 18
# Most multiply-adds in one BLAS call of the kernel's screen. OpenBLAS may run
# a larger product on its own threads (its bound is 65536 times
# GEMM_MULTITHREAD_THRESHOLD, 4 by default) unless told to use one thread. On
# a 2-CPU machine with the BLAS thread count left unset, 42 kernel calls of
# 1000 x 3096 x 8 with S = 1 (blocks of 84 rows) took 4-11 ms split; unsplit,
# 3 of 42 stalled at 91-388 ms, the rest taking 6-13 ms. With S = 10 and
# S = 30 (blocks of 8 and 2 rows) split and unsplit calls traded places from
# run to run.
_SCREEN_CALL = 1 << 18
# The kernel's stack of memory operands, G copies of the (d + 2, m) screen
# operand for the G weight vectors one stacked product takes, holds at most
# _BLOCK_ELEMENTS // _OPERAND_SHARE values (256 KiB; at least one copy, at
# most one per vector), so G shrinks as the memory grows. Timed on a 2-CPU
# virtual machine (d = 8), a desk sweep's block (S = 20 vectors, 41 rows,
# m = 313) took 0.33 ms at G = 1 and 0.25 ms at G = 5 to 20 (this share
# gives 10). At m = 3094, a default-scale sweep's, blocks of S = 10 and
# S = 30 took 0.23 and 0.45 ms at G = 1 (this share's), 0.22 and 0.36 ms at
# G = 2 and 0.29 and 0.56 ms at G = 10: G must not grow with S alone. Share 4
# would give G = 2 there, but would put a call whose every row falls back
# (d = 8, m = 2000) above 1.5 blocks.
_OPERAND_SHARE = 8
# The window absorb's screened STM plane of a row block holds at most
# _BLOCK_ELEMENTS // _PLANE_SHARE values (1 MiB); so do its LTM distances
# and their scratch plane (_sq_dists), and the band writer's scan table
# holds as many slots, which one block's candidates fill at most. A block
# peaks at 1.5 times its plane (the chunk minima and the scratch of their
# bounds, see _chunk_minima and _later_bound); a flush at its scan table
# plus a byte mask and 4 bytes a candidate, beside the pending candidates at
# 12 bytes each (_BandWriter).
# On the fit peak-memory test's large case (STM and window 2000, d = 16) the
# fit peaks at 4.7 MB, as it did with share 4 and scans of a quarter as many
# slots; a default-scale window now takes half the blocks and a quarter of
# the scans. Share 1 would put a 2 MiB plane beside the pending candidates.
_PLANE_SHARE = 2
# Gathered rows of the absorb's exact pair sums and the tables a flush sorts
# go through in chunks of at most _BLOCK_ELEMENTS // _GATHER_SHARE values or
# slots (128 KiB of float64), as do the kernel's recomputed rows (at least
# one row): a chunk's distances, their scratch plane, their position-order
# copy and the vote's selection copy take about a quarter of the kernel's
# block. Pair-sum chunks of 2^16 values held 1 MiB of gathered rows at the
# peak of the fit peak-memory test's large case; chunks of 2^14 took the
# 7-window reference fit's pair sums from 14.0 to 14.8 ms.
_GATHER_SHARE = 16
# Largest q that _kth_smallest selects by peeling q - 1 row minima rather
# than by np.partition. A partition costs 2.5-3.4 ns per element at the
# kernel's row lengths whatever q is, an argmin over a contiguous row
# 0.2-0.4 ns. Timed on a 2-CPU virtual machine (AVX-512, numpy 2.4), peeling
# beat partition up to q = 8 and tied at q = 9 (0.90-1.10x) at 20 x 13 x 450,
# 10 x 8 x 1500 and 1 x 262 x 450; at 10 x 8 x 3096, a default-scale sweep's
# width, it lost from q = 7, so no measured shape peels where it lost. With
# k = 5 the kernel peels q = 3 and the other selections q = 5; the partition
# is a guard for large k, which no benchmark workload reaches.
_PEEL_MAX = 6

# Each STM point carries its k-skyband: the predecessors with fewer than k
# points between them and it that are strictly closer to it. At most
# _BAND_LEN members are kept, nearest first. On the reference streams bands
# hold 30-55 points, so 64 never cut one there.
_BAND_LEN = 64
# Columns per chunk of the band screen's minima (8: _chunk_minima folds four
# columns, then two), and the most candidates one row keeps (its nearest).
_BAND_CHUNK = 8
_BAND_CANDIDATES = 4 * _BAND_LEN
# Code of an empty band slot: larger than any member's, as stm_cap is at most
# _STM_CAP_MAX.
_BAND_END = np.iinfo(np.int32).max
_STM_CAP_MAX = 1 << 30


def check_bank_params(k: int, stm_cap: int, ltm_cap: int, min_stm_size: int, tracker_decay: float) -> None:
    """Reject memory settings a :class:`MemoryBank` cannot run with."""
    if k < 1:
        raise ValueError("k must be positive")
    if not 1 <= stm_cap <= _STM_CAP_MAX:
        raise ValueError(f"stm_cap must lie in [1, {_STM_CAP_MAX}]")
    if ltm_cap < 2:
        # Compression halves each class but keeps one point per class, so a
        # two-class LTM never fits in one slot.
        raise ValueError("ltm_cap must be at least 2")
    if min_stm_size <= k:
        raise ValueError("min_stm_size must exceed k")
    if not 0.0 < tracker_decay <= 1.0:
        raise ValueError("tracker_decay must lie in (0, 1]")


def check_weights(alpha: np.ndarray, dim: int) -> np.ndarray:
    """Validate a weight vector (dim,) or a stack of them (S, dim): finite, inside [0, 1]."""
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != dim:
        raise ValueError(f"weights must have shape ({dim},) or (S, {dim}), got {a.shape}")
    if not np.isfinite(a).all() or a.min(initial=0.0) < 0.0 or a.max(initial=0.0) > 1.0:
        raise ValueError("weights must be finite and lie in [0, 1]")
    return a


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """Number of True entries in each row of a 2-D boolean array.

    One byte-sum pass; exact, and faster than ``count_nonzero(axis=1)``.
    """
    return mask.view(np.uint8).sum(axis=1, dtype=np.int32)


def _kth_smallest(side: np.ndarray, q: int) -> np.ndarray:
    """The q-th smallest (1-based) along the last axis of a C-contiguous array, overwriting it.

    Takes q - 1 rounds of ``argmin``, each writing +inf into the chosen
    slot, then gathers the last round's minima; with q above ``_PEEL_MAX``
    it partitions instead. Returns a new array of the leading shape, each
    value equal to ``np.partition``'s q-th element of its row (for input
    without NaN; q at most the row length).
    """
    if q > _PEEL_MAX:
        side.partition(q - 1, axis=-1)
        return side[..., q - 1].copy()
    width = side.shape[-1]
    flat = side.reshape(-1)
    rows = flat.reshape(-1, width)
    starts = np.arange(0, flat.size, width)
    for _ in range(q - 1):
        flat[rows.argmin(axis=1) + starts] = np.inf
    return flat[rows.argmin(axis=1) + starts].reshape(side.shape[:-1])


def _vote_rows(dist2: np.ndarray, positive: np.ndarray, k: int) -> np.ndarray:
    """Row-wise majority votes of the k nearest memory points.

    A row's points are its finite entries; +inf marks no point.
    ``positive`` marks the memory points labelled 1: one (m,) mask for every
    row, or one (n, m) mask with a row for each. Distance ties keep the
    earlier position, class-vote ties go to label 1. The k-th smallest
    distance of each row comes from :func:`_kth_smallest` on a copy; when
    exactly k points lie at or below it they are the k nearest. Only rows
    with more than k such points (ties at the k-th distance) take all
    strictly closer points plus the earliest-position tied ones, which
    reproduces a stable (distance, position) sort exactly. A row with k
    points or fewer votes with all of them, and a row with none votes 1.
    """
    n, m = dist2.shape
    if m == 0:
        return np.ones(n, dtype=np.uint8)
    kk = min(k, m)
    kth = _kth_smallest(dist2.copy(), kk)[:, None]
    near = dist2 <= kth
    # an infinite k-th leaves fewer than kk points, which all vote
    short = np.flatnonzero(kth[:, 0] == np.inf)
    if short.size:
        near[short] = dist2[short] != np.inf
    ones = _row_counts(near & positive)
    size = _row_counts(near)
    tied = np.flatnonzero(size > kk)
    if tied.size:
        sub, sub_kth = dist2[tied], kth[tied]
        strict = sub < sub_kth
        need = kk - _row_counts(strict)
        tie = sub == sub_kth
        sel = strict | (tie & (np.cumsum(tie, axis=1) <= need[:, None]))
        ones[tied] = _row_counts(sel & (positive[tied] if positive.ndim == 2 else positive))
    return (2 * ones >= np.minimum(size, kk)).astype(np.uint8)


def _sq_dists(points: np.ndarray, memory_t: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """(r, m) squared distances ``sum_f w[f] * (m_f - x_f)^2`` of r points to m memory points.

    ``memory_t`` is the memory transposed, (d, m); a column-slice view is
    fine. ``w`` defaults to all ones. For each feature in order, one (r, m)
    scratch plane takes the squared (and weighted) differences and is added
    to the output, so each distance is the left-to-right sum
    :func:`_pair_sums` gives for that pair, bit for bit, and the scratch
    never grows with d.
    """
    out = np.zeros((len(points), memory_t.shape[1]))
    plane = np.empty_like(out)
    for f, row in enumerate(memory_t):
        np.subtract(row, points[:, f, None], out=plane)
        plane *= plane
        if w is not None:
            plane *= w[f]
        out += plane
    return out


def _pair_sums(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Unweighted squared distances between rows ``i`` and ``j`` of (N, d) ``points``, pair by pair.

    Both ends of every pair are gathered (one take each), their differences
    squared, and the features' columns added in order, so each distance is
    the left-to-right sum :func:`_sq_dists` gives for that pair, bit for
    bit. Gathering whole rows is faster than a take per feature from a
    transposed copy, and needs no such copy. Pairs go through in chunks
    whose gathered rows hold at most ``_BLOCK_ELEMENTS // _GATHER_SHARE``
    values (at least one pair); a chunk's peak is its two gathers, twice
    that.
    """
    d = points.shape[1]
    out = np.empty(len(i))
    step = max(1, _BLOCK_ELEMENTS // _GATHER_SHARE // d)
    for s in range(0, len(i), step):
        sq = points.take(j[s : s + step], axis=0)
        sq -= points.take(i[s : s + step], axis=0)
        sq *= sq
        total = out[s : s + step]
        total[:] = sq[:, 0]
        for f in range(1, d):
            total += sq[:, f]
    return out


class _Screen(NamedTuple):
    """A memory in the screen's layout (see :func:`_screen_operand`)."""

    aug: np.ndarray  # (d + 2, m): memory_t - centre, a row of ones, a scratch row
    centre: np.ndarray  # (d,): each feature's mid-range over the memory
    reach: np.ndarray  # (d,): largest |aug[f]| over the memory


def _screen_operand(memory_t: np.ndarray) -> _Screen:
    """The screen's (d + 2, m) product operand of a (d, m) memory, which must not be empty.

    Its first d rows hold the memory centred, ``m' = fl(m - centre)`` with
    ``centre`` each feature's mid-range; row d holds ones and the last row
    is scratch, which each screen product fills with the memory's weighted
    norms (see :func:`_screen_planes`). ``reach`` is M'_f >= |m'_f| over
    the memory.
    """
    d, m = memory_t.shape
    high, low = memory_t.max(axis=1), memory_t.min(axis=1)
    centre = 0.5 * (high + low)
    aug = np.empty((d + 2, m))
    np.subtract(memory_t, centre[:, None], out=aug[:d])
    aug[d:] = 1.0
    # rounding is monotone, so the largest |m'_f| is fl(high - centre) or fl(centre - low)
    return _Screen(aug, centre, np.maximum(high - centre, centre - low))


class _KernelMemory(NamedTuple):
    """A memory in the kernel's layout (see :func:`_label_ordered`)."""

    memory_t: np.ndarray  # (d, m): label-1 points first, each label in position order
    screen: _Screen  # memory_t centred, as the screen's product operand
    npos: int  # number of label-1 points
    order: np.ndarray  # column j holds memory position order[j]


def _label_ordered(features: np.ndarray, labels: np.ndarray) -> _KernelMemory:
    """The kernel's memory layout: a (d, m) copy with the label-1 points first.

    Each label keeps its position order (a stable argsort of ``labels != 1``).
    The copy is also kept centred as the screen's product operand
    (:func:`_screen_operand`).
    """
    positive = labels == 1
    order = np.argsort(~positive, kind="stable")
    memory_t = np.ascontiguousarray(features[order].T)
    return _KernelMemory(memory_t, _screen_operand(memory_t), int(np.count_nonzero(positive)), order)


def _screen_planes(
    xc: np.ndarray, w: np.ndarray, xn: np.ndarray, ops: np.ndarray, mn: np.ndarray, planes: np.ndarray
) -> np.ndarray:
    """Screen distances of r centred queries ``xc`` (r, d) under each row of ``w`` (S, d).

    ``xn`` (S, r) and ``mn`` (S, m) are the weighted squared norms of the
    centred queries and memory points. ``ops`` is a stack of G copies of the
    memory's (d + 2, m) product operand (:func:`_screen_operand`, or a
    column slice of it), whose last rows this overwrites. One multiply
    builds the S left operands, the rows ``[-2 w_s * x', xn_s, 1]``; then G
    vectors at a time, copy g holding ``mn_s`` in its last row, one stacked
    BLAS product writes planes s of the (S, r, m) ``planes``:
    ``|x'|^2 + |m'|^2 - 2 <w x', m'>``, the weighted squared distance by
    expansion, with no difference block. Each vector of a stacked call
    takes at most ``_SCREEN_CALL`` multiply-adds, one BLAS call of the same
    shape whatever G is. The summation order (blocking, fused
    multiply-adds) is the BLAS build's, so these distances are not the
    order-defined ones: callers only compare them, with the margin of
    :func:`_screen_margin`.
    """
    S, r = planes.shape[:2]
    G, K, m = ops.shape
    d = K - 2
    lhs = np.empty((S, r, K))
    np.multiply(xc, -2.0 * w[:, None, :], out=lhs[:, :, :d])
    lhs[:, :, d] = xn
    lhs[:, :, d + 1] = 1.0
    cols = max(1, min(m, _SCREEN_CALL // K))
    step = max(1, _SCREEN_CALL // (K * cols))
    for s in range(0, S, G):
        g = min(G, S - s)
        ops[:g, d + 1] = mn[s : s + g]
        for i in range(0, r, step):
            for c in range(0, m, cols):
                np.matmul(
                    lhs[s : s + g, i : i + step],
                    ops[:g, :, c : c + cols],
                    out=planes[s : s + g, i : i + step, c : c + cols],
                )
    return planes


def _screen_margin(w: np.ndarray, xc: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Certified margin E of the screen's distances: (S, n) for weight rows ``w`` (S, d) and centred rows ``xc`` (n, d).

    ``reach`` is the memory's (:func:`_screen_operand`). Let eps = 2^-53,
    eta = 2^-1075 (the absolute error of rounding to a subnormal) and every
    rounding ``fl(x) = x(1 + e) + h`` with |e| <= eps, |h| <= eta, h = 0 for
    sums and differences. Let D be the exact sum ``sum_f w_f (m_f - x_f)^2``
    of the float inputs, M'_f >= |m'_f| over the memory (``reach``) and, per
    (vector, row), the scale ``T = sum_f w_f (|x'_f| + M'_f)^2``, so
    D <= T(1 + 3 eps). A term of the order-defined sum meets at most d + 3
    factors (1 + e) on its way (the difference's twice, once squared), so
    that sum lies within (d + 4) eps T + 3d eta of D. The screened value G
    (:func:`_screen_planes`) sums K = d + 2 products of the rows
    ``fl(-2 w x')``, ``fl(|x'|^2_w)``, 1 and the columns m', 1,
    ``fl(|m'|^2_w)``; in any order, with or without fused multiply-adds, it
    lies within gamma_K of their exact sum P relative to the sum of the
    products' magnitudes, which is at most (1 + gamma) T, plus 2K eta. P
    differs from the exact centred distance ``sum_f w_f (m'_f - x'_f)^2`` by
    the roundings of the norms and of ``-2 w x'`` (gamma_{d+1} T plus
    eta sum M' + 6d eta), and that distance differs from D by the
    centring, at most 3 eps T. So both sums lie within ``rho0 T + A0`` of
    D, with rho0 = (2d + 7) eps and A0 = (2 sum M' + 8d + 8) 2^-1074, for d
    up to 2^20, and a screened value lies within 2(rho0 T + A0) of its
    order-defined one. The bound is the same for every column of a row, so
    it carries to order statistics, minima and maxima over any of a row's
    columns. Centring keeps T, and so the margin, proportional to the
    data's spread however far the data lie from zero.

    The margin is ``E = fl(fl(rho T^) + A)``, T^ the scale computed in
    floats (within (d + 4) eps T + 3d eta of T), rho = (8d + 40) eps and
    A = (16 sum M' + 64d + 64) 2^-1074. Let u and v be screened values of
    one row (entries, or order statistics of its columns) and U and V their
    order-defined counterparts. A float comparison of ``u + E`` rounds once,
    by at most eps |u + E|, and |u| is at most (1 + 3 eps + rho0) T + A0
    however it cancels, so E (1 - eps) - eps |u| still exceeds
    4(rho0 T + A0): ``u + E < v`` implies U < V and ``u - E > v`` implies
    U > V. Likewise ``fl(v + 2E)`` is at least v + 4(rho0 T + A0), so
    U <= V implies ``u <= fl(v + 2E)``. This assumes IEEE 754 rounding to
    nearest without flushing subnormals to zero, which is numpy's and
    OpenBLAS's default.
    """
    d = xc.shape[1]
    scale = np.einsum("sf,nf->sn", w, (np.abs(xc) + reach) ** 2)
    return scale * ((8 * d + 40) * 2.0**-53) + math.ldexp(16 * float(reach.sum()) + 64 * d + 64, -1074)


def _weighted_votes(queries: np.ndarray, memory: _KernelMemory, k: int, alphas: np.ndarray) -> np.ndarray:
    """The weighted kNN kernel: votes of every query under every weight vector.

    ``queries`` is (n, d); ``memory`` is in :func:`_label_ordered` layout;
    ``alphas`` is a validated (S, d) stack. Returns (S, n) uint8, equal to
    :func:`_vote_rows` on each row's order-defined distances
    ``sum_f alpha_f^2 (m_f - x_f)^2`` (added left to right,
    :func:`_sq_dists`) in position order, so a vote depends neither on the
    block its row lands in nor on the BLAS build. Queries are taken in row
    blocks whose two label planes, (S, r, npos) and (S, r, m - npos), hold
    at most ``_BLOCK_ELEMENTS`` elements together (at least one row); both
    are C-contiguous pieces of one buffer. The screen's fallback recomputes
    rows in chunks of at most ``_BLOCK_ELEMENTS // _GATHER_SHARE`` distances
    (at least one row). The buffer and a stack of G copies of the memory's
    product operand (G of the S vectors per stacked product: at most
    ``_BLOCK_ELEMENTS // _OPERAND_SHARE`` values, at least one copy) are
    allocated once per call and reused by every block, so a call holds
    about one block.

    With kk = min(k, m), a row votes 1 iff at least t = ceil(kk / 2) of its kk
    nearest points are positive, that is iff in the stable (distance,
    position) order the t-th nearest positive comes before the u-th nearest
    negative, u = kk - t + 1. With fewer than u negatives every row votes 1,
    and with fewer than t positives every row votes 0. Otherwise
    :func:`_screen_planes` writes each block's planes from the centred
    queries ``x' = fl(x - mu)`` and memory ``m' = fl(m - mu)``, G vectors
    per stacked BLAS product, once per label side: on the positive columns
    of the operand stack and memory norms into the positive plane, then on
    the negative columns into the negative plane, so no operand is copied.
    :func:`_kth_smallest` overwrites each plane as it takes ``a``, the t-th
    smallest positive distance, and ``b``, the u-th smallest negative one,
    of every (weight vector, row) pair. The order-defined vote is 1 if the
    order-defined ``a`` is below the order-defined ``b``, 0 if above, and
    decided by position on a tie. With E the pair's margin
    (:func:`_screen_margin`), the kernel votes 1 where ``a + E < b`` and 0
    where ``a - E > b``, which certifies the order-defined vote. Every
    other (weight vector, row) pair (near ties, exact ties) recomputes its
    row's order-defined distances under that vector, puts them back in
    position order and votes through :func:`_vote_rows`.
    """
    n, d = queries.shape
    m = memory.memory_t.shape[1]
    npos, order, screen = memory.npos, memory.order, memory.screen
    kk = min(k, m)
    t = (kk + 1) // 2
    u = kk - t + 1
    out = np.zeros((alphas.shape[0], n), dtype=np.uint8)
    if npos < t:
        return out
    if m - npos < u:
        out[:] = 1
        return out
    positive = np.zeros(m, dtype=bool)
    positive[order[:npos]] = True
    w = alphas * alphas
    S = len(w)
    rows = max(1, min(n, _BLOCK_ELEMENTS // (m * S)))
    step = max(1, _BLOCK_ELEMENTS // (_GATHER_SHARE * m))
    xc = queries - screen.centre
    xn = np.einsum("sf,nf->sn", w, xc * xc)
    mn = np.einsum("sf,fm->sm", w, screen.aug[:d] * screen.aug[:d])
    margin = _screen_margin(w, xc, screen.reach)

    group = max(1, min(S, _BLOCK_ELEMENTS // _OPERAND_SHARE // ((d + 2) * m)))
    buf = np.empty(S * rows * m)
    ops = np.empty((group, d + 2, m))
    ops[:, : d + 1] = screen.aug[: d + 1]
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        r = stop - start
        x, e = xc[start:stop], margin[:, start:stop]
        pos = buf[: S * r * npos].reshape(S, r, npos)
        neg = buf[S * r * npos : S * r * m].reshape(S, r, m - npos)
        a = _kth_smallest(_screen_planes(x, w, xn[:, start:stop], ops[:, :, :npos], mn[:, :npos], pos), t)
        b = _kth_smallest(_screen_planes(x, w, xn[:, start:stop], ops[:, :, npos:], mn[:, npos:], neg), u)
        vote = a + e < b
        out[:, start:stop] = vote
        unsure = ~(vote | (a - e > b))
        for s in np.flatnonzero(unsure.any(axis=1)):
            sub = start + np.flatnonzero(unsure[s])
            for c in range(0, len(sub), step):
                part = sub[c : c + step]
                dist2 = np.empty((len(part), m))
                dist2[:, order] = _sq_dists(queries[part], memory.memory_t, w[s])
                out[s, part] = _vote_rows(dist2, positive, k)
    return out


def _sliding_blocks(stop: int, base, max_rows: int) -> list[tuple[int, int]]:
    """Row blocks [b, e) covering 0..stop, each as large as the budget allows.

    Block [b, e) meets ``base(b) + e - b`` columns, so its distance block of
    (e - b) rows and those columns holds at most
    ``_BLOCK_ELEMENTS // _PLANE_SHARE`` values.
    A block has at least one row and at most ``max_rows``.
    """
    blocks = []
    q = _BLOCK_ELEMENTS // _PLANE_SHARE
    b = 0
    while b < stop:
        w = base(b)
        r = max(1, min(max_rows, (math.isqrt(w * w + 4 * q) - w) // 2))
        blocks.append((b, min(stop, b + r)))
        b += r
    return blocks


def _radii_sq(dist2: np.ndarray, k: int) -> np.ndarray:
    """Squared cleaning radius of each row over its finite entries; +inf marks no point.

    The k-th smallest (:func:`_kth_smallest`), or the largest when a row has
    fewer than k; -inf for a row with none, so nothing lies inside.
    Overwrites ``dist2``.
    """
    n, m = dist2.shape
    if m == 0:
        return np.full(n, -np.inf)
    kk = min(k, m)
    short = np.flatnonzero(_row_counts(dist2 == np.inf) > m - kk)
    sub = dist2[short]
    largest = np.where(sub != np.inf, sub, -np.inf).max(axis=1, initial=-np.inf)
    r2 = _kth_smallest(dist2, kk)
    r2[short] = largest
    return r2


def clean(
    target_features: np.ndarray,
    target_labels: np.ndarray,
    reference_features: np.ndarray,
    reference_labels: np.ndarray,
    k: int = DEFAULT_K,
) -> np.ndarray:
    """Keep-mask over the target after radius cleaning against the reference.

    Each reference point spans a ball whose radius is the distance to its
    k-th nearest same-label reference neighbor (itself excluded; fewer than k
    available means the farthest of them; none at all skips the point). Any
    target point inside such a ball with a different label is dropped.
    Distances are unweighted and taken over row blocks of reference points.
    """
    tf = np.asarray(target_features, dtype=np.float64)
    tl = np.asarray(target_labels)
    rf = np.asarray(reference_features, dtype=np.float64)
    rl = np.asarray(reference_labels)
    n_t, n_r = len(tl), len(rl)
    keep = np.ones(n_t, dtype=bool)
    if n_t == 0 or n_r == 0:
        return keep
    d = rf.shape[1]
    rf_t, tf_t = np.ascontiguousarray(rf.T), np.ascontiguousarray(tf.T)
    width = max(n_t, n_r)
    rows = max(1, _BLOCK_ELEMENTS // (width * d))
    for b in range(0, n_r, rows):
        e = min(n_r, b + rows)
        dist2 = _sq_dists(rf[b:e], rf_t)
        # a radius rests on the row's own label, itself excluded
        np.copyto(dist2, np.inf, where=rl[None, :] != rl[b:e, None])
        dist2[np.arange(e - b), np.arange(b, e)] = np.inf
        r2 = _radii_sq(dist2, k)
        inside = (_sq_dists(rf[b:e], tf_t) <= r2[:, None]) & (tl[None, :] != rl[b:e, None])
        keep &= ~inside.any(axis=0)
    return keep


def _candidate_sizes(n: int, min_size: int) -> list[int]:
    """Halving suffix-window sizes, largest first, never below min_size.

    The full window is always a candidate even when it is already below
    min_size.
    """
    sizes = [n]
    h = math.ceil(n / 2)
    while h >= min_size and h < sizes[-1]:
        sizes.append(h)
        h = math.ceil(h / 2)
    return sizes


def _band_plane(
    points: np.ndarray, screen: _Screen, norms: np.ndarray, c0: int, first: np.ndarray, stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Screened squared distances of ``points`` to a centred memory from column c0 on, and each row's slack.

    Row j sees the memory's columns from ``c0 + first[j]`` up to, not
    including, ``c0 + stop[j]``, with ``stop`` growing by one per row, so
    the plane is ``stop[-1] + 1`` columns wide. ``screen`` is the memory's operand
    (:func:`_screen_operand`) and ``norms`` (1, m) its points' unweighted
    squared norms. The plane is :func:`_screen_planes` under unit weights,
    NaN outside each row's columns, its width padded with NaN to whole band
    chunks. The slack is twice the screen's margin E
    (:func:`_screen_margin`): where an entry's order-defined distance is at
    most another's (or an order statistic's), its screened value is at most
    the other's plus the slack.
    """
    r, d = points.shape
    w = int(stop[-1]) + 1
    ones = np.ones((1, d))
    xc = points - screen.centre
    plane = np.empty((r, max(1, -(-w // _BAND_CHUNK)) * _BAND_CHUNK))
    plane[:, w:] = np.nan
    cols = slice(c0, c0 + w)
    _screen_planes(xc, ones, (xc * xc).sum(axis=1)[None], screen.aug[None, :, cols], norms[:, cols], plane[None, :, :w])
    # only the first first.max() and the last w - stop.min() columns hold entries outside a row's
    left, right = int(first.max()), int(stop.min())
    np.copyto(plane[:, :left], np.nan, where=np.arange(left) < first[:, None])
    np.copyto(plane[:, right:w], np.nan, where=np.arange(right, w) >= stop[:, None])
    return plane, 2.0 * _screen_margin(ones, xc, screen.reach)[0]


def _later_bound(table: np.ndarray, k: int) -> np.ndarray:
    """For each entry of each row, an upper bound on the k-th smallest entry after it.

    Columns are in position order; NaN marks no point. Column c belongs to
    class c mod k, and E[c] is the minimum of its class from column c on, so
    E[c + 1], ..., E[c + k] are k distinct later points and the largest of
    them is a bound; it is +inf where a class has no later point. The class
    minima come from the table transposed, with k rows of +inf after its
    last column, by doubling: E[c] = min(E[c], E[c + s]) for s = k, 2k, 4k
    and on, each step one contiguous pass (an accumulate along the strided
    classes took 1.2x as long on the absorb's chunk minima).
    """
    r, w = table.shape
    e, spare = np.empty((w + k, r)), np.empty((w + k, r))
    np.fmin(table.T, np.inf, out=e[:w])
    e[w:] = np.inf
    s = k
    while s < w:
        np.minimum(e[: w - s], e[s:w], out=spare[: w - s])
        spare[w - s :] = e[w - s :]
        e, spare = spare, e
        s *= 2
    bound = spare[:w]
    np.copyto(bound, e[1 : w + 1])
    for j in range(2, k + 1):
        np.maximum(bound, e[j : w + j], out=bound)
    return np.ascontiguousarray(bound.T)


def _ragged_slots(rows: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Width of an (n, widest row) table of row-major entries, and each entry's flat int32 slot in it.

    The tables are of one row block's or one flush's candidates, bounded by
    the maintenance budgets, so their slots fit int32.
    """
    counts = np.bincount(rows, minlength=n).astype(np.int32)
    width = int(counts.max(initial=0))
    slots = np.arange(len(rows), dtype=np.int32)
    slots -= (np.cumsum(counts, dtype=np.int32) - counts)[rows]
    slots += rows.astype(np.int32, copy=False) * np.int32(width)
    return width, slots


def _ragged(slots: np.ndarray, shape: tuple[int, int], values: np.ndarray, fill) -> np.ndarray:
    """The table of ``shape`` holding ``values`` at flat ``slots`` and ``fill`` elsewhere."""
    table = np.full(shape, fill, dtype=values.dtype)
    table.reshape(-1)[slots] = values
    return table


def _chunk_minima(plane: np.ndarray) -> np.ndarray:
    """Minima of a :func:`_band_plane`'s chunks of ``_BAND_CHUNK`` = 8 columns, NaN where a chunk holds no point.

    A fold of four strided columns, then of two, with a quarter of the
    plane as scratch; folding two columns at a time took 1.4x as long.
    """
    quarter = np.fmin(plane[:, 0::4], plane[:, 1::4])
    np.fmin(quarter, plane[:, 2::4], out=quarter)
    np.fmin(quarter, plane[:, 3::4], out=quarter)
    return np.fmin(quarter[:, 0::2], quarter[:, 1::2])


def _chunk_hits(plane: np.ndarray, mins: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns, in row-major order, of the plane's entries at most ``bound``.

    ``mins`` are the plane's :func:`_chunk_minima` and ``bound`` holds a
    bound per chunk, (r, chunks), or per row, (r, 1). A chunk whose minimum
    exceeds its bound holds no such entry, so only the others' values are
    compared.
    """
    chunks = mins.shape[1]
    hit = np.flatnonzero(mins <= bound)
    hit_rows, hit_chunks = np.divmod(hit, chunks)
    limit = bound.reshape(-1)[hit] if bound.shape[1] > 1 else bound[hit_rows, 0]
    sub = np.flatnonzero(plane.reshape(-1, _BAND_CHUNK)[hit] <= limit[:, None])
    chunk = sub >> 3
    return hit_rows[chunk], hit_chunks[chunk] * _BAND_CHUNK + (sub & 7)


def _band_candidates(
    plane: np.ndarray,
    mins: np.ndarray,
    slack: np.ndarray,
    k: int,
    exact: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A superset of each row's k-skyband in a :func:`_band_plane`: rows, columns, distances.

    Each row's points are its non-NaN columns, in position order; point p is
    in the k-skyband iff fewer than k points after it are strictly closer by
    order-defined distance. So a point farther than the k-th nearest of any
    k distinct later points is out. :func:`_later_bound` gives such a bound
    first over the plane's :func:`_chunk_minima` ``mins``, which drops whole
    chunks, then over the surviving points. On the screened plane a point
    (or chunk) is kept while its value is at most the screened bound plus
    the row's ``slack``, which keeps every skyband point. The survivors get
    their order-defined distances from ``exact(rows, columns)``. A row then
    keeps at most ``max(_BAND_CANDIDATES, k)`` of them, its smallest by
    (distance, position), and the bound over those drops more; a kept point
    outside the skyband keeps k later skyband points that rule it out, as
    those are closer. Entries come in row-major order.
    """
    r = len(plane)
    bound = _later_bound(mins, k)
    bound += slack[:, None]
    rows, cols = _chunk_hits(plane, mins, bound)
    del bound
    dist = exact(rows, cols)
    counts = np.bincount(rows, minlength=r)
    most = max(_BAND_CANDIDATES, k)
    if counts.max(initial=0) > most:
        keep = np.ones(len(rows), dtype=bool)
        starts = np.cumsum(counts) - counts
        for i in np.flatnonzero(counts > most):
            order = np.argsort(dist[starts[i] : starts[i] + counts[i]], kind="stable")
            keep[starts[i] + order[most:]] = False
        rows, cols, dist = rows[keep], cols[keep], dist[keep]
    width, slots = _ragged_slots(rows, r)
    table = _ragged(slots, (r, width), dist, np.inf)
    keep = (table <= _later_bound(table, k)).reshape(-1)[slots]
    return rows[keep], cols[keep], dist[keep]


def _radius_candidates(
    plane: np.ndarray,
    mins: np.ndarray,
    col_labels: np.ndarray,
    row_labels: np.ndarray,
    bound: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the entries a cleaning radius can rest on, from screened distances.

    ``plane`` is a :func:`_band_plane` whose first ``len(col_labels)``
    columns are labelled ``col_labels``, and ``mins`` its
    :func:`_chunk_minima`. A row's entries are its non-NaN columns of its
    own label (``row_labels``), and it keeps those whose screened value is
    at most its ``bound``. For ``bound = fl(V + 2E)``, 2E the row's slack
    and V an order-defined distance at least its k-th smallest entry's (the
    k-th smallest of any k of its entries, say), the margin's
    ``U <= V => u <= fl(v + 2E)`` (:func:`_screen_margin`; it holds for any
    v within the screen's error of V, so for v = V) keeps every entry up to
    the k-th smallest, so :func:`_radii_sq` over the kept entries'
    order-defined distances is the row's radius. A bound of +inf keeps all
    of a row's entries, and -inf none. Entries come in row-major order.
    """
    rows, cols = _chunk_hits(plane, mins, bound[:, None])
    own = col_labels[cols] == row_labels[rows]
    return rows[own], cols[own]


def _skybands(counts: np.ndarray, dists: list, codes: list, out: np.ndarray, k: int) -> None:
    """Write the k-skybands of ``len(out)`` rows from their :func:`_band_candidates` entries.

    ``counts`` holds each row's number of candidates. The concatenations of
    the arrays in ``dists`` and in ``codes`` hold the candidates' distances
    and band codes, row by row, each row's in position order; both lists are
    emptied as they are read. A candidate is in the skyband iff fewer than k
    later candidates are strictly closer: a reverse scan over the candidate
    columns of a (most candidates, rows) table keeps the k smallest
    distances seen. Members are then put in stable (distance, position)
    order, in row chunks whose tables hold at most
    ``_BLOCK_ELEMENTS // _GATHER_SHARE`` slots, and the first ``_BAND_LEN``
    codes go to ``out``, padded with ``_BAND_END``.
    """
    n = len(out)
    out.fill(_BAND_END)
    height = int(counts.max(initial=0))
    if height == 0:
        dists.clear()
        codes.clear()
        return
    # candidate c of row i, the j-th of its row, goes to scan slot j * n + i
    at = np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
    np.subtract(np.arange(len(at), dtype=np.int32), at, out=at)
    at *= n
    at += np.repeat(np.arange(n, dtype=np.int32), counts)
    scan = np.full((height, n), np.inf)
    flat, done = scan.reshape(-1), 0
    dists.reverse()
    while dists:
        part = dists.pop()
        flat[at[done : done + len(part)]] = part
        done += len(part)
    del part
    member = np.empty(scan.shape, dtype=bool)
    nearest = [np.full(n, np.inf) for _ in range(k)]
    x, spare = np.empty(n), np.empty(n)
    for j in range(len(scan) - 1, -1, -1):
        np.less_equal(scan[j], nearest[-1], out=member[j])
        np.minimum(nearest[0], scan[j], out=spare)
        np.maximum(nearest[0], scan[j], out=x)
        nearest[0], spare = spare, nearest[0]
        for t in range(1, k):
            np.minimum(nearest[t], x, out=spare)
            np.maximum(nearest[t], x, out=x)
            nearest[t], spare = spare, nearest[t]
    take = member.reshape(-1)[at]
    del member
    at = at[take]
    dist = flat[at]
    del scan, flat, at
    rows = np.repeat(np.arange(n, dtype=np.int32), counts)[take]
    code = np.concatenate(codes)[take]
    codes.clear()
    size = np.bincount(rows, minlength=n).astype(np.int32)
    bounds = np.concatenate([[0], np.cumsum(size)])
    step = max(1, _BLOCK_ELEMENTS // _GATHER_SHARE // int(size.max()))
    for a in range(0, n, step):
        b = min(n, a + step)
        lo, hi = bounds[a], bounds[b]
        width, slots = _ragged_slots(rows[lo:hi] - a, b - a)
        band = _ragged(slots, (b - a, width), dist[lo:hi], np.inf)
        order = np.argsort(band, axis=1)
        ranked = np.take_along_axis(band, order, axis=1)
        ties = (ranked[:, 1:] == ranked[:, :-1]) & (np.arange(1, width) < size[a:b, None])
        tied = np.flatnonzero(ties.any(axis=1))
        if tied.size:
            order[tied] = np.argsort(band[tied], axis=1, kind="stable")
        order = order[:, :_BAND_LEN]
        band_codes = _ragged(slots, (b - a, width), code[lo:hi], _BAND_END)
        out[a:b, : order.shape[1]] = np.take_along_axis(band_codes, order, axis=1)


class _BandWriter:
    """Turns band candidates of consecutive rows, added block by block, into band codes.

    Row ``skip + j`` is written to ``out[j]``; rows before ``skip`` are
    dropped. Pending rows go through :func:`_skybands` together, as many as
    fit a scan table (rows times the most candidates one of them has) of
    ``_BLOCK_ELEMENTS // _PLANE_SHARE`` slots, the plane budget, which one
    block's candidates fit unless it is a single wider row: a block whose
    rows would overfill it first finishes the rows before it. Pending
    candidates are kept as their distances, codes and per-row counts, 12
    bytes each and 4 a row.
    """

    def __init__(self, out: np.ndarray, skip: int, k: int) -> None:
        self.out, self.k, self._skip = out, k, skip
        self._counts: list[np.ndarray] = []
        self._dists: list[np.ndarray] = []
        self._codes: list[np.ndarray] = []
        self._first = self._stop = skip  # pending rows [first, stop)
        self._widest = 0

    def add(self, stop: int, rows: np.ndarray, dist: np.ndarray, codes: np.ndarray) -> None:
        """Candidates of the rows from the previous ``stop`` up to ``stop``; ``rows`` ascending."""
        start = self._stop
        if stop <= start:
            return
        kept = rows >= start
        if not kept.all():
            rows, dist, codes = rows[kept], dist[kept], codes[kept]
        counts = np.bincount(rows - start, minlength=stop - start).astype(np.int32)
        widest = max(self._widest, int(counts.max(initial=0)))
        if start > self._first and (stop - self._first) * widest > _BLOCK_ELEMENTS // _PLANE_SHARE:
            self._finish(start)
            widest = int(counts.max(initial=0))
        self._counts.append(counts)
        self._dists.append(dist)
        self._codes.append(codes)
        self._stop, self._widest = stop, widest

    def flush(self) -> None:
        """Finish every row added."""
        self._finish(self._stop)

    def _finish(self, stop: int) -> None:
        if stop <= self._first:
            return
        counts = np.concatenate(self._counts)
        self._counts = []
        _skybands(counts, self._dists, self._codes, self.out[self._first - self._skip : stop - self._skip], self.k)
        self._first, self._widest = stop, 0


def _band_codes(gap: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Band entry ``2 * gap + label`` of a predecessor ``gap`` positions back."""
    return (2 * gap + positive).astype(np.int32)


def _stm_bands(features: np.ndarray, positive: np.ndarray, k: int) -> np.ndarray:
    """Band codes of every STM point against all its predecessors, in one blocked pass."""
    n, d = features.shape
    bands = np.empty((n, _BAND_LEN), dtype=np.int32)
    if n == 0:
        return bands
    screen = _screen_operand(features.T)
    norms = np.square(screen.aug[:d]).sum(axis=0)[None]
    writer = _BandWriter(bands, 0, k)
    for b, e in _sliding_blocks(n, lambda b: b, n):
        hi = np.arange(b, e)
        plane, slack = _band_plane(features[b:e], screen, norms, 0, np.zeros_like(hi), hi)
        rows, cols, dist = _band_candidates(
            plane, _chunk_minima(plane), slack, k, lambda rows, cols: _pair_sums(features, b + rows, cols)
        )
        writer.add(e, rows + b, dist, _band_codes(hi[rows] - cols, positive[cols]))
    writer.flush()
    return bands


def _band_votes(bands: np.ndarray, span: np.ndarray, positive: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Votes of STM points from their bands, each over its ``span`` nearest predecessors.

    A band entry codes ``2 * (i - p) + label`` for predecessor p of point i,
    so it lies in the span iff its code is at most ``2 * span + 1``. The
    first k such entries in band order are the k nearest. Returns the votes
    and the rows whose kept band holds fewer than k entries in the span (a
    band cut at ``_BAND_LEN``); their votes are not valid.
    """
    inside = bands <= (2 * span + 1).astype(np.int32)[:, None]
    rank = np.cumsum(inside, axis=1, dtype=np.int16)
    ones = _row_counts(inside & (rank <= k) & positive)
    return (2 * ones >= k).astype(np.uint8), np.flatnonzero(rank[:, -1] < k)


def _exact_votes(features: np.ndarray, positive: np.ndarray, start: int, rows: np.ndarray, k: int) -> np.ndarray:
    """Votes of STM points ``rows`` over their predecessors from ``start`` on, from distances."""
    d = features.shape[1]
    stop = int(rows.max()) + 1
    memory_t = np.ascontiguousarray(features[start:stop].T)
    step = max(1, _BLOCK_ELEMENTS // ((stop - start) * d))
    out = np.empty(len(rows), dtype=np.uint8)
    for b in range(0, len(rows), step):
        part = rows[b : b + step]
        d2 = _sq_dists(features[part], memory_t)
        d2[np.arange(stop - start)[None, :] >= (part - start)[:, None]] = np.inf
        out[b : b + step] = _vote_rows(d2, positive[start:stop], k)
    return out


def _window_errors(
    bands: np.ndarray, features: np.ndarray, labels: np.ndarray, sizes: Sequence[int], k: int
) -> list[float]:
    """Test-then-train kNN error of each suffix window of the STM, from its bands.

    Element i of a window is predicted by unweighted kNN over the window
    elements before it; the first k elements of each window are skipped. Its
    k nearest are the first k entries of its band inside the window, and a
    row whose cut band holds fewer recomputes its vote from distances.
    """
    n = len(labels)
    positive = labels == 1
    band_positive = (bands & 1).astype(bool)
    errors = []
    for size in sizes:
        first = n - size + k
        votes, short = _band_votes(bands[first:], np.arange(k, size), band_positive[first:], k)
        if short.size:
            votes[short] = _exact_votes(features, positive, n - size, first + short, k)
        errors.append(int(np.count_nonzero(votes != labels[first:])) / max(1, size - k))
    return errors


def _kmeans(points: np.ndarray, n_clusters: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means (greedy D^2 seeding, at most 10 update rounds).

    Returns (centers, assignment). Empty clusters keep their previous center.
    """
    n = len(points)
    m = min(n_clusters, n)
    if m == n:
        return points.copy(), np.arange(n)
    d = points.shape[1]
    points_t = np.ascontiguousarray(points.T)
    rows = max(1, _BLOCK_ELEMENTS // (m * d))
    first = int(rng.integers(n))
    centers = [points[first]]
    d2 = _sq_dists(points[first : first + 1], points_t)[0]
    for _ in range(1, m):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers.append(points[idx])
        d2 = np.minimum(d2, _sq_dists(points[idx : idx + 1], points_t)[0])
    c = np.array(centers)
    assign = np.zeros(n, dtype=np.intp)
    for _ in range(10):
        c_t = np.ascontiguousarray(c.T)
        new_assign = np.empty(n, dtype=np.intp)
        for start in range(0, n, rows):
            new_assign[start : start + rows] = _sq_dists(points[start : start + rows], c_t).argmin(axis=1)
        new_c = c.copy()
        for j in range(m):
            members = new_assign == j
            if members.any():
                new_c[j] = points[members].mean(axis=0)
        if np.array_equal(new_assign, assign) and np.array_equal(new_c, c):
            break
        assign, c = new_assign, new_c
    return c, assign


class MemoryBank:
    """STM + LTM instance stores with decayed sub-classifier accuracy trackers."""

    def __init__(
        self,
        dim: int,
        k: int = DEFAULT_K,
        stm_cap: int = DEFAULT_STM_CAP,
        ltm_cap: int = DEFAULT_LTM_CAP,
        min_stm_size: int = DEFAULT_MIN_STM,
        tracker_decay: float = DEFAULT_TRACKER_DECAY,
        seed: int = 0,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        check_bank_params(k, stm_cap, ltm_cap, min_stm_size, tracker_decay)
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.dim = dim
        self.k = k
        self.stm_cap = stm_cap
        self.ltm_cap = ltm_cap
        self.min_stm_size = min_stm_size
        self.tracker_decay = tracker_decay
        self.seed = seed
        self.compress_count = 0
        # Oldest first. Arrays are replaced, never written in place.
        self._stm_f = np.empty((0, dim), dtype=np.float64)
        self._stm_g = np.empty(0, dtype=np.uint8)
        self._stm_l = np.empty(0, dtype=np.uint8)
        self._ltm_f = np.empty((0, dim), dtype=np.float64)
        self._ltm_g = np.empty(0, dtype=np.uint8)
        self._ltm_l = np.empty(0, dtype=np.uint8)
        # Band codes of each STM point (see _window_errors); derived state,
        # rebuilt from the STM whenever it is replaced.
        self._stm_band = np.empty((0, _BAND_LEN), dtype=np.int32)
        # correct/total pairs, exponentially decayed.
        self._trackers = {name: [0.0, 0.0] for name in ("stm", "ltm", "combined")}

    # -- views ------------------------------------------------------------

    @property
    def stm_size(self) -> int:
        return len(self._stm_l)

    @property
    def ltm_size(self) -> int:
        return len(self._ltm_l)

    @property
    def stm_features(self) -> np.ndarray:
        return self._stm_f

    @property
    def stm_labels(self) -> np.ndarray:
        return self._stm_l

    @property
    def stm_groups(self) -> np.ndarray:
        return self._stm_g

    @property
    def ltm_features(self) -> np.ndarray:
        return self._ltm_f

    @property
    def ltm_labels(self) -> np.ndarray:
        return self._ltm_l

    @property
    def ltm_groups(self) -> np.ndarray:
        return self._ltm_g

    def tracker_accuracy(self, name: str) -> float:
        correct, total = self._trackers[name]
        return correct / total if total > 0.0 else 0.0

    def _best_store(self) -> str:
        """Sub-classifier with the highest tracked accuracy.

        Ties prefer STM, then the combined store, then LTM. With an empty LTM
        only the STM qualifies.
        """
        if self.ltm_size == 0:
            return "stm"
        best, best_acc = "stm", self.tracker_accuracy("stm")
        for name in ("combined", "ltm"):
            acc = self.tracker_accuracy(name)
            if acc > best_acc:
                best, best_acc = name, acc
        return best

    def _store_arrays(self, store: str) -> tuple[np.ndarray, np.ndarray]:
        if store == "stm":
            return self.stm_features, self.stm_labels
        if store == "ltm":
            return self._ltm_f, self._ltm_l
        return (
            np.vstack([self.stm_features, self._ltm_f]),
            np.concatenate([self.stm_labels, self._ltm_l]),
        )

    # -- fitting -----------------------------------------------------------

    def fit_chunk(self, chunk: Chunk) -> None:
        """Absorb one labeled window.

        Each instance is tested, then trained, as if one at a time: the three
        trackers score it unweighted against its label, the LTM is cleaned
        against it (LTM points of the other label inside the radius of its
        k-th nearest same-label STM point are dropped), and it enters the STM,
        evicting the oldest beyond capacity. After the window the STM length
        is re-fitted; everything the STM discarded is cleaned against the
        surviving STM, appended to the LTM, and the LTM is compressed while
        over capacity.

        The window goes in as one pass over row blocks. With C the STM
        followed by the window and s0 the STM size, instance i meets the STM
        slice ``C[max(0, s0 + i - stm_cap) : s0 + i]``. Whether it drops an
        LTM point depends on no other drop, so each LTM point has a first-drop
        step and is alive at step i iff that step is not earlier. The votes
        are row votes with +inf outside each row's slice and live LTM points;
        distance ties go to the earlier position and class ties to label 1,
        as in prediction. Each row's STM votes come from the candidates of
        its k-skyband, which is built in the same pass and then carried
        with the STM. The trackers then update in window order, and the
        eviction is the prefix ``C[:max(0, s0 + n - stm_cap)]``. The length
        re-fit reads every candidate window's votes from the carried bands.
        The result is bit-identical to the one-at-a-time loop, whatever the
        block size.
        """
        if chunk.n_features != self.dim:
            raise ValueError("chunk dimensionality does not match the bank")
        self._adapt_and_flush(*self._absorb(chunk.features, chunk.groups, chunk.labels))
        self.compress_ltm()

    def _absorb(
        self, feats: np.ndarray, groups: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Test-then-train one window (see :meth:`fit_chunk`); return what the STM evicts."""
        k, cap, d = self.k, self.stm_cap, self.dim
        s0, n = self.stm_size, len(labels)
        cf = np.concatenate([self._stm_f, feats])
        cg = np.concatenate([self._stm_g, groups])
        cl = np.concatenate([self._stm_l, labels])
        c_pos = cl == 1
        screen = _screen_operand(cf.T)
        norms = np.square(screen.aug[:d]).sum(axis=0)[None]
        lf, ll = self._ltm_f, self._ltm_l
        lf_t = np.ascontiguousarray(lf.T)
        m = len(ll)
        l_pos = ll == 1
        steps = np.arange(n)
        lo = np.maximum(0, s0 + steps - cap)  # STM slice of step i: [lo[i], s0 + i)
        stm_n = s0 + steps - lo
        first_drop = np.full(m, n)  # n: never dropped in this window
        ltm_n = np.zeros(n, dtype=np.int64)
        pred_stm = np.zeros(n, dtype=np.uint8)
        pred_ltm = np.zeros(n, dtype=np.uint8)
        pred_both = np.zeros(n, dtype=np.uint8)
        max_rows = max(1, _BLOCK_ELEMENTS // _PLANE_SHARE // m) if m else n
        blocks = _sliding_blocks(n, lambda b: min(cap, s0 + b), max_rows)
        out = max(0, s0 + n - cap)
        kept = self._stm_band[min(out, s0) :]
        band_table = np.empty((len(kept) + n - max(0, out - s0), _BAND_LEN), dtype=np.int32)
        band_table[: len(kept)] = kept
        bands = _BandWriter(band_table[len(kept) :], max(0, out - s0), k)
        for b, e in blocks:
            c0, c1 = lo[b], s0 + e
            stop = s0 + steps[b:e] - c0
            plane, slack = _band_plane(feats[b:e], screen, norms, c0, lo[b:e] - c0, stop)

            def exact(rows, cols):
                return _pair_sums(cf, s0 + b + rows, c0 + cols)

            mins = _chunk_minima(plane)
            rows, cols, dist = _band_candidates(plane, mins, slack, k, exact)
            pos = c_pos[c0 + cols]
            # Each row's k nearest STM points are among its candidates, which
            # keep their position order: votes over them are the slice's votes.
            width, slots = _ragged_slots(rows, e - b)
            near, near_pos = _ragged(slots, (e - b, width), dist, np.inf), _ragged(slots, (e - b, width), pos, False)
            if m:
                # A radius is only compared with undropped LTM points of the
                # other label; rows whose label meets none keep -inf. A
                # row's k-th smallest same-label candidate bounds its k-th
                # smallest same-label distance (+inf with fewer than k).
                undropped = first_drop == n
                meets = np.array([(undropped & (ll != y)).any() for y in (0, 1)])[labels[b:e]]
                r2 = np.full(e - b, -np.inf)
                if meets.any():
                    own = np.where(near_pos == (labels[b:e] == 1)[:, None], near, np.inf)
                    kth = _kth_smallest(own, k) if width >= k else np.full(e - b, np.inf)
                    kth[~meets] = -np.inf
                    rr, rc = _radius_candidates(plane, mins, cl[c0:c1], labels[b:e], kth + slack)
                    width, slots = _ragged_slots(rr, e - b)
                    r2 = _radii_sq(_ragged(slots, (e - b, width), exact(rr, rc), np.inf), k)
            del plane, mins  # before the band writer may need the memory
            bands.add(e, rows + b, dist, _band_codes(stop[rows] - cols, pos))
            pred_stm[b:e] = _vote_rows(near, near_pos, k)
            if m == 0:
                continue
            d2l = _sq_dists(feats[b:e], lf_t)
            drop = (d2l <= r2[:, None]) & (ll[None, :] != labels[b:e, None])
            hit = (first_drop == n) & drop.any(axis=0)
            first_drop[hit] = b + drop[:, hit].argmax(axis=0)
            alive = first_drop[None, :] >= steps[b:e, None]
            ltm_n[b:e] = _row_counts(alive)
            d2l[~alive] = np.inf
            pred_ltm[b:e] = _vote_rows(d2l, l_pos, k)
            pred_both[b:e] = _vote_rows(
                np.hstack([near, d2l]), np.hstack([near_pos, np.broadcast_to(l_pos, d2l.shape)]), k
            )
        decay = self.tracker_decay
        (sc, st), (lc, lt), (bc, bt) = (self._trackers[name] for name in ("stm", "ltm", "combined"))
        for y, ps, pl, pb, ns, nl in zip(
            labels.tolist(), pred_stm.tolist(), pred_ltm.tolist(), pred_both.tolist(), stm_n.tolist(), ltm_n.tolist()
        ):
            if ns == 0:
                continue
            sc, st = decay * sc + (ps == y), decay * st + 1.0
            if nl > 0:
                lc, lt = decay * lc + (pl == y), decay * lt + 1.0
            bc, bt = decay * bc + ((pb if nl > 0 else ps) == y), decay * bt + 1.0
        self._trackers = {"stm": [sc, st], "ltm": [lc, lt], "combined": [bc, bt]}
        if (first_drop < n).any():
            keep = first_drop == n
            self._ltm_f, self._ltm_g, self._ltm_l = lf[keep], self._ltm_g[keep], ll[keep]
        bands.flush()
        self._stm_f, self._stm_g, self._stm_l = cf[out:], cg[out:], cl[out:]
        self._stm_band = band_table
        return cf[:out], cg[:out], cl[:out]

    def _adapt_and_flush(self, evicted_f: np.ndarray, evicted_g: np.ndarray, evicted_l: np.ndarray) -> None:
        """Re-fit the STM length; clean what left the STM into the LTM."""
        cut = self._shrink_cut()
        if len(evicted_l) == 0 and cut == 0:
            return
        moved = (
            np.concatenate([evicted_f, self._stm_f[:cut]]),
            np.concatenate([evicted_g, self._stm_g[:cut]]),
            np.concatenate([evicted_l, self._stm_l[:cut]]),
        )
        self._stm_f, self._stm_g, self._stm_l = self._stm_f[cut:], self._stm_g[cut:], self._stm_l[cut:]
        self._stm_band = self._stm_band[cut:]
        self._transfer_to_ltm(*moved)

    def _shrink_cut(self) -> int:
        """How many of the oldest STM points the length re-fit drops.

        Of the candidate suffix windows, the smallest interleaved error wins,
        with ties resolved toward the larger window.
        """
        n = self.stm_size
        sizes = _candidate_sizes(n, self.min_stm_size)
        if len(sizes) == 1:
            return 0
        errors = _window_errors(self._stm_band, self._stm_f, self._stm_l, sizes, self.k)
        best = 0
        for j in range(1, len(sizes)):
            if errors[j] < errors[best]:
                best = j
        return n - sizes[best]

    def _transfer_to_ltm(self, feats: np.ndarray, groups: np.ndarray, labels: np.ndarray) -> None:
        keep = clean(feats, labels, self.stm_features, self.stm_labels, self.k)
        if not keep.any():
            return
        self._ltm_f = np.vstack([self._ltm_f, feats[keep]])
        self._ltm_g = np.concatenate([self._ltm_g, groups[keep]])
        self._ltm_l = np.concatenate([self._ltm_l, labels[keep]])

    # -- LTM compression ------------------------------------------------------

    def compress_ltm(self) -> None:
        """Halve the LTM per class with seeded k-means until under capacity."""
        while self.ltm_size > self.ltm_cap:
            rng = np.random.default_rng([self.seed, _COMPRESS_TAG, self.compress_count])
            self.compress_count += 1
            new_f: list[np.ndarray] = []
            new_g: list[np.ndarray] = []
            new_l: list[np.ndarray] = []
            for label in sorted(np.unique(self._ltm_l)):
                mask = self._ltm_l == label
                pts = self._ltm_f[mask]
                grp = self._ltm_g[mask]
                centers, assign = _kmeans(pts, math.ceil(len(pts) / 2), rng)
                m = len(centers)
                # Centroid group tag: majority of its members, ties toward 0.
                protected = np.bincount(assign[grp == 1], minlength=m)
                new_f.append(centers)
                new_g.append((2 * protected > np.bincount(assign, minlength=m)).astype(np.uint8))
                new_l.append(np.full(m, label, dtype=np.uint8))
            self._ltm_f = np.vstack(new_f)
            self._ltm_g = np.concatenate(new_g)
            self._ltm_l = np.concatenate(new_l)

    # -- state snapshots --------------------------------------------------------

    def _checked(
        self, features: np.ndarray, labels: np.ndarray, groups: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of a memory's arrays.

        ValueError unless they are n rows of features bounded as a
        :class:`Chunk`'s, with 0/1 labels and groups.
        """
        f = np.array(features, dtype=np.float64).reshape(-1, self.dim)
        check_features(f, "memory features")
        l = np.asarray(labels)
        g = np.zeros(len(l), dtype=np.uint8) if groups is None else np.asarray(groups)
        if l.ndim != 1 or g.shape != l.shape or len(f) != len(l):
            raise ValueError(f"memory arrays disagree: {len(f)} feature rows, labels {l.shape}, groups {g.shape}")
        check_binary(l, "memory labels")
        check_binary(g, "memory groups")
        return f, l.astype(np.uint8), g.astype(np.uint8)

    def replace_stm(self, features: np.ndarray, labels: np.ndarray, groups: np.ndarray | None = None) -> None:
        """Overwrite the STM contents (restore and test hook); rebuilds the STM bands."""
        f, l, g = self._checked(features, labels, groups)
        if len(l) > self.stm_cap:
            raise ValueError("more instances than the STM capacity")
        self._stm_f, self._stm_g, self._stm_l = f, g, l
        self._stm_band = _stm_bands(f, l == 1, self.k)

    def replace_ltm(self, features: np.ndarray, labels: np.ndarray, groups: np.ndarray | None = None) -> None:
        self._ltm_f, self._ltm_l, self._ltm_g = self._checked(features, labels, groups)

    def state_hash(self) -> str:
        """Digest of everything that influences future behavior."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.stm_features).tobytes())
        h.update(self.stm_groups.tobytes())
        h.update(self.stm_labels.tobytes())
        h.update(np.ascontiguousarray(self._ltm_f).tobytes())
        h.update(self._ltm_g.tobytes())
        h.update(self._ltm_l.tobytes())
        for name in ("stm", "ltm", "combined"):
            h.update(struct.pack("<2d", *self._trackers[name]))
        h.update(struct.pack("<qQ", self.seed, self.compress_count))
        return h.hexdigest()

    def to_bytes(self) -> bytes:
        """Versioned binary snapshot: header, trackers, instance arrays, CRC-32 of all before it."""
        out = io.BytesIO()
        out.write(_SNAPSHOT_MAGIC)
        out.write(
            struct.pack(
                _SNAPSHOT_HEAD,
                _SNAPSHOT_VERSION,
                self.dim,
                self.k,
                self.stm_cap,
                self.ltm_cap,
                self.min_stm_size,
                self.tracker_decay,
                self.seed,
                self.compress_count,
            )
        )
        for name in ("stm", "ltm", "combined"):
            out.write(struct.pack("<2d", *self._trackers[name]))
        for feats, groups, labels in (
            (self.stm_features, self.stm_groups, self.stm_labels),
            (self._ltm_f, self._ltm_g, self._ltm_l),
        ):
            out.write(struct.pack("<I", len(labels)))
            out.write(np.ascontiguousarray(feats, dtype="<f8").tobytes())
            out.write(groups.astype(np.uint8).tobytes())
            out.write(labels.astype(np.uint8).tobytes())
        out.write(struct.pack("<I", zlib.crc32(out.getbuffer())))
        return out.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MemoryBank":
        """Rebuild a bank from :meth:`to_bytes` output; its STM bands are rebuilt.

        A truncated blob, trailing bytes, a checksum that does not match,
        impossible trackers, and settings or arrays a bank rejects raise
        ValueError.
        """
        pos = 0

        def take(size: int) -> bytes:
            nonlocal pos
            if size > len(blob) - pos:
                raise ValueError("truncated memory snapshot")
            pos += size
            return blob[pos - size : pos]

        if take(4) != _SNAPSHOT_MAGIC:
            raise ValueError("not a memory snapshot")
        version, dim, k, stm_cap, ltm_cap, min_stm, decay, seed, count = struct.unpack(
            _SNAPSHOT_HEAD, take(struct.calcsize(_SNAPSHOT_HEAD))
        )
        if version != _SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        trackers = [list(struct.unpack("<2d", take(16))) for _ in range(3)]
        arrays = []
        for _ in range(2):
            (n,) = struct.unpack("<I", take(4))
            feats = np.frombuffer(take(8 * n * dim), dtype="<f8").reshape(n, dim)
            arrays.append((feats, np.frombuffer(take(n), dtype=np.uint8), np.frombuffer(take(n), dtype=np.uint8)))
        if len(blob) - pos > 4:
            raise ValueError(f"{len(blob) - pos - 4} trailing bytes after the memory snapshot")
        (crc,) = struct.unpack("<I", take(4))
        if crc != zlib.crc32(blob[: pos - 4]):
            raise ValueError("memory snapshot checksum mismatch")
        # The fit's decayed sums start at (0, 0) and add at most as much to
        # the correct count as to the total, so no fit leaves correct > total.
        if not all(0.0 <= c <= t < math.inf for c, t in trackers):
            raise ValueError("memory snapshot trackers must be finite with 0 <= correct <= total")
        bank = cls(dim, k, stm_cap, ltm_cap, min_stm, decay, seed)
        bank.compress_count = count
        bank._trackers = dict(zip(("stm", "ltm", "combined"), trackers))
        (sf, sg, sl), (lf, lg, ll) = arrays
        bank.replace_stm(sf, sl, sg)
        bank.replace_ltm(lf, ll, lg)
        return bank


class FrozenChunkPredictor:
    """Batch predictor binding one query block to a frozen memory bank.

    The constructor copies the queries and the currently best store, the
    store once in the kernel's layout (:func:`_label_ordered`): transposed to
    (d, m), label-1 points first, each label in position order, and again
    centred as the screen's (d + 2, m) product operand. Later fits leave its
    predictions unchanged. :meth:`predict` runs the module's single weighted
    kNN kernel: one weight vector (d,) gives (n,) votes, a stack (S, d) gives
    (S, n), row s equal to predicting with the s-th vector alone. Each row
    votes from the t-th nearest positive and u-th nearest negative distance,
    screened by stacked BLAS products, a group of weight vectors per product
    and row block; rows the
    screen cannot certify recompute their order-defined distances in position
    order and vote through :func:`_vote_rows`. Every vote is the one the
    order-defined left-to-right sums over features give, so results are
    bitwise identical to a one-row predictor per query, whatever the row
    block size (``_BLOCK_ELEMENTS`` float64 elements of a block's S distance
    planes, at least one row). The row blocks run one after another on the
    calling thread, sharing one block buffer and one stack of product
    operands, so a call's scratch peaks at about one block and one operand
    stack. The predictor keeps no state between calls: each call computes
    every vote it returns.
    """

    def __init__(self, features: np.ndarray, bank: MemoryBank) -> None:
        if bank.stm_size == 0:
            raise ValueError("cannot predict with an empty STM")
        x = np.array(features, dtype=np.float64, order="C")
        if x.ndim != 2 or x.shape[1] != bank.dim:
            raise ValueError(f"queries must have shape (n, {bank.dim})")
        check_features(x, "query features")
        self._x = x
        self._memory = _label_ordered(*bank._store_arrays(bank._best_store()))
        self._k = bank.k

    def predict(self, alpha: np.ndarray) -> np.ndarray:
        alpha = check_weights(alpha, self._x.shape[1])
        votes = _weighted_votes(self._x, self._memory, self._k, np.atleast_2d(alpha))
        return votes[0] if alpha.ndim == 1 else votes
