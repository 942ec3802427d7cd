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
Cleaning, k-means, the absorb's LTM distances and the exact votes that
the re-fit and the prediction kernel fall back on (:func:`_exact_votes`)
compute it for a block of points against a whole memory
(:func:`_sq_dists`): the memory is passed transposed as (d, m), and each
feature in turn writes its (r, m) plane of terms and adds it to the sums.
The window absorb computes it only for the (point, STM point) pairs a
screen leaves open, gathering both rows of each pair and adding the
features' columns in order (:func:`_pair_sums`). A distance is therefore
the same float whichever block, row, pair or code path computes it, equal
to the plain left-to-right float sum. Each block's distances hold at most
``_BLOCK_ELEMENTS`` float64 values (at least one row), and no scratch
grows with the number of features, so memory stays bounded however large
rows times memory grows.

Prediction and maintenance share one screen: a memory centred on each
feature's mid-range as a (d + 2, m) product operand
(:func:`_screen_operand`), BLAS products of one weight vector and row block
(:func:`_screen_planes`), and a per-row margin E (:func:`_screen_margin`)
that bounds how far a screened distance may lie from its order-defined one.
Both only compare distances, so a comparison the margin decides needs no
order-defined sum. Maintenance screens in float64 planes; the kernel in
float32 planes wherever the data's range fits them, float64 otherwise.

Every weighted prediction goes through one kernel, and every vote it returns
equals the vote of the order-defined distances; BLAS only screens. The
kernel screens the memory label-ordered, label-1 points first and each label
in position order, and centred on each feature's mid-range. It takes the S
weight vectors w of a stack one at a time, and for each walks the queries in
row blocks. BLAS matrix products of a block's rows
``[-2 w x', |x'|^2_w, 1]`` with the memory's columns ``[m'; 1; |m'|^2_w]``
write the block's distances by the expansion
``|x' - m'|^2_w = |x'|^2_w + |m'|^2_w - 2 <w x', m'>``, with no difference
block; their rounding follows the block shape and the BLAS build. The
planes are float32 where every row's scale lies inside float32's normal
range (:func:`_screen_margin` decides per call; the reference streams'
data always fit), else float64: the rows and columns are formed in
float64 and rounded once into the planes' dtype. With
kk = min(k, m) a row votes 1 iff the t-th nearest positive,
t = ceil(kk / 2), comes before the u-th nearest negative, u = kk - t + 1.
So the products write each label side of a block as its own C-contiguous
plane, positives (r, npos) and negatives (r, m - npos), and the t-th
smallest of each positive row and the u-th smallest of each negative row
(:func:`_kth_smallest`, which peels row minima with ``argmin``) give the
two order statistics ``a`` and ``b`` of every row, widened to float64. The
BLAS sums and the order-defined ones both lie within a proven error of the
exact sums, relative to a per-row scale of the centred data (in the planes'
unit roundoff) plus an absolute term of the planes' subnormal step, so
where ``a`` and ``b`` are farther apart than that margin the vote is
certified; every other row (near ties, and exact ties that
position decides) takes the vote of its order-defined distances under that
vector to the memory in position order (:func:`_exact_votes`). A label too
short for its quota makes the vote a constant. Memories and queries hold features of
magnitude at most ``stream._FEATURE_BOUND``, so every distance is finite.
The kernel runs its blocks one after another on the calling thread,
reusing one block buffer and one copy of the memory's operand. A vote
depends on its row and vector alone, so it is the same whatever the block
shape, the stack or BLAS's thread count: a one-row
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
:func:`_kth_finite`) come from them. The LTM votes are row votes over
each block's order-defined distances to the LTM (:func:`_sq_dists`).

Maintenance tables are ragged, and +inf marks no point (no distance is
+inf, as features are bounded), built from row-major hits through a valid
mask (:func:`_table`). Each row's k-th finite entry (:func:`_kth_finite`)
is its vote threshold (:func:`_vote_rows`) and its radius. A block's band
candidates stay one such table, rows by candidates in position order, from
the screen (:func:`_band_candidates`) through the votes to the band writer
(:class:`_BandWriter`); its radius candidates are another.

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
the absorb screens anyway, and replacing or restoring the STM absorbs it as
one window into an empty bank, which builds them the same way; they are in
neither the snapshot nor :meth:`MemoryBank.state_hash`.

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
_SNAPSHOT_VERSION = 4
_SNAPSHOT_HEAD = "<IIIIIIdqQ"

# Largest number of elements in one row block of the kernel's distance
# plane (r, m) under one weight vector: 1 MiB of float32 planes, or 2 MiB
# where the data's range sends the kernel to float64 planes. The kernel's
# exact-vote fallback (_exact_votes) runs beside its block in chunks of a
# _GATHER_SHARE-th as many float64 distances, so a kernel call peaks at
# about one float64 block at most. Cleaning and k-means run in row blocks of at most
# this many float64 squared differences (rows x memory x features), one
# block at a time; the absorb's planes are float64 too (_PLANE_SHARE). The
# size is not a cache fit (a 2 MiB block does not fit beside its memory in
# a 2 MiB L2 per core). Kernel sweeps on such a core with float64 planes
# (d = 8; 250 x 315 and 250 x 1000 with S = 20, 1000 x 3096 with S = 1, 10
# and 30; 2 rounds on a busy host) ran 2^16 to 2^20 elements in an order
# that changed from round to round, 2^18 within 1.0-1.7x of the best; at
# S = 30 2^18 was fastest in both rounds (140-146 ms, the others 151-249).
# It has not been re-timed with float32 planes.
_BLOCK_ELEMENTS = 1 << 18
# Most multiply-adds in one BLAS call of the kernel's screen. OpenBLAS may run
# a larger product on its own threads (its bound is 65536 times
# GEMM_MULTITHREAD_THRESHOLD, 4 by default) unless told to use one thread.
# Kernel calls of 1000 x 3096 on a 2-CPU machine (OpenBLAS 0.3.31, equal
# votes split and unsplit): with BLAS threads unset and d = 8, 384 unsplit
# calls with S = 1 took at most 15 ms (medians 5.7 ms, split 4.8), and S = 10
# ran 47-49 ms split against 58 ms unsplit. On one BLAS thread with S = 10
# the split was within 10% at d = 8 but lost at d = 64 (268-283 ms against
# 125-129) and d = 108 (694-728 against 184-189; ROADMAP item 12).
_SCREEN_CALL = 1 << 18
# The window absorb's screened STM plane of a row block holds at most
# _BLOCK_ELEMENTS // _PLANE_SHARE values (1 MiB); so do its LTM distances
# and their scratch plane (_sq_dists), and the band writer's scan table
# holds as many slots, which one block's candidate table fills at most. A
# block peaks at 1.5 times its plane (the chunk minima and the scratch of
# their bounds, see _chunk_minima and _later_bound); a flush at its scan
# and code tables, 12 bytes a slot, beside the pending candidate tables at
# 12 bytes a padded slot (_BandWriter).
# On the fit peak-memory test's large case (STM and window 2000, d = 16) the
# fit peaks at 5.0 MB, and at 3.5 MB with share 4, under which 20
# default-scale windows take twice the blocks (590, not 300) and nearly
# twice the flushes (37, not 20). Share 1 peaks at 7.1 MB, a 2 MiB plane
# beside the pending tables.
_PLANE_SHARE = 2
# Gathered rows of the absorb's exact pair sums and the tables a flush sorts
# go through in chunks of at most _BLOCK_ELEMENTS // _GATHER_SHARE values or
# slots (128 KiB of float64), as do the distances of _exact_votes (at least
# one row): a chunk's distances, their scratch plane and the vote's
# selection copy take about three sixteenths of the kernel's block (the
# fallback-scratch test peaks at 1.28-1.31 blocks with d = 8). Pair-sum
# chunks of 2^16 values held 1 MiB of gathered rows at the peak of the fit
# peak-memory test's large case; chunks of 2^14 took the 7-window reference
# fit's pair sums from 14.0 to 14.8 ms.
_GATHER_SHARE = 16

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
    slot, then gathers the last round's minima. Returns a new array of the
    leading shape, each value equal to ``np.partition``'s q-th element of
    its row (for input without NaN; q at most the row length). Each round is
    one pass over the rows, so the cost grows with q: with k = 5 the kernel
    peels q = 3 and the other selections q = 5.
    """
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
    earlier position, class-vote ties go to label 1. Each row's threshold
    is its k-th finite entry (:func:`_kth_finite` on a copy); when at most k
    points lie at or below it they are the k nearest, or all of the row's.
    Only rows with more than k such points (ties at the k-th distance) take
    all strictly closer points plus the earliest-position tied ones, which
    reproduces a stable (distance, position) sort exactly. A row with k
    points or fewer votes with all of them, and a row with none votes 1.
    """
    kth = _kth_finite(dist2.copy(), k)[:, None]
    near = dist2 <= kth
    ones = _row_counts(near & positive)
    size = _row_counts(near)
    tied = np.flatnonzero(size > k)
    if tied.size:
        sub, sub_kth = dist2[tied], kth[tied]
        strict = sub < sub_kth
        need = k - _row_counts(strict)
        tie = sub == sub_kth
        sel = strict | (tie & (np.cumsum(tie, axis=1) <= need[:, None]))
        ones[tied] = _row_counts(sel & (positive[tied] if positive.ndim == 2 else positive))
    return (2 * ones >= np.minimum(size, k)).astype(np.uint8)


def _kth_finite(dist2: np.ndarray, k: int) -> np.ndarray:
    """The k-th smallest finite entry of each row; +inf marks no point.

    The k-th smallest (:func:`_kth_smallest`), or the largest when a row has
    fewer than k; -inf for a row with none, so nothing lies at or below it.
    This is each row's vote threshold (:func:`_vote_rows`) and its squared
    cleaning radius. Overwrites ``dist2``.
    """
    n, m = dist2.shape
    if m == 0:
        return np.full(n, -np.inf)
    kk = min(k, m)
    short = np.flatnonzero(_row_counts(dist2 == np.inf) > m - kk)
    sub = dist2[short]
    largest = np.where(sub != np.inf, sub, -np.inf).max(axis=1, initial=-np.inf)
    kth = _kth_smallest(dist2, kk)
    kth[short] = largest
    return kth


def _table(counts: np.ndarray, values: np.ndarray, fill) -> np.ndarray:
    """Table of row-major ``values``: row i holds the next ``counts[i]`` from column 0, then ``fill``."""
    valid = np.arange(counts.max(initial=0)) < counts[:, None]
    table = np.full(valid.shape, fill, dtype=values.dtype)
    table[valid] = values
    return table


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


def _exact_votes(
    points: np.ndarray,
    memory_t: np.ndarray,
    positive: np.ndarray,
    k: int,
    w: np.ndarray | None = None,
    seen: np.ndarray | None = None,
) -> np.ndarray:
    """Votes of ``points`` (r, d) from their order-defined distances to a (d, m) memory.

    The distances are :func:`_sq_dists`'s and the votes :func:`_vote_rows`'s.
    ``positive`` (m,) marks the memory's label-1 points and ``w`` weights
    the features (all ones by default). Given ``seen``, row i sees only the
    memory's first ``seen[i]`` points. Rows go through in chunks of at most
    ``_BLOCK_ELEMENTS // _GATHER_SHARE`` distances (at least one row).
    """
    m = memory_t.shape[1]
    step = max(1, _BLOCK_ELEMENTS // (_GATHER_SHARE * m))
    out = np.empty(len(points), dtype=np.uint8)
    for b in range(0, len(points), step):
        d2 = _sq_dists(points[b : b + step], memory_t, w)
        if seen is not None:
            d2[np.arange(m) >= seen[b : b + step, None]] = np.inf
        out[b : b + step] = _vote_rows(d2, positive, k)
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

    memory_t: np.ndarray  # (d, m) in position order, for the fallback's order-defined distances
    positive: np.ndarray  # (m,): the label-1 points
    npos: int  # number of label-1 points
    screen: _Screen  # the screen's product operand: label-1 points first, each label in position order


def _label_ordered(features: np.ndarray, labels: np.ndarray) -> _KernelMemory:
    """The kernel's memory layout: a (d, m) copy in position order and a label-ordered screen operand.

    The screen's operand (:func:`_screen_operand`) takes the label-1 points
    first, each label in position order (a stable argsort of
    ``labels != 1``), so each label side of a block is one column slice of
    it. The fallback reads the position-order copy and the label mask.
    """
    positive = labels == 1
    memory_t = np.ascontiguousarray(features.T)
    screen = _screen_operand(memory_t[:, np.argsort(~positive, kind="stable")])
    return _KernelMemory(memory_t, positive, int(np.count_nonzero(positive)), screen)


def _screen_planes(
    xc: np.ndarray, w: np.ndarray, xn: np.ndarray, op: np.ndarray, mn: np.ndarray, plane: np.ndarray
) -> np.ndarray:
    """Screen distances of r centred queries ``xc`` (r, d) under one weight vector ``w`` (d,).

    ``xn`` (r,) and ``mn`` (cols,) are the weighted squared norms of the
    centred queries and memory points. ``op`` is the memory's (d + 2, cols)
    product operand (:func:`_screen_operand`, or a column slice of it, in
    the plane's dtype), whose last row this overwrites with ``mn``. BLAS
    products of the rows ``[-2 w * x', xn, 1]`` with ``op`` write the
    (r, cols) ``plane``: ``|x'|^2 + |m'|^2 - 2 <w x', m'>``, the weighted
    squared distance by expansion, with no difference block. ``xc``, ``w``,
    ``xn`` and ``mn`` are float64; ``-2 w * x'`` is formed in float64, and
    it and both norms are rounded once into the plane's dtype, float64 or
    float32. Each product takes at most ``_SCREEN_CALL`` multiply-adds. The
    summation order (blocking, fused multiply-adds) is the BLAS build's, so
    these distances are not the order-defined ones: callers only compare
    them, with the margin of :func:`_screen_margin` for the plane's dtype.
    """
    r, d = xc.shape
    K, m = op.shape
    lhs = np.empty((r, K), dtype=plane.dtype)
    np.multiply(xc, -2.0 * w, out=lhs[:, :d])
    lhs[:, d] = xn
    lhs[:, d + 1] = 1.0
    op[d + 1] = mn
    cols = max(1, min(m, _SCREEN_CALL // K))
    step = max(1, _SCREEN_CALL // (K * cols))
    for i in range(0, r, step):
        for c in range(0, m, cols):
            np.matmul(lhs[i : i + step], op[:, c : c + cols], out=plane[i : i + step, c : c + cols])
    return plane


def _screen_margin(
    w: np.ndarray, xc: np.ndarray, reach: np.ndarray, dtype: type
) -> tuple[np.ndarray, type]:
    """Certified margin E (S, n) of screen planes in ``dtype`` for weight rows ``w`` (S, d) and centred rows ``xc``.

    ``xc`` is (n, d) and ``reach`` the memory's (:func:`_screen_operand`).
    Returns E and the planes' dtype it holds for: ``dtype``, or float64
    where float32 is asked for but the data's range does not fit it
    (below).

    Let u be the planes' unit roundoff and s their subnormal step: 2^-53
    and 2^-1074 for float64, 2^-24 and 2^-149 for float32. Every rounding,
    in float64 or in the planes' dtype, is ``fl(x) = x(1 + e) + h`` with
    |e| <= u, |h| <= s/2, h = 0 for sums and differences; a cast from
    float64 into float32 planes is one more such rounding, and into float64
    planes none. Let D be the exact sum ``sum_f w_f (m_f - x_f)^2`` of the
    float inputs, M'_f >= |m'_f| over the memory (``reach``) and, per
    (vector, row), the scale ``T = sum_f w_f (|x'_f| + M'_f)^2``, so
    D <= T(1 + 3u). A term of the order-defined sum (float64) meets at most
    d + 3 factors (1 + e) on its way (the difference's twice, once
    squared), so that sum lies within (d + 4) u T + 3d s/2 of D.

    The screened value G (:func:`_screen_planes`) sums K = d + 2 products
    of the rows ``l_f = c(fl(-2 w_f x'_f))``, ``c(fl(|x'|^2_w))``, 1 with
    the columns ``c(m'_f)``, 1, ``c(fl(|m'|^2_w))``, fl in float64 and c the
    cast. Their exact sum P differs from the exact centred distance
    ``C = sum_f w_f (m'_f - x'_f)^2`` by at most gamma_{d+2} T (a cross term
    meets three factors (1 + e), a norm d + 2), plus 1.01 u |x'|^2_w, plus
    1.01 s sum M' + (2.03d + 1) s. The cast of m'_f adds at most s/2 to a
    product with |l_f| <= 2 w_f |x'_f|(1 + gamma_2), and by AM-GM
    2 |x'_f| s/2 <= u x'_f^2 + s^2 / (4u); the absolute errors of l_f, at
    most 1.01 s, meet |m'_f| <= M'_f; each norm gathers (1.01d + 0.5) s. In
    any order, with or without fused multiply-adds, G lies within gamma_K
    of P relative to the products' magnitudes, at most
    (1 + gamma_{d+2} + 1.01 u) T, plus K s. C differs from D by the
    centring, at most 3u T. For (d + 2)^2 u <= 2^-6 the second-order terms
    stay below 0.1 u T, so both sums lie within ``rho0 T + A0`` of D, with
    rho0 = (2d + 9) u and A0 = (2 sum M' + 8d + 8) s, and a screened value
    lies within 2(rho0 T + A0) of its order-defined one. The bound is the
    same for every column of a row, so it carries to order statistics,
    minima and maxima over any of a row's columns. Centring keeps T, and so
    the margin, proportional to the data's spread however far the data lie
    from zero.

    float32 planes must also hold every value the screen writes. Let
    ``U = sum_f (|x'_f| + M'_f)^2`` be a row's scale at unit weights, so
    T <= U for weights in [0, 1]. A row's operands are at most 2 sqrt(U) + s
    (the norms at most (1 + gamma_{d+2}) U), and its products and partial
    sums at most (1 + gamma_K)(1 + gamma_{d+2} + 1.01 u) U < 2U. So where
    every row has U <= 2^126, nothing exceeds 2^127, below float32's largest
    finite value 2^128 (1 - 2^-24), and no cast, product or sum overflows.
    Where a row has U < 2^-126, its unit-weight distances are subnormal in
    float32 and A, at least 3 times rho U there, would decide its votes;
    float64's subnormal step is 2^-925 times float32's. So float32 planes
    are used only where (d + 2)^2 2^-24 <= 2^-6 (d up to 510) and every row
    has 2^-126 <= U <= 2^126, float32's normal range with a factor of 2 to
    spare at the top; float64 planes otherwise.

    The margin is ``E = fl(fl(rho T^) + A)`` in float64, T^ the scale
    computed in float64 (within (d + 4) 2^-53 T + 3d 2^-1075 of T),
    rho = (8d + 40) u and A = (10 sum M' + 40d + 40) s = 5 A0. Let y and z be
    screened values of one row (entries, or order statistics of its
    columns, widened to float64) and Y and Z their order-defined
    counterparts. A float64 comparison of ``y + E`` rounds once, by at most
    2^-53 |y + E|, and |y| is at most (1 + 3u + 3 rho0) T + 3 A0 however
    it cancels, so E (1 - 2^-53) - 2^-53 |y| still exceeds 4(rho0 T + A0):
    ``y + E < z`` implies Y < Z and ``y - E > z`` implies Y > Z. Likewise
    ``fl(z + 2E)`` is at least z + 4(rho0 T + A0), so Y <= Z implies
    ``y <= fl(z + 2E)``. This assumes IEEE 754 rounding to nearest without
    flushing subnormals to zero, in float64 and float32 casts and products
    alike, which is numpy's and OpenBLAS's default
    (``test_float32_casts_and_products_keep_subnormals`` checks it on the
    build it runs on).
    """
    d = xc.shape[1]
    spread = (np.abs(xc) + reach) ** 2
    if dtype == np.float32:
        unit = spread.sum(axis=1)  # each row's U
        if (d + 2) ** 2 > 2**18 or unit.min(initial=1.0) < 2.0**-126 or unit.max(initial=1.0) > 2.0**126:
            dtype = np.float64
    info = np.finfo(dtype)
    u, s = float(info.eps) / 2, float(info.smallest_subnormal)
    scale = np.einsum("sf,nf->sn", w, spread)
    return scale * ((8 * d + 40) * u) + (10 * float(reach.sum()) + 40 * d + 40) * s, dtype


def _weighted_votes(queries: np.ndarray, memory: _KernelMemory, k: int, alphas: np.ndarray) -> np.ndarray:
    """The weighted kNN kernel: votes of every query under every weight vector.

    ``queries`` is (n, d); ``memory`` is in :func:`_label_ordered` layout;
    ``alphas`` is a validated (S, d) stack. Returns (S, n) uint8, equal to
    :func:`_vote_rows` on each row's order-defined distances
    ``sum_f alpha_f^2 (m_f - x_f)^2`` (added left to right,
    :func:`_sq_dists`) in position order, so a vote depends neither on the
    block its row lands in nor on the BLAS build. A block is one weight
    vector and a run of query rows whose two label planes, (r, npos) and
    (r, m - npos), hold at most ``_BLOCK_ELEMENTS`` elements together (at
    least one row); both are C-contiguous pieces of one buffer. The
    buffer is float32, or float64 where the data's range does not fit
    float32 (:func:`_screen_margin` chooses once per call). It and a copy
    of the memory's product operand in its dtype, whose scratch row takes
    each vector's memory norms, are allocated once per call and reused by
    every block, so a call holds about one block, and concurrent calls
    share no scratch.

    With kk = min(k, m), a row votes 1 iff at least t = ceil(kk / 2) of its kk
    nearest points are positive, that is iff in the stable (distance,
    position) order the t-th nearest positive comes before the u-th nearest
    negative, u = kk - t + 1. With fewer than u negatives every row votes 1,
    and with fewer than t positives every row votes 0. Otherwise
    :func:`_screen_planes` writes each block's planes from the centred
    queries ``x' = fl(x - mu)`` and memory ``m' = fl(m - mu)``, once per
    label side: on the positive columns of the operand and memory norms into
    the positive plane, then on the negative columns into the negative
    plane, so no operand is copied. :func:`_kth_smallest` overwrites each
    plane as it takes ``a``, the t-th smallest positive distance, and ``b``,
    the u-th smallest negative one, of every row. The order-defined vote is
    1 if the order-defined ``a`` is below the order-defined ``b``, 0 if
    above, and decided by position on a tie. With E the row's margin under
    the vector (:func:`_screen_margin`), the kernel widens ``a`` and ``b``
    to float64 and votes 1 where ``a + E < b`` and 0 where ``a - E > b``,
    which certifies the order-defined vote. Every other row (near ties,
    exact ties) of a block gets its vote from :func:`_exact_votes` under
    that vector, over the memory's position-order copy and label mask, in
    chunks of at most ``_BLOCK_ELEMENTS // _GATHER_SHARE`` distances beside
    the block.
    """
    n, d = queries.shape
    m = memory.memory_t.shape[1]
    npos, screen = memory.npos, memory.screen
    kk = min(k, m)
    t = (kk + 1) // 2
    u = kk - t + 1
    out = np.zeros((alphas.shape[0], n), dtype=np.uint8)
    if npos < t:
        return out
    if m - npos < u:
        out[:] = 1
        return out
    w = alphas * alphas
    rows = max(1, min(n, _BLOCK_ELEMENTS // m))
    xc = queries - screen.centre
    xn = np.einsum("sf,nf->sn", w, xc * xc)
    mn = np.einsum("sf,fm->sm", w, screen.aug[:d] * screen.aug[:d])
    margin, dtype = _screen_margin(w, xc, screen.reach, np.float32)
    buf = np.empty(rows * m, dtype=dtype)
    op = screen.aug.astype(dtype)
    for s in range(len(w)):
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            r = stop - start
            x, e = xc[start:stop], margin[s, start:stop]
            pos = buf[: r * npos].reshape(r, npos)
            neg = buf[r * npos : r * m].reshape(r, m - npos)
            a = _kth_smallest(_screen_planes(x, w[s], xn[s, start:stop], op[:, :npos], mn[s, :npos], pos), t)
            b = _kth_smallest(_screen_planes(x, w[s], xn[s, start:stop], op[:, npos:], mn[s, npos:], neg), u)
            # widened before they meet the float64 margin
            a, b = a.astype(np.float64), b.astype(np.float64)
            vote = a + e < b
            out[s, start:stop] = vote
            sub = start + np.flatnonzero(~(vote | (a - e > b)))
            if sub.size:
                out[s, sub] = _exact_votes(queries[sub], memory.memory_t, memory.positive, k, w[s])
    return out


def _sliding_blocks(stop: int, s0: int, cap: int, max_rows: int) -> list[tuple[int, int]]:
    """Row blocks [b, e) covering 0..stop of a window absorbed after s0 STM points, each as large as fits.

    Block [b, e) meets ``min(cap, s0 + b) + e - b`` columns, so its distance
    block of (e - b) rows and those columns holds at most
    ``_BLOCK_ELEMENTS // _PLANE_SHARE`` values.
    A block has at least one row and at most ``max_rows``.
    """
    blocks = []
    q = _BLOCK_ELEMENTS // _PLANE_SHARE
    b = 0
    while b < stop:
        w = min(cap, s0 + b)
        r = max(1, min(max_rows, (math.isqrt(w * w + 4 * q) - w) // 2))
        blocks.append((b, min(stop, b + r)))
        b += r
    return blocks


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
    Distances are unweighted. The reference is read one label at a time:
    over row blocks of that label's points, each radius comes from their
    distances to each other (:func:`_kth_finite`, the row's own point
    excluded) and is tested against the targets of the other labels only.
    """
    tf = np.asarray(target_features, dtype=np.float64)
    tl = np.asarray(target_labels)
    rf = np.asarray(reference_features, dtype=np.float64)
    rl = np.asarray(reference_labels)
    keep = np.ones(len(tl), dtype=bool)
    if len(tl) == 0 or len(rl) == 0:
        return keep
    d = rf.shape[1]
    for y in np.unique(rl):
        own, other = rf[rl == y], np.flatnonzero(tl != y)
        own_t, tf_t = np.ascontiguousarray(own.T), np.ascontiguousarray(tf[other].T)
        n = len(own)
        rows = max(1, _BLOCK_ELEMENTS // (max(n, len(other)) * d))
        for b in range(0, n, rows):
            e = min(n, b + rows)
            dist2 = _sq_dists(own[b:e], own_t)
            dist2[np.arange(e - b), np.arange(b, e)] = np.inf
            r2 = _kth_finite(dist2, k)
            keep[other] &= ~(_sq_dists(own[b:e], tf_t) <= r2[:, None]).any(axis=0)
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
    (:func:`_screen_operand`) and ``norms`` (m,) its points' unweighted
    squared norms. The plane is :func:`_screen_planes` under unit weights,
    NaN outside each row's columns, its width padded with NaN to whole band
    chunks. The slack is twice the screen's margin E
    (:func:`_screen_margin`): where an entry's order-defined distance is at
    most another's (or an order statistic's), its screened value is at most
    the other's plus the slack.
    """
    r, d = points.shape
    w = int(stop[-1]) + 1
    ones = np.ones(d)
    xc = points - screen.centre
    plane = np.empty((r, max(1, -(-w // _BAND_CHUNK)) * _BAND_CHUNK))
    plane[:, w:] = np.nan
    cols = slice(c0, c0 + w)
    _screen_planes(xc, ones, (xc * xc).sum(axis=1), screen.aug[:, cols], norms[cols], plane[:, :w])
    # only the first first.max() and the last w - stop.min() columns hold entries outside a row's
    left, right = int(first.max()), int(stop.min())
    np.copyto(plane[:, :left], np.nan, where=np.arange(left) < first[:, None])
    np.copyto(plane[:, right:w], np.nan, where=np.arange(right, w) >= stop[:, None])
    margin, _ = _screen_margin(ones[None], xc, screen.reach, np.float64)
    return plane, 2.0 * margin[0]


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
) -> tuple[np.ndarray, np.ndarray]:
    """A superset of each row's k-skyband in a :func:`_band_plane`, as (r, W) column and distance tables.

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
    those are closer. Row i of the tables holds row i's candidates in
    position order from column 0 on, W the most any row keeps; the distance
    table pads with +inf and the column table with 0.
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
        counts = np.minimum(counts, most)
    table = _table(counts, dist, np.inf)
    # no distance is +inf, so the table's finite slots, in row-major order, are the hits
    keep = (table <= _later_bound(table, k))[table != np.inf]
    counts = np.bincount(rows[keep], minlength=r)
    return _table(counts, cols[keep], 0), _table(counts, dist[keep], np.inf)


def _radius_candidates(
    plane: np.ndarray,
    mins: np.ndarray,
    col_labels: np.ndarray,
    row_labels: np.ndarray,
    bound: np.ndarray,
    exact: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """The entries a cleaning radius can rest on, from screened distances, as an (r, W) distance table.

    ``plane`` is a :func:`_band_plane` whose first ``len(col_labels)``
    columns are labelled ``col_labels``, and ``mins`` its
    :func:`_chunk_minima`. A row's entries are its non-NaN columns of its
    own label (``row_labels``), and it keeps those whose screened value is
    at most its ``bound``. For ``bound = fl(V + 2E)``, 2E the row's slack
    and V an order-defined distance at least its k-th smallest entry's (the
    k-th smallest of any k of its entries, say), the margin's
    ``U <= V => u <= fl(v + 2E)`` (:func:`_screen_margin`; it holds for any
    v within the screen's error of V, so for v = V) keeps every entry up to
    the k-th smallest, so :func:`_kth_finite` over the kept entries'
    order-defined distances is the row's radius. A bound of +inf keeps all
    of a row's entries, and -inf none. The kept entries get their
    order-defined distances from ``exact(rows, columns)``; row i of the
    table holds row i's in position order from column 0 on, padded with
    +inf, W the most any row keeps.
    """
    rows, cols = _chunk_hits(plane, mins, bound[:, None])
    own = col_labels[cols] == row_labels[rows]
    rows, cols = rows[own], cols[own]
    return _table(np.bincount(rows, minlength=len(plane)), exact(rows, cols), np.inf)


def _skybands(tables: list, out: np.ndarray, k: int) -> None:
    """Write the k-skybands of ``len(out)`` rows from their :func:`_band_candidates` tables.

    ``tables`` holds the (distance, code) table pairs of consecutive rows,
    each row's candidates in position order, padded with +inf and
    ``_BAND_END``; the list is emptied once read. Each pair is copied,
    transposed, into a (height, rows) scan table of distances and a code
    table beside it, height the widest pair's width, padded alike. A
    candidate is in the skyband iff fewer than k later candidates are
    strictly closer: a reverse scan over the scan table's rows keeps the k
    smallest distances seen and overwrites every non-member with +inf and
    ``_BAND_END``. In row chunks whose tables hold at most
    ``_BLOCK_ELEMENTS // _GATHER_SHARE`` slots, one stable argsort then puts
    each row's members in (distance, position) order, and the first
    ``_BAND_LEN`` codes go to ``out``, padded with ``_BAND_END``.
    """
    n = len(out)
    height = max(dist.shape[1] for dist, _ in tables)
    scan = np.full((height, n), np.inf)
    code = np.full((height, n), _BAND_END, dtype=np.int32)
    at = 0
    for dist, codes in tables:
        scan[: dist.shape[1], at : at + len(dist)] = dist.T
        code[: dist.shape[1], at : at + len(dist)] = codes.T
        at += len(dist)
    tables.clear()
    nearest = [np.full(n, np.inf) for _ in range(k)]
    far, x, spare = np.empty(n, dtype=bool), np.empty(n), np.empty(n)
    for j in range(height - 1, -1, -1):
        np.greater(scan[j], nearest[-1], out=far)
        np.minimum(nearest[0], scan[j], out=spare)
        np.maximum(nearest[0], scan[j], out=x)
        nearest[0], spare = spare, nearest[0]
        for t in range(1, k):
            np.minimum(nearest[t], x, out=spare)
            np.maximum(nearest[t], x, out=x)
            nearest[t], spare = spare, nearest[t]
        np.copyto(scan[j], np.inf, where=far)
        np.copyto(code[j], _BAND_END, where=far)
    out.fill(_BAND_END)
    step = max(1, _BLOCK_ELEMENTS // _GATHER_SHARE // max(1, height))
    for a in range(0, n, step):
        order = np.argsort(scan[:, a : a + step], axis=0, kind="stable")[:_BAND_LEN]
        out[a : a + step, : len(order)] = np.take_along_axis(code[:, a : a + step], order, axis=0).T


class _BandWriter:
    """Turns the candidate tables of consecutive rows, added block by block, into band codes.

    Row ``skip + j`` is written to ``out[j]``; rows before ``skip`` are
    dropped. Pending rows go through :func:`_skybands` together, as many as
    fit a scan table (rows times the widest pending table) of
    ``_BLOCK_ELEMENTS // _PLANE_SHARE`` slots, the plane budget, which one
    block's table fits unless it is a single wider row: a block whose rows
    would overfill it first finishes the rows before it. Pending rows are
    kept as their blocks' distance and code tables, 12 bytes a slot.
    """

    def __init__(self, out: np.ndarray, skip: int, k: int) -> None:
        self.out, self.k, self._skip = out, k, skip
        self._tables: list[tuple[np.ndarray, np.ndarray]] = []
        self._first = self._stop = skip  # pending rows [first, stop)
        self._widest = 0

    def add(self, stop: int, dist: np.ndarray, codes: np.ndarray) -> None:
        """Distance and code tables of rows up to ``stop``, ending with the rows from the previous ``stop``."""
        start = self._stop
        if stop <= start:
            return
        dist, codes = dist[start - stop :], codes[start - stop :]
        widest = max(self._widest, dist.shape[1])
        if start > self._first and (stop - self._first) * widest > _BLOCK_ELEMENTS // _PLANE_SHARE:
            self._finish(start)
            widest = dist.shape[1]
        self._tables.append((dist, codes))
        self._stop, self._widest = stop, widest

    def flush(self) -> None:
        """Finish every row added."""
        self._finish(self._stop)

    def _finish(self, stop: int) -> None:
        if stop <= self._first:
            return
        _skybands(self._tables, self.out[self._first - self._skip : stop - self._skip], self.k)
        self._first, self._widest = stop, 0


def _band_codes(gap: np.ndarray, positive: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Band entries ``2 * gap + label`` of a candidate table; ``_BAND_END`` where ``dist`` is +inf padding."""
    return np.where(dist == np.inf, _BAND_END, 2 * gap + positive).astype(np.int32)


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
            start, rows = n - size, first + short
            votes[short] = _exact_votes(features[rows], features[start:].T, positive[start:], k, seen=rows - start)
        errors.append(int(np.count_nonzero(votes != labels[first:])) / max(1, size - k))
    return errors


def _kmeans(points: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means (greedy D^2 seeding, at most 10 update rounds).

    Returns the centers. Empty clusters keep their previous center.
    """
    n = len(points)
    m = min(n_clusters, n)
    if m == n:
        return points.copy()
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
    return c


class MemoryBank:
    """STM + LTM stores of features and labels with decayed sub-classifier accuracy trackers."""

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
        self._stm_l = np.empty(0, dtype=np.uint8)
        self._ltm_f = np.empty((0, dim), dtype=np.float64)
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
    def ltm_features(self) -> np.ndarray:
        return self._ltm_f

    @property
    def ltm_labels(self) -> np.ndarray:
        return self._ltm_l

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
        self._adapt_and_flush(*self._absorb(chunk.features, chunk.labels))
        self.compress_ltm()

    def _absorb(self, feats: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Test-then-train one window (see :meth:`fit_chunk`); return what the STM evicts."""
        k, cap, d = self.k, self.stm_cap, self.dim
        s0, n = self.stm_size, len(labels)
        cf = np.concatenate([self._stm_f, feats])
        cl = np.concatenate([self._stm_l, labels])
        c_pos = cl == 1
        screen = _screen_operand(cf.T)
        norms = np.square(screen.aug[:d]).sum(axis=0)
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
        blocks = _sliding_blocks(n, s0, cap, max_rows)
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
            # Each row's k nearest STM points are among its candidates, which
            # keep their position order: votes over them are the slice's votes.
            cols, near = _band_candidates(plane, mins, slack, k, exact)
            near_pos = c_pos[c0 + cols]
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
                    kth = _kth_smallest(own, k) if own.shape[1] >= k else np.full(e - b, np.inf)
                    kth[~meets] = -np.inf
                    r2 = _kth_finite(_radius_candidates(plane, mins, cl[c0:c1], labels[b:e], kth + slack, exact), k)
            del plane, mins  # before the band writer may need the memory
            bands.add(e, near, _band_codes(stop[:, None] - cols, near_pos, near))
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
            self._ltm_f, self._ltm_l = lf[keep], ll[keep]
        bands.flush()
        self._stm_f, self._stm_l = cf[out:], cl[out:]
        self._stm_band = band_table
        return cf[:out], cl[:out]

    def _adapt_and_flush(self, evicted_f: np.ndarray, evicted_l: np.ndarray) -> None:
        """Re-fit the STM length; clean what left the STM into the LTM."""
        cut = self._shrink_cut()
        if len(evicted_l) == 0 and cut == 0:
            return
        feats = np.concatenate([evicted_f, self._stm_f[:cut]])
        labels = np.concatenate([evicted_l, self._stm_l[:cut]])
        self._stm_f, self._stm_l = self._stm_f[cut:], self._stm_l[cut:]
        self._stm_band = self._stm_band[cut:]
        keep = clean(feats, labels, self._stm_f, self._stm_l, self.k)
        if keep.any():
            self._ltm_f = np.vstack([self._ltm_f, feats[keep]])
            self._ltm_l = np.concatenate([self._ltm_l, labels[keep]])

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

    # -- LTM compression ------------------------------------------------------

    def compress_ltm(self) -> None:
        """Until under capacity, replace each label's n LTM points, label 0 first, by ceil(n / 2) k-means centres."""
        while self.ltm_size > self.ltm_cap:
            rng = np.random.default_rng([self.seed, _COMPRESS_TAG, self.compress_count])
            self.compress_count += 1
            present = np.unique(self._ltm_l)
            members = (self._ltm_f[self._ltm_l == label] for label in present)
            centers = [_kmeans(pts, math.ceil(len(pts) / 2), rng) for pts in members]
            self._ltm_f = np.vstack(centers)
            self._ltm_l = np.repeat(present, [len(c) for c in centers])

    # -- state snapshots --------------------------------------------------------

    def _checked(self, features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copies of a memory's features and labels.

        ValueError unless they are n rows of features bounded as a
        :class:`Chunk`'s and n 0/1 labels.
        """
        f = np.array(features, dtype=np.float64).reshape(-1, self.dim)
        check_features(f, "memory features")
        l = np.asarray(labels)
        if l.ndim != 1 or len(f) != len(l):
            raise ValueError(f"memory arrays disagree: {len(f)} feature rows, labels {l.shape}")
        check_binary(l, "memory labels")
        return f, l.astype(np.uint8)

    def replace_stm(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Overwrite the STM's features and labels (restore and test hook); rebuilds the STM bands.

        The STM goes in as one window absorbed by an empty bank of the same
        settings, which cleans and evicts nothing, and whose STM and bands
        this bank takes; its LTM and trackers are left alone.
        """
        f, l = self._checked(features, labels)
        if len(l) > self.stm_cap:
            raise ValueError("more instances than the STM capacity")
        settings = (self.k, self.stm_cap, self.ltm_cap, self.min_stm_size, self.tracker_decay, self.seed)
        empty = MemoryBank(self.dim, *settings)
        if len(l):
            empty._absorb(f, l)
        self._stm_f, self._stm_l, self._stm_band = empty._stm_f, empty._stm_l, empty._stm_band

    def replace_ltm(self, features: np.ndarray, labels: np.ndarray) -> None:
        self._ltm_f, self._ltm_l = self._checked(features, labels)

    def state_hash(self) -> str:
        """Digest of everything that influences future behavior."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.stm_features).tobytes())
        h.update(self.stm_labels.tobytes())
        h.update(np.ascontiguousarray(self._ltm_f).tobytes())
        h.update(self._ltm_l.tobytes())
        for name in ("stm", "ltm", "combined"):
            h.update(struct.pack("<2d", *self._trackers[name]))
        h.update(struct.pack("<qQ", self.seed, self.compress_count))
        return h.hexdigest()

    def to_bytes(self) -> bytes:
        """Versioned binary snapshot: header, trackers, each store's features and labels, CRC-32 of all before it."""
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
        for feats, labels in ((self.stm_features, self.stm_labels), (self._ltm_f, self._ltm_l)):
            out.write(struct.pack("<I", len(labels)))
            out.write(np.ascontiguousarray(feats, dtype="<f8").tobytes())
            out.write(labels.astype(np.uint8).tobytes())
        out.write(struct.pack("<I", zlib.crc32(out.getbuffer())))
        return out.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MemoryBank":
        """Rebuild a bank from :meth:`to_bytes` output; its STM bands are rebuilt.

        A version other than the current one raises ValueError, as do a
        truncated blob, trailing bytes, a checksum that does not match,
        impossible trackers, and settings or arrays a bank rejects.
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
            arrays.append((feats, np.frombuffer(take(n), dtype=np.uint8)))
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
        (sf, sl), (lf, ll) = arrays
        bank.replace_stm(sf, sl)
        bank.replace_ltm(lf, ll)
        return bank


class FrozenChunkPredictor:
    """Batch predictor binding one query block to a frozen memory bank.

    The constructor copies the queries and the currently best store, the
    store once in the kernel's layout (:func:`_label_ordered`): transposed to
    (d, m) in position order with its label-1 mask, and, label-1 points
    first and each label in position order, centred as the screen's
    (d + 2, m) product operand. Later fits leave its
    predictions unchanged. :meth:`predict` runs the module's single weighted
    kNN kernel: one weight vector (d,) gives (n,) votes, a stack (S, d) gives
    (S, n), row s equal to predicting with the s-th vector alone. Each row
    votes from the t-th nearest positive and u-th nearest negative distance,
    screened by BLAS products, one weight vector and row block at a time;
    rows the screen cannot certify take the vote of their order-defined
    distances in position order (:func:`_exact_votes`). Every vote is the
    one the order-defined left-to-right sums over features give, so results
    are bitwise identical to a one-row predictor per query, whatever the row
    block size (``_BLOCK_ELEMENTS`` elements of a block's distance plane,
    float32 where the data fit it, at least one row) and whatever the
    planes' dtype. The blocks run one after another on the calling thread,
    sharing one block buffer and one copy of the memory's product operand,
    so a call's scratch peaks at about one block. Each call
    makes its own scratch, so concurrent calls do not interfere, and the
    predictor keeps no state between calls: each call computes every vote
    it returns.
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
