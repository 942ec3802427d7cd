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
order-defined sum. Both follow one dtype rule: the planes are float32
wherever every screened row's scale lies in float32's normal range, which
:func:`_screen_margin` decides once per kernel call and once per absorbed
window, and float64 otherwise. Screened values meet a margin or a bound
only in float64.

Every weighted prediction goes through one kernel, and every vote it returns
equals the vote of the order-defined distances; BLAS only screens. The
kernel screens the memory label-ordered, label-1 points first and each label
in position order, and centred on each feature's mid-range. It takes the S
weight vectors w of a stack one at a time, writing each one's memory norms
into the operand once, and walks the queries in row blocks: one screen call
per (vector, block) builds the rows ``[-2 w x', |x'|^2_w, 1]`` once, and
BLAS products of them with the memory's columns ``[m'; 1; |m'|^2_w]``
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
two order statistics ``a`` and ``b`` of every row, widened into (S, n)
float64 arrays. The BLAS sums and the order-defined ones both lie within a
proven error of the exact sums, relative to a per-row scale of the centred
data (in the planes' unit roundoff) plus an absolute term of the planes'
subnormal step, so where ``a`` and ``b`` are farther apart than that margin
the vote is certified, once over the call; every other (vector, row) pair
(near ties, and exact ties that position decides) takes the vote of its
order-defined distances under that vector in position order
(:func:`_exact_votes`, one call per vector). A label too short for its
quota makes the vote a constant. Memories and queries hold features of
magnitude at most ``stream._FEATURE_BOUND``, so every distance is finite.
A kernel call runs its blocks one after another, reusing one block buffer
and one copy of the memory's operand. A vote depends on its row and vector
alone, so it is the same whatever the block shape, the stack, the slices
:meth:`FrozenChunkPredictor.predict` splits a stack into for worker
processes (:mod:`emosam.kernel_workers`) or BLAS's thread count: a one-row
:class:`FrozenChunkPredictor` and one over a whole window agree bit for
bit.

Memory maintenance absorbs a whole window at once and matches the
instance-by-instance loop bit for bit. With C the STM followed by the window,
the STM that instance i is tested against is a sliding slice of C. An LTM
point's removal by cleaning at step i depends only on x_i, on that slice and
on the point itself, never on another removal, so one first-drop step per
LTM point gives the LTM of every step. The absorb runs in two halves. The
STM half (:func:`_stm_rows`) gives each row a result that depends on that
row, its slice and the window alone, so it may run over any range of rows:
a window whose STM plane is large enough is split across the calling
process and a kernel worker process (:func:`kernel_workers.split_absorb`).
A block of window rows screens its distances to C (unweighted, C centred
as one operand, in the planes' dtype the window's rows chose) and keeps,
with a slack of E per row, a superset of each row's k-skyband in its
slice; the minima of the plane's 8-column chunks drop most columns unread.
Rows whose label meets an LTM point of the other label at the window's
start also keep the same-label entries their cleaning radius can rest on:
those within the slack of the k-th smallest same-label band candidate,
which bounds the k-th smallest same-label distance, or all of them where
the row has fewer than k same-label candidates. (Those rows are a superset
of the rows whose label meets an undropped point at their step, and the
radius of the others changes nothing, as a radius only drops points that
are still undropped.) Only these get order-defined distances; the bands,
the STM votes, the radius (the exact k-th smallest, :func:`_kth_finite`)
and each row's k nearest STM points in (distance, position) order come
from them. The LTM half runs in the calling process over fixed row blocks:
the LTM votes are row votes over each block's order-defined distances to
the LTM (:func:`_sq_dists`), the radii give the first drops, and a row's
combined vote is the row vote over its k nearest STM points followed by
its LTM distances, as the combined store's k nearest are among them.

Maintenance tables are ragged, and +inf marks no point (no distance is
+inf, as features are bounded), built from row-major hits through a valid
mask (:func:`_table`). Each row's k-th finite entry (:func:`_kth_finite`)
is its vote threshold (:func:`_vote_rows`) and its radius. A block's band
candidates stay one such table, rows by candidates in position order, from
the screen (:func:`_band_candidates`) through the votes to the bands; its
radius candidates are another.

Every STM point also carries a band: its candidates, a superset of its
k-skyband (the predecessors p with fewer than k points between p and it
that are strictly closer to it), sorted by (distance, position) and cut at
``_BAND_LEN``. For any suffix of the STM, a point's k nearest earlier
points in it (ties to the earlier position) are skyband members, and they
come before every other candidate inside the suffix in that order, so they
are the first k band entries inside the suffix. So the STM length re-fit,
which scores each halving suffix window by test-then-train error, reads
every vote from the bands, and the window absorb votes each row's STM
slice (alone and with the LTM) from the candidates its band is cut from.
A band is kept as codes ``2 * (i - p) + label``, nearest first, so the
points the STM drops fall off the front with no update. A row whose cut
band holds fewer than k entries inside a window recomputes that vote from
distances. Bands are derived state: new rows get theirs from the candidates
the absorb screens anyway, and replacing or restoring the STM absorbs it as
one window into an empty bank, which builds them the same way; they are in
neither the snapshot nor :meth:`MemoryBank.state_hash`. Their codes depend
on the row blocks and the BLAS screen (a band may hold other non-members),
but the k nearest inside every suffix, and so every re-fit vote, do not.

Determinism: k-nearest ties are broken toward the earlier memory position,
class-vote ties toward label 1, and compression draws from a generator
seeded by (bank seed, pass counter), so identical inputs give identical
banks and predictions.
"""

from __future__ import annotations

import hashlib
import io
import itertools
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
# block at a time. The absorb's planes follow the kernel's dtype rule and
# hold 1 MiB in either dtype (_PLANE_SHARE). The size is not a cache fit
# (a 2 MiB block does not fit beside its memory in a 2 MiB L2 per core).
# Kernel sweeps on such a core with float64 planes (d = 8; 250 x 315 and
# 250 x 1000 with S = 20, 1000 x 3096 with S = 1, 10 and 30; 2 rounds on
# a busy host) ran 2^16 to 2^20 elements in an order
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
# Products this small do not run side by side on threads: 3000 calls of
# (16 x 10) @ (10 x 1579) float32 took 26.7 ms on one thread and 28.6 ms
# split over two, and a kernel call at 1000 x 3094, S = 10, went from 28.9
# to 39.8 ms with its vectors split over two threads (medians of 15, one
# BLAS thread, 2 CPUs). So a call's vectors are split across processes
# instead (kernel_workers).
_SCREEN_CALL = 1 << 18
# The window absorb's screened STM plane of a row block holds 1 MiB: at
# most _BLOCK_ELEMENTS // _PLANE_SHARE float64 values, or twice as many
# float32 values (_sliding_blocks). A block peaks at about twice its
# float32 plane, 1.5 times a float64 one: the chunk minima and the float64
# scratch of their bounds (_chunk_minima, _later_bound). Its candidate
# tables and their sort into bands hold at most _BAND_CANDIDATES slots a
# row, far fewer than its plane. The LTM pass's row blocks hold half as
# many float64 distances, as each sits beside a second and then a third
# plane of its size: the _sq_dists scratch, then the combined vote's two
# copies (its joined distances and _vote_rows's threshold copy).
# On the fit peak-memory test's large case (STM and window 2000, d = 16,
# float32 planes, 200 LTM points) the fit peaks at 4.0 MB, 4.2 MB with a
# 5% minority label. LTM blocks as large as the STM blocks' plane (655
# rows there) peaked at 5.0 MB; while the LTM distances shared the STM
# blocks, the fit peaked at 4.2 MB (3.7 MB with float64 planes of half the
# rows), and at 2.8 MB with share 4, under which 20 default-scale windows
# took twice the blocks (300, not 158). Share 1 peaked at 6.7 MB, a 2 MiB
# plane.
_PLANE_SHARE = 2
# Gathered rows of the absorb's exact pair sums go through in chunks of at
# most _BLOCK_ELEMENTS // _GATHER_SHARE values (128 KiB of float64), as do
# the distances of _exact_votes (at least one row): a chunk's distances,
# their scratch plane and the vote's selection copy take about three
# sixteenths of the kernel's block (the fallback-scratch test peaks at
# 1.28-1.31 blocks with d = 8). Pair-sum chunks of 2^16 values (share 4)
# lift the fit peak-memory test's large case from 3.7 to 4.5 MB; chunks of
# 2^14 took the 7-window reference fit's pair sums from 14.0 to 14.8 ms.
_GATHER_SHARE = 16

# A band keeps at most _BAND_LEN of its row's candidates, nearest first.
# On the reference stream (80 desk windows: window 250, caps 500/500; 20
# default windows: 1000, 5000/5000) rows hold 38 and 49 candidates on
# average, and 0.02% and 5.1% of rows more than 64, whose bands are cut.
# The 20 default windows' length re-fits recompute 25 rows from distances
# (_window_errors), where a cut band has fewer than k entries in a window.
_BAND_LEN = 64
# Columns per chunk of the band screen's minima (8: _chunk_minima folds four
# columns, then two), and the most candidates one row keeps (its nearest).
_BAND_CHUNK = 8
_BAND_CANDIDATES = 4 * _BAND_LEN
# Code of an empty band slot: larger than any entry's, as stm_cap is at most
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

    aug: np.ndarray  # (d + 2, m): memory_t - centre, a row of ones, the norms row
    centre: np.ndarray  # (d,): each feature's mid-range over the memory
    reach: np.ndarray  # (d,): largest |aug[f]| over the memory


def _screen_operand(memory_t: np.ndarray) -> _Screen:
    """The screen's (d + 2, m) product operand of a (d, m) memory, which must not be empty.

    Its first d rows hold the memory centred, ``m' = fl(m - centre)`` with
    ``centre`` each feature's mid-range; row d holds ones and the last row
    the memory's squared norms under the screen's weights, written by their
    owner: the kernel once per weight vector, the window absorb once per
    window. ``reach`` is M'_f >= |m'_f| over the memory.
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
    xc: np.ndarray, w: np.ndarray, xn: np.ndarray, op: np.ndarray, planes: Sequence[np.ndarray]
) -> None:
    """Screen distances of r centred queries ``xc`` (r, d) under one weight vector ``w`` (d,).

    ``xn`` (r,) are the centred queries' weighted squared norms. ``op`` is
    the memory's (d + 2, cols) product operand (:func:`_screen_operand`, or
    a column slice of it, in the planes' dtype), its last row the memory's
    norms under ``w``. BLAS products of the rows ``[-2 w * x', xn, 1]``,
    built once, with consecutive column ranges of ``op`` write each
    (r, width) plane of ``planes`` in turn: ``|x'|^2 + |m'|^2 - 2 <w x', m'>``,
    the weighted squared distance by expansion, with no difference block.
    ``xc``, ``w`` and ``xn`` are float64; ``-2 w * x'`` is formed in float64,
    and it and ``xn`` are rounded once into the planes' dtype. Each product
    takes at most ``_SCREEN_CALL`` multiply-adds. The summation order
    (blocking, fused multiply-adds) is the BLAS build's, so these distances
    are not the order-defined ones: callers only compare them, with the
    margin of :func:`_screen_margin` for the planes' dtype.
    """
    r, d = xc.shape
    K = op.shape[0]
    lhs = np.empty((r, K), dtype=planes[0].dtype)
    np.multiply(xc, -2.0 * w, out=lhs[:, :d])
    lhs[:, d] = xn
    lhs[:, d + 1] = 1.0
    for plane in planes:
        m = plane.shape[1]
        side, op = op[:, :m], op[:, m:]
        cols = max(1, min(m, _SCREEN_CALL // K))
        step = max(1, _SCREEN_CALL // (K * cols))
        for i in range(0, r, step):
            for c in range(0, m, cols):
                np.matmul(lhs[i : i + step], side[:, c : c + cols], out=plane[i : i + step, c : c + cols])


def _screen_margin(w: np.ndarray, xc: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, type]:
    """Certified margin E (S, n) of the screen's planes for weight rows ``w`` (S, d) and centred rows ``xc``.

    ``xc`` is (n, d) and ``reach`` the memory's (:func:`_screen_operand`).
    Returns E and the planes' dtype it holds for: float32, or float64
    where the data's range does not fit float32 (below). Both screens take
    the dtype returned: the kernel once per call, for its weight stack and
    queries, and the window absorb once per window, under unit weights for
    all the window's rows. Screened values meet E only in float64 (widened
    exactly from float32), as E added into a float32 array would be
    rounded to float32.

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
    ``fl(z + E)`` is at least z + 4(rho0 T + A0), so Y <= Z implies
    ``y <= fl(z + E)``: E is the slack of every screened bound too. This
    assumes IEEE 754 rounding to nearest without flushing subnormals to
    zero, in float64 and float32 casts and products alike, numpy's and
    OpenBLAS's default
    (``test_float32_casts_and_products_keep_subnormals`` checks it on the
    build it runs on).
    """
    d = xc.shape[1]
    spread = (np.abs(xc) + reach) ** 2
    unit = spread.sum(axis=1)  # each row's U
    dtype = np.float32
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
    of the memory's product operand in its dtype, whose last row takes
    each vector's memory norms once, are allocated once per call and
    reused by every block, so a call holds about one block beside its
    (S, n) order statistics, and concurrent calls, in threads or in
    kernel worker processes, share no scratch.

    With kk = min(k, m), a row votes 1 iff at least t = ceil(kk / 2) of its kk
    nearest points are positive, that is iff in the stable (distance,
    position) order the t-th nearest positive comes before the u-th nearest
    negative, u = kk - t + 1. With fewer than u negatives every row votes 1,
    and with fewer than t positives every row votes 0. Otherwise one
    :func:`_screen_planes` call per (vector, block) writes both planes from
    the centred queries ``x' = fl(x - mu)`` and memory ``m' = fl(m - mu)``:
    the positive columns of the operand into the positive plane, then the
    negative columns into the negative plane, so no operand is copied.
    :func:`_kth_smallest` overwrites each plane as it takes ``a``, the t-th
    smallest positive distance, and ``b``, the u-th smallest negative one,
    of every row, widened into (S, n) float64 arrays. The order-defined vote
    is 1 if the order-defined ``a`` is below the order-defined ``b``, 0 if
    above, and decided by position on a tie. With E the row's margin under
    the vector (:func:`_screen_margin`), the kernel votes 1 where
    ``a + E < b`` and 0 where ``a - E > b`` once over the whole call, which
    certifies the order-defined vote. Every other (vector, row) pair (near
    ties, exact ties) gets its vote from one :func:`_exact_votes` call per
    vector, over the memory's position-order copy and label mask, in chunks
    of at most ``_BLOCK_ELEMENTS // _GATHER_SHARE`` distances.
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
    margin, dtype = _screen_margin(w, xc, screen.reach)
    buf = np.empty(rows * m, dtype=dtype)
    op = screen.aug.astype(dtype)
    a, b = np.empty(margin.shape), np.empty(margin.shape)
    for s in range(len(w)):
        op[d + 1] = mn[s]
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            r = stop - start
            # two contiguous planes: argmin along a strided view's rows takes about twice as long
            pos = buf[: r * npos].reshape(r, npos)
            neg = buf[r * npos : r * m].reshape(r, m - npos)
            _screen_planes(xc[start:stop], w[s], xn[s, start:stop], op, (pos, neg))
            a[s, start:stop] = _kth_smallest(pos, t)
            b[s, start:stop] = _kth_smallest(neg, u)
    vote = a + margin < b
    undecided = ~(vote | (a - margin > b))
    out[:] = vote
    for s in np.flatnonzero(undecided.any(axis=1)):
        sub = np.flatnonzero(undecided[s])
        out[s, sub] = _exact_votes(queries[sub], memory.memory_t, memory.positive, k, w[s])
    return out


def _sliding_blocks(start: int, stop: int, s0: int, cap: int, itemsize: int) -> list[tuple[int, int]]:
    """Row blocks [b, e) covering start..stop of a window absorbed after s0 STM points, each as large as fits.

    Block [b, e) meets ``min(cap, s0 + b) + e - b`` columns, so its distance
    block of (e - b) rows and those columns, in planes of ``itemsize``
    bytes a value, holds at most the bytes of ``_BLOCK_ELEMENTS //
    _PLANE_SHARE`` float64 values: twice as many float32 values.
    A block has at least one row.
    """
    blocks = []
    q = _BLOCK_ELEMENTS // _PLANE_SHARE * 8 // itemsize
    b = start
    while b < stop:
        w = min(cap, s0 + b)
        r = max(1, (math.isqrt(w * w + 4 * q) - w) // 2)
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


def _band_plane(xc: np.ndarray, op: np.ndarray, c0: int, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Screened squared distances of centred rows ``xc`` to a centred memory from column c0 on.

    Row j sees the memory's columns from ``c0 + first[j]`` up to, not
    including, ``c0 + stop[j]``, with ``stop`` growing by one per row, so
    the plane is ``stop[-1] + 1`` columns wide. ``op`` is the memory's
    operand (:func:`_screen_operand`) in the planes' dtype, as the window's
    :func:`_screen_margin` chose it: float32 where every row's scale fits
    float32's range, float64 otherwise, the kernel's rule. Its last row
    holds the memory points' unweighted squared norms. The plane is
    :func:`_screen_planes` under unit weights in ``op``'s dtype, NaN outside
    each row's columns, its width padded with NaN to whole band chunks.
    Callers compare its values in float64 with a slack of the margin E for
    that dtype: where an entry's order-defined distance is at most
    another's (or an order statistic's), its screened value is at most the
    other's plus the slack.
    """
    r, d = xc.shape
    w = int(stop[-1]) + 1
    plane = np.empty((r, max(1, -(-w // _BAND_CHUNK)) * _BAND_CHUNK), dtype=op.dtype)
    plane[:, w:] = np.nan
    _screen_planes(xc, np.ones(d), (xc * xc).sum(axis=1), op[:, c0 : c0 + w], (plane[:, :w],))
    # only the first first.max() and the last w - stop.min() columns hold entries outside a row's
    left, right = int(first.max()), int(stop.min())
    np.copyto(plane[:, :left], np.nan, where=np.arange(left) < first[:, None])
    np.copyto(plane[:, right:w], np.nan, where=np.arange(right, w) >= stop[:, None])
    return plane


def _later_bound(table: np.ndarray, k: int) -> np.ndarray:
    """For each entry of each row, an upper bound on the k-th smallest entry after it.

    Columns are in position order; NaN marks no point. Column c belongs to
    class c mod k, and E[c] is the minimum of its class from column c on, so
    E[c + 1], ..., E[c + k] are k distinct later points and the largest of
    them is a bound; it is +inf where a class has no later point. The class
    minima come from the table transposed, with k rows of +inf after its
    last column, by doubling: E[c] = min(E[c], E[c + s]) for s = k, 2k, 4k
    and on, each step one contiguous pass (an accumulate along the strided
    classes took 1.2x as long on the absorb's chunk minima). The bound is
    float64 whatever the table's dtype: float32 minima widen exactly, so a
    slack added to it is added in float64.
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
    the row's ``slack``, its margin E (:func:`_screen_margin`), compared in
    float64, which keeps every skyband point. The survivors get their
    order-defined distances from ``exact(rows, columns)``. A row then keeps at most
    ``max(_BAND_CANDIDATES, k)`` of them, its smallest by (distance,
    position), and the bound over those drops more; a kept point outside
    the skyband keeps k later skyband points that rule it out, as those
    are closer. Row i of the tables holds row i's candidates in position
    order from column 0 on, W the most any row keeps; the distance table
    pads with +inf and the column table with 0.
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
    at most its ``bound``. For ``bound = fl(V + E)``, E the row's slack
    and V an order-defined distance at least its k-th smallest entry's (the
    k-th smallest of any k of its entries, say), the margin's
    ``U <= V => u <= fl(v + E)`` (:func:`_screen_margin`; it holds for any
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


class _StmRows(NamedTuple):
    """The STM half of a window absorb for a range of window rows (:func:`_stm_rows`), one row each."""

    bands: np.ndarray  # (r, _BAND_LEN) int32: band codes, nearest first, then _BAND_END
    votes: np.ndarray  # (r,) uint8: STM votes over the rows' slices
    r2: np.ndarray  # (r,): squared cleaning radii; -inf for rows whose label does not meet the LTM
    near: np.ndarray  # (r, k): the k nearest distances in the slice, (distance, position) order, then +inf
    near_pos: np.ndarray  # (r, k) bool: which of them are labelled 1

    @staticmethod
    def empty(r: int, k: int) -> "_StmRows":
        """Results for r rows before any is computed: empty bands, no radius, no near point."""
        return _StmRows(
            np.full((r, _BAND_LEN), _BAND_END, dtype=np.int32),
            np.empty(r, dtype=np.uint8),
            np.full(r, -np.inf),
            np.full((r, k), np.inf),
            np.zeros((r, k), dtype=bool),
        )


def _stm_rows(
    cf: np.ndarray, cl: np.ndarray, s0: int, cap: int, k: int, meets: np.ndarray, start: int, stop: int
) -> _StmRows:
    """The STM half of absorbing window rows [start, stop) after s0 STM points (see :meth:`MemoryBank.fit_chunk`).

    ``cf`` and ``cl`` are C, the STM followed by the window; window row i
    meets the slice ``C[max(0, s0 + i - cap) : s0 + i]``. ``meets[y]`` says
    whether rows labelled y get a cleaning radius (their label meets an LTM
    point of the other label). The screen's operand and margin are those of
    the whole window, whatever the range, so the planes' dtype is the
    window's, and every result equals the one a call over all rows gives
    for that row: the votes and radii are order-defined, and the k nearest
    are the k nearest. Band codes depend on the blocks, which start at
    ``start``. Rows go through :func:`_sliding_blocks`; each block's
    screened plane yields its band candidates (:func:`_band_candidates`)
    and, for rows with a radius, its radius candidates
    (:func:`_radius_candidates`). Called over all rows by the absorb, or
    in kernel worker processes: over row ranges split across them
    (:func:`kernel_workers.split_absorb`), or over all rows while a
    re-tune searches (:func:`kernel_workers.absorb_ahead`).
    """
    d = cf.shape[1]
    feats, labels = cf[s0:], cl[s0:]
    c_pos = cl == 1
    screen = _screen_operand(cf.T)
    screen.aug[d + 1] = np.square(screen.aug[:d]).sum(axis=0)
    centre = screen.centre
    margin, dtype = _screen_margin(np.ones((1, d)), feats - centre, screen.reach)
    slack = margin[0]
    # cast only once float32 is chosen (data outside its range would
    # overflow), and keep no float64 operand beside the cast
    op = screen.aug.astype(dtype, copy=False)
    del screen
    steps = np.arange(len(labels))
    lo = np.maximum(0, s0 + steps - cap)  # STM slice of step i: [lo[i], s0 + i)
    out = _StmRows.empty(stop - start, k)
    for b, e in _sliding_blocks(start, stop, s0, cap, op.itemsize):
        rows = slice(b - start, e - start)
        c0, c1 = lo[b], s0 + e
        ends = s0 + steps[b:e] - c0
        plane = _band_plane(feats[b:e] - centre, op, c0, lo[b:e] - c0, ends)

        def exact(rows, cols):
            return _pair_sums(cf, s0 + b + rows, c0 + cols)

        mins = _chunk_minima(plane)
        # Each row's k nearest STM points are among its candidates, which
        # keep their position order: votes over them are the slice's votes.
        cols, near = _band_candidates(plane, mins, slack[b:e], k, exact)
        near_pos = c_pos[c0 + cols]
        radius = meets[labels[b:e]]
        if radius.any():
            # A row's k-th smallest same-label candidate bounds its k-th
            # smallest same-label distance (+inf with fewer than k).
            own = np.where(near_pos == (labels[b:e] == 1)[:, None], near, np.inf)
            kth = _kth_smallest(own, k) if own.shape[1] >= k else np.full(e - b, np.inf)
            kth[~radius] = -np.inf
            bound = kth + slack[b:e]
            out.r2[rows] = _kth_finite(_radius_candidates(plane, mins, cl[c0:c1], labels[b:e], bound, exact), k)
        del plane, mins  # before the sort
        # A row's band is its candidates in (distance, position) order, cut.
        order = np.argsort(near, axis=1, kind="stable")[:, :_BAND_LEN]
        codes = _band_codes(ends[:, None] - cols, near_pos, near)
        out.bands[rows, : order.shape[1]] = np.take_along_axis(codes, order, axis=1)
        out.votes[rows] = _vote_rows(near, near_pos, k)
        nearest = order[:, :k]
        out.near[rows, : nearest.shape[1]] = np.take_along_axis(near, nearest, axis=1)
        out.near_pos[rows, : nearest.shape[1]] = np.take_along_axis(near_pos, nearest, axis=1)
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
        # each centre's members, in point order, as one slice of the grouped points
        counts = np.bincount(new_assign, minlength=m)
        ends = np.cumsum(counts)
        grouped = points[np.argsort(new_assign, kind="stable")]
        new_c = c.copy()
        for j in np.flatnonzero(counts):
            new_c[j] = grouped[ends[j] - counts[j] : ends[j]].mean(axis=0)
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

    def fit_ahead(self, chunk: Chunk) -> tuple | None:
        """Start the STM pass of fitting ``chunk`` in an idle kernel worker; pass the result to :meth:`fit_chunk`.

        Only a window too small to split goes ahead, and only to a ready
        worker (:func:`kernel_workers.absorb_ahead`); None means nothing
        was sent. The pass reads the STM, the LTM labels and the chunk's
        arrays, which are replaced, never written in place: the fit takes
        the worker's reply only while they are still these very arrays.
        """
        # imported here, as in FrozenChunkPredictor.predict
        from . import kernel_workers

        if chunk.n_features != self.dim:
            raise ValueError("chunk dimensionality does not match the bank")
        like = [(a.shape, a.dtype) for a in _StmRows.empty(len(chunk.labels), self.k)]
        sent = kernel_workers.absorb_ahead(*self._stm_pass(chunk.features, chunk.labels), like)
        return None if sent is None else (self._pass_inputs(chunk.features, chunk.labels), sent)

    def _pass_inputs(self, feats: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
        """The arrays the STM pass of absorbing a window reads."""
        return self._stm_f, self._stm_l, self._ltm_l, feats, labels

    def _stm_pass(self, feats: np.ndarray, labels: np.ndarray) -> tuple:
        """The arguments of the STM pass of absorbing a window, ``local`` aside (see :func:`_stm_rows`)."""
        cf = np.concatenate([self._stm_f, feats])
        cl = np.concatenate([self._stm_l, labels])
        # A radius is only compared with undropped LTM points of the other
        # label, so rows whose label meets none at the window's start need none.
        meets = np.array([(self._ltm_l != y).any() for y in (0, 1)])
        return cf, cl, self.stm_size, self.stm_cap, self.k, meets

    def fit_chunk(self, chunk: Chunk, ahead: tuple | None = None) -> None:
        """Absorb one labeled window.

        Each instance is tested, then trained, as if one at a time: the three
        trackers score it unweighted against its label, the LTM is cleaned
        against it (LTM points of the other label inside the radius of its
        k-th nearest same-label STM point are dropped), and it enters the STM,
        evicting the oldest beyond capacity. After the window the STM length
        is re-fitted; everything the STM discarded is cleaned against the
        surviving STM, appended to the LTM, and the LTM is compressed while
        over capacity.

        The window goes in as two passes over row blocks. With C the STM
        followed by the window and s0 the STM size, instance i meets the STM
        slice ``C[max(0, s0 + i - stm_cap) : s0 + i]``. Whether it drops an
        LTM point depends on no other drop, so each LTM point has a first-drop
        step and is alive at step i iff that step is not earlier. The votes
        are row votes with +inf outside each row's slice and live LTM points;
        distance ties go to the earlier position and class ties to label 1,
        as in prediction. The STM pass (:func:`_stm_rows`) gives each row
        its STM vote, its cleaning radius and its k nearest STM points from
        its band candidates, which, sorted and cut, are the band it carries
        in the STM; on a large enough window it is split across this process
        and a kernel worker (:func:`kernel_workers.split_absorb`). ``ahead``,
        from :meth:`fit_ahead` on this chunk, hands over the pass a worker
        ran over the whole window meanwhile; it is used only if the STM,
        the LTM labels and the chunk are still the arrays it was started
        from, and the pass runs here otherwise. The LTM
        pass then gives the first drops, the LTM votes and the combined
        votes. The trackers then update in window order, and the eviction is
        the prefix ``C[:max(0, s0 + n - stm_cap)]``. The length re-fit reads
        every candidate window's votes from the carried bands. The result is
        bit-identical to the one-at-a-time loop, whatever the block size and
        however or wherever the STM pass ran.
        """
        if chunk.n_features != self.dim:
            raise ValueError("chunk dimensionality does not match the bank")
        self._adapt_and_flush(*self._absorb(chunk.features, chunk.labels, ahead))
        self.compress_ltm()

    def _absorb(
        self, feats: np.ndarray, labels: np.ndarray, ahead: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Test-then-train one window (see :meth:`fit_chunk`); return what the STM evicts.

        The STM pass (:func:`_stm_rows`), taken from ``ahead`` when it
        still applies or run through :func:`kernel_workers.split_absorb`,
        covers every window row before the LTM pass, whose row blocks of
        at most ``_BLOCK_ELEMENTS // _PLANE_SHARE // 2`` LTM distances
        take each row's radius, k nearest STM points and slice from it.
        """
        # imported here, as in FrozenChunkPredictor.predict
        from . import kernel_workers

        reply = None
        if ahead is not None and all(a is b for a, b in zip(ahead[0], self._pass_inputs(feats, labels))):
            reply = kernel_workers.absorbed(ahead[1])
        args = self._stm_pass(feats, labels)
        stm = _StmRows(*(kernel_workers.split_absorb(*args, _stm_rows) if reply is None else reply))
        cf, cl, s0, cap, k, _ = args
        n = len(labels)
        lf, ll = self._ltm_f, self._ltm_l
        m = len(ll)
        steps = np.arange(n)
        stm_n = np.minimum(cap, s0 + steps)
        first_drop = np.full(m, n)  # n: never dropped in this window
        ltm_n = np.zeros(n, dtype=np.int64)
        pred_ltm = np.zeros(n, dtype=np.uint8)
        pred_both = np.zeros(n, dtype=np.uint8)
        if m:
            lf_t = np.ascontiguousarray(lf.T)
            l_pos = ll == 1
            # half the STM blocks' plane: the block's distances sit beside
            # the _sq_dists scratch, then the combined vote's two copies
            rows = max(1, _BLOCK_ELEMENTS // _PLANE_SHARE // (2 * m))
            for b in range(0, n, rows):
                e = min(n, b + rows)
                d2l = _sq_dists(feats[b:e], lf_t)
                drop = (d2l <= stm.r2[b:e, None]) & (ll[None, :] != labels[b:e, None])
                hit = (first_drop == n) & drop.any(axis=0)
                first_drop[hit] = b + drop[:, hit].argmax(axis=0)
                alive = first_drop[None, :] >= steps[b:e, None]
                ltm_n[b:e] = _row_counts(alive)
                d2l[~alive] = np.inf
                pred_ltm[b:e] = _vote_rows(d2l, l_pos, k)
                # the k nearest STM points in (distance, position) order
                # before the LTM: the combined store's k nearest are among them
                both_pos = np.hstack([stm.near_pos[b:e], np.broadcast_to(l_pos, d2l.shape)])
                pred_both[b:e] = _vote_rows(np.hstack([stm.near[b:e], d2l]), both_pos, k)
        decay = self.tracker_decay
        (sc, st), (lc, lt), (bc, bt) = (self._trackers[name] for name in ("stm", "ltm", "combined"))
        for y, ps, pl, pb, ns, nl in zip(
            labels.tolist(), stm.votes.tolist(), pred_ltm.tolist(), pred_both.tolist(), stm_n.tolist(), ltm_n.tolist()
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
        out = max(0, s0 + n - cap)
        self._stm_f, self._stm_l = cf[out:], cl[out:]
        # window rows evicted in-window carry no band
        self._stm_band = np.concatenate([self._stm_band[min(out, s0) :], stm.bands[max(0, out - s0) :]])
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


# Names each predictor to the kernel workers, which keep one predictor's state.
_predictor_tokens = itertools.count()


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
    screened by one BLAS screen call per weight vector and row block and
    certified once per call; the rest take the vote of their order-defined
    distances (:func:`_exact_votes`, one call per vector). Every vote is the
    one the order-defined left-to-right sums over features give, so results
    are bitwise identical to a one-row predictor per query, whatever the row
    block size (``_BLOCK_ELEMENTS`` elements of a block's distance plane,
    float32 where the data fit it, at least one row) and whatever the
    planes' dtype. A stack of several vectors may be split into contiguous
    slices, one scored here and each other by a kernel worker process
    (:func:`kernel_workers.split_votes`), which receives the queries and
    the store the first time one of this predictor's slices reaches it.
    Each slice's blocks run one after another, sharing one block buffer and
    one copy of the memory's product operand, so a call's scratch here
    peaks at about one block beside its (S, n) order statistics. Each call
    makes its own scratch, and a worker serves one call at a time (another
    thread's call scores its slices itself), so calls from several threads
    get the votes they would get alone. Each call computes every vote it
    returns.
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
        self._token = next(_predictor_tokens)

    def predict(self, alpha: np.ndarray) -> np.ndarray:
        # imported here, not at the top: a worker process runs ``python -m
        # emosam.kernel_workers``, and runpy warns when importing the
        # package has already loaded the module it is about to run
        from . import kernel_workers

        alpha = check_weights(alpha, self._x.shape[1])
        size = self._x.shape[0] * self._memory.memory_t.shape[1]
        votes = kernel_workers.split_votes(np.atleast_2d(alpha), size, self._token, self._state, self._votes)
        return votes[0] if alpha.ndim == 1 else votes

    def _votes(self, alphas: np.ndarray) -> np.ndarray:
        return _weighted_votes(self._x, self._memory, self._k, alphas)

    def _state(self) -> list[np.ndarray]:
        """What a kernel worker rebuilds this predictor from (:func:`kernel_workers.split_votes`)."""
        memory = self._memory
        return [self._x, memory.memory_t, memory.positive.view(np.uint8), np.array(self._k, dtype=np.int64)]
