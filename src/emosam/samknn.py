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

    dist(a, b; alpha) = sqrt(sum_i alpha_i^2 (a_i - b_i)^2)

so all-ones weights reproduce plain Euclidean distance, and scaling every
weight by a constant rescales all distances without changing any neighbor
set. Memory management (tracker updates, cleaning, size adaptation,
compression) always runs unweighted; weights only steer predictions.

Every weighted prediction goes through one kernel. It walks the queries in
row blocks whose squared-difference buffer ``(x - mem)^2`` holds at most
``_BLOCK_ELEMENTS`` float64 values, builds that buffer once per block, and
then, for each weight vector of a stack, takes one ``sq @ alpha^2`` product
and votes. Every query row is computed on its own, by the same operations in
the same order, so a vote does not depend on the block size, on the other
queries or on the other weight vectors: :meth:`MemoryBank.predict` (a
one-row block) and :class:`FrozenChunkPredictor` (any block) agree bit for
bit, and memory stays bounded however large queries times memory grows.

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
from typing import Sequence

import numpy as np

from .stream import Chunk

__all__ = [
    "DEFAULT_K",
    "DEFAULT_STM_CAP",
    "DEFAULT_LTM_CAP",
    "DEFAULT_MIN_STM",
    "DEFAULT_TRACKER_DECAY",
    "weighted_distance",
    "check_weights",
    "clean",
    "MemoryBank",
    "FrozenChunkPredictor",
    "save_bank",
    "load_bank",
]

DEFAULT_K = 5
DEFAULT_STM_CAP = 5000
DEFAULT_LTM_CAP = 5000
DEFAULT_MIN_STM = 50
DEFAULT_TRACKER_DECAY = 0.995

_COMPRESS_TAG = 4
_SNAPSHOT_MAGIC = b"SAMB"
_SNAPSHOT_VERSION = 1

# Largest number of float64 elements in one row block of a points-by-memory
# tensor: the kernel's squared-difference buffer and the k-means assignment
# distances. 2 MiB stays in one core's L2 while a block's buffer is re-read
# once per weight vector; 1-8 MiB blocks measured within about 15% of it.
_BLOCK_ELEMENTS = 1 << 18


def check_bank_params(k: int, stm_cap: int, ltm_cap: int, min_stm_size: int, tracker_decay: float) -> None:
    """Reject memory settings a :class:`MemoryBank` cannot run with."""
    if k < 1:
        raise ValueError("k must be positive")
    if stm_cap < 1 or ltm_cap < 1:
        raise ValueError("memory capacities must be positive")
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


def weighted_distance(a: np.ndarray, b: np.ndarray, alpha: np.ndarray) -> float:
    """Euclidean distance after multiplying each coordinate gap by its weight."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = np.asarray(alpha, dtype=np.float64)
    if a.shape != b.shape or a.shape != w.shape:
        raise ValueError("points and weights must share one shape")
    diff = (a - b) * w
    return float(math.sqrt(float(diff @ diff)))


def _vote_1d(dist2: np.ndarray, labels: np.ndarray, k: int) -> int:
    """Majority label of the k nearest points of one query.

    Works on squared distances (the ordering is the same). Distance ties keep
    the earlier position, class-vote ties go to label 1.
    """
    kk = min(k, dist2.shape[0])
    order = np.argsort(dist2, kind="stable")[:kk]
    ones = int(labels[order].sum())
    return 1 if 2 * ones >= kk else 0


def _vote_rows(dist2: np.ndarray, positive: np.ndarray, k: int) -> np.ndarray:
    """Row-wise k-nearest majority votes with the same tie rules as _vote_1d.

    ``positive`` marks the memory points labelled 1. The k-th smallest
    distance of each row comes from a partition; when exactly k points lie at
    or below it they are the k nearest. Only rows with more than k such points
    (ties at the k-th distance) take all strictly closer points plus the
    earliest-position tied ones, which reproduces a stable (distance,
    position) sort exactly.
    """
    n, m = dist2.shape
    kk = min(k, m)
    if kk == m:
        ones = int(np.count_nonzero(positive))
        return np.full(n, 1 if 2 * ones >= kk else 0, dtype=np.uint8)
    kth = np.partition(dist2, kk - 1, axis=1)[:, kk - 1 : kk]
    near = dist2 <= kth
    ones = np.count_nonzero(near & positive, axis=1)
    tied = np.flatnonzero(np.count_nonzero(near, axis=1) > kk)
    if tied.size:
        sub, sub_kth = dist2[tied], kth[tied]
        strict = sub < sub_kth
        need = kk - np.count_nonzero(strict, axis=1)
        tie = sub == sub_kth
        sel = strict | (tie & (np.cumsum(tie, axis=1) <= need[:, None]))
        ones[tied] = np.count_nonzero(sel & positive, axis=1)
    return (2 * ones >= kk).astype(np.uint8)


def _weighted_votes(
    queries: np.ndarray,
    memory: np.ndarray,
    positive: np.ndarray,
    k: int,
    alphas: np.ndarray,
    budget: int = _BLOCK_ELEMENTS,
) -> np.ndarray:
    """The weighted kNN kernel: votes of every query under every weight vector.

    ``queries`` is (n, d), ``memory`` (m, d), ``alphas`` a validated (S, d)
    stack; returns (S, n) uint8. Queries are taken in row blocks whose
    squared-difference buffer holds at most ``budget`` elements (at least one
    row). Each block's buffer is built once and shared by all S weight
    vectors.
    """
    n, d = queries.shape
    m = memory.shape[0]
    w = alphas * alphas
    out = np.empty((w.shape[0], n), dtype=np.uint8)
    rows = max(1, min(n, budget // (m * d)))
    buf = np.empty((rows, m, d))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        sq = buf[: stop - start]
        np.subtract(queries[start:stop, None, :], memory[None, :, :], out=sq)
        np.square(sq, out=sq)
        flat = sq.reshape(-1, d)
        for s in range(w.shape[0]):
            d2 = (flat @ w[s]).reshape(stop - start, m)
            out[s, start:stop] = _vote_rows(d2, positive, k)
    return out


def _sq_dist_row(point: np.ndarray, block: np.ndarray) -> np.ndarray:
    diff = block - point
    return np.einsum("ij,ij->i", diff, diff)


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
    Distances are unweighted.
    """
    tf = np.asarray(target_features, dtype=np.float64)
    tl = np.asarray(target_labels)
    rf = np.asarray(reference_features, dtype=np.float64)
    rl = np.asarray(reference_labels)
    n_t = len(tl)
    keep = np.ones(n_t, dtype=bool)
    if n_t == 0 or len(rl) == 0:
        return keep
    for i in range(len(rl)):
        d2_ref = _sq_dist_row(rf[i], rf)
        same = rl == rl[i]
        same[i] = False
        if not same.any():
            continue
        r2 = _radius_sq(d2_ref[same], k)
        d2_tgt = _sq_dist_row(rf[i], tf)
        keep &= ~((d2_tgt <= r2) & (tl != rl[i]))
    return keep


def _radius_sq(same_label_d2: np.ndarray, k: int) -> float:
    """Squared cleaning radius: k-th smallest, or the largest when short of k."""
    if same_label_d2.shape[0] >= k:
        return float(np.partition(same_label_d2, k - 1)[k - 1])
    return float(same_label_d2.max())


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


def _interleaved_errors(
    features: np.ndarray, labels: np.ndarray, sizes: Sequence[int], k: int
) -> list[float]:
    """Test-then-train kNN error of each suffix window.

    Element i of a window is predicted by unweighted kNN over the window
    elements before it; the first k elements of each window are skipped. One
    distance row per stream position is shared across all candidate windows.
    """
    n = len(labels)
    offsets = [n - s for s in sizes]
    wrong = [0] * len(sizes)
    for i in range(k, n):
        row = _sq_dist_row(features[i], features[:i])
        for j, off in enumerate(offsets):
            if i >= off + k:
                pred = _vote_1d(row[off:], labels[off:i], k)
                wrong[j] += int(pred != labels[i])
    return [w / max(1, s - k) for w, s in zip(wrong, sizes)]


def _kmeans(points: np.ndarray, n_clusters: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means (greedy D^2 seeding, at most 10 update rounds).

    Returns (centers, assignment). Empty clusters keep their previous center.
    """
    n = len(points)
    m = min(n_clusters, n)
    if m == n:
        return points.copy(), np.arange(n)
    first = int(rng.integers(n))
    centers = [points[first]]
    d2 = _sq_dist_row(points[first], points)
    for _ in range(1, m):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers.append(points[idx])
        d2 = np.minimum(d2, _sq_dist_row(points[idx], points))
    c = np.array(centers)
    assign = np.zeros(n, dtype=np.intp)
    rows = max(1, _BLOCK_ELEMENTS // (m * points.shape[1]))
    for _ in range(10):
        # Row blocks bound the n x m x d tensor; each row's sum is unchanged.
        new_assign = np.empty(n, dtype=np.intp)
        for start in range(0, n, rows):
            block = points[start : start + rows]
            dist = ((block[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            new_assign[start : start + rows] = dist.argmin(axis=1)
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
        adapt_per_instance: bool = False,
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
        self.adapt_per_instance = adapt_per_instance
        self.compress_count = 0
        # Amortised append buffer: live STM is [_start, _end).
        cap = 2 * stm_cap + 1
        self._buf_f = np.empty((cap, dim), dtype=np.float64)
        self._buf_g = np.empty(cap, dtype=np.uint8)
        self._buf_l = np.empty(cap, dtype=np.uint8)
        self._start = 0
        self._end = 0
        self._ltm_f = np.empty((0, dim), dtype=np.float64)
        self._ltm_g = np.empty(0, dtype=np.uint8)
        self._ltm_l = np.empty(0, dtype=np.uint8)
        # correct/total pairs, exponentially decayed.
        self._trackers = {name: [0.0, 0.0] for name in ("stm", "ltm", "combined")}

    # -- views ------------------------------------------------------------

    @property
    def stm_size(self) -> int:
        return self._end - self._start

    @property
    def ltm_size(self) -> int:
        return len(self._ltm_l)

    @property
    def stm_features(self) -> np.ndarray:
        return self._buf_f[self._start : self._end]

    @property
    def stm_labels(self) -> np.ndarray:
        return self._buf_l[self._start : self._end]

    @property
    def stm_groups(self) -> np.ndarray:
        return self._buf_g[self._start : self._end]

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

    # -- prediction --------------------------------------------------------

    def predict(self, x: np.ndarray, alpha: np.ndarray) -> int:
        """Label of one query under the given feature weights."""
        if self.stm_size == 0:
            raise ValueError("cannot predict with an empty STM")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},)")
        alpha = check_weights(alpha, self.dim)
        if alpha.ndim != 1:
            raise ValueError("predict takes one weight vector")
        feats, labels = self._store_arrays(self._best_store())
        return int(_weighted_votes(x[None, :], feats, labels == 1, self.k, alpha[None, :])[0, 0])

    def predict_chunk(self, features: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`predict` over many queries (same outputs)."""
        return FrozenChunkPredictor(features, self).predict(alpha)

    # -- fitting -----------------------------------------------------------

    def fit_chunk(self, chunk: Chunk) -> None:
        """Absorb one labeled window.

        Per instance: the three trackers are tested unweighted against the
        incoming label, the LTM is cleaned against the new point, and the
        point enters the STM (evicting the oldest beyond capacity). After the
        window the STM length is re-fitted; everything the STM discarded is
        cleaned against the surviving STM, appended to the LTM, and the LTM
        is compressed while over capacity. With ``adapt_per_instance`` the
        length re-fit runs after every instance instead (much slower).
        """
        if chunk.n_features != self.dim:
            raise ValueError("chunk dimensionality does not match the bank")
        pending_f: list[np.ndarray] = []
        pending_g: list[int] = []
        pending_l: list[int] = []
        feats, groups, labels = chunk.features, chunk.groups, chunk.labels
        for i in range(len(chunk)):
            self._fit_one(feats[i], int(groups[i]), int(labels[i]), pending_f, pending_g, pending_l)
            if self.adapt_per_instance:
                self._adapt_and_flush(pending_f, pending_g, pending_l)
        if not self.adapt_per_instance:
            self._adapt_and_flush(pending_f, pending_g, pending_l)
        self.compress_ltm()

    def _adapt_and_flush(
        self, pending_f: list[np.ndarray], pending_g: list[int], pending_l: list[int]
    ) -> None:
        prefix = self._shrink_stm()
        if pending_f or prefix is not None:
            parts_f = [np.array(pending_f)] if pending_f else []
            parts_g = [np.array(pending_g, dtype=np.uint8)] if pending_g else []
            parts_l = [np.array(pending_l, dtype=np.uint8)] if pending_l else []
            if prefix is not None:
                parts_f.append(prefix[0])
                parts_g.append(prefix[1])
                parts_l.append(prefix[2])
            self._transfer_to_ltm(np.vstack(parts_f), np.concatenate(parts_g), np.concatenate(parts_l))
            pending_f.clear()
            pending_g.clear()
            pending_l.clear()

    def _fit_one(
        self,
        x: np.ndarray,
        group: int,
        label: int,
        pending_f: list[np.ndarray],
        pending_g: list[int],
        pending_l: list[int],
    ) -> None:
        s = self.stm_size
        if s > 0:
            stm_l = self.stm_labels
            d2_stm = _sq_dist_row(x, self.stm_features)
            pred_stm = _vote_1d(d2_stm, stm_l, self.k)
            self._update_tracker("stm", pred_stm == label)
            if self.ltm_size > 0:
                d2_ltm = _sq_dist_row(x, self._ltm_f)
                pred_ltm = _vote_1d(d2_ltm, self._ltm_l, self.k)
                self._update_tracker("ltm", pred_ltm == label)
                d2_both = np.concatenate([d2_stm, d2_ltm])
                l_both = np.concatenate([stm_l, self._ltm_l])
                pred_both = _vote_1d(d2_both, l_both, self.k)
                self._update_tracker("combined", pred_both == label)
                # Clean the LTM against the incoming point before it joins
                # the STM; its radius comes from its same-label STM neighbors.
                same = stm_l == label
                if same.any():
                    r2 = _radius_sq(d2_stm[same], self.k)
                    drop = (d2_ltm <= r2) & (self._ltm_l != label)
                    if drop.any():
                        keep = ~drop
                        self._ltm_f = self._ltm_f[keep]
                        self._ltm_g = self._ltm_g[keep]
                        self._ltm_l = self._ltm_l[keep]
            else:
                self._update_tracker("combined", pred_stm == label)
        self._append_stm(x, group, label, pending_f, pending_g, pending_l)

    def _update_tracker(self, name: str, hit: bool) -> None:
        pair = self._trackers[name]
        pair[0] = self.tracker_decay * pair[0] + (1.0 if hit else 0.0)
        pair[1] = self.tracker_decay * pair[1] + 1.0

    def _append_stm(
        self,
        x: np.ndarray,
        group: int,
        label: int,
        pending_f: list[np.ndarray],
        pending_g: list[int],
        pending_l: list[int],
    ) -> None:
        if self._end == len(self._buf_l):
            self._compact()
        self._buf_f[self._end] = x
        self._buf_g[self._end] = group
        self._buf_l[self._end] = label
        self._end += 1
        if self.stm_size > self.stm_cap:
            pending_f.append(self._buf_f[self._start].copy())
            pending_g.append(int(self._buf_g[self._start]))
            pending_l.append(int(self._buf_l[self._start]))
            self._start += 1

    def _compact(self) -> None:
        size = self.stm_size
        self._buf_f[:size] = self._buf_f[self._start : self._end]
        self._buf_g[:size] = self._buf_g[self._start : self._end]
        self._buf_l[:size] = self._buf_l[self._start : self._end]
        self._start, self._end = 0, size

    # -- STM size adaptation ------------------------------------------------

    def candidate_sizes(self) -> list[int]:
        return _candidate_sizes(self.stm_size, self.min_stm_size)

    def adapt_stm_size(self) -> int:
        """Re-fit the STM length; transfer any dropped prefix into the LTM.

        Returns the adopted STM size. The smallest interleaved error wins,
        with ties resolved toward the larger window.
        """
        prefix = self._shrink_stm()
        if prefix is not None:
            self._transfer_to_ltm(*prefix)
        return self.stm_size

    def _shrink_stm(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        n = self.stm_size
        if n == 0:
            return None
        sizes = _candidate_sizes(n, self.min_stm_size)
        if len(sizes) == 1:
            return None
        errors = _interleaved_errors(self.stm_features, self.stm_labels, sizes, self.k)
        best = 0
        for j in range(1, len(sizes)):
            if errors[j] < errors[best]:
                best = j
        adopted = sizes[best]
        if adopted == n:
            return None
        cut = self._start + (n - adopted)
        prefix = (
            self._buf_f[self._start : cut].copy(),
            self._buf_g[self._start : cut].copy(),
            self._buf_l[self._start : cut].copy(),
        )
        self._start = cut
        return prefix

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
                cg = np.zeros(m, dtype=np.uint8)
                for j in range(m):
                    members = grp[assign == j]
                    if len(members) and 2 * int(members.sum()) > len(members):
                        cg[j] = 1
                new_f.append(centers)
                new_g.append(cg)
                new_l.append(np.full(m, label, dtype=np.uint8))
            self._ltm_f = np.vstack(new_f)
            self._ltm_g = np.concatenate(new_g)
            self._ltm_l = np.concatenate(new_l)

    # -- state snapshots --------------------------------------------------------

    def replace_stm(self, features: np.ndarray, labels: np.ndarray, groups: np.ndarray | None = None) -> None:
        """Overwrite the STM contents (restore and test hook)."""
        f = np.asarray(features, dtype=np.float64).reshape(-1, self.dim)
        l = np.asarray(labels, dtype=np.uint8)
        n = len(l)
        if n > self.stm_cap:
            raise ValueError("more instances than the STM capacity")
        g = np.zeros(n, dtype=np.uint8) if groups is None else np.asarray(groups, dtype=np.uint8)
        self._buf_f[:n] = f
        self._buf_g[:n] = g
        self._buf_l[:n] = l
        self._start, self._end = 0, n

    def replace_ltm(self, features: np.ndarray, labels: np.ndarray, groups: np.ndarray | None = None) -> None:
        f = np.asarray(features, dtype=np.float64).reshape(-1, self.dim)
        l = np.asarray(labels, dtype=np.uint8)
        g = np.zeros(len(l), dtype=np.uint8) if groups is None else np.asarray(groups, dtype=np.uint8)
        self._ltm_f, self._ltm_g, self._ltm_l = f.copy(), g.copy(), l.copy()

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
        """Versioned binary snapshot (header, trackers, instance arrays)."""
        out = io.BytesIO()
        out.write(_SNAPSHOT_MAGIC)
        out.write(
            struct.pack(
                "<IIIIIIdqQB",
                _SNAPSHOT_VERSION,
                self.dim,
                self.k,
                self.stm_cap,
                self.ltm_cap,
                self.min_stm_size,
                self.tracker_decay,
                self.seed,
                self.compress_count,
                1 if self.adapt_per_instance else 0,
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
        return out.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MemoryBank":
        """Rebuild a bank from :meth:`to_bytes` output.

        A truncated blob, trailing bytes or settings a bank rejects raise
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
        fmt = "<IIIIIIdqQB"
        version, dim, k, stm_cap, ltm_cap, min_stm, decay, seed, count, per_inst = struct.unpack(
            fmt, take(struct.calcsize(fmt))
        )
        if version != _SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        bank = cls(dim, k, stm_cap, ltm_cap, min_stm, decay, seed, adapt_per_instance=bool(per_inst))
        bank.compress_count = count
        for name in ("stm", "ltm", "combined"):
            bank._trackers[name] = list(struct.unpack("<2d", take(16)))
        arrays = []
        for _ in range(2):
            (n,) = struct.unpack("<I", take(4))
            feats = np.frombuffer(take(8 * n * dim), dtype="<f8").reshape(n, dim).copy()
            groups = np.frombuffer(take(n), dtype=np.uint8).copy()
            labels = np.frombuffer(take(n), dtype=np.uint8).copy()
            arrays.append((feats, groups, labels))
        if pos != len(blob):
            raise ValueError(f"{len(blob) - pos} trailing bytes after the memory snapshot")
        (sf, sg, sl), (lf, lg, ll) = arrays
        bank.replace_stm(sf, sl, sg)
        bank.replace_ltm(lf, ll, lg)
        return bank


def save_bank(bank: MemoryBank, path) -> None:
    with open(path, "wb") as fh:
        fh.write(bank.to_bytes())


def load_bank(path) -> MemoryBank:
    with open(path, "rb") as fh:
        return MemoryBank.from_bytes(fh.read())


class FrozenChunkPredictor:
    """Batch predictor binding one query block to a frozen memory bank.

    The constructor copies the queries and the currently best store, so later
    fits leave its predictions unchanged. :meth:`predict` runs the module's
    single weighted kNN kernel: one weight vector (d,) gives (n,) votes, a
    stack (S, d) gives (S, n), row s equal to predicting with the s-th vector
    alone. Each query row is computed independently, so results are bitwise
    identical to calling :meth:`MemoryBank.predict` per query, whatever the
    ``budget`` (float64 elements per row block; at least one row).
    """

    def __init__(self, features: np.ndarray, bank: MemoryBank, budget: int = _BLOCK_ELEMENTS) -> None:
        if bank.stm_size == 0:
            raise ValueError("cannot predict with an empty STM")
        x = np.array(features, dtype=np.float64, order="C")
        if x.ndim != 2 or x.shape[1] != bank.dim:
            raise ValueError(f"queries must have shape (n, {bank.dim})")
        feats, labels = bank._store_arrays(bank._best_store())
        self._x = x
        self._mem = np.array(feats, dtype=np.float64, order="C")
        self._positive = labels == 1
        self._k = bank.k
        self._budget = budget

    def predict(self, alpha: np.ndarray) -> np.ndarray:
        alpha = check_weights(alpha, self._x.shape[1])
        votes = _weighted_votes(
            self._x, self._mem, self._positive, self._k, np.atleast_2d(alpha), self._budget
        )
        return votes[0] if alpha.ndim == 1 else votes
