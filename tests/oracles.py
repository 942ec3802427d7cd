"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (explicit
loops, dense algebra, full sorts) and shares no code with the package
under test.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def counting_accuracy(predictions, labels) -> float:
    hits = 0
    total = 0
    for p, y in zip(predictions, labels, strict=True):
        total += 1
        if int(p) == int(y):
            hits += 1
    return hits / total


def counting_discrimination(predictions, groups) -> tuple[float, bool]:
    """Two-pass positive-rate gap; (0.0, True) when a group is missing."""
    pos_p = n_p = pos_u = n_u = 0
    for p, g in zip(predictions, groups, strict=True):
        if int(g) == 1:
            n_p += 1
            pos_p += int(p) == 1
        else:
            n_u += 1
            pos_u += int(p) == 1
    if n_p == 0 or n_u == 0:
        return 0.0, True
    return pos_p / n_p - pos_u / n_u, False


def dense_hp_trend(series: np.ndarray, smoothing: float) -> np.ndarray:
    """Trend via an explicitly materialized second-difference operator."""
    y = np.asarray(series, dtype=np.float64)
    n = y.size
    if n <= 2:
        return y.copy()
    d = np.zeros((n - 2, n))
    for i in range(n - 2):
        d[i, i] = 1.0
        d[i, i + 1] = -2.0
        d[i, i + 2] = 1.0
    return np.linalg.solve(np.eye(n) + smoothing * d.T @ d, y)


def brute_knn_vote(query, mem_features, mem_labels, k: int, alpha=None) -> int:
    """Sorted (distance, position) vote; exact ties between labels go to 1."""
    query = np.asarray(query, dtype=np.float64)
    mem = np.asarray(mem_features, dtype=np.float64)
    if alpha is None:
        alpha = np.ones(mem.shape[1])
    keyed = []
    for idx in range(len(mem)):
        dist = math.sqrt(sum((float(a) * (float(q) - float(v))) ** 2
                             for a, q, v in zip(alpha, query, mem[idx])))
        keyed.append((dist, idx))
    keyed.sort()
    chosen = keyed[: min(k, len(keyed))]
    ones = sum(int(mem_labels[idx]) for _, idx in chosen)
    zeros = len(chosen) - ones
    if ones > zeros:
        return 1
    if zeros > ones:
        return 0
    return 1


def brute_clean_mask(
    target_features,
    target_labels,
    reference_features,
    reference_labels,
    k: int,
) -> np.ndarray:
    """Double-loop cleaning rule; True marks survivors."""
    tf = np.asarray(target_features, dtype=np.float64)
    tl = np.asarray(target_labels)
    rf = np.asarray(reference_features, dtype=np.float64)
    rl = np.asarray(reference_labels)
    keep = np.ones(len(tl), dtype=bool)
    for i in range(len(rl)):
        same_dists = sorted(
            math.dist(rf[i], rf[j])
            for j in range(len(rl))
            if j != i and rl[j] == rl[i]
        )
        if not same_dists:
            continue
        radius = same_dists[min(k, len(same_dists)) - 1]
        for t in range(len(tl)):
            if keep[t] and tl[t] != rl[i] and math.dist(rf[i], tf[t]) <= radius:
                keep[t] = False
    return keep


def interleaved_error(features, labels, size: int, k: int) -> float:
    """Test-then-train error of the length-``size`` suffix window."""
    feats = np.asarray(features, dtype=np.float64)
    labs = np.asarray(labels)
    feats = feats[len(labs) - size:]
    labs = labs[len(labs) - size:]
    wrong = 0
    for i in range(k, size):
        pred = brute_knn_vote(feats[i], feats[:i], labs[:i], k)
        if pred != int(labs[i]):
            wrong += 1
    return wrong / max(1, size - k)


def strictly_dominates(a, b) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def mutually_non_dominated(pairs) -> bool:
    pairs = list(pairs)
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            if i != j and strictly_dominates(a, b):
                return False
    return True


def brute_majority(votes, tie_label: int = 1) -> int:
    ones = sum(int(v) for v in votes)
    zeros = len(votes) - ones
    if ones > zeros:
        return 1
    if zeros > ones:
        return 0
    return tie_label


def sam_reference_predict(bank, query) -> int:
    """Unweighted prediction re-derived from the bank's public surface."""
    stores = {"stm": (bank.stm_features, bank.stm_labels)}
    if bank.ltm_size > 0:
        stores["ltm"] = (bank.ltm_features, bank.ltm_labels)
        stores["combined"] = (
            np.vstack([bank.stm_features, bank.ltm_features]),
            np.concatenate([bank.stm_labels, bank.ltm_labels]),
        )
        order = ("stm", "combined", "ltm")
        best = max(order, key=lambda name: (bank.tracker_accuracy(name),
                                            -order.index(name)))
    else:
        best = "stm"
    feats, labs = stores[best]
    return brute_knn_vote(query, feats, labs, bank.k)


# -- per-instance memory maintenance -------------------------------------------
#
# The SAM-kNN fit as it ran before the window absorb: one instance at a time,
# one distance row and one stable argsort per vote. A squared distance is the
# package's order-defined sum over features, added left to right, so a
# faithful window absorb must match these functions bit for bit, not just
# within a tolerance.


def _row_sq_dists(point, block) -> np.ndarray:
    """Squared distances of ``point`` to each row of ``block``, one feature at a time."""
    block = np.asarray(block, dtype=np.float64)
    total = np.zeros(len(block))
    for f in range(block.shape[1]):
        gap = block[:, f] - point[f]
        total += gap * gap
    return total


def _stable_vote(dist2, labels, k: int) -> int:
    kk = min(k, dist2.shape[0])
    order = np.argsort(dist2, kind="stable")[:kk]
    ones = int(labels[order].sum())
    return 1 if 2 * ones >= kk else 0


def _radius_sq(same_label_d2, k: int) -> float:
    if same_label_d2.shape[0] >= k:
        return float(np.partition(same_label_d2, k - 1)[k - 1])
    return float(same_label_d2.max())


def _halving_sizes(n: int, min_size: int) -> list[int]:
    sizes = [n]
    h = math.ceil(n / 2)
    while h >= min_size and h < sizes[-1]:
        sizes.append(h)
        h = math.ceil(h / 2)
    return sizes


def reference_clean(target_features, target_labels, reference_features, reference_labels, k: int) -> np.ndarray:
    """Radius cleaning, one reference point at a time; True marks survivors."""
    tf, tl = np.asarray(target_features, dtype=np.float64), np.asarray(target_labels)
    rf, rl = np.asarray(reference_features, dtype=np.float64), np.asarray(reference_labels)
    keep = np.ones(len(tl), dtype=bool)
    if len(tl) == 0 or len(rl) == 0:
        return keep
    for i in range(len(rl)):
        d2_ref = _row_sq_dists(rf[i], rf)
        same = rl == rl[i]
        same[i] = False
        if not same.any():
            continue
        r2 = _radius_sq(d2_ref[same], k)
        keep &= ~((_row_sq_dists(rf[i], tf) <= r2) & (tl != rl[i]))
    return keep


def reference_interleaved_errors(features, labels, sizes, k: int) -> list[float]:
    """Test-then-train error of each suffix window, one row and vote at a time."""
    n = len(labels)
    offsets = [n - s for s in sizes]
    wrong = [0] * len(sizes)
    for i in range(k, n):
        row = _row_sq_dists(features[i], features[:i])
        for j, off in enumerate(offsets):
            if i >= off + k:
                wrong[j] += int(_stable_vote(row[off:], labels[off:i], k) != labels[i])
    return [w / max(1, s - k) for w, s in zip(wrong, sizes)]


def reference_fit_chunk(bank, chunk) -> None:
    """``bank.fit_chunk(chunk)`` the per-instance way.

    Reads and writes the memories through the bank's public surface and its
    tracker pairs through ``bank._trackers``; LTM compression is the bank's
    own ``compress_ltm``.
    """
    k, cap, decay = bank.k, bank.stm_cap, bank.tracker_decay
    stm_f, stm_g, stm_l = (np.array(a) for a in (bank.stm_features, bank.stm_groups, bank.stm_labels))
    ltm_f, ltm_g, ltm_l = (np.array(a) for a in (bank.ltm_features, bank.ltm_groups, bank.ltm_labels))
    trackers = {name: list(pair) for name, pair in bank._trackers.items()}
    pending: list[tuple[np.ndarray, int, int]] = []

    def update(name: str, hit: bool) -> None:
        pair = trackers[name]
        pair[0] = decay * pair[0] + (1.0 if hit else 0.0)
        pair[1] = decay * pair[1] + 1.0

    def fit_one(x, group: int, label: int) -> None:
        nonlocal stm_f, stm_g, stm_l, ltm_f, ltm_g, ltm_l
        if len(stm_l):
            d2_stm = _row_sq_dists(x, stm_f)
            pred_stm = _stable_vote(d2_stm, stm_l, k)
            update("stm", pred_stm == label)
            if len(ltm_l):
                d2_ltm = _row_sq_dists(x, ltm_f)
                update("ltm", _stable_vote(d2_ltm, ltm_l, k) == label)
                both = _stable_vote(np.concatenate([d2_stm, d2_ltm]), np.concatenate([stm_l, ltm_l]), k)
                update("combined", both == label)
                same = stm_l == label
                if same.any():
                    keep = ~((d2_ltm <= _radius_sq(d2_stm[same], k)) & (ltm_l != label))
                    ltm_f, ltm_g, ltm_l = ltm_f[keep], ltm_g[keep], ltm_l[keep]
            else:
                update("combined", pred_stm == label)
        stm_f = np.vstack([stm_f, x[None, :]])
        stm_g = np.append(stm_g, np.uint8(group))
        stm_l = np.append(stm_l, np.uint8(label))
        if len(stm_l) > cap:
            pending.append((stm_f[0].copy(), int(stm_g[0]), int(stm_l[0])))
            stm_f, stm_g, stm_l = stm_f[1:], stm_g[1:], stm_l[1:]

    def adapt_and_flush() -> None:
        nonlocal stm_f, stm_g, stm_l, ltm_f, ltm_g, ltm_l
        n = len(stm_l)
        cut = 0
        sizes = _halving_sizes(n, bank.min_stm_size) if n else [n]
        if len(sizes) > 1:
            errors = reference_interleaved_errors(stm_f, stm_l, sizes, k)
            best = 0
            for j in range(1, len(sizes)):
                if errors[j] < errors[best]:
                    best = j
            cut = n - sizes[best]
        if not pending and cut == 0:
            return
        moved_f = np.vstack([p[0][None, :] for p in pending] + [stm_f[:cut]])
        moved_g = np.array([p[1] for p in pending] + list(stm_g[:cut]), dtype=np.uint8)
        moved_l = np.array([p[2] for p in pending] + list(stm_l[:cut]), dtype=np.uint8)
        stm_f, stm_g, stm_l = stm_f[cut:], stm_g[cut:], stm_l[cut:]
        pending.clear()
        keep = reference_clean(moved_f, moved_l, stm_f, stm_l, k)
        ltm_f = np.vstack([ltm_f, moved_f[keep]])
        ltm_g = np.concatenate([ltm_g, moved_g[keep]])
        ltm_l = np.concatenate([ltm_l, moved_l[keep]])

    for i in range(len(chunk)):
        fit_one(chunk.features[i], int(chunk.groups[i]), int(chunk.labels[i]))
    adapt_and_flush()
    bank.replace_stm(stm_f, stm_l, stm_g)
    bank.replace_ltm(ltm_f, ltm_l, ltm_g)
    for name, pair in trackers.items():
        bank._trackers[name] = pair
    bank.compress_ltm()


def reference_ingest(manifest):
    """``stream.ingest`` the whole-file way, as plain arrays.

    Reads every row into lists, then scales each numeric column with one
    running ``accumulate`` over all of it and one-hot encodes each
    categorical column against its sorted whole-column vocabulary. Returns
    ``(features, groups, labels, feature_names, rejected_rows)``. A repeated
    header name or a ``csv.Error`` is a ValueError, as in the package.
    """
    bound = 1e100
    with open(manifest.source, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"CSV line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError("empty CSV: no header row")
    header = [c.strip() for c in rows.pop(0)]
    if len(set(header)) != len(header):
        raise ValueError("repeated CSV header names")
    col_index = {name: i for i, name in enumerate(header)}
    needed = {manifest.target_column, manifest.sensitive_column, *manifest.categorical_columns}
    if any(c not in col_index for c in needed):
        raise ValueError("columns missing from CSV header")
    feature_cols = [
        c
        for c in header
        if c != manifest.target_column and not (manifest.drop_sensitive and c == manifest.sensitive_column)
    ]
    if not feature_cols:
        raise ValueError("no feature columns left after applying the manifest")
    categorical = set(manifest.categorical_columns)
    if not manifest.drop_sensitive:
        categorical.add(manifest.sensitive_column)
    numeric_cols = [c for c in feature_cols if c not in categorical]
    cat_cols = [c for c in feature_cols if c in categorical]

    rejected = 0
    numeric_rows, groups, labels = [], [], []
    cat_values = {c: [] for c in cat_cols}
    for raw in rows:
        if len(raw) != len(header):
            rejected += 1
            continue
        cells = [c.strip() for c in raw]
        target = cells[col_index[manifest.target_column]]
        sens = cells[col_index[manifest.sensitive_column]]
        if target == "" or (sens not in manifest.protected_values and sens not in manifest.unprotected_values):
            rejected += 1
            continue
        numeric = []
        for c in numeric_cols:
            try:
                val = float(cells[col_index[c]])
            except ValueError:
                break
            if not abs(val) <= bound:
                break
            numeric.append(val)
        if len(numeric) < len(numeric_cols) or any(cells[col_index[c]] == "" for c in cat_cols):
            rejected += 1
            continue
        numeric_rows.append(numeric)
        for c in cat_cols:
            cat_values[c].append(cells[col_index[c]])
        groups.append(1 if sens in manifest.protected_values else 0)
        labels.append(1 if target == manifest.positive_label else 0)
    n = len(labels)
    if n == 0:
        raise ValueError("no usable rows in stream source")

    num_mat = np.asarray(numeric_rows, dtype=np.float64).reshape(n, len(numeric_cols))
    cmin = np.minimum.accumulate(num_mat, axis=0)
    cmax = np.maximum.accumulate(num_mat, axis=0)
    span = cmax - cmin
    num_norm = np.clip(np.where(span > 0.0, (num_mat - cmin) / np.where(span > 0.0, span, 1.0), 0.0), 0.0, 1.0)
    blocks, names = [], []
    for c in feature_cols:
        if c in categorical:
            cats = sorted(set(cat_values[c]))
            vals = np.asarray(cat_values[c], dtype=object)
            blocks.append((vals[:, None] == np.asarray(cats, dtype=object)[None, :]).astype(np.float64))
            names.extend(f"{c}={cat}" for cat in cats)
        else:
            j = numeric_cols.index(c)
            blocks.append(num_norm[:, j : j + 1])
            names.append(c)
    features = np.hstack(blocks)
    return features, np.asarray(groups, dtype=np.uint8), np.asarray(labels, dtype=np.uint8), names, rejected
