"""Window-level prediction metrics: accuracy and statistical parity.

Both score one row of a window's predictions, or a stack of rows at once (a
swarm sweep of the weight search).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DiscriminationResult",
    "accuracy",
    "discrimination",
    "WindowRecord",
    "WINDOW_CSV_HEADER",
]


class DiscriminationResult(NamedTuple):
    """Signed parity gap plus a flag for windows where a group is absent."""

    value: float
    degenerate: bool


def _rows(predictions, reference, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Predictions as one (n,) row or an (S, n) stack, beside their (n,) reference."""
    p = np.asarray(predictions)
    r = np.asarray(reference)
    if r.ndim != 1 or r.size == 0 or p.ndim not in (1, 2) or p.shape[-1] != r.size:
        raise ValueError(f"predictions must be one row or a stack of rows as long as the non-empty {name}")
    return p, r


def _ratio(count, n: int):
    """An integer count over n: a Python float for one row, (S,) floats for a stack."""
    return count / n if isinstance(count, np.ndarray) else int(count) / n


def accuracy(predictions: Sequence[int], labels: Sequence[int]):
    """Fraction of predictions equal to the labels.

    One (n,) row gives a float; an (S, n) stack gives (S,) values, each the
    float its row gives alone (the same integer count and division).
    """
    p, y = _rows(predictions, labels, "labels")
    return _ratio((p == y).sum(axis=-1), y.size)


def discrimination(predictions: Sequence[int], groups: Sequence[int]) -> DiscriminationResult:
    """Positive-prediction rate of the protected group minus the unprotected one.

    A window holding only one group cannot express a rate gap; such windows
    yield 0.0 with ``degenerate=True`` so they never push a trigger upward.
    As in :func:`accuracy`, an (S, n) stack gives (S,) values, and
    ``degenerate``, a property of the groups, holds for every row.
    """
    p, g = _rows(predictions, groups, "groups")
    prot = g == 1
    n_p = int(prot.sum())
    n_u = g.size - n_p
    if n_p == 0 or n_u == 0:
        return DiscriminationResult(0.0 if p.ndim == 1 else np.zeros(len(p)), True)
    pos = p == 1
    rate_p = _ratio((pos & prot).sum(axis=-1), n_p)
    rate_u = _ratio((pos & ~prot).sum(axis=-1), n_u)
    return DiscriminationResult(rate_p - rate_u, False)


WINDOW_CSV_HEADER = [
    "window",
    "accuracy",
    "discrimination",
    "abs_discrimination",
    "triggered",
    "pareto_size",
    "wall_time_ms",
]


@dataclass(frozen=True)
class WindowRecord:
    """Per-window evaluation snapshot emitted by the engine."""

    window: int
    accuracy: float
    discrimination: float
    abs_discrimination: float
    triggered: bool
    pareto_size: int
    wall_time_ms: float

    def to_csv_row(self) -> list[str]:
        return [
            str(self.window),
            repr(self.accuracy),
            repr(self.discrimination),
            repr(self.abs_discrimination),
            "1" if self.triggered else "0",
            str(self.pareto_size),
            repr(self.wall_time_ms),
        ]
