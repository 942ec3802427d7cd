"""Trend/cycle decomposition of short discrimination series and trigger rules.

The smoother splits a series y into a trend G and a cycle C = y - G by
penalising the squared second differences of the trend:

    minimise  sum (y_t - G_t)^2 + smoothing * sum (d2 G_t)^2

which has the exact solution of the pentadiagonal system
(I + smoothing * D'D) G = y, with D the (n-2) x n second-difference
operator. Subtracting it from y gives the system the filter solves, for the
cycle: (I + smoothing * D'D) C = smoothing * D'(D y), with D y the series'
second differences, by an O(n) LDL' elimination of the symmetric
pentadiagonal matrix. Series of length one or two carry no curvature, so
the trend is the series itself.

Three policies decide when weight optimization should run: a rising-trend
test on the smoothed history, a plain last-step increase test, and an
always-on policy used for ablations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "HPDecomposition",
    "hp_filter",
    "DiscriminationHistory",
    "should_trigger_hp",
    "should_trigger_previous",
    "should_trigger_every",
]

DEFAULT_SMOOTHING = 100.0
# Largest smoothing hp_filter accepts. The elimination's pivots are at least
# 1, but it computes them as differences of terms of the smoothing's size,
# so the cycle's error grows as about smoothing * 1e-16: against an exact
# rational solve of series of length 3 to 8 it was 2e-8 at 1e8, 2e-6 at
# 1e10 and 2e-2 at 1e14, and from 1e16 on a pivot rounds to zero. Usual HP
# smoothings run from 100 to 129600.
MAX_SMOOTHING = 1e8
DEFAULT_TREND_THRESHOLD = 0.10
DEFAULT_MIN_INCREASE = 0.07
HISTORY_CAPACITY = 5

_STENCIL = (1.0, -2.0, 1.0)


@dataclass(frozen=True)
class HPDecomposition:
    trend: np.ndarray
    cycle: np.ndarray


def hp_filter(series: Sequence[float], smoothing: float = DEFAULT_SMOOTHING) -> HPDecomposition:
    """Exact trend/cycle split of a series.

    The cycle is solved for from the series' float second differences
    (``np.diff(series, 2)``) and the trend is the series minus the cycle. So
    a series whose second differences are all exactly zero, such as a flat
    one, has a cycle of exactly zero, and the cycle's sign follows those
    float differences: an affine series whose float steps are not all equal
    has a cycle of the size of that rounding.

    Parameters
    ----------
    series : sequence of float
        Observed values, at least one.
    smoothing : float
        Positive penalty on trend curvature, at most ``MAX_SMOOTHING``. Near
        zero the trend hugs the series; large values approach the
        least-squares line.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("series must be a non-empty vector")
    if not np.isfinite(y).all():
        raise ValueError("series must be finite")
    if not 0.0 < smoothing <= MAX_SMOOTHING:
        raise ValueError(f"smoothing must lie in (0, {MAX_SMOOTHING:g}]")
    cycle = _hp_cycle(y, float(smoothing)) if y.size > 2 else np.zeros(y.size)
    return HPDecomposition(y - cycle, cycle)


def _hp_cycle(y: np.ndarray, smoothing: float) -> np.ndarray:
    """C solving (I + smoothing * D'D) C = smoothing * D'(D y), n = len(y) >= 3.

    A = I + smoothing * D'D is symmetric positive definite and pentadiagonal,
    so A = L diag(p) L' with L unit lower triangular and two sub-diagonals
    (``l1[i]`` = L[i+1, i], ``l2[i]`` = L[i+2, i]), found by elimination
    without pivoting. Every array carries two zero entries past its end, so
    reads at i - 1, i - 2 (wrapping to the end) and i + 1, i + 2 beyond the
    matrix see zeros.
    """
    n = y.size
    # band[j][i] = A[i, i + j]; D'D sums the stencil's outer product along
    # the diagonal, once per row of D.
    band = np.zeros((3, n + 2))
    band[0, :n] = 1.0
    for a in range(3):
        for b in range(a, 3):
            band[b - a, a : a + n - 2] += smoothing * _STENCIL[a] * _STENCIL[b]
    rhs = np.zeros(n + 2)
    d2 = np.diff(y, 2)
    for a in range(3):
        rhs[a : a + n - 2] += smoothing * _STENCIL[a] * d2
    diag, up1, up2 = band.tolist()
    rhs = rhs.tolist()
    p, l1, l2, z = [0.0] * (n + 2), [0.0] * (n + 2), [0.0] * (n + 2), [0.0] * (n + 2)
    for i in range(n):
        # Row i of A = L diag(p) L', and of L z = rhs.
        p[i] = diag[i] - l1[i - 1] * l1[i - 1] * p[i - 1] - l2[i - 2] * l2[i - 2] * p[i - 2]
        l1[i] = (up1[i] - l2[i - 1] * l1[i - 1] * p[i - 1]) / p[i]
        l2[i] = up2[i] / p[i]
        z[i] = rhs[i] - l1[i - 1] * z[i - 1] - l2[i - 2] * z[i - 2]
    c = [0.0] * (n + 2)
    for i in range(n - 1, -1, -1):
        c[i] = z[i] / p[i] - l1[i] * c[i + 1] - l2[i] * c[i + 2]
    return np.array(c[:n])


class DiscriminationHistory:
    """FIFO of the most recent absolute window discriminations."""

    def __init__(self, capacity: int = HISTORY_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._values: deque[float] = deque(maxlen=capacity)

    def append(self, value: float) -> None:
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError("history stores absolute discriminations in [0, 1]")
        self._values.append(value)

    def clear(self) -> None:
        self._values.clear()

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._values)


def _as_values(history) -> np.ndarray:
    if isinstance(history, DiscriminationHistory):
        return history.values
    return np.asarray(history, dtype=np.float64)


def should_trigger_hp(
    history,
    trend_threshold: float = DEFAULT_TREND_THRESHOLD,
    smoothing: float = DEFAULT_SMOOTHING,
) -> bool:
    """Fire when the smoothed discrimination trend is high and still rising.

    Requires at least three observations; the last trend value must reach
    ``trend_threshold`` and the last cycle value must be strictly positive
    (the series sits above its own trend).
    """
    values = _as_values(history)
    if values.size < 3:
        return False
    decomp = hp_filter(values, smoothing)
    return bool(decomp.trend[-1] >= trend_threshold and decomp.cycle[-1] > 0.0)


def should_trigger_previous(history, min_increase: float = DEFAULT_MIN_INCREASE) -> bool:
    """Fire on a strict jump above ``min_increase`` between the last two values."""
    values = _as_values(history)
    if values.size < 2:
        return False
    return bool(values[-1] - values[-2] > min_increase)


def should_trigger_every() -> bool:
    """Always fire (ablation policy)."""
    return True
