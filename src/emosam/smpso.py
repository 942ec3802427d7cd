"""Speed-constrained multi-objective particle swarm optimization.

Minimises two objectives over a box-bounded vector. Velocities are damped by
a constriction coefficient and clamped per dimension to half the box extent;
leaders come from a bounded external archive of non-dominated solutions via
binary tournament on crowding distance. A polynomial mutation perturbs a
fraction of the swarm each iteration. The objective scores a whole sweep of
positions in one call.

The module is a plain optimizer: it knows nothing of windows, memories or
weights. The engine binds it to a scored window (``engine.optimize_weights``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ObjectivePair",
    "dominates",
    "crowding_distance",
    "ArchiveEntry",
    "Archive",
    "knee_index",
    "SmpsoParams",
    "constriction",
    "polynomial_mutation",
    "smpso_minimize",
]

# Appended to the run seed for the generator of the personal-best coin flips.
_PBEST_TAG = 5


class ObjectivePair(NamedTuple):
    """Minimised objective values: error rate and absolute discrimination."""

    err: float
    disc: float


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when a is no worse than b everywhere and strictly better once."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def crowding_distance(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """Crowding distance of each solution in objective space.

    Boundary solutions of every objective get infinity; interior ones sum the
    normalised gaps between their sorted neighbors. Objectives with zero range
    contribute nothing, so duplicates stay finite instead of turning into NaN.
    """
    obj = np.asarray(objectives, dtype=np.float64)
    if obj.ndim != 2 or obj.shape[0] == 0:
        raise ValueError("need at least one solution")
    n = obj.shape[0]
    dist = np.zeros(n)
    for j in range(obj.shape[1]):
        order = np.argsort(obj[:, j], kind="stable")
        col = obj[order, j]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = col[-1] - col[0]
        if span <= 0.0 or n < 3:
            continue
        gaps = (col[2:] - col[:-2]) / span
        dist[order[1:-1]] += gaps
    return dist


class ArchiveEntry(NamedTuple):
    position: np.ndarray
    objectives: tuple[float, float]


class Archive:
    """Bounded set of mutually non-dominated solutions.

    Insertion rejects dominated or objective-duplicate candidates, evicts
    entries the candidate dominates, and over capacity drops the entry with
    the lowest crowding distance.
    """

    def __init__(self, capacity: int = 100) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.entries: list[ArchiveEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ArchiveEntry]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> ArchiveEntry:
        return self.entries[i]

    def objective_array(self) -> np.ndarray:
        return np.array([e.objectives for e in self.entries], dtype=np.float64)

    def insert(self, position: np.ndarray, objectives: Sequence[float]) -> bool:
        pair = (float(objectives[0]), float(objectives[1]))
        for entry in self.entries:
            if entry.objectives == pair:
                return False
            if dominates(entry.objectives, pair):
                return False
        self.entries = [e for e in self.entries if not dominates(pair, e.objectives)]
        self.entries.append(ArchiveEntry(np.array(position, dtype=np.float64), pair))
        if len(self.entries) > self.capacity:
            dist = crowding_distance(self.objective_array())
            self.entries.pop(int(np.argmin(dist)))
        return True


def knee_index(objectives: Sequence[Sequence[float]]) -> int:
    """Index of the knee solution of a mutually non-dominated set.

    The knee maximises perpendicular distance to the straight line through
    the two extreme solutions (best first objective, best second objective).
    Fewer than three solutions fall back to the lexicographically best by
    (second objective, first objective). Ties return the lowest index.
    """
    obj = np.asarray(objectives, dtype=np.float64)
    if obj.ndim != 2 or obj.shape[0] == 0:
        raise ValueError("need at least one solution")
    n = obj.shape[0]
    if n < 3:
        keys = [(obj[i, 1], obj[i, 0], i) for i in range(n)]
        return min(keys)[2]
    a = obj[int(np.argmin(obj[:, 0]))]
    b = obj[int(np.argmin(obj[:, 1]))]
    span = b - a
    norm = math.hypot(span[0], span[1])
    if norm == 0.0:
        return 0
    rel = obj - a
    dist = np.abs(span[0] * rel[:, 1] - span[1] * rel[:, 0]) / norm
    return int(np.argmax(dist))


@dataclass
class SmpsoParams:
    """Swarm settings; the defaults match the high-scale configuration."""

    swarm_size: int = 30
    iterations: int = 10
    c1: float = 1.49445
    c2: float = 1.49445
    inertia: float = 0.1
    archive_capacity: int = 100
    mutation_rate: float = 0.15
    mutation_eta: float = 20.0

    def validate(self) -> None:
        if self.swarm_size < 1 or self.iterations < 0:
            raise ValueError("swarm_size must be positive, iterations non-negative")
        if self.archive_capacity < 1:
            raise ValueError("archive_capacity must be positive")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if not all(0.0 < v < math.inf for v in (self.c1, self.c2, self.mutation_eta)):
            raise ValueError("c1, c2 and mutation_eta must be positive and finite")
        if not math.isfinite(self.inertia):
            raise ValueError("inertia must be finite")


def constriction(c1: float, c2: float) -> float:
    """Velocity damping factor; 1 unless the learning factors sum above 4."""
    rho = c1 + c2
    if rho <= 4.0:
        return 1.0
    return 2.0 / (2.0 - rho - math.sqrt(rho * rho - 4.0 * rho))


def polynomial_mutation(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    per_var_prob: float,
    eta: float,
) -> np.ndarray:
    """Bounded polynomial mutation; each variable mutates with per_var_prob."""
    out = x.copy()
    span = upper - lower
    coins = rng.random(len(x))
    for i in np.nonzero(coins < per_var_prob)[0]:
        if span[i] <= 0.0:
            continue
        u = rng.random()
        d1 = (out[i] - lower[i]) / span[i]
        d2 = (upper[i] - out[i]) / span[i]
        pw = 1.0 / (eta + 1.0)
        if u < 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)
            delta = val**pw - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
            delta = 1.0 - val**pw
        out[i] = min(max(out[i] + delta * span[i], lower[i]), upper[i])
    return out


def _tournament(archive: Archive, crowding: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Binary tournament on the archive's crowding distances; the more isolated entry wins."""
    if len(archive) == 1:
        return archive[0].position
    i, j = rng.integers(0, len(archive), 2)
    winner = i if crowding[i] >= crowding[j] else j
    return archive[int(winner)].position


def _scores(objective: Callable[[np.ndarray], np.ndarray], positions: np.ndarray) -> list[tuple[float, float]]:
    values = np.asarray(objective(positions), dtype=np.float64)
    if values.shape != (len(positions), 2):
        raise ValueError(f"objective must return shape ({len(positions)}, 2), got {values.shape}")
    return [(float(a), float(b)) for a, b in values]


def smpso_minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    params: SmpsoParams,
    seed,
    initial_positions: Sequence[np.ndarray] | None = None,
    iteration_hook: Callable[[int, np.ndarray, np.ndarray, Archive], None] | None = None,
) -> Archive:
    """Run the swarm and return the leader archive.

    ``objective`` maps an (S, d) array of positions to (S, 2) objective
    values; it scores the initial swarm, then each iteration's S new
    positions, in one call each. ``initial_positions`` seed up to
    ``swarm_size`` particles; the rest start uniform inside the box. All
    velocities start at zero. On a bound violation the position is clamped
    and that velocity component is scaled by -0.001. ``seed`` is an int or a
    sequence of ints; the personal-best coin flips draw from their own
    generator, keyed by the seed and a tag. The run is a pure function of its
    arguments and the seed.
    """
    params.validate()
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("bounds must be equal-shape vectors")
    if (upper < lower).any():
        raise ValueError("upper bounds must not be below lower bounds")
    d = lower.size
    rng = np.random.default_rng(seed)
    key = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    coin = np.random.default_rng([*key, _PBEST_TAG])
    chi = constriction(params.c1, params.c2)
    vmax = (upper - lower) / 2.0

    n = params.swarm_size
    positions = np.empty((n, d))
    seeds = list(initial_positions or [])[:n]
    for i, p in enumerate(seeds):
        positions[i] = np.clip(np.asarray(p, dtype=np.float64), lower, upper)
    if len(seeds) < n:
        positions[len(seeds) :] = rng.uniform(lower, upper, (n - len(seeds), d))
    velocities = np.zeros((n, d))

    archive = Archive(params.archive_capacity)
    objs = _scores(objective, positions)
    pbest = positions.copy()
    pbest_obj = list(objs)
    for i in range(n):
        archive.insert(positions[i], objs[i])

    per_var = 1.0 / d
    for it in range(params.iterations):
        # Leaders for the whole sweep come from the archive as it stood at
        # the end of the previous iteration, so one set of crowding distances
        # serves every tournament and every new position is known before the
        # sweep is scored; inserts follow in particle-index order.
        crowding = crowding_distance(archive.objective_array())
        for i in range(n):
            leader = _tournament(archive, crowding, rng)
            r1 = rng.random(d)
            r2 = rng.random(d)
            vel = chi * (
                params.inertia * velocities[i]
                + params.c1 * r1 * (pbest[i] - positions[i])
                + params.c2 * r2 * (leader - positions[i])
            )
            np.clip(vel, -vmax, vmax, out=vel)
            pos = positions[i] + vel
            low_hit = pos < lower
            high_hit = pos > upper
            if low_hit.any() or high_hit.any():
                pos = np.clip(pos, lower, upper)
                vel = np.where(low_hit | high_hit, vel * -0.001, vel)
            if rng.random() < params.mutation_rate:
                pos = polynomial_mutation(pos, lower, upper, rng, per_var, params.mutation_eta)
            positions[i] = pos
            velocities[i] = vel
        objs = _scores(objective, positions)
        for i in range(n):
            obj = objs[i]
            if dominates(obj, pbest_obj[i]) or (
                not dominates(pbest_obj[i], obj) and coin.random() < 0.5
            ):
                pbest[i] = positions[i]
                pbest_obj[i] = obj
            archive.insert(positions[i], obj)
        if iteration_hook is not None:
            iteration_hook(it, positions, velocities, archive)
    return archive
