"""Speed-constrained multi-objective particle swarm optimization.

Minimises two objectives over a box-bounded vector. Velocities are damped by
a constriction coefficient and clamped per dimension to half the box extent;
leaders come from a bounded external archive of non-dominated solutions via
binary tournament on crowding distance. A polynomial mutation perturbs a
fraction of the swarm each iteration. The objective scores a whole sweep of
positions in one call.

Each iteration is one array step. Particle by particle, in index order, it
first only draws from the run's generator: the leader tournament's two
indices, r1, r2 and the mutation coin, then, for a particle that mutates,
one coin per variable and one u per mutated variable. How many values are
drawn never depends on a position, so the draws are those of moving each
particle before the next one draws. Velocities, their clamp, the bound hits
and the positions are then computed for the whole (S, d) swarm at once, in
the per-particle expression order, and the drawn mutations applied last, so
every position and velocity is bitwise that of the per-particle loop.

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


def _dominates_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`dominates` of each row of a over the same row of b."""
    return (a <= b).all(axis=1) & (a < b).any(axis=1)


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
    return _mutate(x, lower, upper, *_mutation_draws(rng, upper - lower, per_var_prob), eta)


def _mutation_draws(rng: np.random.Generator, span: np.ndarray, per_var_prob: float) -> tuple[np.ndarray, np.ndarray]:
    """The mutation's draws: one coin per variable, then one u per mutated variable of nonzero span.

    Returns the mutated variables and their u. How many values are drawn
    depends on the coins alone, never on the position mutated.
    """
    coins = rng.random(len(span))
    mutated = np.flatnonzero((coins < per_var_prob) & (span > 0.0))
    return mutated, rng.random(len(mutated))


def _mutate(
    x: np.ndarray, lower: np.ndarray, upper: np.ndarray, mutated: np.ndarray, draws: np.ndarray, eta: float
) -> np.ndarray:
    """Apply drawn polynomial mutations (:func:`_mutation_draws`) to a copy of x."""
    out = x.copy()
    span = upper - lower
    for i, u in zip(mutated.tolist(), draws.tolist()):
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


def _tournament(size: int, crowding: np.ndarray, rng: np.random.Generator) -> int:
    """Binary tournament on the archive's crowding distances; the index of the more isolated entry wins."""
    if size == 1:
        return 0
    # two scalar draws give the values of one draw of two, at half the cost
    i, j = rng.integers(0, size), rng.integers(0, size)
    return int(i if crowding[i] >= crowding[j] else j)


def _scores(objective: Callable[[np.ndarray], np.ndarray], positions: np.ndarray, sweep: str) -> np.ndarray:
    values = np.asarray(objective(positions), dtype=np.float64)
    if values.shape != (len(positions), 2):
        raise ValueError(f"objective must return shape ({len(positions)}, 2), got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"objective returned non-finite values for the {sweep}")
    return values


def _warm_positions(initial_positions: Sequence[np.ndarray] | None, d: int) -> list[np.ndarray]:
    """The warm starts as float vectors; ValueError unless each has shape (d,) and is finite."""
    out = []
    for i, p in enumerate([] if initial_positions is None else initial_positions):
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (d,) or not np.isfinite(p).all():
            raise ValueError(f"warm start {i} must be a finite vector of shape ({d},)")
        out.append(p)
    return out


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

    ``lower`` and ``upper`` are finite (d,) vectors, d >= 1, with lower <= upper,
    else ValueError before anything is drawn or scored. ``objective`` maps an (S, d) array of positions to (S, 2) finite
    objective values; it scores the initial swarm, then each iteration's S
    new positions, in one call each, and a non-finite value raises
    ValueError. ``initial_positions`` seed up to ``swarm_size`` particles
    (each must be a finite vector of shape (d,), else ValueError; each is
    clipped to the box); the rest start uniform inside the box. All
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
    if lower.size == 0:
        raise ValueError("bounds must hold at least one variable")
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("bounds must be finite")
    if (upper < lower).any():
        raise ValueError("upper bounds must not be below lower bounds")
    d = lower.size
    seeds = _warm_positions(initial_positions, d)[: params.swarm_size]
    rng = np.random.default_rng(seed)
    key = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    coin = np.random.default_rng([*key, _PBEST_TAG])
    chi = constriction(params.c1, params.c2)
    span = upper - lower
    vmax = span / 2.0

    n = params.swarm_size
    positions = np.empty((n, d))
    for i, p in enumerate(seeds):
        positions[i] = np.clip(p, lower, upper)
    if len(seeds) < n:
        positions[len(seeds) :] = rng.uniform(lower, upper, (n - len(seeds), d))
    velocities = np.zeros((n, d))

    archive = Archive(params.archive_capacity)
    objs = _scores(objective, positions, "initial sweep")
    pbest = positions.copy()
    pbest_obj = objs.copy()
    for i in range(n):
        archive.insert(positions[i], objs[i])

    per_var = 1.0 / d
    leader = np.empty(n, dtype=np.int64)
    r1 = np.empty((n, d))
    r2 = np.empty((n, d))
    for it in range(params.iterations):
        # Leaders for the whole sweep come from the archive as it stood at
        # the end of the previous iteration, so one set of crowding distances
        # serves every tournament and every new position is known before the
        # sweep is scored; inserts follow in particle-index order.
        crowding = crowding_distance(archive.objective_array())
        mutations = []
        for i in range(n):
            leader[i] = _tournament(len(archive), crowding, rng)
            # r1, r2 and the mutation coin: 2d + 1 consecutive doubles
            draw = rng.random(2 * d + 1)
            r1[i], r2[i] = draw[:d], draw[d : 2 * d]
            if draw[2 * d] < params.mutation_rate:
                mutations.append((i, *_mutation_draws(rng, span, per_var)))
        leaders = np.array([e.position for e in archive])[leader]
        vel = chi * (
            params.inertia * velocities + params.c1 * r1 * (pbest - positions) + params.c2 * r2 * (leaders - positions)
        )
        np.clip(vel, -vmax, vmax, out=vel)
        pos = positions + vel
        hit = (pos < lower) | (pos > upper)
        # a particle with any bound hit is clamped whole; the others keep
        # their exact values (clip turns -0.0 into 0.0)
        rows = hit.any(axis=1)
        pos[rows] = np.clip(pos[rows], lower, upper)
        vel[hit] *= -0.001
        for i, mutated, draws in mutations:
            pos[i] = _mutate(pos[i], lower, upper, mutated, draws, params.mutation_eta)
        positions, velocities = pos, vel
        objs = _scores(objective, positions, f"sweep of iteration {it}")
        improved = _dominates_rows(objs, pbest_obj)
        undecided = ~improved & ~_dominates_rows(pbest_obj, objs)
        improved[undecided] = coin.random(int(undecided.sum())) < 0.5
        pbest[improved] = positions[improved]
        pbest_obj[improved] = objs[improved]
        for i in range(n):
            archive.insert(positions[i], objs[i])
        if iteration_hook is not None:
            iteration_hook(it, positions, velocities, archive)
    return archive
