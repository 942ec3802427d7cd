import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chunk, predict_one
from emosam import metrics, smpso
from emosam.engine import optimize_weights
from emosam.samknn import FrozenChunkPredictor, MemoryBank
from emosam.smpso import (
    Archive,
    ObjectivePair,
    SmpsoParams,
    constriction,
    crowding_distance,
    dominates,
    knee_index,
    polynomial_mutation,
    smpso_minimize,
)
from oracles import mutually_non_dominated, reference_smpso

pair = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))


# -- dominance and crowding -----------------------------------------------------


def test_dominates_semantics():
    assert dominates((0.1, 0.1), (0.2, 0.2))
    assert dominates((0.1, 0.2), (0.2, 0.2))
    assert not dominates((0.2, 0.2), (0.2, 0.2))  # equal: needs strict-in-one
    assert not dominates((0.1, 0.3), (0.2, 0.2))  # trade-off


def test_crowding_two_solutions_both_infinite():
    cd = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.isinf(cd).all()


def test_crowding_three_collinear_middle_value():
    cd = crowding_distance(np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]))
    assert np.isinf(cd[0]) and np.isinf(cd[2])
    assert cd[1] == pytest.approx(2.0)


def test_crowding_duplicates_never_nan():
    # zero objective range must not divide through: interior points get 0,
    # the two boundary slots keep their usual infinity
    cd = crowding_distance(np.array([[0.3, 0.3]] * 4))
    assert not np.isnan(cd).any()
    assert sorted(cd)[:2] == [0.0, 0.0]


# -- archive ---------------------------------------------------------------------


def test_archive_rejects_dominated_and_evicts_newly_dominated():
    archive = Archive(10)
    assert archive.insert(np.array([0.1]), (0.5, 0.5))
    assert not archive.insert(np.array([0.2]), (0.6, 0.6))  # dominated
    assert archive.insert(np.array([0.3]), (0.4, 0.4))  # dominates the first
    assert len(archive) == 1
    assert archive[0].objectives == (0.4, 0.4)


def test_archive_deduplicates_objective_pairs():
    archive = Archive(10)
    assert archive.insert(np.array([0.1]), (0.5, 0.5))
    assert not archive.insert(np.array([0.9]), (0.5, 0.5))
    assert len(archive) == 1


@given(st.lists(pair, min_size=1, max_size=120))
@settings(max_examples=200, deadline=None)
def test_archive_invariants_after_every_insert(pairs):
    archive = Archive(12)
    for i, objectives in enumerate(pairs):
        archive.insert(np.array([float(i)]), objectives)
        assert len(archive) <= 12
        assert mutually_non_dominated([e.objectives for e in archive])


def test_archive_prunes_lowest_crowding():
    archive = Archive(3)
    # four points on a front; the prune should drop an interior point, never
    # a boundary one
    front = [(0.0, 1.0), (0.3, 0.6), (0.35, 0.55), (1.0, 0.0)]
    for i, objectives in enumerate(front):
        archive.insert(np.array([float(i)]), objectives)
    kept = {e.objectives for e in archive}
    assert (0.0, 1.0) in kept and (1.0, 0.0) in kept
    assert len(archive) == 3


# -- knee point -------------------------------------------------------------------


def test_knee_maximizes_line_distance():
    objectives = np.array([[0.0, 1.0], [1.0, 0.0], [0.2, 0.2], [0.4, 0.45]])
    assert knee_index(objectives) == 2
    # expected perpendicular distance of (0.2, 0.2) to the x+y=1 line
    dist = abs(0.2 + 0.2 - 1.0) / np.sqrt(2.0)
    assert dist == pytest.approx(0.424264, abs=1e-6)


def test_knee_single_member():
    archive = Archive(5)
    archive.insert(np.array([0.7]), (0.3, 0.4))
    entry = archive[knee_index(archive.objective_array())]
    assert entry.objectives == (0.3, 0.4)


def test_knee_under_three_members_lexicographic_by_disc_then_err():
    assert knee_index(np.array([[0.1, 0.5], [0.6, 0.2]])) == 1
    assert knee_index(np.array([[0.3, 0.2], [0.1, 0.2]])) == 1


def test_knee_degenerate_line_returns_first():
    objectives = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert knee_index(objectives) == 0


# -- SMPSO mechanics ---------------------------------------------------------------


def test_constriction_values():
    assert constriction(1.49445, 1.49445) == 1.0  # phi = 2.9889 <= 4
    assert constriction(2.05, 2.05) == pytest.approx(-0.7298437881, abs=1e-9)


def test_polynomial_mutation_stays_in_bounds():
    rng = np.random.default_rng(0)
    lower, upper = np.zeros(4), np.ones(4)
    for _ in range(2000):
        x = rng.random(4)
        y = polynomial_mutation(x, lower, upper, rng, per_var_prob=0.5, eta=20.0)
        assert np.all(y >= lower) and np.all(y <= upper)


def _schaffer(x):
    v = float(x[0])
    return (min(v * v, 25.0) / 25.0, min((v - 2.0) ** 2, 49.0) / 49.0)


def _schaffer_batch(positions):
    return [_schaffer(x) for x in positions]


def test_smpso_positions_and_velocities_bounded():
    seen = []

    def hook(it, positions, velocities, archive):
        seen.append((positions.copy(), velocities.copy()))

    params = SmpsoParams(swarm_size=10, iterations=5)
    smpso_minimize(
        lambda positions: [(float(x[0]), float(1.0 - x[0])) for x in positions],
        np.zeros(2),
        np.ones(2),
        params,
        seed=3,
        iteration_hook=hook,
    )
    assert len(seen) == 5
    for positions, velocities in seen:
        assert np.all(positions >= 0.0) and np.all(positions <= 1.0)
        assert np.all(np.abs(velocities) <= 0.5 + 1e-12)


def test_smpso_fixed_seed_reproduces_archive():
    params = SmpsoParams(swarm_size=12, iterations=6)

    def run():
        archive = smpso_minimize(
            _schaffer_batch, np.array([-5.0]), np.array([5.0]), params, seed=42
        )
        return [(tuple(e.position), e.objectives) for e in archive]

    first, second = run(), run()
    assert len(first) == len(second)
    for (p1, o1), (p2, o2) in zip(first, second):
        assert p1 == p2 and o1 == o2


def test_smpso_crowding_computed_once_per_iteration():
    # Leaders come from the archive as it stood before the sweep, so its
    # crowding distances serve every particle's tournament. The capacity
    # keeps Archive.insert from pruning, which needs crowding of its own.
    params = SmpsoParams(swarm_size=12, iterations=6, archive_capacity=1000)
    calls, per_iteration = [], []

    def counting(objectives):
        calls.append(len(objectives))
        return crowding_distance(objectives)

    def hook(it, positions, velocities, archive):
        per_iteration.append(len(calls))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smpso, "crowding_distance", counting)
        archive = smpso_minimize(_schaffer_batch, np.array([-5.0]), np.array([5.0]), params, 42, iteration_hook=hook)
    assert len(archive) > 1
    assert per_iteration == list(range(1, params.iterations + 1))


def test_smpso_batch_objective_one_call_per_sweep_and_reproducible():
    params = SmpsoParams(swarm_size=9, iterations=4)
    lower, upper = np.zeros(3), np.ones(3)

    def run(seed):
        shapes = []

        def objective(positions):
            shapes.append(positions.shape)
            return np.column_stack([positions.sum(axis=1), (1.0 - positions).prod(axis=1)])

        archive = smpso_minimize(objective, lower, upper, params, seed)
        return shapes, [(tuple(e.position), e.objectives) for e in archive]

    shapes, first = run([7, 2, 1])
    assert shapes == [(9, 3)] * 5  # the initial swarm, then one sweep per iteration
    assert run([7, 2, 1])[1] == first
    assert run(3)[1] == run(3)[1]
    with pytest.raises(ValueError):
        smpso_minimize(lambda p: np.zeros((len(p), 3)), lower, upper, params, 0)


def test_smpso_warm_start_positions_clipped():
    params = SmpsoParams(swarm_size=6, iterations=1)
    warm = [np.array([9.0]), np.array([-9.0])]
    collected = []

    def objective(positions):
        collected.extend(float(x[0]) for x in positions)
        return _schaffer_batch(positions)

    smpso_minimize(objective, np.array([-5.0]), np.array([5.0]), params, 0, warm)
    # the first two evaluations are the clipped warm starts
    assert collected[0] == 5.0 and collected[1] == -5.0


def test_smpso_solves_schaffer_front():
    params = SmpsoParams()  # 30 particles, 10 iterations
    inside = total = 0
    for seed in range(10):
        archive = smpso_minimize(
            _schaffer_batch, np.array([-5.0]), np.array([5.0]), params, seed
        )
        assert mutually_non_dominated([e.objectives for e in archive])
        for entry in archive:
            total += 1
            inside += -0.05 <= float(entry.position[0]) <= 2.05
    assert inside / total >= 0.95


@st.composite
def swarm_runs(draw):
    """A swarm, its box (one dimension may be a point: the mutation's span-0 skip) and warm starts."""
    d = draw(st.integers(1, 9))
    lower = np.array(draw(st.lists(st.floats(-3.0, 1.0), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=d, max_size=d)))
    if draw(st.booleans()):
        width[draw(st.integers(0, d - 1))] = 0.0
    params = SmpsoParams(
        swarm_size=draw(st.integers(1, 25)),
        iterations=draw(st.integers(0, 6)),
        mutation_rate=draw(st.sampled_from([0.0, 0.15, 1.0])),
        archive_capacity=draw(st.integers(1, 30)),
    )
    n_warm = draw(st.integers(0, params.swarm_size + 3))
    unit = st.lists(st.floats(-0.5, 1.5), min_size=d, max_size=d)
    warm = [lower + np.array(draw(unit)) * width for _ in range(n_warm)]
    decimals = draw(st.sampled_from([None, 1, 2]))
    seed = draw(st.one_of(st.integers(0, 2**32), st.lists(st.integers(0, 99), min_size=1, max_size=3)))
    return lower, lower + width, params, warm, decimals, seed


@given(swarm_runs())
@settings(max_examples=150, deadline=None)
def test_swarm_step_equals_the_per_particle_oracle(run):
    # One array step per iteration must move, archive and hand the hook
    # exactly what the per-particle loop does, bit for bit. Rounded
    # objectives make archive duplicates and crowding ties.
    lower, upper, params, warm, decimals, seed = run

    def objective(positions):
        centre = 0.5 * (lower + upper)
        values = np.column_stack([((positions - lower) ** 2).sum(axis=1), ((positions - centre) ** 2).sum(axis=1)])
        return values if decimals is None else np.round(values, decimals)

    def recorder(seen):
        def hook(it, positions, velocities, archive):
            seen.append((it, positions.tobytes(), velocities.tobytes()))

        return hook

    got, want = [], []
    archive = smpso_minimize(objective, lower, upper, params, seed, warm, recorder(got))
    reference = reference_smpso(objective, lower, upper, params, seed, warm, recorder(want))
    assert got == want
    assert [(e.position.tobytes(), e.objectives) for e in archive] == [
        (e.position.tobytes(), e.objectives) for e in reference
    ]


@pytest.mark.parametrize(
    "warm",
    [[np.array([0.5])], [np.array([np.nan, 0.5])], [np.array([0.1, 0.2, 0.3])], [np.ones(2), np.array([0.2, np.inf])]],
    ids=["short", "nan", "long", "second infinite"],
)
def test_smpso_rejects_malformed_warm_starts_before_scoring(warm):
    calls = []

    def objective(positions):
        calls.append(len(positions))
        return np.zeros((len(positions), 2))

    with pytest.raises(ValueError, match="warm start"):
        smpso_minimize(objective, np.zeros(2), np.ones(2), SmpsoParams(swarm_size=3, iterations=1), 0, warm)
    assert calls == []


@pytest.mark.parametrize(
    "lower, upper, match",
    [
        ([np.nan], [1.0], "finite"),
        ([0.0], [np.nan], "finite"),
        ([0.0, -np.inf], [1.0, 1.0], "finite"),
        ([0.0], [np.inf], "finite"),
        ([1.0], [0.0], "below"),
        (np.empty(0), np.empty(0), "at least one"),
    ],
    ids=["lower nan", "upper nan", "lower -inf", "upper inf", "crossed", "no variable"],
)
@pytest.mark.parametrize("warm", [False, True], ids=["drawn", "warm"])
def test_smpso_rejects_malformed_bounds_before_drawing(lower, upper, match, warm):
    # Warm starts that fill the swarm draw nothing: the bounds are checked
    # before any draw or objective call either way.
    calls = []

    def objective(positions):
        calls.append(len(positions))
        return np.zeros((len(positions), 2))

    starts = [np.full(len(lower), 0.5)] if warm else None
    with pytest.raises(ValueError, match=match):
        smpso_minimize(objective, lower, upper, SmpsoParams(swarm_size=1, iterations=2), 0, starts)
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("sweep", [0, 2])
def test_smpso_rejects_non_finite_objectives(bad, sweep):
    calls = []

    def objective(positions):
        values = np.column_stack([positions[:, 0], 1.0 - positions[:, 0]])
        if len(calls) == sweep:
            values[-1, 0] = bad
        calls.append(len(positions))
        return values

    where = "initial sweep" if sweep == 0 else f"iteration {sweep - 1}"
    with pytest.raises(ValueError, match=where):
        smpso_minimize(objective, np.zeros(1), np.ones(1), SmpsoParams(swarm_size=3, iterations=3), 0)


# -- the engine's weight search (engine.optimize_weights) ----------------------------


def _bank_for(chunk, rng):
    bank = MemoryBank(chunk.n_features, min_stm_size=6)
    feats = rng.random((40, chunk.n_features))
    labels = rng.integers(0, 2, 40).astype(np.uint8)
    bank.replace_stm(feats, labels)
    return bank


def _search(chunk, bank, warm, params, seed):
    """The engine's weight search on ``chunk``, with the chunk's predictor over ``bank``."""
    return optimize_weights(chunk, FrozenChunkPredictor(chunk.features, bank), warm, params, seed)


def _query_by_query(archive, chunk, bank) -> list[ObjectivePair]:
    """Each archive member's (error, |discrimination|) from one one-row predictor per query."""
    pairs = []
    for entry in archive:
        preds = np.array([predict_one(bank, x, entry.position) for x in chunk.features], dtype=np.uint8)
        err = 1.0 - metrics.accuracy(preds, chunk.labels)
        pairs.append(ObjectivePair(err, abs(metrics.discrimination(preds, chunk.groups).value)))
    return pairs


def test_evaluate_weights_composition_oracle(rng):
    chunk = make_chunk(rng.random((50, 3)), rng.integers(0, 2, 50), rng.integers(0, 2, 50))
    bank = _bank_for(chunk, rng)
    archive = _search(chunk, bank, [np.ones(3)], SmpsoParams(swarm_size=8, iterations=3), seed=4)
    assert len(archive) > 1
    assert [entry.objectives for entry in archive] == _query_by_query(archive, chunk, bank)


@pytest.mark.parametrize("groups", ["mixed", "protected only", "unprotected only"])
def test_search_objectives_equal_per_query_scoring(rng, groups):
    # The search scores whole sweeps with stacked metrics; every archived
    # pair must still be what one-row predictions scored alone give, also
    # on windows that hold one group only.
    n = 37
    chunk_groups = {"mixed": rng.integers(0, 2, n), "protected only": np.ones(n), "unprotected only": np.zeros(n)}
    chunk = make_chunk(rng.random((n, 3)), chunk_groups[groups], rng.integers(0, 2, n))
    bank = _bank_for(chunk, rng)
    archive = _search(chunk, bank, [np.ones(3)], SmpsoParams(swarm_size=10, iterations=3), seed=3)
    assert [entry.objectives for entry in archive] == _query_by_query(archive, chunk, bank)


def test_evaluate_weights_perfect_labels_zero_error(rng):
    chunk_feats = rng.random((30, 3))
    bank = MemoryBank(3, min_stm_size=6)
    feats = rng.random((40, 3))
    labels = rng.integers(0, 2, 40).astype(np.uint8)
    bank.replace_stm(feats, labels)
    preds = np.array([predict_one(bank, x, np.ones(3)) for x in chunk_feats], dtype=np.uint8)
    chunk = make_chunk(chunk_feats, rng.integers(0, 2, 30), preds)
    # the all-ones start scores zero error, which nothing can dominate away
    archive = _search(chunk, bank, [np.ones(3)], SmpsoParams(swarm_size=4, iterations=2), seed=0)
    assert min(entry.objectives[0] for entry in archive) == 0.0
    assert [entry.objectives for entry in archive] == _query_by_query(archive, chunk, bank)


def test_evaluate_weights_degenerate_group_zero_disc(rng):
    chunk = make_chunk(rng.random((20, 3)), np.ones(20), rng.integers(0, 2, 20))
    bank = _bank_for(chunk, rng)
    archive = _search(chunk, bank, None, SmpsoParams(swarm_size=6, iterations=2), seed=0)
    assert all(entry.objectives[1] == 0.0 for entry in archive)


def test_evaluate_and_optimize_leave_bank_untouched(rng):
    chunk = make_chunk(rng.random((30, 3)), rng.integers(0, 2, 30), rng.integers(0, 2, 30))
    bank = _bank_for(chunk, rng)
    before = bank.state_hash()
    _search(chunk, bank, None, SmpsoParams(swarm_size=8, iterations=2), seed=1)
    assert bank.state_hash() == before


def test_optimize_weights_deterministic_with_list_seed(rng):
    chunk = make_chunk(rng.random((40, 3)), rng.integers(0, 2, 40), rng.integers(0, 2, 40))
    bank = _bank_for(chunk, rng)
    params = SmpsoParams(swarm_size=10, iterations=3)
    warm = [np.ones(3)]
    one = _search(chunk, bank, warm, params, seed=[7, 2, 1])
    two = _search(chunk, bank, warm, params, seed=[7, 2, 1])
    assert [e.objectives for e in one] == [e.objectives for e in two]
    for a, b in zip(one, two):
        np.testing.assert_array_equal(a.position, b.position)


@pytest.mark.parametrize("swarm", [1, 3, 10])
def test_handed_votes_give_the_same_archive(rng, swarm):
    # Votes the window already computed on the predictor feed the first
    # sweep; the archive must equal the one that scores every vector anew,
    # whether the handed vectors fill the swarm or part of it.
    chunk = make_chunk(rng.random((45, 3)), rng.integers(0, 2, 45), rng.integers(0, 2, 45))
    bank = _bank_for(chunk, rng)
    front = [np.ones(3), rng.random(3), rng.random(3)]
    params = SmpsoParams(swarm_size=swarm, iterations=3)
    predictor = FrozenChunkPredictor(chunk.features, bank)
    want = optimize_weights(chunk, predictor, front, params, [5, 1])
    for scored in (np.stack(front), np.stack(front[1:2]), np.stack(front + [rng.random(3)])):
        got = optimize_weights(chunk, predictor, front, params, [5, 1], (scored, predictor.predict(scored)))
        assert [(e.position.tobytes(), e.objectives) for e in got] == [
            (e.position.tobytes(), e.objectives) for e in want
        ]
