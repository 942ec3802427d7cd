import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chunk, predict_one, version_3_snapshot
from emosam import engine as engine_module
from emosam import samknn
from emosam.engine import (
    _CHECKPOINT_VERSION,
    EmosamEngine,
    EngineConfig,
    InitMode,
    ParetoSolution,
    SelectionStrategy,
    TriggerPolicy,
    run_sam_baseline,
    run_stream,
)
from emosam.samknn import FrozenChunkPredictor, MemoryBank
from emosam.smpso import ObjectivePair, SmpsoParams, knee_index
from emosam.stream import BiasStreamConfig, GroupRates, generate_bias_stream
from oracles import brute_majority, mutually_non_dominated

SMALL_SMPSO = SmpsoParams(swarm_size=8, iterations=3)


def small_config(**overrides) -> EngineConfig:
    kwargs = dict(
        stm_cap=120,
        ltm_cap=120,
        min_stm_size=20,
        smpso=SMALL_SMPSO,
        seed=0,
    )
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


@pytest.fixture(scope="module")
def stream():
    config = BiasStreamConfig(
        n_instances=1500,
        proxy_strength=0.8,
        base_rates=GroupRates(0.65, 0.35),
        drift_points=(750,),
        seed=11,
        window_size=150,
    )
    return generate_bias_stream(config)


# -- configuration ------------------------------------------------------------------


def test_config_accepts_string_enums():
    config = EngineConfig(trigger="every", selection="knee", init_mode="random")
    assert config.trigger is TriggerPolicy.EVERY
    assert config.selection is SelectionStrategy.KNEE
    assert config.init_mode is InitMode.RANDOM


def test_config_dict_roundtrip(tmp_path):
    config = small_config(trigger=TriggerPolicy.PREVIOUS, selection=SelectionStrategy.RANDOM)
    clone = EngineConfig.from_dict(config.to_dict())
    assert clone == config


def test_config_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="foo"):
        EngineConfig.from_dict({"foo": 1})
    with pytest.raises(ValueError, match="swarm"):
        EngineConfig.from_dict({"smpso": {"swarm": 3}})
    with pytest.raises(ValueError, match="JSON object"):
        EngineConfig.from_dict([("k", 3)])


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trend_threshold=-0.1).validate()
    with pytest.raises(ValueError):
        small_config(tie_label=2).validate()
    with pytest.raises(ValueError):
        small_config(smpso=SmpsoParams(swarm_size=0)).validate()
    # JSON configs may carry NaN and infinities: NaN thresholds would never
    # fire, and the others fail only at the first trigger check or re-tune
    nan, inf = math.nan, math.inf
    for bad in (
        dict(trend_threshold=nan),
        dict(min_increase=nan),
        dict(hp_smoothing=nan),
        dict(hp_smoothing=inf),
        dict(hp_smoothing=1e16),
        dict(smpso=SmpsoParams(inertia=nan)),
        dict(smpso=SmpsoParams(inertia=-inf)),
        dict(smpso=SmpsoParams(c1=inf)),
        dict(smpso=SmpsoParams(c2=nan)),
        dict(smpso=SmpsoParams(mutation_eta=inf)),
        dict(smpso=SmpsoParams(mutation_rate=nan)),
    ):
        with pytest.raises(ValueError):
            small_config(**bad).validate()
    # +inf thresholds stay a "never fire" switch
    small_config(trend_threshold=inf, min_increase=inf).validate()
    # the hp rule needs 3 values and the previous rule 2: a shorter history
    # would never fire
    for trigger, shortest in (("hp", 3), ("previous", 2), ("every", 1)):
        with pytest.raises(ValueError, match="history_capacity"):
            small_config(trigger=trigger, history_capacity=shortest - 1).validate()
        small_config(trigger=trigger, history_capacity=shortest).validate()
    # memory settings fail here, not first in the engine constructor
    for bad in (
        dict(k=0),
        dict(k=20),  # min_stm_size must exceed k
        dict(stm_cap=0),
        dict(ltm_cap=0),
        dict(ltm_cap=1),  # compression keeps one point per class: would never end
        dict(tracker_decay=0.0),
        dict(tracker_decay=1.5),
    ):
        with pytest.raises(ValueError):
            small_config(**bad).validate()
    with pytest.raises(ValueError):
        EngineConfig(k=60).validate()
    small_config(tracker_decay=1.0).validate()
    # a threshold above 1 is legal on purpose: |discrimination| never
    # exceeds 1, so it acts as a never-firing switch
    small_config(trend_threshold=1.01).validate()


# -- prediction mechanics -------------------------------------------------------------


def test_first_window_uses_tie_label(stream):
    engine = EmosamEngine(stream[0].n_features, small_config(tie_label=1))
    preds, record = engine.step(stream[0])
    assert (preds == 1).all()
    assert record.triggered is False
    engine0 = EmosamEngine(stream[0].n_features, small_config(tie_label=0))
    preds0, _ = engine0.step(stream[0])
    assert (preds0 == 0).all()


def test_majority_vote_matches_brute_counter(rng, stream):
    engine = EmosamEngine(stream[0].n_features, small_config())
    engine.step(stream[0])
    d = stream[0].n_features
    engine.pareto_front = [ParetoSolution(rng.random(d)) for _ in range(5)]
    chunk = stream[1]
    predictor = FrozenChunkPredictor(chunk.features, engine.bank)
    member_preds = [predictor.predict(s.alpha) for s in engine.pareto_front]
    preds, _ = engine.step(chunk)
    for i in range(len(chunk)):
        assert preds[i] == brute_majority([mp[i] for mp in member_preds])


def test_majority_tie_goes_to_tie_label(rng, stream):
    # two front members: wherever their votes split 1-1 the tie label wins
    engine = EmosamEngine(stream[0].n_features, small_config())
    engine.step(stream[0])
    d = stream[0].n_features
    alpha = rng.random(d)
    engine.pareto_front = [ParetoSolution(alpha), ParetoSolution(np.ones(d))]
    chunk = stream[1]
    predictor = FrozenChunkPredictor(chunk.features, engine.bank)
    member_preds = [predictor.predict(s.alpha) for s in engine.pareto_front]
    preds, _ = engine.step(chunk)
    ties = member_preds[0] != member_preds[1]
    if ties.any():
        assert (preds[ties] == 1).all()


def test_three_member_majority_example(stream):
    engine = EmosamEngine(stream[0].n_features, small_config())
    engine.step(stream[0])
    assert brute_majority([1, 1, 0]) == 1
    assert brute_majority([1, 0]) == 1  # decided tie rule


# -- trigger and front bookkeeping ----------------------------------------------------


def test_history_stays_bounded_and_trigger_clears_it(stream):
    config = small_config(trigger=TriggerPolicy.EVERY)
    engine = EmosamEngine(stream[0].n_features, config)
    for chunk in stream[:6]:
        _, record = engine.step(chunk)
        assert len(engine.history) <= config.history_capacity
        if record.triggered:
            assert len(engine.history) == 0


def test_never_firing_keeps_history_full(stream):
    engine = EmosamEngine(stream[0].n_features, small_config(trend_threshold=1.01))
    for chunk in stream[:8]:
        _, record = engine.step(chunk)
        assert record.triggered is False
    assert len(engine.history) == 5


def test_every_policy_fires_once_stm_nonempty(stream):
    engine = EmosamEngine(stream[0].n_features, small_config(trigger=TriggerPolicy.EVERY))
    records = [engine.step(chunk)[1] for chunk in stream[:5]]
    assert records[0].triggered is False  # empty memory: nothing to optimize
    assert all(r.triggered for r in records[1:])
    assert all(r.pareto_size >= 1 for r in records)


def test_front_nondominated_after_trigger(stream):
    engine = EmosamEngine(stream[0].n_features, small_config(trigger=TriggerPolicy.EVERY))
    for chunk in stream[:4]:
        engine.step(chunk)
    front = engine.pareto_front
    assert len(front) >= 1
    assert mutually_non_dominated([s.objectives for s in front])
    for sol in front:
        assert np.all(sol.alpha >= 0.0) and np.all(sol.alpha <= 1.0)


def test_triggered_window_builds_one_predictor(stream, monkeypatch):
    # The window's prediction and its re-tune share one frozen copy of the bank.
    engine = EmosamEngine(stream[0].n_features, small_config(trigger=TriggerPolicy.EVERY))
    engine.step(stream[0])
    built = []
    init = FrozenChunkPredictor.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FrozenChunkPredictor, "__init__", counted)
    _, record = engine.step(stream[1])
    assert record.triggered
    assert len(built) == 1


def watch_retunes(monkeypatch):
    """Patch the re-tune to record, per call, the votes handed to it and the rows of each kernel call it makes."""
    calls, inside, search, kernel = [], [], engine_module.optimize_weights, samknn._weighted_votes

    def watched(*args):
        calls.append({"scored": args[5], "rows": []})
        inside.append(True)
        try:
            return search(*args)
        finally:
            inside.pop()

    def counted(queries, memory, k, alphas):
        if inside:
            calls[-1]["rows"].append(len(alphas))
        return kernel(queries, memory, k, alphas)

    monkeypatch.setattr(engine_module, "optimize_weights", watched)
    monkeypatch.setattr(samknn, "_weighted_votes", counted)
    return calls


@pytest.mark.parametrize("selection", list(SelectionStrategy))
def test_retune_first_sweep_sends_only_vectors_the_window_did_not_score(stream, monkeypatch, selection):
    # The window's prediction scored every front member (majority) or the
    # designated one (knee, random) on the predictor the re-tune searches
    # with; the first sweep takes those votes and sends the kernel the rest
    # of the swarm, and later sweeps send every particle.
    params = SmpsoParams(swarm_size=6, iterations=2)
    config = small_config(
        trigger=TriggerPolicy.EVERY, selection=selection, smpso=params, init_mode=InitMode.RANDOM, n_init_random=3
    )
    engine = EmosamEngine(stream[0].n_features, config)
    engine.step(stream[0])
    calls = watch_retunes(monkeypatch)
    fronts = []
    for chunk in stream[1:6]:
        fronts.append(([s.alpha for s in engine.pareto_front], engine.designated))
        engine.step(chunk)
    assert len(calls) == 5
    sizes = set()
    for call, (front, member) in zip(calls, fronts):
        in_swarm = min(len(front), params.swarm_size)
        if selection is SelectionStrategy.MAJORITY:
            reused = in_swarm
            assert len(call["scored"][0]) == len(front)
        else:
            reused = int(member < in_swarm)
            np.testing.assert_array_equal(call["scored"][0], [front[member]])
        first = [params.swarm_size - reused] if reused < params.swarm_size else []
        assert call["rows"] == first + [params.swarm_size] * params.iterations
        sizes.add(len(front))
    assert len(sizes) > 1  # fronts of different sizes were handed over


@pytest.mark.parametrize("selection", list(SelectionStrategy))
def test_handed_votes_change_no_front_prediction_or_record(stream, monkeypatch, selection):
    config = small_config(trigger=TriggerPolicy.EVERY, selection=selection)

    def run():
        engine = EmosamEngine(stream[0].n_features, config)
        outputs = []
        for chunk in stream[:6]:
            preds, record = engine.step(chunk)
            front = [(s.alpha.tobytes(), s.objectives) for s in engine.pareto_front]
            outputs.append((preds.tobytes(), record.accuracy, record.discrimination, record.pareto_size, front))
        return outputs

    with_votes = run()
    search = engine_module.optimize_weights
    # the objective scores every swarm member on the kernel, as if nothing was handed over
    monkeypatch.setattr(engine_module, "optimize_weights", lambda *args: search(*args[:5]))
    assert run() == with_votes


def test_degenerate_window_contributes_no_trigger_pressure(rng):
    d = 3
    config = small_config(trigger=TriggerPolicy.PREVIOUS, min_increase=0.0)
    engine = EmosamEngine(d, config)
    mixed = make_chunk(rng.random((40, d)), rng.integers(0, 2, 40), rng.integers(0, 2, 40), 1)
    engine.step(mixed)
    only_protected = make_chunk(rng.random((40, d)), np.ones(40), rng.integers(0, 2, 40), 2)
    before = len(engine.history)
    engine.step(only_protected)
    assert len(engine.history) == before  # nothing appended


def test_random_selection_designates_per_trigger(stream):
    config = small_config(trigger=TriggerPolicy.EVERY, selection=SelectionStrategy.RANDOM, seed=4)
    engine = EmosamEngine(stream[0].n_features, config)
    engine.step(stream[0])
    engine.step(stream[1])
    designated_after_trigger = engine.designated
    assert 0 <= designated_after_trigger < len(engine.pareto_front)
    preds, record = engine.step(stream[2])  # every-policy fires again
    assert record.triggered
    assert 0 <= engine.designated < len(engine.pareto_front)


def test_knee_selection_designates_knee_member(stream):
    config = small_config(trigger=TriggerPolicy.EVERY, selection=SelectionStrategy.KNEE)
    engine = EmosamEngine(stream[0].n_features, config)
    for chunk in stream[:3]:
        engine.step(chunk)
    pairs = np.asarray([s.objectives for s in engine.pareto_front], dtype=np.float64)
    assert engine.designated == knee_index(pairs)


def test_single_member_strategies_predict_with_designated(stream):
    config = small_config(trigger=TriggerPolicy.EVERY, selection=SelectionStrategy.KNEE)
    engine = EmosamEngine(stream[0].n_features, config)
    engine.step(stream[0])
    engine.step(stream[1])
    chunk = stream[2]
    expected = FrozenChunkPredictor(chunk.features, engine.bank).predict(
        engine.pareto_front[engine.designated].alpha
    )
    preds, _ = engine.step(chunk)
    np.testing.assert_array_equal(preds, expected)


def test_random_init_front_size(stream):
    config = small_config(init_mode=InitMode.RANDOM, n_init_random=7)
    engine = EmosamEngine(stream[0].n_features, config)
    assert len(engine.pareto_front) == 7
    for sol in engine.pareto_front:
        assert np.all(sol.alpha >= 0.0) and np.all(sol.alpha <= 1.0)


# -- prequential integrity -------------------------------------------------------------


def test_labels_cannot_influence_own_window(stream, rng):
    config = small_config(trigger=TriggerPolicy.EVERY)
    tampered_labels = rng.integers(0, 2, len(stream[2])).astype(np.uint8)
    tampered = make_chunk(stream[2].features, stream[2].groups, tampered_labels, stream[2].index)

    def run(chunks):
        engine = EmosamEngine(chunks[0].n_features, config)
        return [engine.step(c)[0] for c in chunks]

    original = run(stream[:3])
    modified = run([stream[0], stream[1], tampered])
    for a, b in zip(original, modified):
        np.testing.assert_array_equal(a, b)


# -- run_stream and baseline ------------------------------------------------------------


def test_run_stream_single_chunk(stream):
    result = run_stream(stream[:1], small_config())
    assert len(result.records) == 1
    assert result.summary.accuracy == result.records[0].accuracy
    assert result.summary.windows == 1
    assert result.summary.instances == len(stream[0])


def test_run_stream_rejects_empty():
    with pytest.raises(ValueError):
        run_stream([], small_config())


def test_run_stream_is_deterministic(stream):
    config = small_config(trigger=TriggerPolicy.EVERY, seed=3)
    a = run_stream(stream[:5], config)
    b = run_stream(stream[:5], config)
    for ra, rb in zip(a.records, b.records):
        assert ra.accuracy == rb.accuracy
        assert ra.discrimination == rb.discrimination
        assert ra.triggered == rb.triggered
        assert ra.pareto_size == rb.pareto_size
    for pa, pb in zip(a.predictions, b.predictions):
        np.testing.assert_array_equal(pa, pb)


def test_degenerate_engine_equals_baseline(stream):
    config = small_config(trend_threshold=1.01)
    engine_result = run_stream(stream, config)
    base_result = run_sam_baseline(
        stream, stm_cap=120, ltm_cap=120, min_stm_size=20, seed=0
    )
    for a, b in zip(engine_result.predictions, base_result.predictions):
        np.testing.assert_array_equal(a, b)
    assert engine_result.summary.accuracy == base_result.summary.accuracy
    assert engine_result.summary.discrimination == base_result.summary.discrimination


def test_degenerate_engine_equals_baseline_on_duplicate_heavy_data():
    # 3000 rows drawn from 60 points: exact distance ties everywhere, as with
    # one-hot data. The engine votes through batched blocks, the loop below
    # one query at a time, so any block-shape dependence in the distances shows.
    rng = np.random.default_rng(0)
    pool = rng.normal(size=(60, 8))
    pool_labels = rng.integers(0, 2, 60)
    pick = rng.integers(0, 60, 3000)
    labels = pool_labels[pick] ^ (rng.random(3000) < 0.4)
    groups = rng.integers(0, 2, 3000)
    chunks = [
        make_chunk(pool[pick[i : i + 250]], groups[i : i + 250], labels[i : i + 250], i // 250 + 1)
        for i in range(0, 3000, 250)
    ]
    config = EngineConfig(stm_cap=500, ltm_cap=500, trend_threshold=1.01, smpso=SMALL_SMPSO, seed=0)
    engine_result = run_stream(chunks, config)
    assert engine_result.summary.triggers == 0
    bank = MemoryBank(8, stm_cap=500, ltm_cap=500, seed=0)
    for chunk, got in zip(chunks, engine_result.predictions, strict=True):
        if bank.stm_size == 0:
            want = [config.tie_label] * len(chunk)
        else:
            want = [predict_one(bank, x, np.ones(8)) for x in chunk.features]
        np.testing.assert_array_equal(got, want)
        bank.fit_chunk(chunk)


def test_baseline_records_shape(stream):
    result = run_sam_baseline(stream[:4], stm_cap=120, ltm_cap=120, min_stm_size=20)
    assert all(not r.triggered for r in result.records)
    assert all(r.pareto_size == 1 for r in result.records)
    assert result.summary.triggers == 0


def test_summary_pools_all_predictions(stream):
    result = run_stream(stream[:4], small_config(trigger=TriggerPolicy.EVERY))
    preds = np.concatenate(result.predictions)
    labels = np.concatenate([c.labels for c in stream[:4]])
    want = float((preds == labels).mean())
    assert result.summary.accuracy == pytest.approx(want, abs=1e-12)
    # pooled discrimination is not the mean of the window values
    assert result.summary.abs_discrimination == abs(result.summary.discrimination)


# -- checkpointing -----------------------------------------------------------------------


@pytest.mark.parametrize("init_mode", [m.value for m in InitMode])
@pytest.mark.parametrize("selection", [s.value for s in SelectionStrategy])
@pytest.mark.parametrize("trigger", [p.value for p in TriggerPolicy])
def test_checkpoint_resume_is_bit_exact(tmp_path, stream, trigger, selection, init_mode):
    config = small_config(trigger=trigger, selection=selection, init_mode=init_mode)
    engine = EmosamEngine(stream[0].n_features, config)
    for chunk in stream[:3]:
        engine.step(chunk)
    path = tmp_path / "engine.ck"
    engine.save_checkpoint(path)
    resumed = EmosamEngine.load_checkpoint(path)
    assert resumed.config == engine.config
    assert resumed.window_index == engine.window_index
    assert resumed.trigger_count == engine.trigger_count
    assert resumed.designated == engine.designated
    assert resumed.bank.state_hash() == engine.bank.state_hash()
    for chunk in stream[3:6]:
        preds_a, rec_a = engine.step(chunk)
        preds_b, rec_b = resumed.step(chunk)
        np.testing.assert_array_equal(preds_a, preds_b)
        assert rec_a.accuracy == rec_b.accuracy
        assert rec_a.triggered == rec_b.triggered
        assert rec_a.pareto_size == rec_b.pareto_size


def test_checkpoint_rejects_every_truncation(tmp_path, stream):
    engine = EmosamEngine(stream[0].n_features, small_config(stm_cap=30, ltm_cap=30, min_stm_size=10))
    for chunk in stream[:2]:
        engine.step(chunk)
    path = tmp_path / "engine.ck"
    engine.save_checkpoint(path)
    blob = path.read_bytes()
    assert EmosamEngine.load_checkpoint(path).bank.state_hash() == engine.bank.state_hash()
    cut_path = tmp_path / "cut.ck"
    for cut in range(len(blob)):
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(ValueError):
            EmosamEngine.load_checkpoint(cut_path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ck"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        EmosamEngine.load_checkpoint(path)


def test_checkpoint_rejects_version_2(tmp_path, stream):
    # Version 2 checkpoints wrap version 2 memory snapshots, whose layout
    # has one more header byte; version 3 heads carry a config key that is
    # gone (the archive dump directory). A version 4 head around a version 3
    # memory snapshot, with its group byte per stored point, is refused by
    # the snapshot's own version.
    _, path = _saved_checkpoint(tmp_path, stream)
    data = path.read_bytes()
    assert struct.unpack("<I", data[4:8])[0] == _CHECKPOINT_VERSION
    for old in (2, 3):
        body = data[:4] + struct.pack("<I", old) + data[8:-4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {old}"):
            EmosamEngine.load_checkpoint(path)
    bank_at = 12 + struct.unpack("<I", data[8:12])[0]
    body = data[:bank_at] + version_3_snapshot(data[bank_at:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(ValueError, match="unsupported snapshot version 3"):
        EmosamEngine.load_checkpoint(path)


def _saved_checkpoint(tmp_path, stream):
    engine = EmosamEngine(stream[0].n_features, small_config(stm_cap=30, ltm_cap=30, min_stm_size=10))
    for chunk in stream[:2]:
        engine.step(chunk)
    path = tmp_path / "engine.ck"
    engine.save_checkpoint(path)
    return engine, path


def _rewrite_head(path, edit) -> None:
    """Apply ``edit`` to a checkpoint's JSON head and re-seal the file with a valid checksum."""
    data = path.read_bytes()
    (size,) = struct.unpack("<I", data[8:12])
    head = json.loads(data[12 : 12 + size])
    edit(head)
    blob = json.dumps(head).encode("utf-8")
    body = data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + size : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


MALFORMED_HEADS = {
    "missing_key": lambda head: head.pop("history"),
    "unknown_config_key": lambda head: head["config"].update(bogus=1),
    "dim_differs_from_bank": lambda head: head.update(dim=head["dim"] + 1),
    "designated_outside_front": lambda head: head.update(designated=len(head["front"])),
    "front_weights_too_wide": lambda head: head["front"][0]["alpha"].append(0.5),
    "history_over_capacity": lambda head: head.update(history=[0.25] * 9),
    "history_string": lambda head: head.update(history=["0.25"]),
    "history_boolean": lambda head: head.update(history=[True]),
    "front_weight_string": lambda head: head["front"][0]["alpha"].__setitem__(0, "0.5"),
    "front_objectives_strings": lambda head: head["front"][0].update(objectives=["0.25", "0.5"]),
    "front_objectives_out_of_range": lambda head: head["front"][0].update(objectives=[float("nan"), 7.5]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADS))
def test_checkpoint_rejects_malformed_head(tmp_path, stream, case):
    _, path = _saved_checkpoint(tmp_path, stream)
    _rewrite_head(path, lambda head: None)
    EmosamEngine.load_checkpoint(path)  # re-sealing alone keeps it loadable
    _rewrite_head(path, MALFORMED_HEADS[case])
    with pytest.raises(ValueError):
        EmosamEngine.load_checkpoint(path)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_checkpoint_with_one_flipped_byte_is_rejected_or_exact(tmp_path_factory, stream, data):
    engine, path = _saved_checkpoint(tmp_path_factory.mktemp("flip"), stream)
    blob = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(blob))
    try:
        resumed = EmosamEngine.load_checkpoint(path)
    except ValueError:
        return
    assert resumed.bank.state_hash() == engine.bank.state_hash()
    assert resumed.config == engine.config and resumed.history.values.tolist() == engine.history.values.tolist()
