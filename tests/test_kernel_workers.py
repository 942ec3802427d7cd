"""Kernel calls split across worker processes vote as the serial kernel does."""

import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emosam import EmosamEngine, EngineConfig, SmpsoParams, apply_desk_preset, kernel_workers, samknn
from emosam import engine as engine_module
from emosam.samknn import FrozenChunkPredictor, MemoryBank
from emosam.stream import BiasStreamConfig, Chunk, GroupRates, generate_bias_stream
from oracles import brute_knn_vote

SRC = Path(__file__).resolve().parent.parent / "src"


def ready_worker() -> kernel_workers._Worker:
    """A ready worker, started if need be; waits for it, as no kernel call does."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        taken = kernel_workers._idle_workers(1)
        for worker in taken:
            worker.lock.release()
        if taken:
            return taken[0]
        time.sleep(0.01)
    pytest.fail("no kernel worker became ready within 60 s")


@pytest.fixture
def split(monkeypatch):
    """Two usable CPUs, every call of two or more vectors split, and a worker ready for it."""
    monkeypatch.setattr(kernel_workers, "_CPUS", 2)
    monkeypatch.setattr(kernel_workers, "_BREAK_EVEN", 1)
    monkeypatch.setattr(kernel_workers, "_disabled", False)
    return ready_worker()


def grid_predictor(rng, m, n, d, k, scale=1.0):
    mem = rng.integers(0, 3, (m, d)) * scale
    labels = rng.integers(0, 2, m).astype(np.uint8)
    bank = MemoryBank(d, k=k, min_stm_size=k + 1, stm_cap=m)
    bank.replace_stm(mem, labels)
    queries = rng.integers(0, 3, (n, d)) * scale
    return FrozenChunkPredictor(queries, bank), mem, labels, queries


@pytest.mark.parametrize("scale", [1.0, 2.0**100])
@pytest.mark.parametrize("S", [2, 3, 17, 41])
def test_split_votes_equal_the_kernel_and_the_oracle_on_ties(split, monkeypatch, S, scale):
    # Integer grids and dyadic weights keep every distance exact, so ties
    # are ties for the oracle too; scaled by 2^100 the rows' spread leaves
    # float32's range and the kernel screens in float64 planes.
    dtypes = set()
    screen_planes = samknn._screen_planes
    monkeypatch.setattr(samknn, "_screen_planes", lambda *args: dtypes.add(args[-1][0].dtype) or screen_planes(*args))
    rng = np.random.default_rng(S)
    for _ in range(3):
        pred, mem, labels, queries = grid_predictor(rng, m=25, n=12, d=3, k=int(rng.integers(1, 8)), scale=scale)
        alphas = rng.choice([0.0, 0.25, 0.5, 1.0], (S, 3))
        got = pred.predict(alphas)
        assert split.holds == pred._token  # the worker scored a slice
        np.testing.assert_array_equal(got, samknn._weighted_votes(queries, pred._memory, pred._k, alphas))
        want = [[brute_knn_vote(q, mem, labels, pred._k, a) for q in queries] for a in alphas]
        np.testing.assert_array_equal(got, want)
    assert dtypes == {np.dtype(np.float32) if scale == 1.0 else np.dtype(np.float64)}


DESK_STREAM = BiasStreamConfig(
    n_instances=2000, proxy_strength=0.8, base_rates=GroupRates(0.65, 0.35), seed=11, window_size=250
)


def desk_run(trigger, between=lambda t: None, sent=None):
    """A desk engine over the 2000-row stream with an 8x2 swarm: per window, its outputs and the bank's state.

    ``between(t)`` runs before window t. A window whose step raises is
    recorded as such. With ``sent``, a list the test's recording ``send``
    appends requests to, each window also records the requests it sent.
    """
    chunks = generate_bias_stream(DESK_STREAM)
    config, _ = apply_desk_preset(EngineConfig(trigger=trigger, seed=3))
    engine = EmosamEngine(chunks[0].n_features, replace(config, smpso=SmpsoParams(swarm_size=8, iterations=2)))
    out = []
    for t, chunk in enumerate(chunks):
        between(t)
        before = len(sent) if sent is not None else 0
        try:
            preds, record = engine.step(chunk)
        except RuntimeError as exc:
            out.append((str(exc), engine.bank.state_hash()))
            continue
        fields = {name: v for name, v in vars(record).items() if name != "wall_time_ms"}
        front = [(s.alpha.tobytes(), s.objectives) for s in engine.pareto_front]
        out.append((preds.tobytes(), fields, front, engine.bank.state_hash()))
        if sent is not None:
            out[-1] += (sent[before:],)
    return out


def recorded_sends(mp):
    """Patch ``_Worker.send`` to record each request as (tag, ints): an absorb's row range, or None."""
    send, sent = kernel_workers._Worker.send, []

    def recorded(self, arrays):
        tag = int(arrays[0])
        sent.append((tag, tuple(arrays[3][3:].tolist()) if tag == kernel_workers._ABSORB else None))
        return send(self, arrays)

    mp.setattr(kernel_workers._Worker, "send", recorded)
    return sent


def serial_desk_run(trigger):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_workers, "_CPUS", 1)
        return desk_run(trigger)


def test_split_desk_run_equals_the_serial_run(monkeypatch):
    serial = serial_desk_run("every")
    with monkeypatch.context() as mp:
        mp.setattr(kernel_workers, "_CPUS", 2)
        mp.setattr(kernel_workers, "_BREAK_EVEN", 1)
        mp.setattr(kernel_workers, "_disabled", False)
        ready_worker()
        sent = recorded_sends(mp)
        assert desk_run("every") == serial
    tags = [tag for tag, _ in sent]
    assert tags.count(kernel_workers._ABSORB) == 7  # each re-tuned window's fit went ahead
    # after each absorb went out, both later sweeps of its re-tune still split
    text = "".join("A" if tag == kernel_workers._ABSORB else "V" for tag in tags)
    assert all(len(part) >= 2 for part in text.split("A")[1:]), text


def test_killing_the_worker_between_calls_changes_no_vote(split):
    rng = np.random.default_rng(5)
    pred = grid_predictor(rng, m=40, n=30, d=4, k=5)[0]
    alphas = rng.random((6, 4))
    want = pred._votes(alphas)
    np.testing.assert_array_equal(pred.predict(alphas), want)
    assert split.holds == pred._token
    split.proc.kill()
    split.proc.wait()
    with pytest.warns(RuntimeWarning, match="kernel worker") as warned:
        for _ in range(3):
            np.testing.assert_array_equal(pred.predict(alphas), want)
    assert len(warned) == 1  # one warning names the cause; the later calls run serially in silence
    assert not split.alive and kernel_workers._disabled  # discarded, and none started in its place
    assert split not in kernel_workers._idle_workers(1)


def test_threads_predicting_on_one_predictor_get_the_serial_votes(split):
    # More threads than CPUs and a short switch interval: each call either
    # takes the one worker or scores its whole stack itself.
    rng = np.random.default_rng(7)
    pred = grid_predictor(rng, m=60, n=50, d=4, k=5)[0]
    stacks = [rng.random((int(rng.integers(2, 12)), 4)) for _ in range(40)]
    want = [pred._votes(a) for a in stacks]
    start, errors = threading.Barrier(4), []

    def predict_all(order):
        start.wait()
        try:
            for i in order:
                np.testing.assert_array_equal(pred.predict(stacks[i]), want[i])
        except AssertionError as exc:
            errors.append(exc)

    orders = [range(40), range(39, -1, -1), range(0, 40, 2), range(1, 40, 2)]
    threads = [threading.Thread(target=predict_all, args=(o,)) for o in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert split.holds == pred._token


def test_no_call_waits_for_a_starting_worker(monkeypatch):
    # A fresh pool: the call that starts the worker scores every vector itself.
    monkeypatch.setattr(kernel_workers, "_CPUS", 2)
    monkeypatch.setattr(kernel_workers, "_BREAK_EVEN", 1)
    monkeypatch.setattr(kernel_workers, "_disabled", False)
    monkeypatch.setattr(kernel_workers, "_workers", [])
    rng = np.random.default_rng(9)
    pred = grid_predictor(rng, m=40, n=30, d=4, k=5)[0]
    alphas = rng.random((5, 4))
    try:
        np.testing.assert_array_equal(pred.predict(alphas), pred._votes(alphas))
        (worker,) = kernel_workers._workers
        assert worker.holds is None
    finally:
        for worker in kernel_workers._workers:
            worker.stop()


@pytest.mark.parametrize("cpus, S", [(1, 8), (2, 1)])
def test_no_worker_starts_for_one_cpu_or_one_vector(monkeypatch, cpus, S):
    monkeypatch.setattr(kernel_workers, "_CPUS", cpus)
    monkeypatch.setattr(kernel_workers, "_BREAK_EVEN", 1)
    monkeypatch.setattr(kernel_workers, "_disabled", False)
    monkeypatch.setattr(kernel_workers, "_workers", [])
    monkeypatch.setattr(kernel_workers.subprocess, "Popen", lambda *a, **kw: pytest.fail("a worker started"))
    rng = np.random.default_rng(11)
    pred = grid_predictor(rng, m=40, n=30, d=4, k=5)[0]
    alphas = rng.random((S, 4))
    np.testing.assert_array_equal(pred.predict(alphas), pred._votes(alphas))


UNGUARDED_SCRIPT = """
import time
import numpy as np
from emosam import kernel_workers
from emosam.samknn import FrozenChunkPredictor, MemoryBank

kernel_workers._CPUS = 2
kernel_workers._BREAK_EVEN = 1
rng = np.random.default_rng(0)
bank = MemoryBank(3, stm_cap=60)
bank.replace_stm(rng.random((60, 3)), rng.integers(0, 2, 60).astype(np.uint8))
pred = FrozenChunkPredictor(rng.random((20, 3)), bank)
alphas = rng.random((4, 3))
want = pred._votes(alphas)
deadline = time.monotonic() + 60
while not any(w.holds == pred._token for w in kernel_workers._workers):
    assert time.monotonic() < deadline, "no split within 60 s"
    assert (pred.predict(alphas) == want).all()
    time.sleep(0.01)
print(kernel_workers._workers[0].proc.pid)
"""


def test_a_script_without_a_main_guard_splits_exits_and_leaves_no_worker(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")  # the worker, whose stderr is the script's, warned of nothing
    pid = int(done.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


# -- window absorbs split across a worker ----------------------------------------------


@pytest.fixture
def absorb_split(monkeypatch):
    """Two usable CPUs, every window absorb split in two, and a worker ready for it.

    Returns the worker and the requests sent to it (:func:`recorded_sends`).
    """
    monkeypatch.setattr(kernel_workers, "_CPUS", 2)
    monkeypatch.setattr(kernel_workers, "_ABSORB_BREAK_EVEN", 1)
    monkeypatch.setattr(kernel_workers, "_disabled", False)
    return ready_worker(), recorded_sends(monkeypatch)


def bank_state(bank):
    """The bank's state hash and trackers."""
    return bank.state_hash(), {name: list(v) for name, v in bank._trackers.items()}


def fitted_states(bank, chunks, between=lambda t: None):
    """The bank's state hash and trackers after fitting each chunk in turn."""
    states = []
    for t, chunk in enumerate(chunks):
        between(t)
        bank.fit_chunk(chunk)
        states.append(bank_state(bank))
    return states


def serially(fit):
    """``fit()`` on one usable CPU, whatever the test set."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_workers, "_CPUS", 1)
        return fit()


def assert_split_fit_equals_serial(absorb_split, make_bank, chunks):
    """Every window's state and trackers are the same with the absorb split and unsplit; every window split."""
    _, sent = absorb_split
    want = serially(lambda: fitted_states(make_bank(), chunks))
    bank = make_bank()
    sent.clear()
    assert fitted_states(bank, chunks) == want
    assert [tag for tag, _ in sent] == [kernel_workers._ABSORB] * len(chunks)
    assert all(0 < hi < len(chunk) and lo == 0 for (_, (lo, hi)), chunk in zip(sent, chunks))


def reference_chunks(window, n_instances=20_000, transform=lambda x: x):
    """Windows of the reference stream (drifts at 35% and 70% of it), ``transform`` applied to the features."""
    config = BiasStreamConfig(
        n_instances=n_instances, d_informative=5, d_noise=2, proxy_strength=0.8, base_rates=GroupRates(0.65, 0.35),
        drift_points=(n_instances * 7 // 20, n_instances * 14 // 20), seed=11, window_size=window,
    )
    return [replace(c, features=transform(c.features)) for c in generate_bias_stream(config)]


def test_split_absorb_equals_serial_on_20_default_scale_windows(absorb_split):
    chunks = reference_chunks(1000)
    assert_split_fit_equals_serial(absorb_split, lambda: MemoryBank(chunks[0].n_features), chunks)


def test_split_absorb_equals_serial_on_an_integer_tie_grid(absorb_split, monkeypatch):
    # Exact ties that only position decides, with a label flip halfway so
    # evicted points reach the LTM and radii run; the serial absorb reaches
    # the exact pair sums.
    rng = np.random.default_rng(4)
    x = rng.integers(0, 3, (1200, 3)).astype(float)
    y = (x.sum(axis=1) + rng.integers(0, 2, 1200) > 3).astype(np.uint8)
    y[600:] ^= 1
    chunks = [
        Chunk(f, g.astype(np.uint8), lab, t + 1)
        for t, (f, g, lab) in enumerate(zip(np.split(x, 6), np.split(rng.integers(0, 2, 1200), 6), np.split(y, 6)))
    ]
    pair_sums, pairs = samknn._pair_sums, []
    monkeypatch.setattr(samknn, "_pair_sums", lambda p, i, j: pairs.append(len(i)) or pair_sums(p, i, j))
    make_bank = lambda: MemoryBank(3, k=5, stm_cap=300, ltm_cap=100, min_stm_size=20, seed=4)  # noqa: E731
    serially(lambda: fitted_states(make_bank(), chunks))
    assert sum(pairs) > 0
    assert_split_fit_equals_serial(absorb_split, make_bank, chunks)


def test_split_absorb_equals_serial_in_float64_planes(absorb_split, monkeypatch):
    # Scaled by 1e30 the rows' scale leaves float32's range: the window's
    # margin, computed by both processes over the whole window, picks
    # float64 planes for both ranges.
    dtypes = set()
    margin = samknn._screen_margin
    monkeypatch.setattr(samknn, "_screen_margin", lambda *a: dtypes.add(margin(*a)[1]) or margin(*a))
    chunks = reference_chunks(500, n_instances=4000, transform=lambda x: x * 1e30)
    assert_split_fit_equals_serial(
        absorb_split, lambda: MemoryBank(chunks[0].n_features, stm_cap=1500, ltm_cap=500), chunks
    )
    assert dtypes == {np.float64}


def test_split_absorb_drops_ltm_points_from_rows_of_both_ranges(absorb_split, monkeypatch):
    # Label-1 rows sweep left to right across label-0 LTM points, so rows of
    # the worker's range and of this process's range each drop some first:
    # first_drop takes radii from both processes.
    rng = np.random.default_rng(21)
    d, n = 2, 400
    stm_f, stm_l = rng.random((300, d)), rng.integers(0, 2, 300).astype(np.uint8)
    ltm_f, ltm_l = rng.random((150, d)), np.zeros(150, dtype=np.uint8)
    window = np.column_stack([np.linspace(0, 1, n), rng.random(n)])
    chunk = Chunk(window, rng.integers(0, 2, n).astype(np.uint8), np.ones(n, dtype=np.uint8), 1)

    def make_bank():
        bank = MemoryBank(d, stm_cap=1000, ltm_cap=1000)
        bank.replace_stm(stm_f, stm_l)
        bank.replace_ltm(ltm_f, ltm_l)
        return bank

    results, split_absorb = [], kernel_workers.split_absorb
    monkeypatch.setattr(kernel_workers, "split_absorb", lambda *a: results.append(split_absorb(*a)) or results[-1])
    assert_split_fit_equals_serial(absorb_split, make_bank, [chunk])
    (_, (_, cut)), r2 = absorb_split[1][0], samknn._StmRows(*results[-1]).r2
    drops = samknn._sq_dists(window, np.ascontiguousarray(ltm_f.T)) <= r2[:, None]
    first = drops.argmax(axis=0)[drops.any(axis=0)]
    assert (first < cut).any() and (first >= cut).any()


def test_split_restore_of_a_5000_point_stm_equals_the_serial_one(absorb_split):
    # Restoring absorbs the STM as one window into an empty bank: 5000 rows,
    # split in two. The bands may differ with the split (they follow the
    # row blocks), but the re-fit's errors and every later window may not.
    rng = np.random.default_rng(17)
    bank = MemoryBank(4)
    serially(lambda: bank.replace_stm(rng.random((5000, 4)), rng.integers(0, 2, 5000)))
    bank.replace_ltm(rng.random((40, 4)), rng.integers(0, 2, 40))
    blob = bank.to_bytes()
    groups, labels = rng.integers(0, 2, (2, 500)).astype(np.uint8)
    chunk = Chunk(rng.random((500, 4)), groups, labels, 1)
    sizes = samknn._candidate_sizes(5000, bank.min_stm_size)

    def restore_and_fit():
        restored = MemoryBank.from_bytes(blob)
        f, y = restored.stm_features, restored.stm_labels
        errors = samknn._window_errors(restored._stm_band, f, y, sizes, restored.k)
        return restored.state_hash(), errors, fitted_states(restored, [chunk])

    want = serially(restore_and_fit)
    absorb_split[1].clear()
    assert restore_and_fit() == want
    assert len(absorb_split[1]) == 2  # the restore's absorb and the window's


def test_killing_the_worker_between_windows_changes_no_state(absorb_split):
    worker, sent = absorb_split
    chunks = reference_chunks(300, n_instances=1500)
    make_bank = lambda: MemoryBank(chunks[0].n_features, stm_cap=800, ltm_cap=300)  # noqa: E731
    want = serially(lambda: fitted_states(make_bank(), chunks))

    def kill_after_first(t):
        if t == 1:
            assert sent  # the first window was split
            worker.proc.kill()
            worker.proc.wait()

    with pytest.warns(RuntimeWarning, match="kernel worker") as warned:
        assert fitted_states(make_bank(), chunks, kill_after_first) == want
    assert len(warned) == 1
    assert not worker.alive and kernel_workers._disabled


# -- desk fits sent ahead while the re-tune searches -----------------------------------


@pytest.fixture
def ahead(monkeypatch):
    """Two usable CPUs with the default break-evens, a worker ready, and every request recorded.

    Returns the worker and the recorded requests.
    """
    monkeypatch.setattr(kernel_workers, "_CPUS", 2)
    monkeypatch.setattr(kernel_workers, "_disabled", False)
    return ready_worker(), recorded_sends(monkeypatch)


@pytest.mark.parametrize("trigger", ["every", "hp"])
def test_desk_fits_sent_ahead_equal_the_serial_run(ahead, trigger):
    serial = serial_desk_run(trigger)
    got = desk_run(trigger, sent=ahead[1])
    assert [window[:-1] for window in got] == serial
    absorb = (kernel_workers._ABSORB, (0, DESK_STREAM.window_size))
    assert [window[-1] for window in got] == [[absorb] if fields["triggered"] else [] for _, fields, *_ in got]
    assert any(fields["triggered"] for _, fields, *_ in got)


def test_a_failed_retune_leaves_the_bank_and_the_worker_usable(ahead, monkeypatch):
    worker, sent = ahead
    search = engine_module.optimize_weights

    def fail_in_window_3(chunk, *args):
        if chunk.index == 3:
            raise RuntimeError("search failed")
        return search(chunk, *args)

    monkeypatch.setattr(engine_module, "optimize_weights", fail_in_window_3)
    serial = serial_desk_run("every")

    def split_after_the_failure(t):
        if t == 3:
            # the absorb went out before the search raised, and its reply is unread
            assert sent[-1] == (kernel_workers._ABSORB, (0, DESK_STREAM.window_size)) and worker.ahead is not None
            assert not worker.lock.locked()
            rng = np.random.default_rng(13)
            pred = grid_predictor(rng, m=40, n=30, d=4, k=5)[0]
            alphas = rng.random((6, 4))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel_workers, "_BREAK_EVEN", 1)
                np.testing.assert_array_equal(pred.predict(alphas), pred._votes(alphas))
            assert worker.holds == pred._token and sent[-1] == (kernel_workers._VOTES, None)  # it split
            assert worker.ahead is None and worker.alive

    got = desk_run("every", split_after_the_failure, sent)
    assert [window[:-1] if len(window) == 5 else window for window in got] == serial
    assert got[2] == ("search failed", got[1][3])  # the failed step fitted nothing


def test_killing_the_worker_with_an_absorb_in_flight_changes_no_state(ahead, monkeypatch):
    worker, sent = ahead
    serial = serial_desk_run("every")
    search = engine_module.optimize_weights

    def kill_in_flight(*args):
        if worker.alive and worker.ahead is not None:
            worker.proc.kill()
            worker.proc.wait()
        return search(*args)

    monkeypatch.setattr(engine_module, "optimize_weights", kill_in_flight)
    with pytest.warns(RuntimeWarning, match="kernel worker") as warned:
        got = desk_run("every", sent=sent)
    assert [window[:-1] for window in got] == serial
    assert len(warned) == 1
    assert not worker.alive and kernel_workers._disabled
    assert [len(window[-1]) for window in got] == [0, 1, 0, 0, 0, 0, 0, 0]  # none sent after the failure


def test_a_fit_drops_the_reply_when_the_stm_was_replaced_after_the_send(ahead, monkeypatch):
    worker, sent = ahead
    rng = np.random.default_rng(23)
    d, n = 4, 200
    stm, new_stm = (rng.random((300, d)), rng.integers(0, 2, 300)), (rng.random((250, d)), rng.integers(0, 2, 250))
    ltm = rng.random((60, d)), rng.integers(0, 2, 60)
    groups, labels = rng.integers(0, 2, (2, n)).astype(np.uint8)
    chunk = Chunk(rng.random((n, d)), groups, labels, 1)

    def bank_with(stm):
        bank = MemoryBank(d, stm_cap=500, ltm_cap=500)
        bank.replace_stm(*stm)
        bank.replace_ltm(*ltm)
        return bank

    local, stm_rows = [], samknn._stm_rows
    monkeypatch.setattr(samknn, "_stm_rows", lambda *a: local.append(a[-2:]) or stm_rows(*a))
    for replaced, computed_here in ((None, []), (new_stm, [(0, n)])):
        want = serially(lambda: fitted_states(bank_with(replaced or stm), [chunk]))[0]
        bank = bank_with(stm)
        handle = bank.fit_ahead(chunk)
        assert handle is not None and sent[-1] == (kernel_workers._ABSORB, (0, n))
        if replaced:
            bank.replace_stm(*replaced)
        local.clear()
        bank.fit_chunk(chunk, handle)
        assert bank_state(bank) == want
        assert local == computed_here  # the fit used the worker's reply, or dropped it and computed the pass
    # the dropped reply is read by whoever takes the worker next, which keeps it in step
    assert worker.ahead is handle[1] and handle[1].reply is None
    assert ready_worker() is worker and worker.ahead is None and handle[1].reply is not None


def test_threads_splitting_while_fits_go_ahead_get_the_serial_results(ahead, monkeypatch):
    # One thread fits windows as the engine does (absorb ahead, a split call,
    # the fit) while three threads make split calls; a short switch interval
    # lets any of them take the worker between a send and its fit.
    worker, sent = ahead
    monkeypatch.setattr(kernel_workers, "_BREAK_EVEN", 1)
    rng = np.random.default_rng(29)
    pred = grid_predictor(rng, m=60, n=50, d=4, k=5)[0]
    stacks = [rng.random((int(rng.integers(2, 12)), 4)) for _ in range(30)]
    want_votes = [pred._votes(a) for a in stacks]
    chunks = reference_chunks(100, n_instances=1500)
    make_bank = lambda: MemoryBank(chunks[0].n_features, stm_cap=400, ltm_cap=200)  # noqa: E731
    want_states = serially(lambda: fitted_states(make_bank(), chunks))
    start, errors, got_states = threading.Barrier(4), [], []

    def predict_all(order):
        for i in order:
            np.testing.assert_array_equal(pred.predict(stacks[i]), want_votes[i])

    def fit_all():
        bank = make_bank()
        for t, chunk in enumerate(chunks):
            handle = bank.fit_ahead(chunk)
            predict_all([t])
            bank.fit_chunk(chunk, handle)
            got_states.append(bank_state(bank))

    def run(work, *args):
        start.wait()
        try:
            work(*args)
        except AssertionError as exc:
            errors.append(exc)

    jobs = [(fit_all,), (predict_all, range(30)), (predict_all, range(29, -1, -1)), (predict_all, range(0, 30, 3))]
    threads = [threading.Thread(target=run, args=job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert got_states == want_states
    assert any(tag == kernel_workers._ABSORB for tag, _ in sent) and worker.alive and not kernel_workers._disabled
