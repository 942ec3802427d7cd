"""Worker processes that share a call's rows: kernel weight stacks and window absorbs.

Two kinds of call may be split into contiguous row ranges, the calling
process computing one range and each idle worker process one more, every
range with the unchanged code, and the results joined in row order:

- a kernel call that scores S weight vectors
  (:meth:`emosam.samknn.FrozenChunkPredictor.predict`), in slices of its
  (S, d) stack (:func:`split_votes`). A vote depends only on its query row
  and its weight vector;
- the STM half of a window absorb (:meth:`emosam.samknn.MemoryBank.fit_chunk`),
  in ranges of the window's rows (:func:`split_absorb`). A row's band, STM
  vote, cleaning radius and k nearest STM points come from its own STM
  slice, under the screen dtype and margin of the whole window, which every
  process computes for itself. The caller then runs the LTM half and the
  trackers over all rows.

So split results equal the serial ones bit for bit, and a bank's
``state_hash`` after any window does not depend on the split.

A worker is a plain ``python -m emosam.kernel_workers`` process, one per
usable CPU beyond the first (the process's CPU affinity, so ``taskset -c 0``
runs everything serially), started the first time a call could use it and
never waited for: a call computes in this process every range whose worker
is still starting, serves another thread's call or has died. Requests and
replies are length-prefixed raw array frames over the worker's stdin and
stdout. A worker receives each predictor's queries and store once, the first
time a call of that predictor reaches it, and rebuilds the kernel's layout
itself; later calls send only their weight vectors. An absorb request sends
the whole window, the STM followed by the window's rows, every time. Workers
exit on EOF on their stdin: at interpreter exit (an atexit hook closes it
and reaps them), or when this process dies. A worker that cannot start, or
fails, stops any further worker from starting in the process, which goes on
with the workers left, or serially; the first such failure issues a
RuntimeWarning that names its cause.

Threads would not do here: the screen's small BLAS products serialize
across threads (see ``samknn._SCREEN_CALL``), and the absorb's many small
numpy steps hold the interpreter lock (ROADMAP, *Tried and rejected*), while
two processes running kernel calls side by side on 2 CPUs each took 12-18%
longer per call than alone. ``multiprocessing`` is not used either: its
``spawn`` start method re-runs an unguarded ``__main__`` script in the
child, and ``fork`` is unsafe once BLAS has started threads.
"""

from __future__ import annotations

import atexit
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

# CPUs this process may run on. One means no worker ever starts. Platforms
# without os.sched_getaffinity count one.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# Smallest n * m * S (queries x memory x weight vectors) of a slice worth a
# worker, measured end to end on 2 CPUs with one BLAS thread. In desk-every
# runs (window 250, memories 500/500, swarm 20; slices up to 2.5M) calls
# split in two took 0.76-0.84 times as long as unsplit ones, but the re-tune
# fell only 5% while the window's own time (prediction and fit) rose 12-16%,
# so no desk call splits. The default-retune re-tune's slices of 14-16M cut
# its time by about a quarter; its window time moved by no more than the
# run-to-run spread then, before window absorbs split too
# (_ABSORB_BREAK_EVEN).
_BREAK_EVEN = 1 << 22
# STM plane per row range of a split window absorb, the plane being the sum
# over a window's rows of their STM slice widths: a window splits in two
# from a plane of 2^18 (0.26M). On 2 CPUs with one BLAS thread, split fits
# of the reference stream's default-scale windows (window 1000, memories
# 5000/5000; planes of 0.5-4.6M) took 0.65-0.79 times as long as unsplit
# ones, interleaved in one process. Desk windows (250, memories 500/500)
# have planes of at most 0.125M and stay serial: in isolation their split
# fits took 0.75-1.08 times as long, and waking the idle vCPU costs desk
# windows more than that (see _BREAK_EVEN).
_ABSORB_BREAK_EVEN = 1 << 17
# A window row's absorb cost beyond its STM slice, in slice columns, which
# balances the ranges. Timing the STM half over quarter and half windows of
# the first eight default-scale windows (one BLAS thread) and fitting
# a * rows + b * plane + c put a row at 15.7 us and a column at 5.9 ns.
# Balancing the plane alone left the ranges of default windows 1 and 4,
# whose STMs start short, at 13.2 against 7.6 ms and 17.3 against 10.3 ms
# run alone; with the row cost they took 10.0 against 11.2 and 13.5
# against 13.2 ms.
_ROW_COLUMNS = 2600

# Request tags, a frame's first array (see serve).
_VOTES = np.uint8(0)
_ABSORB = np.uint8(1)

_COUNT = struct.Struct("<B")  # arrays in a frame
_HEAD = struct.Struct("<3sB")  # an array's dtype string ("<f8", "|u1", ...) and ndim
_READY = b"R"


def _send(stream, arrays: list[np.ndarray]) -> None:
    """Write ``arrays`` to ``stream`` as one frame and flush it."""
    stream.write(_COUNT.pack(len(arrays)))
    for a in arrays:
        a = np.asarray(a, order="C")
        stream.write(_HEAD.pack(a.dtype.str.encode(), a.ndim) + struct.pack(f"<{a.ndim}q", *a.shape))
        stream.write(a.reshape(-1).view(np.uint8))
    stream.flush()


def _fill(stream, buf) -> None:
    """Read exactly ``len(buf)`` bytes into the writable buffer ``buf``; EOFError if the stream ends first."""
    view = memoryview(buf).cast("B")
    got = 0
    while got < len(view):
        n = stream.readinto(view[got:])
        if not n:
            raise EOFError("kernel worker stream ended inside a frame")
        got += n


def _receive(stream) -> list[np.ndarray] | None:
    """The next frame's arrays, or None at EOF between frames."""
    head = stream.read(_COUNT.size)
    if not head:
        return None
    arrays = []
    for _ in range(_COUNT.unpack(head)[0]):
        meta = bytearray(_HEAD.size)
        _fill(stream, meta)
        code, ndim = _HEAD.unpack(meta)
        dims = bytearray(8 * ndim)
        _fill(stream, dims)
        a = np.empty(struct.unpack(f"<{ndim}q", dims), dtype=np.dtype(code.decode()))
        _fill(stream, a.reshape(-1).view(np.uint8))
        arrays.append(a)
    return arrays


class _Worker:
    """One worker process, with the token of the predictor whose state it holds.

    Only a thread holding ``lock`` talks to it.
    """

    def __init__(self) -> None:
        package = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(package), os.environ.get("PYTHONPATH")])))
        # run from the package's parent too, so the worker imports this very code
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "emosam.kernel_workers"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=package,
            env=env,
        )
        self.lock = threading.Lock()
        self.ready = False
        self.alive = True
        self.holds: int | None = None
        self.pending = False  # a request was sent and its reply not read

    def poll_ready(self) -> bool:
        """True once the worker has signalled it is ready; never blocks."""
        if not self.ready:
            if not select.select([self.proc.stdout], [], [], 0)[0]:
                return False
            self.ready = self.proc.stdout.read(1) == _READY
            if not self.ready:
                self.discard("exited before it was ready")
        return self.ready

    def send(self, arrays: list[np.ndarray]) -> bool:
        """Send one request frame; False if the worker could not take it."""
        try:
            _send(self.proc.stdin, arrays)
        except (OSError, ValueError) as exc:
            self.discard(f"could not take a request ({exc!r})")
            return False
        self.pending = True
        return True

    def receive(self, like: list[tuple[tuple[int, ...], np.dtype]]) -> list[np.ndarray] | None:
        """The reply to the pending request; None if the worker died or answered out of ``like``'s (shape, dtype)s."""
        try:
            reply = _receive(self.proc.stdout)
        except (OSError, ValueError, EOFError, struct.error):
            reply = None
        self.pending = False
        if reply is None or [(a.shape, a.dtype) for a in reply] != like:
            self.discard("died or replied out of shape")
            return None
        return reply

    def discard(self, cause: str) -> None:
        """Stop a worker that failed or may be out of step with its requests; start no other."""
        self.alive = False
        self.proc.kill()
        self.stop()
        _disable(f"a kernel worker {cause}")

    def stop(self) -> None:
        """Close the worker's stdin, which ends it, and reap it."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


_workers: list[_Worker] = []
_workers_lock = threading.Lock()
# Set once a worker could not be started or has failed: no further worker
# starts, and calls go on with the workers left, or serially.
_disabled = False


def _disable(cause: str) -> None:
    """Start no further worker; the first time in a process, warn of ``cause``."""
    global _disabled
    if not _disabled:
        _disabled = True
        warnings.warn(f"{cause}; no further kernel worker starts in this process", RuntimeWarning, stacklevel=2)


def _stop_all() -> None:
    for worker in _workers:
        worker.stop()


def _forget() -> None:
    """In a forked child: the parent's workers are not this process's to use."""
    global _workers_lock
    _workers.clear()
    _workers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
atexit.register(_stop_all)


def _idle_workers(want: int) -> list[_Worker]:
    """Up to ``want`` ready workers that serve no other call, each locked for the caller.

    Starts the workers that are missing, up to ``want`` in all, without
    waiting for them.
    """
    with _workers_lock:
        _workers[:] = [w for w in _workers if w.alive]
        try:
            while not _disabled and len(_workers) < want:
                _workers.append(_Worker())
        except OSError as exc:
            _disable(f"a kernel worker could not start ({exc!r})")
        pool = list(_workers)
    taken = []
    for worker in pool:
        if len(taken) == want:
            break
        if worker.lock.acquire(blocking=False):
            if worker.alive and worker.poll_ready():
                taken.append(worker)
            else:
                worker.lock.release()
    return taken


def _split(
    want: int,
    bounds: Callable[[int], list[int]],
    request: Callable[[_Worker, int, int], list[np.ndarray]],
    local: Callable[[int, int], Sequence[np.ndarray]],
) -> Sequence[np.ndarray]:
    """A call's result arrays, computed over contiguous ranges of their rows by idle workers and this process.

    ``local(lo, hi)`` computes rows [lo, hi) of every result array here.
    Up to ``want`` idle workers are taken; with p of them, ``bounds(p + 1)``
    cuts the rows into p + 1 ranges (p + 2 bounds from 0 to the row count),
    each worker is sent ``request(worker, lo, hi)`` for one range, and the
    last range is computed here meanwhile. A worker whose request or reply
    fails has its range computed here too, so every row equals
    ``local``'s. Without a worker the result is ``local(0, rows)`` itself.
    """
    workers = _idle_workers(want) if want > 0 and not _disabled else []
    cuts = bounds(len(workers) + 1)
    if not workers:
        return local(0, cuts[-1])
    parts = []
    try:
        sent = [w.send(request(w, lo, hi)) for w, lo, hi in zip(workers, cuts, cuts[1:])]
        mine = local(cuts[-2], cuts[-1])
        for w, ok, lo, hi in zip(workers, sent, cuts, cuts[1:]):
            reply = w.receive([((hi - lo, *a.shape[1:]), a.dtype) for a in mine]) if ok else None
            parts.append(local(lo, hi) if reply is None else reply)
    finally:
        for w in workers:
            try:
                if w.pending:  # interrupted between request and reply
                    w.discard("was interrupted between a request and its reply")
            finally:
                w.lock.release()
    parts.append(mine)
    return [np.concatenate(arrays) for arrays in zip(*parts)]


def split_votes(
    alphas: np.ndarray,
    size: int,
    token: int,
    state: Callable[[], list[np.ndarray]],
    local: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Votes (S, n) of the weight stack ``alphas`` (S, d), split across this process and idle workers.

    ``local`` scores a slice of the stack in this process; ``size`` is the
    call's n * m (queries x memory points). ``token`` names the predictor
    and ``state()`` gives what a worker rebuilds it from: its queries (n, d),
    its store transposed (d, m) in position order, the store's label-1 mask
    as uint8 and k as an int64 scalar. The call is split into at most one
    contiguous slice per usable CPU, each with n * m * S of at least
    ``_BREAK_EVEN``; a slice whose worker is not at hand is scored here.
    Every vote equals ``local(alphas)``'s.
    """
    s = len(alphas)

    def request(worker: _Worker, lo: int, hi: int) -> list[np.ndarray]:
        if worker.holds == token:
            return [_VOTES, alphas[lo:hi]]
        worker.holds = token
        return [_VOTES, alphas[lo:hi], *state()]

    want = min(_CPUS, s, size * s // _BREAK_EVEN) - 1
    (votes,) = _split(
        want, lambda parts: [s * i // parts for i in range(parts + 1)], request, lambda lo, hi: [local(alphas[lo:hi])]
    )
    return votes


def split_absorb(
    cf: np.ndarray,
    cl: np.ndarray,
    s0: int,
    cap: int,
    k: int,
    meets: np.ndarray,
    local: Callable[..., Sequence[np.ndarray]],
) -> Sequence[np.ndarray]:
    """The STM half of a window absorb, ``local(cf, cl, s0, cap, k, meets, start, stop)``, over all window rows.

    ``local`` is :func:`emosam.samknn._stm_rows`, whose per-row results
    depend on the row alone. The window's STM plane, the sum over its rows
    of their slice widths ``min(cap, s0 + i)``, is cut into contiguous row
    ranges, at most one per usable CPU and one per ``_ABSORB_BREAK_EVEN``
    of plane. The ranges balance a cost of ``_ROW_COLUMNS`` plus the slice
    width per row. A worker receives the
    whole window with its range; a range whose worker is not at hand is
    computed here. Every result equals the unsplit call's.
    """
    n = len(cl) - s0
    width = np.minimum(cap, s0 + np.arange(n))
    cost = np.cumsum(width + _ROW_COLUMNS)

    def bounds(parts: int) -> list[int]:
        if parts == 1:
            return [0, n]
        return [0, *np.searchsorted(cost, cost[-1] * np.arange(1, parts) / parts).tolist(), n]

    def request(worker: _Worker, lo: int, hi: int) -> list[np.ndarray]:
        return [_ABSORB, cf, cl, np.array([s0, cap, k, lo, hi]), meets]

    want = min(_CPUS, n, int(width.sum()) // _ABSORB_BREAK_EVEN) - 1
    return _split(want, bounds, request, lambda lo, hi: local(cf, cl, s0, cap, k, meets, lo, hi))


def serve() -> None:
    """The worker's loop: answer each request until EOF on stdin.

    A request is one frame whose first array, a uint8 scalar, names it.
    ``_VOTES``: the weight vectors (S, d), followed, when a new predictor's
    state comes with it, by the queries, the store (d, m), the label-1 mask
    and k; the reply is the (S, n) uint8 votes. ``_ABSORB``: a window's
    combined features and labels, the int64 scalars (s0, cap, k, start,
    stop) and the (2,) ``meets`` mask; the reply is
    :func:`emosam.samknn._stm_rows`'s arrays for rows [start, stop). An
    absorb leaves the held predictor in place.
    """
    # Ctrl-C reaches the whole process group; the worker ends with its parent instead.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # frames own stdout; anything else printed goes to stderr
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    requests = sys.stdin.buffer
    from emosam.samknn import _label_ordered, _stm_rows, _weighted_votes

    replies.write(_READY)
    replies.flush()
    queries, memory, k = None, None, 0
    try:
        while (frame := _receive(requests)) is not None:
            tag, *args = frame
            if tag == _ABSORB:
                cf, cl, ints, meets = args
                s0, cap, kk, start, stop = ints.tolist()
                _send(replies, list(_stm_rows(cf, cl, s0, cap, kk, meets, start, stop)))
                continue
            alphas, *state = args
            if state:
                queries, memory_t, positive, kk = state
                memory, k = _label_ordered(memory_t.T, positive), int(kk)
            _send(replies, [_weighted_votes(queries, memory, k, alphas)])
    except (EOFError, BrokenPipeError):
        pass


if __name__ == "__main__":
    serve()
