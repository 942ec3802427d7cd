"""Worker processes that score slices of a kernel call's weight stack.

A kernel call that scores S weight vectors
(:meth:`emosam.samknn.FrozenChunkPredictor.predict`) may be split into
contiguous slices of its (S, d) stack: the calling process scores one slice
and each idle worker process one more, every slice with the unchanged
kernel. A vote depends only on its query row and its weight vector, so the
split votes equal the serial ones bit for bit.

A worker is a plain ``python -m emosam.kernel_workers`` process, one per
usable CPU beyond the first (the process's CPU affinity, so ``taskset -c 0``
runs everything serially), started the first time a call could use it and
never waited for: a call scores in this process every slice whose worker is
still starting, serves another thread's call or has died. Requests and
replies are length-prefixed raw array frames over the worker's stdin and
stdout. A worker receives each predictor's queries and store once, the first
time a call of that predictor reaches it, and rebuilds the kernel's layout
itself; later calls send only their weight vectors. Workers exit on EOF on
their stdin: at interpreter exit (an atexit hook closes it and reaps them),
or when this process dies.

Threads would not do here: the screen's small BLAS products serialize
across threads (see ``samknn._SCREEN_CALL``), while two processes running
kernel calls side by side on 2 CPUs each took 12-18% longer per call than
alone. ``multiprocessing`` is not used either: its ``spawn`` start method
re-runs an unguarded ``__main__`` script in the child, and ``fork`` is
unsafe once BLAS has started threads.
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
from pathlib import Path
from typing import Callable

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
# its time by about a quarter, with the window time unmoved.
_BREAK_EVEN = 1 << 22

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
                self.discard()
        return self.ready

    def send(self, token: int, state: Callable[[], list[np.ndarray]], alphas: np.ndarray) -> bool:
        """Ask for the votes of ``alphas``, with the predictor's state unless it already holds it."""
        arrays = [alphas] if self.holds == token else [alphas, *state()]
        try:
            _send(self.proc.stdin, arrays)
        except (OSError, ValueError):
            self.discard()
            return False
        self.holds, self.pending = token, True
        return True

    def receive(self, shape: tuple[int, int]) -> np.ndarray | None:
        """The reply to the pending request, or None if the worker died or answered out of shape."""
        try:
            reply = _receive(self.proc.stdout)
        except (OSError, ValueError, EOFError, struct.error):
            reply = None
        self.pending = False
        if reply is None or len(reply) != 1 or reply[0].shape != shape or reply[0].dtype != np.uint8:
            self.discard()
            return None
        return reply[0]

    def discard(self) -> None:
        """Stop a worker that failed or may be out of step with its requests; start no other."""
        global _disabled
        _disabled = True
        self.alive = False
        self.proc.kill()
        self.stop()

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
    global _disabled
    with _workers_lock:
        _workers[:] = [w for w in _workers if w.alive]
        try:
            while not _disabled and len(_workers) < want:
                _workers.append(_Worker())
        except OSError:
            _disabled = True
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
    want = min(_CPUS, s, size * s // _BREAK_EVEN) - 1
    workers = _idle_workers(want) if want > 0 and not _disabled else []
    if not workers:
        return local(alphas)
    bounds = [s * i // (len(workers) + 1) for i in range(len(workers) + 2)]
    try:
        sent = [w.send(token, state, alphas[lo:hi]) for w, lo, hi in zip(workers, bounds, bounds[1:])]
        mine = local(alphas[bounds[-2] :])
        out = np.empty((s, mine.shape[1]), dtype=np.uint8)
        out[bounds[-2] :] = mine
        for w, ok, lo, hi in zip(workers, sent, bounds, bounds[1:]):
            reply = w.receive((hi - lo, out.shape[1])) if ok else None
            out[lo:hi] = local(alphas[lo:hi]) if reply is None else reply
    finally:
        for w in workers:
            if w.pending:  # interrupted between request and reply
                w.discard()
            w.lock.release()
    return out


def serve() -> None:
    """The worker's loop: answer each request with its votes until EOF on stdin.

    A request is one frame: the weight vectors (S, d), followed, when a new
    predictor's state comes with it, by the queries, the store (d, m), the
    label-1 mask and k. The reply is the (S, n) uint8 votes.
    """
    # Ctrl-C reaches the whole process group; the worker ends with its parent instead.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # frames own stdout; anything else printed goes to stderr
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    requests = sys.stdin.buffer
    from emosam.samknn import _label_ordered, _weighted_votes

    replies.write(_READY)
    replies.flush()
    queries, memory, k = None, None, 0
    try:
        while (frame := _receive(requests)) is not None:
            alphas, *state = frame
            if state:
                queries, memory_t, positive, kk = state
                memory, k = _label_ordered(memory_t.T, positive), int(kk)
            _send(replies, [_weighted_votes(queries, memory, k, alphas)])
    except (EOFError, BrokenPipeError):
        pass


if __name__ == "__main__":
    serve()
