import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from emosam import kernel_workers, samknn
from emosam.samknn import FrozenChunkPredictor
from emosam.stream import Chunk


def make_chunk(features, groups, labels, index: int = 1) -> Chunk:
    return Chunk(
        np.asarray(features, dtype=np.float64),
        np.asarray(groups, dtype=np.uint8),
        np.asarray(labels, dtype=np.uint8),
        index,
    )


def predict_one(bank, query, alpha) -> int:
    """One query's label under one weight vector, through a one-row predictor."""
    return int(FrozenChunkPredictor(np.reshape(query, (1, -1)), bank).predict(alpha)[0])


def version_3_snapshot(blob: bytes) -> bytes:
    """A bank snapshot rewritten in the version-3 layout, resealed.

    Version 3 held a group byte per stored point between each store's
    features and labels; these are written as 0.
    """
    head = 4 + struct.calcsize(samknn._SNAPSHOT_HEAD)
    fields = list(struct.unpack(samknn._SNAPSHOT_HEAD, blob[4:head]))
    dim, at = fields[1], head + 3 * 16
    fields[0] = 3
    parts = [blob[:4], struct.pack(samknn._SNAPSHOT_HEAD, *fields), blob[head:at]]
    for _ in range(2):
        (n,) = struct.unpack("<I", blob[at : at + 4])
        labels_at = at + 4 + 8 * n * dim
        parts += [blob[at:labels_at], bytes(n), blob[labels_at : labels_at + n]]
        at = labels_at + n
    body = b"".join(parts) + blob[at:-4]
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(autouse=True)
def one_usable_cpu(monkeypatch):
    """Every kernel call and window absorb stays in the test process, whole.

    Tests that patch the kernel or its helpers (``_weighted_votes``,
    ``_screen_planes``, ``_exact_votes``, ``_BLOCK_ELEMENTS``) must see
    every weight vector a call scores, and tests that patch the absorb's
    helpers (``_band_plane``, ``_pair_sums``, ``_screen_margin``,
    ``_BLOCK_ELEMENTS``) every window row it absorbs: a worker process runs
    its own, unpatched copy. Tests of the split set ``kernel_workers._CPUS``
    again themselves.
    """
    monkeypatch.setattr(kernel_workers, "_CPUS", 1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_chunk(rng):
    n, d = 60, 4
    return make_chunk(rng.random((n, d)), rng.integers(0, 2, n), rng.integers(0, 2, n))
