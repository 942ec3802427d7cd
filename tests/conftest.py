import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_chunk(rng):
    n, d = 60, 4
    return make_chunk(rng.random((n, d)), rng.integers(0, 2, n), rng.integers(0, 2, n))
