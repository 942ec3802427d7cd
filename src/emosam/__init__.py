"""Fairness-aware stream classification.

A dual-memory nearest-neighbor classifier whose per-feature distance weights
are re-searched by a multi-objective particle swarm whenever a smoothed trend
of recent discrimination rises past a threshold. Includes a plain unweighted
baseline, a prequential evaluation harness, a biased synthetic stream
generator, and a CSV ingestion path for real datasets.
"""

from .engine import (
    EmosamEngine,
    EngineConfig,
    InitMode,
    ParetoSolution,
    RunResult,
    RunSummary,
    SelectionStrategy,
    TriggerPolicy,
    optimize_weights,
    run_sam_baseline,
    run_stream,
)
from .experiments import (
    DESK_PRESET,
    ExperimentSpec,
    apply_desk_preset,
    compare_ablations,
    load_chunks,
    run_experiment,
)
from .metrics import DiscriminationResult, WindowRecord, accuracy, discrimination
from .samknn import FrozenChunkPredictor, MemoryBank
from .smpso import (
    Archive,
    ArchiveEntry,
    ObjectivePair,
    SmpsoParams,
    crowding_distance,
    dominates,
    knee_index,
    smpso_minimize,
)
from .stream import (
    BiasStreamConfig,
    Chunk,
    GroupRates,
    IngestResult,
    StreamManifest,
    chunk_arrays,
    dataset_discrimination,
    generate_bias_stream,
    ingest,
    manifest_for_generated,
    write_stream_csv,
)
from .trend import (
    DiscriminationHistory,
    HPDecomposition,
    hp_filter,
    should_trigger_every,
    should_trigger_hp,
    should_trigger_previous,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EmosamEngine",
    "EngineConfig",
    "InitMode",
    "ParetoSolution",
    "RunResult",
    "RunSummary",
    "SelectionStrategy",
    "TriggerPolicy",
    "run_sam_baseline",
    "run_stream",
    "DESK_PRESET",
    "ExperimentSpec",
    "apply_desk_preset",
    "compare_ablations",
    "load_chunks",
    "run_experiment",
    "DiscriminationResult",
    "WindowRecord",
    "accuracy",
    "discrimination",
    "FrozenChunkPredictor",
    "MemoryBank",
    "Archive",
    "ArchiveEntry",
    "ObjectivePair",
    "SmpsoParams",
    "crowding_distance",
    "dominates",
    "knee_index",
    "optimize_weights",
    "smpso_minimize",
    "BiasStreamConfig",
    "Chunk",
    "GroupRates",
    "IngestResult",
    "StreamManifest",
    "chunk_arrays",
    "dataset_discrimination",
    "generate_bias_stream",
    "ingest",
    "manifest_for_generated",
    "write_stream_csv",
    "DiscriminationHistory",
    "HPDecomposition",
    "hp_filter",
    "should_trigger_every",
    "should_trigger_hp",
    "should_trigger_previous",
]
