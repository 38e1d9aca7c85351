"""Design-space exploration: estimate every candidate architecture, extract Pareto set.

:meth:`DesignSpaceExplorer.explore` has one evaluation path per space size.
Below :data:`STREAM_AUTO_THRESHOLD` candidates the columnar engine
(:mod:`repro.dse.engine`) materializes the enumerated space as a shared
NumPy :class:`~repro.architecture.enumeration.ArchitectureTable`, evaluates
areas and throughput vectorized per (window, split) group, applies
constraints as array masks, and extracts the Pareto frontier from the
objective columns.  At or above it the chunked engine
(:mod:`repro.dse.stream`) folds bounded-row chunks into a streaming
frontier.  Both accept every throughput backend; one that overrides a
per-row hook is costed through a row-loop adapter
(:func:`~repro.dse.engine.batch_backend`).
"""

from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_front, pareto_indices, is_dominated
from repro.dse.constraints import DseConstraints
from repro.dse.engine import (ColumnarExploration, explore_columnar,
                              supports_columnar)
from repro.dse.stream import (DEFAULT_CHUNK_ROWS, STREAM_AUTO_THRESHOLD,
                              SpaceChunk, StreamingExploration,
                              StreamingFrontier, explore_stream, plan_chunks,
                              reset_stream_stats, stream_stats)
from repro.dse.explorer import DesignSpaceExplorer, ExplorationResult, ConeCharacterization

__all__ = [
    "DesignPoint",
    "pareto_front",
    "pareto_indices",
    "is_dominated",
    "DseConstraints",
    "ColumnarExploration",
    "explore_columnar",
    "supports_columnar",
    "DEFAULT_CHUNK_ROWS",
    "STREAM_AUTO_THRESHOLD",
    "SpaceChunk",
    "StreamingExploration",
    "StreamingFrontier",
    "explore_stream",
    "plan_chunks",
    "reset_stream_stats",
    "stream_stats",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "ConeCharacterization",
]
