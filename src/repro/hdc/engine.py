"""One packed/pruned engine cache per binary associative memory.

Every model that searches a 1-bit AM (MEMHD's multi-centroid AM and the
BasicHDC, QuantHD, SearcHD and LeHDC baselines) answers ``engine="packed"``
and ``engine="pruned"`` queries from state derived from that AM: a
:class:`~repro.hdc.packed.PackedAM` mirror and a
:class:`~repro.hdc.pruned.PrunedAM` index over it.  :class:`BinaryAMEngine`
is that derived state.  The owner hands it a callable that packs the
current AM; the engine builds both layers lazily and drops them on
:meth:`BinaryAMEngine.invalidate`, which the owner calls from the one
setter its binary AM is assigned through.  Nothing the engine builds is
checkpointed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.hdc.packed import PackedAM, PackedVectors
from repro.hdc.pruned import PrunedAM

#: Engines a model, pipeline or server can route queries through.
ENGINES = ("float", "packed", "pruned")


def check_engine(engine: str) -> str:
    """Return ``engine`` if it names one of :data:`ENGINES`, else raise."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


class BinaryAMEngine:
    """Lazily built packed mirror and pruned index of one binary AM.

    Parameters
    ----------
    build:
        Zero-argument callable returning the owner's current AM as a
        :class:`PackedAM`.  Called on first use after construction and
        after every :meth:`invalidate`.
    """

    def __init__(self, build: Callable[[], PackedAM]) -> None:
        self._build = build
        self._packed_am: Optional[PackedAM] = None
        self._pruned_am: Optional[PrunedAM] = None
        #: Shortlist width of the pruned engine (None = heuristic default);
        #: kept across rebuilds.
        self.prune_topk: Optional[int] = None

    def invalidate(self) -> None:
        """Drop the packed mirror and pruned index (the AM moved)."""
        self._packed_am = None
        self._pruned_am = None

    def packed(self) -> PackedAM:
        """The bit-packed mirror of the AM (built lazily, cached)."""
        packed_am = self._packed_am
        if packed_am is None:
            packed_am = self._packed_am = self._build()
        return packed_am

    def pruned(self) -> PrunedAM:
        """The centroid-pruned index over :meth:`packed` (cached)."""
        pruned_am = self._pruned_am
        if pruned_am is None:
            pruned_am = PrunedAM(self.packed(), prune_topk=self.prune_topk)
            self._pruned_am = pruned_am
        return pruned_am

    def prepare(self, engine: str = "float") -> None:
        """Build the named engine's state ahead of serving."""
        if check_engine(engine) == "packed":
            self.packed()
        elif engine == "pruned":
            self.pruned()

    def configure_pruning(self, prune_topk: Optional[int]) -> None:
        """Set the pruned engine's shortlist width (None = heuristic)."""
        self.prune_topk = prune_topk
        if self._pruned_am is not None:
            self._pruned_am.prune_topk = prune_topk

    def stats(self) -> Optional[Dict[str, float]]:
        """Prune counters of the pruned index (None before it is built)."""
        pruned_am = self._pruned_am
        return None if pruned_am is None else pruned_am.stats()

    def predict(self, queries: PackedVectors, engine: str) -> np.ndarray:
        """Class labels of packed queries on the ``packed``/``pruned`` engine."""
        if engine == "pruned":
            return self.pruned().predict(queries)
        if engine == "packed":
            return self.packed().predict(queries)
        raise ValueError(f"expected the packed or pruned engine, got {engine!r}")
