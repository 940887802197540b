"""Shared, memoized link-spec snapshot used by every simulation engine.

The scalar core (:mod:`repro.network.lockstep_engine`) and the
vectorized engine (:mod:`repro.network.lockstep_vec`) need the same
per-link data — bandwidth, latency, channel capacity — in a form cheaper
than tuple-keyed dictionary lookups; this module is the single copy both
derive from.

Topologies are immutable once built, so :func:`link_table` memoizes the
snapshot on the topology instance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..topology.base import LinkKey, Topology


class LinkTable:
    """Integer-indexed snapshot of a topology's links.

    Maps every :data:`LinkKey` to a dense id so hot loops can use list
    indexing instead of tuple-keyed dictionary lookups.  The scalar
    engines index the plain-list columns (Python ``float``/``int``
    elements keep scalar arithmetic fast); the vectorized engine gathers
    from the ndarray promotions returned by :meth:`arrays`, built lazily
    so topologies used only by scalar engines never pay for numpy.
    """

    __slots__ = ("keys", "id_of", "bandwidth", "latency", "capacity", "_arrays")

    def __init__(self, topology: Topology) -> None:
        links = topology.links
        self.keys: List[LinkKey] = list(links)
        self.id_of: Dict[LinkKey, int] = {
            key: i for i, key in enumerate(self.keys)
        }
        specs = [links[key] for key in self.keys]
        self.bandwidth: List[float] = [spec.bandwidth for spec in specs]
        self.latency: List[float] = [spec.latency for spec in specs]
        self.capacity: List[int] = [spec.capacity for spec in specs]
        self._arrays: Optional[Tuple[object, object, object]] = None

    def arrays(self):
        """``(bandwidth, latency, capacity)`` as float64/float64/int64 ndarrays.

        Conversion from the Python-float columns is exact (the columns
        are already binary64 values), so engines gathering from these
        arrays see bit-identical link parameters.
        """
        if self._arrays is None:
            import numpy as np

            self._arrays = (
                np.asarray(self.bandwidth, dtype=np.float64),
                np.asarray(self.latency, dtype=np.float64),
                np.asarray(self.capacity, dtype=np.int64),
            )
        return self._arrays


def link_table(topology: Topology) -> LinkTable:
    """The memoized :class:`LinkTable` of ``topology``."""
    table = topology.__dict__.get("_link_table")
    if table is None:
        table = topology.__dict__["_link_table"] = LinkTable(topology)
    return table
