"""Consistent-hash ring: stable digest -> node routing with virtual nodes.

The gateway routes every job by its content digest over this ring, so a
re-submitted job lands on the node whose result cache already holds it, and
adding or removing one node remaps only ~1/N of the key space (instead of
reshuffling everything, as modulo hashing would).

Each member is projected onto the ring at ``replicas`` points (virtual
nodes), which evens out the per-node share of the key space; lookups walk
clockwise from the key's own ring position and may *exclude* members (the
gateway passes its suspect/dead set), giving failover-by-construction: the
keys of an excluded node fall through to the next node on the ring, and only
those keys move.

Everything is deterministic — positions are SHA-256 over ``node_id#replica``
and keys hash the same way on every process — so two gateways with the same
membership route identically.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable

__all__ = ["HashRing"]


def _position(text: str) -> int:
    """Ring coordinate of ``text``: the first 8 bytes of its SHA-256."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A consistent-hash ring over opaque member ids.  Not thread-safe —
    the gateway serializes access under its own lock."""

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: list[int] = []  # sorted ring coordinates
        self._owners: dict[int, str] = {}  # coordinate -> member id
        self._members: set[str] = set()

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def members(self) -> list[str]:
        return sorted(self._members)

    def add(self, member: str) -> None:
        """Add a member (idempotent); remaps ~1/N of the key space to it."""
        if member in self._members:
            return
        self._members.add(member)
        for replica in range(self.replicas):
            point = _position(f"{member}#{replica}")
            # SHA-256 collisions on 64-bit prefixes are not a practical
            # concern, but first-add-wins keeps the ring deterministic
            # regardless of insertion order if one ever happened.
            if point not in self._owners:
                self._owners[point] = member
                bisect.insort(self._points, point)

    def remove(self, member: str) -> None:
        """Remove a member (idempotent); only its keys move."""
        if member not in self._members:
            return
        self._members.discard(member)
        for replica in range(self.replicas):
            point = _position(f"{member}#{replica}")
            if self._owners.get(point) == member:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                if index < len(self._points) and self._points[index] == point:
                    del self._points[index]

    def route(self, key: str, exclude: Iterable[str] = ()) -> str | None:
        """The member owning ``key``, skipping ``exclude``; ``None`` if empty.

        Walks clockwise from the key's ring position, so excluding a member
        (the gateway's suspect/dead set) hands exactly that member's keys to
        their ring successors and leaves every other assignment untouched.
        """
        excluded = set(exclude)
        if not self._points or not (self._members - excluded):
            return None
        start = bisect.bisect_right(self._points, _position(key))
        for offset in range(len(self._points)):
            point = self._points[(start + offset) % len(self._points)]
            owner = self._owners[point]
            if owner not in excluded:
                return owner
        return None
