"""Per-key change stamps, so a checkpoint record holds only what changed.

A store that is journaled record by record (the cookie jar, the fault
plan's counters and streaks, the circuit breakers) stamps each key it
changes with a counter that every change advances.  A record notes the
:attr:`ChangeStamps.version` it was written at; the next one holds just
the keys :meth:`ChangeStamps.changed_since` names.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, TypeVar

K = TypeVar("K", bound=Hashable)


class ChangeStamps(Generic[K]):
    """The version of each key's last change, and the latest version."""

    __slots__ = ("version", "_stamps")

    def __init__(self) -> None:
        self.version = 0
        #: key -> version of its last change, in first-stamp order.
        self._stamps: Dict[K, int] = {}

    def stamp(self, key: K) -> None:
        """Note a change to ``key``."""
        self.version += 1
        self._stamps[key] = self.version

    def advance(self) -> int:
        """Note a change that is no one key's (a removal); returns its
        version."""
        self.version += 1
        return self.version

    def discard(self, key: K) -> None:
        """Forget ``key`` (it left the store)."""
        self._stamps.pop(key, None)

    def clear(self) -> None:
        """Forget every key (the store was emptied)."""
        self._stamps.clear()

    def changed_since(self, since: int) -> List[K]:
        """The keys changed after version ``since``, in the order they
        were first stamped."""
        return [key for key, stamp in self._stamps.items() if stamp > since]
