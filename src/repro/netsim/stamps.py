"""Per-key bookkeeping that stores share: change stamps and memos.

A store that is journaled record by record (the cookie jar, the fault
plan's counters and streaks, the circuit breakers) stamps each key it
changes with a counter that every change advances.  A record notes the
:attr:`ChangeStamps.version` it was written at; the next one holds just
the keys :meth:`ChangeStamps.changed_since` names.

A part that repeats across exchanges (a header field, a header block, a
page's context, a reply) is built once per key and shared through a
:class:`Memo`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Hashable, List, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


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


class Memo(Dict[K, V]):
    """One shared value per key, for at most ``limit`` keys.

    A value handed out is shared by everyone who asks for its key, so it
    must be read-only.  When full the memo starts over, which changes
    which objects are shared, never a value.  ``None`` reads as a miss,
    so it cannot be memoised.
    """

    __slots__ = ("limit",)

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def get_or_build(self, key: K, build: Callable[..., V],
                     *args: Any) -> V:
        """The value for ``key``, built by ``build(*args)`` on a miss."""
        value = self.get(key)
        if value is None:
            value = self._store(key, build(*args))
        return value

    def intern(self, value: Any) -> Any:
        """``value``, or the equal value handed out before it."""
        shared = self.get(value)
        if shared is None:
            shared = self._store(value, value)
        return shared

    def _store(self, key: K, value: V) -> V:
        if len(self) >= self.limit:
            self.clear()
        self[key] = value
        return value
