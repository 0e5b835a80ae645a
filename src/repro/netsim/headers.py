"""Case-insensitive ordered header multimap (RFC 9110 field semantics)."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Headers:
    """HTTP header collection.

    Lookups are case-insensitive; insertion order and original casing are
    preserved for serialization, and repeated fields (``Set-Cookie``) are
    kept as separate entries.  The fields live in one tuple that every
    edit replaces, so a captured exchange holds no list per header block
    and :meth:`copy` shares the fields instead of duplicating them.  A
    pickle carries only that tuple.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Tuple[str, str]] = ()) -> None:
        self._items: Tuple[Tuple[str, str], ...] = tuple(items)

    def add(self, name: str, value: str) -> None:
        """Append a header field (repeats allowed)."""
        self._items += ((name, value),)

    def set(self, name: str, value: str) -> None:
        """Replace all fields named ``name`` with a single value."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> None:
        """Drop all fields named ``name`` (case-insensitive)."""
        lowered = name.lower()
        self._items = tuple((n, v) for n, v in self._items
                            if n.lower() != lowered)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value for ``name``, or ``default``.  A field named as
        asked matches before any case-folding."""
        lowered = name.lower()
        for n, v in self._items:
            if n == name or n.lower() == lowered:
                return v
        return default

    def get_all(self, name: str) -> List[str]:
        """All values for ``name``, in insertion order."""
        lowered = name.lower()
        return [v for n, v in self._items
                if n == name or n.lower() == lowered]

    def items(self) -> List[Tuple[str, str]]:
        """All (name, value) pairs in insertion order."""
        return list(self._items)

    def copy(self) -> "Headers":
        return Headers(self._items)

    def as_dict(self) -> Dict[str, str]:
        """Lower-cased first-value-wins view (convenience for tests)."""
        out: Dict[str, str] = {}
        for name, value in self._items:
            out.setdefault(name.lower(), value)
        return out

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.get(name) is not None

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __reduce__(self) -> Tuple[type, Tuple[object, ...]]:
        return (Headers, (self._items,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._items == other._items

    def __repr__(self) -> str:
        return "Headers(%r)" % (list(self._items),)
