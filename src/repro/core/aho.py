"""Aho-Corasick multi-pattern string matching.

The candidate token set easily reaches thousands of strings per persona
(every PII surface form under every transform chain), and every one of them
must be searched for in every request URL, header and payload.  Scanning
with ``token in text`` per token is quadratic in practice; an Aho-Corasick
automaton finds all occurrences of all tokens in a single pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

Payload = TypeVar("Payload")


@dataclass(frozen=True)
class Match(Generic[Payload]):
    """One pattern occurrence: ``text[start:end] == pattern``."""

    start: int
    end: int
    pattern: str
    payload: Payload


class _Node:
    __slots__ = ("children", "fail", "outputs")

    def __init__(self) -> None:
        self.children: Dict[str, "_Node"] = {}
        self.fail: Optional["_Node"] = None
        self.outputs: List[Tuple[str, object]] = []


class AhoCorasick(Generic[Payload]):
    """Multi-pattern matcher; add patterns, ``build()``, then search."""

    def __init__(self) -> None:
        self._root = _Node()
        self._built = False
        self._count = 0

    def add(self, pattern: str, payload: Payload) -> None:
        """Register a pattern with an arbitrary payload.

        Adding after :meth:`build` invalidates the automaton; it is rebuilt
        lazily on the next search.
        """
        if not pattern:
            raise ValueError("empty pattern")
        node = self._root
        for char in pattern:
            node = node.children.setdefault(char, _Node())
        node.outputs.append((pattern, payload))
        self._built = False
        self._count += 1

    def build(self) -> None:
        """Compute failure links (BFS over the trie)."""
        queue: deque = deque()
        self._root.fail = self._root
        for child in self._root.children.values():
            child.fail = self._root
            queue.append(child)
        while queue:
            node = queue.popleft()
            for char, child in node.children.items():
                queue.append(child)
                fail = node.fail
                while fail is not self._root and char not in fail.children:
                    fail = fail.fail
                child.fail = fail.children.get(char, self._root)
                if child.fail is child:
                    child.fail = self._root
                child.outputs = child.outputs + child.fail.outputs
        self._built = True

    def iter_matches(self, text: str) -> Iterator[Match[Payload]]:
        """Yield every occurrence of every pattern in ``text``."""
        if not self._built:
            self.build()
        node = self._root
        for index, char in enumerate(text):
            while node is not self._root and char not in node.children:
                node = node.fail
            node = node.children.get(char, self._root)
            for pattern, payload in node.outputs:
                yield Match(start=index - len(pattern) + 1, end=index + 1,
                            pattern=pattern, payload=payload)

    def find_all(self, text: str) -> List[Match[Payload]]:
        """All matches as a list."""
        return list(self.iter_matches(text))

    def contains_any(self, text: str) -> bool:
        """Whether any pattern occurs in ``text`` (early exit)."""
        for _ in self.iter_matches(text):
            return True
        return False

    def __len__(self) -> int:
        return self._count
