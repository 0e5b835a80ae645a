"""Aho-Corasick multi-pattern string matching.

The candidate token set easily reaches thousands of strings per persona
(every PII surface form under every transform chain), and every one of them
must be searched for in every request URL, header and payload.  Scanning
with ``token in text`` per token is quadratic in practice; an Aho-Corasick
automaton finds all occurrences of all tokens in a single pass.

The automaton is stored as a few flat tables of plain ints, not as one
Python object per trie state.  The default persona's 3,478 tokens span
176,080 characters, so the trie has about 170k states; a per-state node
with its own child ``dict`` and output ``list`` left about 500k
GC-tracked objects on the heap for as long as the token set lived, and
every later collection of the study walked them.  The layout:

* **Transitions** — one ``dict`` from ``state << 21 | ord(char)`` to the
  child state.  The key is exact because every code point is below
  ``0x110000 < 2**21``.
* **Build bookkeeping** — ``array('q')`` tables, 64-bit on every platform
  because keys outgrow 32 bits past 1,024 states: the transition key
  that created each state (its parent and character), the states at
  each depth in creation order, and (after :meth:`build`) each state's
  failure link.  :meth:`build` visits the states depth by depth, so
  every failure target is final before it is used.
* **Outputs** — the ``(pattern, payload)`` pairs in insertion order, and
  one ``dict`` from state to a tuple of pattern indices, holding only the
  states that report a match.

A ``dict`` or ``array`` of ints is a single object to the collector,
whatever its size, so the whole automaton costs a handful of tracked
objects plus one tuple per pattern.  Scanning pays for it: a probe
into the one large transition ``dict`` costs more than one into a small
per-node ``dict``, so a scan takes about twice as long as with node
objects — milliseconds per study, against the build's GC savings.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Generic, Iterator, List, Tuple, TypeVar

Payload = TypeVar("Payload")


@dataclass(frozen=True)
class Match(Generic[Payload]):
    """One pattern occurrence: ``text[start:end] == pattern``."""

    start: int
    end: int
    pattern: str
    payload: Payload


class AhoCorasick(Generic[Payload]):
    """Multi-pattern matcher; add patterns, ``build()``, then search.

    States are ints; state 0 is the root.
    """

    def __init__(self) -> None:
        self._goto: Dict[int, int] = {}
        # The transition key that created each state, the states at each
        # depth (in creation order) and, once built, each failure link.
        self._key = array("q", [0])
        self._levels: List[array] = [array("q", [0])]
        self._fail = array("q")
        self._patterns: List[Tuple[str, Payload]] = []
        # Own patterns of each terminal state; after build, every state
        # that reports a match maps to its own patterns followed by those
        # of its failure state.
        self._own: Dict[int, Tuple[int, ...]] = {}
        self._outputs: Dict[int, Tuple[int, ...]] = {}
        self._built = False

    def add(self, pattern: str, payload: Payload) -> None:
        """Register a pattern with an arbitrary payload.

        Adding after :meth:`build` invalidates the automaton; it is rebuilt
        lazily on the next search.
        """
        if not pattern:
            raise ValueError("empty pattern")
        goto = self._goto
        key_of = self._key
        levels = self._levels
        while len(levels) <= len(pattern):
            levels.append(array("q"))
        state = 0
        for depth, char in enumerate(pattern, 1):
            key = state << 21 | ord(char)
            child = goto.get(key)
            if child is None:
                child = goto[key] = len(key_of)
                key_of.append(key)
                levels[depth].append(child)
            state = child
        self._own[state] = self._own.get(state, ()) + (len(self._patterns),)
        self._patterns.append((pattern, payload))
        self._built = False

    def build(self) -> None:
        """Compute failure links and merged outputs, shallowest state first.

        A state's outputs are its own patterns in insertion order followed
        by its failure state's outputs, so the matches ending at one
        position come out longest first, equal patterns in insertion order.
        """
        goto = self._goto
        key_of = self._key
        own = self._own
        fail = array("q", [0]) * len(key_of)
        outputs = dict(own)
        for level in self._levels[2:]:
            for state in level:
                key = key_of[state]
                char = key & 0x1FFFFF
                probe = fail[key >> 21]
                while True:
                    target = goto.get(probe << 21 | char)
                    if target is not None:
                        break
                    if not probe:
                        target = 0
                        break
                    probe = fail[probe]
                fail[state] = target
                inherited = outputs.get(target)
                if inherited:
                    outputs[state] = own.get(state, ()) + inherited
        self._fail = fail
        self._outputs = outputs
        self._built = True

    def iter_matches(self, text: str) -> Iterator[Match[Payload]]:
        """Yield every occurrence of every pattern in ``text``."""
        if not self._built:
            self.build()
        goto = self._goto
        fail = self._fail
        outputs = self._outputs
        patterns = self._patterns
        state = 0
        for index, code in enumerate(map(ord, text)):
            while True:
                found = goto.get(state << 21 | code)
                if found is not None:
                    state = found
                    break
                if not state:
                    break
                state = fail[state]
            hits = outputs.get(state)
            if hits:
                for hit in hits:
                    pattern, payload = patterns[hit]
                    yield Match(start=index - len(pattern) + 1,
                                end=index + 1, pattern=pattern,
                                payload=payload)

    def find_all(self, text: str) -> List[Match[Payload]]:
        """All matches as a list."""
        return list(self.iter_matches(text))

    def contains_any(self, text: str) -> bool:
        """Whether any pattern occurs in ``text`` (early exit)."""
        for _ in self.iter_matches(text):
            return True
        return False

    def __len__(self) -> int:
        return len(self._patterns)
