"""The store-owned memo of uncertain-aggregation inputs.

A ``conf()``/``aconf()``/``tconf()``/``esum``/``ecount`` statement
evaluates its FROM/WHERE body through the parsimonious translation and
projects it onto the grouping and argument columns: the *prepared*
U-relation the aggregates of :mod:`repro.core.aggregates` consume.  Over
unchanged tables, a repeat of the statement would rebuild exactly the
same relation.  The memo keeps it instead, so the repeat skips the body,
and -- because the aggregates cache their grouping, lineages, marginals
and exact answers on the relation they receive
(:meth:`~repro.engine.relation.Relation.derived_cache`) -- skips lineage
building and confidence dispatch too.

An entry is filed under a *fingerprint* (the printed parsed query, the
registry, the session's dispatch policy and seed) and validated by the
*versions* it was computed at: ``(name, table uid, table version)`` per table the
query reads, plus the registry's non-append mutation counter.  The
executor takes the versions from the statement's MVCC pinned set when it
has one, so a reader pinned at vN files what it computed under vN even
while a writer commits vN+1.  Any write bumps a version, so invalidation
is implicit: the next lookup misses and replaces the entry.  Each
fingerprint has at most one entry, and at most :data:`MAX_ENTRIES`
fingerprints are kept (least recently used first out).

The mutex is a leaf: it guards dictionary operations only and is never
held while a statement evaluates.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

from repro.engine import sanitizer as _sanitizer

#: Most statement fingerprints one store remembers.
MAX_ENTRIES = 32

#: ``((table name, table uid, version), ...)`` sorted by name, followed
#: by the registry's non-append mutation counter.
Versions = Tuple[Any, ...]


class AggregationMemo:
    """Fingerprint -> (versions, prepared aggregation input)."""

    def __init__(self) -> None:
        self._mutex = _sanitizer.wrap_lock("AggregationMemo._mutex")
        self._entries: "OrderedDict[Hashable, Tuple[Versions, Any]]" = OrderedDict()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(self, fingerprint: Hashable, versions: Versions) -> Optional[Any]:
        """The value filed under ``fingerprint`` at exactly ``versions``."""
        with self._mutex:
            entry = self._entries.get(fingerprint)
            if entry is None or entry[0] != versions:
                return None
            self._entries.move_to_end(fingerprint)
            return entry[1]

    def put(self, fingerprint: Hashable, versions: Versions, value: Any) -> None:
        """File ``value``, replacing the fingerprint's entry -- unless that
        entry is strictly newer (a reader pinned at an old version must
        not evict the answer for the current one)."""
        with self._mutex:
            current = self._entries.get(fingerprint)
            if current is not None and _older(versions, current[0]):
                return
            self._entries[fingerprint] = (versions, value)
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > MAX_ENTRIES:
                self._entries.popitem(last=False)


def _older(candidate: Versions, current: Versions) -> bool:
    """Same tables (by uid) and registry state, every table at or before
    the current entry's version, and not identical."""
    if candidate == current or len(candidate) != len(current):
        return False
    for new, old in zip(candidate[:-1], current[:-1]):
        if new[:2] != old[:2] or new[2] > old[2]:
            return False
    return candidate[-1] == current[-1]
