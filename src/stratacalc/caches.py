"""The one owner of every memo in the library.

A memo is a ``Memo``, a plain dict created here under a name.  The owner
can count every memo (``stats``) and empty it (``clear``).  Reads and
inserts are ordinary dict operations with no extra call, so a memo costs
what it did before the owner existed.  Memos that belong to an object,
such as the integral memo of each ``Evaluator``, are registered weakly
and vanish from ``stats`` with their object.

Memos are unbounded: every workload so far sees a small set of strata.
The library is single-threaded and the owner takes no lock.
"""
from __future__ import annotations

import weakref

_memos: dict[str, weakref.WeakValueDictionary] = {}


class Memo(dict):
    """A registered memo; a dict that can be referenced weakly."""

    __slots__ = ("__weakref__",)


def memo(name: str) -> Memo:
    """A new empty memo, registered under ``name``.  Several memos may share
    a name (one per evaluator, say); ``stats`` adds their entries up."""
    m = Memo()
    _memos.setdefault(name, weakref.WeakValueDictionary())[id(m)] = m
    return m


def stats() -> dict[str, int]:
    """Entries per memo name, for every name registered so far."""
    return {name: sum(len(m) for m in list(group.values()))
            for name, group in sorted(_memos.items())}


def clear() -> None:
    """Empty every memo.  Results computed afterwards are the same; they
    are only computed again."""
    for group in _memos.values():
        for m in list(group.values()):
            m.clear()
