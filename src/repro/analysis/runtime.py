"""Runtime store-phase-discipline instrumentation (the dynamic checker
half).

The static rules (:mod:`repro.analysis.rules`) catch *syntactic*
bypasses — a store call outside ``_store_call``, a memo poked around its
helpers.  They cannot see a dynamically constructed call path or a
third-party driver.  This module catches those at run time: it wraps a
store's ``lock`` with an owner-tracking shim and replaces the store's
plain ``dict``/``list``/``set`` attributes with **owner-asserting
proxies** that raise :class:`LockDisciplineError` the moment any code
touches them without holding the store lock.

The discipline enforced is the transport contract: *every access to
store state happens inside ``store.lock``* (held by
:meth:`repro.cdss.participant.Participant._store_call`, by the
confederation facade around snapshot/restore reads, and by the fault
controller around lifecycle actions).  A confederation is driven from
one thread, so the lock is never contended; what it marks is the store
phase, the bracket the latency and perf accounting read.  A store touch
outside it — a peek between two awaits of the async scheduler, a
dynamically built call path the static rules cannot see — raises on
its first execution, deterministically.

Usage (tests / CI)::

    from repro.analysis.runtime import lock_discipline

    with Confederation(config, hooks=hooks) as confed:
        with lock_discipline(confed.store):
            confed.run()          # LockDisciplineError on any bypass

Instrumentation is shallow (only containers directly on the store
object) and reversible — on exit the raw containers and the original
lock are restored, so post-run reporting and benchmarks read unwrapped
state.
"""

from __future__ import annotations

import threading
from collections.abc import MutableMapping, MutableSequence, MutableSet
from contextlib import contextmanager
from typing import Iterable, List


class LockDisciplineError(RuntimeError):
    """Store state was touched outside a store phase (the store lock
    was not held)."""


class InstrumentedRLock:
    """A reentrant lock shim that knows its current owner.

    Wraps the store's real ``RLock``; ownership bookkeeping happens
    while the inner lock is held, so reads from other threads can never
    observe *their own* thread id spuriously — ``held()`` is exact for
    the asking thread, which is the only question the proxies ask.
    """

    def __init__(self, inner: threading.RLock) -> None:
        self._inner = inner
        self._owner: int = 0
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the inner lock, recording this thread as the owner."""
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            self._depth += 1
        return acquired

    def release(self) -> None:
        """Release the inner lock, clearing ownership at depth zero."""
        self._depth -= 1
        if self._depth == 0:
            self._owner = 0
        self._inner.release()

    def __enter__(self) -> "InstrumentedRLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def held(self) -> bool:
        """True when the calling thread currently holds the lock."""
        return self._owner == threading.get_ident()


class _Guarded:
    """Shared assertion for the container proxies."""

    __slots__ = ("_inner", "_lock", "_label")

    def __init__(self, inner, lock: InstrumentedRLock, label: str) -> None:
        self._inner = inner
        self._lock = lock
        self._label = label

    @property
    def raw(self):
        """The unwrapped container (for uninstrumenting)."""
        return self._inner

    def _assert_held(self) -> None:
        if not self._lock.held():
            raise LockDisciplineError(
                f"unsynchronized access to {self._label} from thread "
                f"{threading.current_thread().name!r}: the store lock is "
                f"not held — route store access through "
                f"Participant._store_call or take store.lock explicitly"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Guarded({self._label}={self._inner!r})"


class GuardedMapping(_Guarded, MutableMapping):
    """A dict proxy asserting lock ownership on every operation."""

    def __getitem__(self, key):
        self._assert_held()
        return self._inner[key]

    def __setitem__(self, key, value) -> None:
        self._assert_held()
        self._inner[key] = value

    def __delitem__(self, key) -> None:
        self._assert_held()
        del self._inner[key]

    def __iter__(self):
        self._assert_held()
        return iter(self._inner)

    def __len__(self) -> int:
        self._assert_held()
        return len(self._inner)

    def __contains__(self, key) -> bool:
        self._assert_held()
        return key in self._inner


class GuardedSequence(_Guarded, MutableSequence):
    """A list proxy asserting lock ownership on every operation."""

    def __getitem__(self, index):
        self._assert_held()
        return self._inner[index]

    def __setitem__(self, index, value) -> None:
        self._assert_held()
        self._inner[index] = value

    def __delitem__(self, index) -> None:
        self._assert_held()
        del self._inner[index]

    def __len__(self) -> int:
        self._assert_held()
        return len(self._inner)

    def insert(self, index, value) -> None:
        """``list.insert`` under the ownership assertion."""
        self._assert_held()
        self._inner.insert(index, value)


class GuardedSet(_Guarded, MutableSet):
    """A set proxy asserting lock ownership on every operation."""

    @classmethod
    def _from_iterable(cls, iterable):
        # The abc mixins build set-algebra results (``a - b``, ``a | b``)
        # through this hook; those results are fresh locals, not store
        # state, so they come back as plain sets.
        return set(iterable)

    def __contains__(self, value) -> bool:
        self._assert_held()
        return value in self._inner

    def __iter__(self):
        self._assert_held()
        return iter(self._inner)

    def __len__(self) -> int:
        self._assert_held()
        return len(self._inner)

    def add(self, value) -> None:
        """``set.add`` under the ownership assertion."""
        self._assert_held()
        self._inner.add(value)

    def discard(self, value) -> None:
        """``set.discard`` under the ownership assertion."""
        self._assert_held()
        self._inner.discard(value)


_PROXY_TYPES = {dict: GuardedMapping, list: GuardedSequence, set: GuardedSet}


class StoreInstrumentation:
    """The handle :func:`instrument_store` returns; restores on close."""

    def __init__(self, store, lock: InstrumentedRLock, wrapped: List[str]) -> None:
        self.store = store
        self.lock = lock
        self.wrapped = wrapped
        self._original_lock = lock._inner
        self._active = True

    def restore(self) -> None:
        """Unwrap every proxied attribute and restore the original lock."""
        if not self._active:
            return
        self._active = False
        for name in self.wrapped:
            value = getattr(self.store, name, None)
            if isinstance(value, _Guarded):
                setattr(self.store, name, value.raw)
        self.store.lock = self._original_lock


def instrument_store(store, skip: Iterable[str] = ()) -> StoreInstrumentation:
    """Wrap ``store``'s lock and container attributes with asserting
    proxies; returns the handle whose ``restore()`` undoes it.

    Only attributes whose value is *exactly* ``dict``/``list``/``set``
    are wrapped (richer objects like ``PerfCounters`` or the shared
    :class:`~repro.core.cache.ConflictGraph` are mutated only through
    their own methods).  ``skip`` names attributes to leave untouched.
    """
    lock = InstrumentedRLock(store.lock)
    store.lock = lock
    skip_set = set(skip)
    wrapped: List[str] = []
    for name, value in sorted(vars(store).items()):
        if name in skip_set or name == "lock":
            continue
        proxy_type = _PROXY_TYPES.get(type(value))
        if proxy_type is None:
            continue
        label = f"{type(store).__name__}.{name}"
        setattr(store, name, proxy_type(value, lock, label))
        wrapped.append(name)
    return StoreInstrumentation(store, lock, wrapped)


@contextmanager
def lock_discipline(store, skip: Iterable[str] = ()):
    """Context manager: instrument ``store`` for the block, restore after.

    Yields the :class:`StoreInstrumentation` handle (its ``wrapped``
    list names the guarded attributes, useful in tests).
    """
    handle = instrument_store(store, skip=skip)
    try:
        yield handle
    finally:
        handle.restore()


__all__ = [
    "GuardedMapping",
    "GuardedSequence",
    "GuardedSet",
    "InstrumentedRLock",
    "LockDisciplineError",
    "StoreInstrumentation",
    "instrument_store",
    "lock_discipline",
]
