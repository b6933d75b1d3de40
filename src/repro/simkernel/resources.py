"""Synchronization primitives built on the event kernel.

* :class:`Store` -- an unbounded FIFO buffer of items with blocking gets.
* :class:`Mailbox` -- a :class:`Store` whose gets can filter on a
  predicate; this is the substrate for simulated MPI message matching
  (source / tag / communicator).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.engine import Simulator


class _Get(Event):
    """Pending retrieval from a :class:`Store` / :class:`Mailbox`."""

    __slots__ = ("predicate",)

    def __init__(self, sim: "Simulator",
                 predicate: Optional[Callable[[Any], bool]]) -> None:
        super().__init__(sim)
        self.predicate = predicate

    def matches(self, item: Any) -> bool:
        return self.predicate is None or self.predicate(item)


class Store:
    """Unbounded FIFO buffer with blocking gets.

    ``put`` never blocks; ``get`` returns an event that fires with the
    oldest item once one is available.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[_Get] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item`` and wake a matching waiter, if any."""
        self._items.append(item)
        self._dispatch()

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        getter = _Get(self.sim, None)
        self._getters.append(getter)
        self._dispatch()
        return getter

    def _dispatch(self) -> None:
        while self._getters and self._items:
            matched = self._match()
            if matched is None:
                return
            getter, item = matched
            self._getters.remove(getter)
            self._items.remove(item)
            getter.succeed(item)

    def _match(self) -> Optional[tuple[_Get, Any]]:
        """First (getter, item) pair that matches, in getter FIFO order."""
        for getter in self._getters:
            for item in self._items:
                if getter.matches(item):
                    return getter, item
        return None


class Mailbox(Store):
    """A :class:`Store` supporting predicate-filtered gets.

    Used by the simulated MPI layer: a receive posts a get whose predicate
    checks (source, tag, communicator) against queued message envelopes.
    Messages that match no pending receive stay queued ("unexpected
    message queue" in MPI parlance).
    """

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Return an event firing with the oldest item matching ``predicate``."""
        getter = _Get(self.sim, predicate)
        self._getters.append(getter)
        self._dispatch()
        return getter

    def peek_count(self, predicate: Optional[Callable[[Any], bool]] = None) -> int:
        """Number of queued items matching ``predicate`` (non-blocking)."""
        if predicate is None:
            return len(self._items)
        return sum(1 for item in self._items if predicate(item))
