"""Fan-out: the one scheduler of each stage's per-item work.

A :class:`Pull` runs ranked items, some made ready as it runs;
:func:`map_bounded` is a Pull over a sequence, ranked by read index, and
:func:`merge_tree` one over batches merged in a tree, ranked by batch; a
:class:`Feed` hands one stage's results to the next stage while the first
one is still producing them. A fan-out of width w runs on the calling
thread and w - 1 helper threads, each taking its own next item as it frees.
A :class:`CallBudget` bounds the model calls (chat sends and embedding
batches) in flight over every fan-out of a run.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional, Sized


def call_slots(stage_workers: int) -> int:
    """The size of a run's :class:`CallBudget`, and the width of each of
    its fan-outs: 1 at one worker, where the stages run one after another,
    else 2 × ``stage_workers``, which one stage may fill while the others
    are idle."""
    return 1 if stage_workers == 1 else 2 * stage_workers


class CallBudget:
    """A run's slots for model calls: a call holds one only while its
    request is in flight, so at most ``size`` calls are out at once over
    every fan-out of the run; ``size`` None bounds nothing and only counts,
    as for the paper-source calls. A caller never waits for anything else
    while it holds a slot, so fan-outs nested in each other cannot deadlock
    on it. ``peak`` is the most slots ever held at once."""

    def __init__(self, size: Optional[int] = None):
        if size is not None and size < 1:
            raise ValueError("a call budget needs at least one slot")
        self.size = size
        self.peak = 0
        self._held = 0
        self._cond = threading.Condition()

    @contextmanager
    def slot(self) -> Iterator[None]:
        with self._cond:
            self._cond.wait_for(lambda: self.size is None or self._held < self.size)
            self._held += 1
            self.peak = max(self.peak, self._held)
        try:
            yield
        finally:
            with self._cond:
                self._held -= 1
                self._cond.notify()


class FeedAborted(Exception):
    """The stage that fills a :class:`Feed` failed; its consumer stops."""


class Feed:
    """Hands one stage's results to the next stage while the first one is
    still producing them.

    The producer puts each item under its index in the producer's own
    result, in any order; the feed's owner then closes it, once every index
    from 0 up has been put, or aborts it. A consumer iterates the feed,
    getting the items in index order, each as soon as it and every earlier
    one are in, or hands it to :func:`map_bounded`, which reads it the same
    way; or it reads the pairs put since those it has seen with
    :meth:`arrivals`, in the order they were put, waiting for one or not.
    Each raises FeedAborted once the feed is aborted.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._arrived: list[tuple[int, Any]] = []
        self._state = "open"  # then "closed" or "aborted", for good
        self._on_close: list[Callable[[list], None]] = []

    def put(self, index: int, item: Any) -> None:
        with self._cond:
            self._arrived.append((index, item))
            self._cond.notify_all()

    @property
    def aborted(self) -> bool:
        return self._state == "aborted"

    def close(self) -> None:
        self._end("closed")

    def abort(self) -> None:
        """End the feed unfinished; a feed already closed stays closed."""
        self._end("aborted")

    def _end(self, state: str) -> None:
        with self._cond:
            if self._state == "open":
                self._state = state
                self._cond.notify_all()
                for fn in self._on_close if state == "closed" else ():
                    self.when_closed(fn)

    def when_closed(self, fn: Callable[[list], None]) -> None:
        """Call ``fn`` with the items in index order once the feed is
        closed: at once if it is, else on the closing thread, in the order
        asked; never once it is aborted. ``fn`` runs under the feed's lock."""
        with self._cond:
            if self._state == "open":
                self._on_close.append(fn)
            elif self._state == "closed":
                fn([item for _, item in sorted(self._arrived, key=lambda pair: pair[0])])

    def arrivals(
        self, seen: int = 0, wait: bool = True, until: Optional[Callable[[], bool]] = None
    ) -> list[tuple[int, Any]]:
        """The (index, item) pairs put after the first ``seen``: if ``wait``,
        once there is one, and empty only once the feed is closed and all
        are seen, or once ``until()``, asked at each put and :meth:`wake`
        under the feed's lock, is true; else at once, perhaps empty."""
        with self._cond:
            if wait:
                self._cond.wait_for(
                    lambda: len(self._arrived) > seen or self._state != "open"
                    or until is not None and until()
                )
            if self._state == "aborted":
                raise FeedAborted()
            return self._arrived[seen:]

    def wake(self) -> None:
        """Have each reader waiting in :meth:`arrivals` ask its ``until``."""
        with self._cond:
            self._cond.notify_all()

    def wait_closed(self) -> None:
        """Wait until the feed is closed; raises FeedAborted once it is aborted."""
        with self._cond:
            self._cond.wait_for(lambda: self._state != "open")
            if self._state == "aborted":
                raise FeedAborted()

    def __iter__(self):
        held: dict[int, Any] = {}
        seen = 0
        for index in itertools.count():
            while index not in held:
                fresh = self.arrivals(seen)
                if not fresh:
                    return
                seen += len(fresh)
                held.update(fresh)
            yield held.pop(index)


def map_bounded(fn: Callable[[Any], Any], items: Iterable[Any], workers: int = 1) -> list[Any]:
    """Apply ``fn`` over ``items`` with at most ``workers`` calls in flight;
    results keep the order the items are read in, so downstream merging
    stays deterministic. The items are a :class:`Pull` ranked by read index,
    and fail like one. A worker reads the next item only once it is free
    for it, so a :class:`Feed` picks each call when that call can start; no
    item is read that could not start. Given a Pull, runs it, ``fn`` taking
    each (rank, item) pair and the results in rank order.
    """
    if isinstance(items, Pull):
        return items._drive(fn, workers)
    if isinstance(items, Sized):
        workers = min(workers, len(items))

    def read():
        for index, item in enumerate(items):
            yield [(index, item)]
            with pulled._cond:
                if not pulled._starts(index + 1):
                    return  # it and every later item rank after a failure

    batches = read()
    # Read only as a worker waits for an item, never ahead of a free slot.
    pulled = Pull(None, (), lambda index: index, lambda wait: next(batches, None) if wait else [])
    return pulled._drive(lambda pair: fn(pair[1]), workers)


class Pull:
    """A fan-out of ranked items: as a worker frees, the ready item lowest
    by ``key(rank)`` starts; the fan-out ends once none is ready, none can
    arrive and none runs. ``ready`` holds the (rank, item) pairs ready at
    the start, and a running call makes one ready with :meth:`push`.
    ``arrivals``, if given, brings the rest: ``arrivals(wait)`` returns a
    list of the pairs arrived since its last call. A free worker first takes
    in those that have arrived, calling it with ``wait`` false, which must
    not wait (a lazy source returns []), and only then chooses; when none
    is ready, it calls it with ``wait`` true, which waits for a list and
    returns None once none can arrive. Ranks are distinct and compare.
    :meth:`run` applies ``fn(rank, item)`` to each and returns the results
    by rank.

    It fails like the 1-worker run, at any width: the first ``workers``
    items always start; after them, an item ranked after a failed one never
    starts; and once the running ones finish, the error of the lowest-ranked
    failure, a KeyboardInterrupt or SystemExit too, is raised. Nothing
    starts after such an interrupt, or once reading ``arrivals`` raises
    (say, FeedAborted), whose error is raised if no item failed; nor once
    ``feed``, if given, is aborted, the feed of the stage the fan-out runs
    in, which an interrupt to another stage aborts: the next item to start
    ends the fan-out with FeedAborted instead. With ``key`` the identity,
    ranks are the order a 1-worker run starts items in.
    """

    def __init__(
        self, fn: Callable, ready: Iterable[tuple], key: Callable, arrivals=None,
        feed: Optional[Feed] = None,
    ):
        self._fn, self._key = fn, key
        self._ready = sorted((key(rank), rank, item) for rank, item in ready)  # a heap
        self._arrivals, self._feed = arrivals, feed
        self._cond = threading.Condition()
        self._reading = threading.Lock()  # held by the one worker taking its next item
        self._workers = self._started = self._running = 0
        self._failed: Optional[tuple[Any, BaseException]] = None  # the lowest-ranked one
        self._halted: Optional[BaseException] = None  # an interrupt, or a failed read
        self._done: dict[Any, Any] = {}

    def push(self, rank: Any, item: Any) -> None:
        with self._cond:
            heapq.heappush(self._ready, (self._key(rank), rank, item))
            self._cond.notify()

    def run(self, workers: int) -> dict[Any, Any]:
        return dict(map_bounded(lambda pair: (pair[0], self._fn(*pair)), self, workers))

    def _drive(self, fn: Callable[[tuple], Any], workers: int) -> list[Any]:
        self._workers = workers
        helpers = [threading.Thread(target=self._work, args=(fn,)) for _ in range(workers - 1)]
        for helper in helpers:
            helper.start()
        self._work(fn)
        for helper in helpers:
            helper.join()
        error = self._failed[1] if self._failed else self._halted
        if error is not None:
            raise error
        return [self._done[rank] for rank in sorted(self._done)]

    def _work(self, fn: Callable[[tuple], Any]) -> None:
        try:
            while (pair := self._take()) is not None:
                try:
                    result, error = fn(pair), None
                except BaseException as exc:
                    result, error = None, exc
                self._finish(pair[0], result, error)
        except BaseException as exc:  # reading ``arrivals`` failed
            with self._cond:
                self._halted = self._halted or exc
                self._cond.notify()

    def _take(self) -> Optional[tuple]:
        """The next (rank, item) to start, or None once none will."""
        with self._reading:
            while True:
                # Read outside the condition, so that calls can finish meanwhile.
                for rank, item in self._arrivals(False) if self._arrivals else ():
                    self.push(rank, item)
                with self._cond:
                    self._cond.wait_for(
                        lambda: self._ready or self._arrivals or not self._running or self._halted
                    )
                    if self._halted is not None:
                        return None
                    if self._ready:
                        _, rank, item = heapq.heappop(self._ready)
                        if self._feed is not None and self._feed.aborted:
                            self._halted = FeedAborted()
                            return None
                        if self._starts(rank):
                            self._started += 1
                            self._running += 1
                            return rank, item
                        continue
                    if self._arrivals is None:
                        return None
                batch = self._arrivals(True)
                if batch is None:
                    self._arrivals = None
                for rank, item in batch or ():
                    self.push(rank, item)

    def _starts(self, rank: Any) -> bool:
        """The one failure rule, under the condition."""
        return self._started < self._workers or self._failed is None or rank < self._failed[0]

    def _finish(self, rank: Any, result: Any, error: Optional[BaseException]) -> None:
        """The one place an item's result, or its failure, is recorded."""
        with self._cond:
            self._running -= 1
            if error is None:
                self._done[rank] = result
            elif self._failed is None or rank < self._failed[0]:
                self._failed = rank, error
            if error is not None and not isinstance(error, Exception):
                self._halted = error
            self._cond.notify()


#: How many earlier batches' results one batch's call takes in
#: :func:`merge_tree`: three levels of calls merge up to 73 batches.
FAN_IN = 8


def tree_children(batch: int, batches: int) -> range:
    """The batches whose results batch ``batch`` of ``batches`` merges in
    :func:`merge_tree`. The batches are a heap in batch order, rooted at
    the last one: heap place p = ``batches`` - 1 - ``batch`` has the
    FAN_IN places from FAN_IN × p + 1 on as its children, so every child
    is an earlier batch."""
    first = (batches - 1 - batch) * FAN_IN + 1
    return range(max(batches - first - FAN_IN, 0), max(batches - first, 0))


def merge_tree(
    step: Callable[[list, list], Any], items: Feed, count: int, size: int, workers: int,
    feed: Feed,
) -> Any:
    """Merge the ``count`` items of ``items`` in batches of ``size``, one
    empty batch if there are none: ``step(batch, merged)`` takes a batch's
    items in index order and the results of its :func:`tree_children` in
    batch order, and the last batch's result is returned.

    The steps are one :class:`Pull` of at most ``workers``, ranked by batch
    index, so a 1-worker run takes the batches in order, and a wider one
    raises its error. A step is ready once its items have arrived on
    ``items`` and its children's steps have returned: a leaf starts as soon
    as its items are in, and the root, the last batch, ends the merge after
    three steps in a row for up to 73 batches. A worker waiting for items
    wakes as a step makes its parent ready, and stops waiting once a step
    has failed and no batch ranked before it waits for an item. ``feed`` is
    the feed of the stage that merges (see :class:`Pull`); an aborted
    ``items`` raises FeedAborted.
    """
    batches = max(1, -(-count // size))
    lock = threading.Lock()
    held: dict[int, Any] = {}  # the items arrived, by index
    merged: dict[int, Any] = {}  # the steps' results, by batch
    due = [len(range(b * size, min(count, b * size + size))) for b in range(batches)]
    # Per batch, its items not yet arrived and its children not yet merged.
    waiting = [due[b] + len(tree_children(b, batches)) for b in range(batches)]
    seen = 0
    first_due = 0  # the first batch with an item not yet arrived
    failed = batches  # the first batch whose step failed, else past the last
    pushes = 0

    def settled(batch: int) -> bool:
        """One of the batch's waits is over; under the lock."""
        waiting[batch] -= 1
        return not waiting[batch]

    def done() -> bool:
        return seen == count or first_due >= failed

    def arrivals(wait: bool) -> Optional[list]:
        nonlocal seen, first_due
        if done():
            return None if wait else []
        now = pushes
        fresh = items.arrivals(seen, wait, lambda: pushes != now or done())
        if wait and not fresh:
            return [] if pushes != now or done() else None  # else closed short of ``count``
        with lock:
            seen += len(fresh)
            held.update(fresh)
            ready = []
            for index, _ in fresh:
                due[index // size] -= 1
                if settled(index // size):
                    ready.append((index // size, None))
            while first_due < batches and not due[first_due]:
                first_due += 1
            return ready

    def merge(batch: int, _) -> Any:
        nonlocal failed, pushes
        first = batch * size
        try:
            result = step(
                [held[i] for i in range(first, min(count, first + size))],
                [merged[child] for child in tree_children(batch, batches)],
            )
        except BaseException:
            with lock:
                failed = min(failed, batch)
            items.wake()
            raise
        place = batches - 1 - batch
        with lock:
            merged[batch] = result
            parent = batches - 1 - (place - 1) // FAN_IN
            pushed = place and settled(parent)
            if pushed:
                pulled.push(parent, None)
                pushes += 1
        if pushed:
            items.wake()
        return result

    ready = [(b, None) for b in range(batches) if not waiting[b]]
    pulled = Pull(merge, ready, lambda rank: rank, arrivals, feed)
    return pulled.run(min(workers, batches))[batches - 1]
