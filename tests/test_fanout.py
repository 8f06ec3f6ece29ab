"""The fan-out core: map_bounded, Pull, merge_tree, Feed and the run's CallBudget."""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter

import pytest

import litsurvey.gateway
from litsurvey.fanout import (
    FAN_IN,
    CallBudget,
    Feed,
    FeedAborted,
    Pull,
    call_slots,
    map_bounded,
    merge_tree,
    tree_children,
)
from litsurvey.gateway import CompletionRequest, Gateway, TransportResponse
from litsurvey.sources import CachedSource, FixtureSource

from conftest import make_paper
from doubles import FixtureEmbedder


class TestMapBounded:
    def test_results_keep_input_order(self):
        assert map_bounded(lambda i: i * i, list(range(20)), workers=4) == [
            i * i for i in range(20)
        ]

    def test_first_failure_cancels_unstarted_items_and_raises_the_earliest(self):
        started: list[int] = []
        later_failed = threading.Event()

        def fn(i):
            started.append(i)
            if i == 0:
                # Fails after item 1, but comes first in input order.
                later_failed.wait(timeout=10)
                time.sleep(0.5)
                raise ValueError("item 0")
            if i == 1:
                later_failed.set()
                raise ValueError("item 1")
            time.sleep(0.02)
            return i

        with pytest.raises(ValueError, match="item 0"):
            map_bounded(fn, list(range(100)), workers=2)
        assert {0, 1} <= set(started)
        assert len(started) < 10


    def test_items_that_have_arrived_start_before_any_can_fail(self):
        started: list[int] = []

        def fn(i):
            started.append(i)
            if i == 0:
                raise ValueError("item 0")
            time.sleep(0.01)
            return i

        with pytest.raises(ValueError, match="item 0"):
            map_bounded(fn, list(range(4)), workers=4)
        assert sorted(started) == [0, 1, 2, 3]

    def test_an_iterator_is_read_as_its_items_come(self):
        # Item 3 is given only once item 0 has returned, as the rerank
        # batches come once the embeddings before them have landed.
        first_done = threading.Event()
        in_flight = peak = 0
        lock = threading.Lock()

        def items():
            yield from range(3)
            assert first_done.wait(timeout=10)
            yield from range(3, 6)

        def fn(i):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            time.sleep(0.01)
            with lock:
                in_flight -= 1
            if i == 0:
                first_done.set()
            return i * i

        assert map_bounded(fn, items(), workers=2) == [i * i for i in range(6)]
        assert peak <= 2
        assert map_bounded(fn, items(), workers=1) == [i * i for i in range(6)]

    def test_an_iterator_is_read_once_a_slot_is_free_for_its_item(self):
        # Item 0 returns once item 2 is read, or after 0.2 s; item 1 only
        # after item 0. So item 2 can be read while both run only if it is
        # read before a slot is free.
        done: list[int] = []
        read_when: list[int] = []  # the calls done when each item was read
        third_read, first_done = threading.Event(), threading.Event()

        def items():
            for i in range(4):
                read_when.append(len(done))
                if i == 2:
                    third_read.set()
                yield i

        def fn(i):
            if i == 0:
                third_read.wait(timeout=0.2)
                done.append(i)
                first_done.set()
            elif i == 1:
                assert first_done.wait(timeout=10)
                done.append(i)
            return i

        assert map_bounded(fn, items(), workers=2) == [0, 1, 2, 3]
        assert read_when[2] > 0, "item 2 was read while items 0 and 1 both ran"

    @pytest.mark.parametrize("raised", [KeyboardInterrupt, SystemExit])
    def test_an_interrupt_in_a_worker_is_re_raised(self, raised):
        item_1_done = threading.Event()

        def fn(i):
            if i == 0:
                item_1_done.wait(timeout=10)
                raise raised("item 0")
            if i == 1:
                item_1_done.set()
                raise ValueError("item 1")
            return i

        with pytest.raises(raised, match="item 0"):
            map_bounded(fn, list(range(4)), workers=2)

    def test_two_workers_are_the_calling_thread_and_one_other(self):
        ran_on: set[int] = set()
        both = threading.Barrier(2, timeout=10)

        def fn(i):
            ran_on.add(threading.get_ident())
            if i < 2:
                both.wait()  # the first two items run at once
            return i

        assert map_bounded(fn, list(range(8)), workers=2) == list(range(8))
        assert threading.get_ident() in ran_on
        assert len(ran_on) == 2

    def test_a_counting_generator_is_read_no_further_than_the_free_slots(self):
        # Items 0 and 1 hold both slots until both have started; a worker
        # that read ahead of a free slot would have read item 2 by then.
        reads = 0
        both = threading.Barrier(2, timeout=10)
        reads_while_both_ran: list[int] = []

        def items():
            nonlocal reads
            for i in range(6):
                reads += 1
                yield i

        def fn(i):
            if i < 2:
                both.wait()
                reads_while_both_ran.append(reads)
                both.wait()
            return i

        assert map_bounded(fn, items(), workers=2) == list(range(6))
        assert reads_while_both_ran == [2, 2]

    def test_the_gateway_name_is_the_fanout_function(self):
        # The benchmark's tracer wraps ``litsurvey.gateway.map_bounded`` to
        # hand its span to the worker threads; it must be this function.
        assert litsurvey.gateway.map_bounded is map_bounded


class TestPull:
    def test_many_workers_run_each_pushed_item_once(self):
        # Each of 200 items makes one more ready; 16 workers on a short
        # switch interval must run all 400 once, and return each by rank.
        taken: Counter = Counter()
        lock = threading.Lock()

        def fn(rank, item):
            with lock:
                taken[rank] += 1
            if rank[1] == 0:
                pulled.push((rank[0], 1), item + 1)
            return item

        pulled = Pull(fn, [((i, 0), 10 * i) for i in range(200)], lambda rank: rank)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = pulled.run(16)
        finally:
            sys.setswitchinterval(interval)
        assert results == {(i, d): 10 * i + d for i in range(200) for d in (0, 1)}
        assert taken == Counter(results.keys())

    def test_a_push_wakes_a_waiting_worker(self):
        # The second worker waits for an item while the first call runs;
        # the item that call pushes starts before the call returns.
        started = threading.Event()

        def fn(rank, item):
            if rank == 0:
                time.sleep(0.1)  # the other worker is waiting by now
                pulled.push(1, "pushed")
                assert started.wait(timeout=1), "the pushed item waited for its pusher"
            else:
                started.set()
            return item

        pulled = Pull(fn, [(0, "first")], lambda rank: rank)
        assert pulled.run(2) == {0: "first", 1: "pushed"}

    @pytest.mark.parametrize(
        "raised, after", [(ValueError, [3, 2, 1]), (KeyboardInterrupt, [3, 2])]
    )
    def test_a_failure_stops_later_ranks_and_an_interrupt_every_rank(self, raised, after):
        # Key order starts rank 3, then rank 2, which fails: at one worker
        # rank 1, ranked before it, still starts, unless the failure is an
        # interrupt.
        started: list[int] = []

        def fn(rank, item):
            started.append(rank)
            if rank == 2:
                raise raised("rank 2")
            return item

        pulled = Pull(fn, [(1, "a"), (2, "b"), (3, "c")], lambda rank: -rank)
        with pytest.raises(raised, match="rank 2"):
            pulled.run(1)
        assert started == after

    @pytest.mark.parametrize("failing", [False, True])
    def test_an_aborted_feed_it_drains_stops_every_start(self, failing):
        # Rank 0 aborts the feed while ranks 1 and 2 are ready: the worker
        # drains the feed before it chooses, so neither starts, and the
        # abort is raised unless rank 0 failed.
        feed, started = Feed(), []
        seen = 0

        def arrivals(wait):
            nonlocal seen
            fresh = feed.arrivals(seen, wait)
            seen += len(fresh)
            return None if wait and not fresh else fresh

        def fn(rank, item):
            started.append(rank)
            feed.abort()
            if failing:
                raise ValueError("rank 0")
            return item

        pulled = Pull(fn, [(0, "a"), (1, "b"), (2, "c")], lambda rank: rank, arrivals)
        with pytest.raises(ValueError if failing else FeedAborted):
            pulled.run(1)
        assert started == [0]


    def test_an_aborted_feed_of_its_own_stops_every_start(self):
        # Rank 0 aborts the feed the fan-out fills, as an interrupt to
        # another stage does; rank 1, ready by then, never starts.
        own, started = Feed(), []

        def fn(rank, item):
            started.append(rank)
            own.abort()
            return item

        pulled = Pull(fn, [(0, "a"), (1, "b")], lambda rank: rank, feed=own)
        with pytest.raises(FeedAborted):
            pulled.run(1)
        assert started == [0]


def closed(items: list) -> Feed:
    feed = Feed()
    for index, item in enumerate(items):
        feed.put(index, item)
    feed.close()
    return feed


def depth(batch: int, batches: int) -> int:
    """The longest chain of calls that ends at ``batch``'s."""
    return 1 + max((depth(child, batches) for child in tree_children(batch, batches)), default=0)


class TestMergeTree:
    @pytest.mark.parametrize("batches", range(1, 61))
    def test_the_shape_is_a_heap_rooted_at_the_last_batch(self, batches):
        parents = Counter(
            child for batch in range(batches) for child in tree_children(batch, batches)
        )
        # Every batch but the root is the child of exactly one later batch.
        assert parents == Counter(range(batches - 1))
        for batch in range(batches):
            children = tree_children(batch, batches)
            assert len(children) <= FAN_IN
            assert all(child < batch for child in children)
        assert depth(batches - 1, batches) <= 3

    def test_three_calls_in_a_row_merge_up_to_73_batches(self):
        assert FAN_IN == 8
        assert depth(72, 73) == 3 and depth(73, 74) == 4
        assert [depth(b - 1, b) for b in (1, 2, 9, 10, 50)] == [1, 2, 2, 3, 3]

    @pytest.mark.parametrize("workers", [1, 8])
    def test_each_batch_is_one_step_over_its_items_and_children(self, workers):
        steps = []

        def step(batch, merged):
            steps.append(batch)
            return sorted(batch + [item for result in merged for item in result])

        items = list(range(23))
        assert merge_tree(step, closed(items), 23, 2, workers, Feed()) == items
        assert sorted(map(tuple, steps)) == [tuple(items[i:i + 2]) for i in range(0, 23, 2)]
        if workers == 1:
            assert steps == [items[i:i + 2] for i in range(0, 23, 2)]

    def test_many_workers_merge_items_put_in_any_order_once(self):
        # 200 batches of one item, four levels deep, put in a shuffled order
        # while 16 workers on a short switch interval merge them: each batch
        # is one step, and the root holds every item once.
        items, steps = Feed(), Counter()
        lock = threading.Lock()

        def step(batch, merged):
            with lock:
                steps[batch[0]] += 1
            return batch + [item for result in merged for item in result]

        def put():
            for index in random.Random(7).sample(range(200), 200):
                items.put(index, index)
            items.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            producer = in_thread(put)
            result = merge_tree(step, items, 200, 1, 16, Feed())
        finally:
            sys.setswitchinterval(interval)
        producer.join(timeout=5)
        assert not producer.is_alive()
        assert sorted(result) == list(range(200))
        assert steps == Counter(range(200))

    def test_no_items_are_one_empty_batch(self):
        assert merge_tree(lambda batch, merged: (batch, merged), closed([]), 0, 4, 2, Feed()) == (
            [], []
        )

    def test_a_finished_step_wakes_a_worker_waiting_for_items(self):
        # One item a batch, ten batches: batch 8 merges batch 0 alone. With
        # items 0 and 8 in, a worker waits for the rest while batch 0 runs;
        # batch 8 must start before any other item is put.
        items, started = Feed(), threading.Event()

        def step(batch, merged):
            if batch == [0]:
                time.sleep(0.1)  # the other worker waits for items by now
            elif batch == [8]:
                started.set()
            return batch + [item for result in merged for item in result]

        def rest():
            woken = started.wait(timeout=2)
            for index in (1, 2, 3, 4, 5, 6, 7, 9):
                items.put(index, index)
            items.close()
            return woken

        items.put(0, 0)
        items.put(8, 8)
        waiter = []
        helper = in_thread(lambda: waiter.append(rest()))
        result = merge_tree(step, items, 10, 1, 2, Feed())
        helper.join(timeout=5)
        assert not helper.is_alive()
        assert waiter == [True], "batch 8 waited for an item it does not read"
        assert sorted(result) == list(range(10))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_failed_step_stops_the_wait_for_later_items(self, workers):
        # Batch 0 fails, once the other workers wait for items, while
        # batch 2's never come: the merge raises batch 0's error instead of
        # waiting for them.
        items, raised = Feed(), []
        for index in range(4):
            items.put(index, index)

        def step(batch, merged):
            if batch == [0, 1]:
                time.sleep(0.1)
                raise ValueError("batch 0")
            return batch

        def merge():
            with pytest.raises(ValueError, match="batch 0"):
                merge_tree(step, items, 6, 2, workers, Feed())
            raised.append(True)

        merging = in_thread(merge)
        merging.join(timeout=5)
        assert raised == [True], "the merge waited for items after a failure"

    def test_an_aborted_feed_of_items_raises(self):
        items = Feed()
        items.put(0, "a")
        items.abort()
        with pytest.raises(FeedAborted):
            merge_tree(lambda batch, merged: batch, items, 4, 1, 2, Feed())


class TestFeed:
    def test_iteration_yields_each_item_once_it_and_every_earlier_one_are_in(self):
        feed = Feed()
        feed.put(1, "b")
        taken: list[str] = []
        reader = threading.Thread(target=lambda: taken.extend(feed))
        reader.start()
        time.sleep(0.05)
        assert taken == []  # item 0 is not in yet
        feed.put(0, "a")
        feed.put(2, "c")
        feed.close()
        reader.join(timeout=10)
        assert taken == ["a", "b", "c"]

    def test_map_bounded_starts_the_first_item_before_the_feed_closes(self):
        feed = Feed()
        started = threading.Event()

        def fn(item):
            started.set()
            return item * 2

        results: list = []
        consumer = threading.Thread(target=lambda: results.extend(map_bounded(fn, feed, 2)))
        consumer.start()
        feed.put(0, 10)
        assert started.wait(timeout=10), "item 0 did not start while the feed was open"
        feed.put(1, 20)
        feed.close()
        consumer.join(timeout=10)
        assert results == [20, 40]

    def test_items_put_after_a_failure_never_start(self):
        feed = Feed()
        failed, release = threading.Event(), threading.Event()
        started: list[int] = []

        def fn(i):
            started.append(i)
            if i == 1:
                failed.set()
                raise ValueError("item 1")
            # Item 0 holds its slot, so the next item can only take the
            # slot of item 1, which is freed once its error is recorded.
            release.wait(timeout=10)
            return i

        errors: list = []

        def consume():
            try:
                map_bounded(fn, feed, 2)
            except ValueError as exc:
                errors.append(exc)

        consumer = threading.Thread(target=consume)
        consumer.start()
        feed.put(0, 0)
        feed.put(1, 1)
        assert failed.wait(timeout=10)
        for index in range(2, 6):
            feed.put(index, index)
        feed.close()
        release.set()
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert sorted(started) == [0, 1]
        assert [str(e) for e in errors] == ["item 1"]

    def test_many_workers_take_each_item_of_a_busy_feed_once(self):
        feed = Feed()
        taken: Counter = Counter()
        lock = threading.Lock()

        def fn(item):
            with lock:
                taken[item] += 1
            return -item

        def produce(indexes):
            for index in indexes:
                feed.put(index, index)

        order = list(range(400))
        random.Random(7).shuffle(order)
        producers = [threading.Thread(target=produce, args=(order[k::4],)) for k in range(4)]
        results: list = []
        consumer = threading.Thread(target=lambda: results.extend(map_bounded(fn, feed, 16)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer.start()
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=30)
            feed.close()
            consumer.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive()
        assert results == [-i for i in range(400)]
        assert taken == Counter(range(400))

    def test_a_read_without_waiting_returns_the_pairs_put_since_seen(self):
        feed = Feed()
        feed.put(2, "c")
        feed.put(0, "a")
        read: list = []

        def read_all():
            read.append(feed.arrivals(0, wait=False))
            read.append(feed.arrivals(1, wait=False))
            read.append(feed.arrivals(2, wait=False))  # none new, the feed open

        reader = threading.Thread(target=read_all, daemon=True)
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "a read without waiting waited"
        assert read == [[(2, "c"), (0, "a")], [(0, "a")], []]
        feed.put(1, "b")
        assert feed.arrivals(2, wait=False) == [(1, "b")]
        feed.abort()
        with pytest.raises(FeedAborted):
            feed.arrivals(3, wait=False)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_aborted_feed_stops_its_consumers(self, workers):
        feed = Feed()
        feed.put(0, "a")
        feed.abort()
        feed.close()  # an aborted feed stays aborted
        with pytest.raises(FeedAborted):
            list(feed)
        with pytest.raises(FeedAborted):
            map_bounded(str, feed, workers)


class HeldTransport:
    """Answers a request with its prompt; a request whose prompt is
    ``held`` waits for ``release`` (longer than a test waits for anything
    else), and ``entered`` is set once one has been sent. Refuses the first
    ``refusals`` sends with a 503."""

    def __init__(self, held: str = "", refusals: int = 0):
        self.held, self.refusals = held, refusals
        self.entered, self.release = threading.Event(), threading.Event()
        self.sends = 0

    def send(self, request):
        self.sends += 1
        if self.sends <= self.refusals:
            return TransportResponse(503, "")
        if request.prompt == self.held:
            self.entered.set()
            assert self.release.wait(timeout=30), "held send never released"
        return TransportResponse(200, request.prompt)


def budget_gateway(transport, budget: CallBudget, **kwargs) -> Gateway:
    return Gateway(transport, embedder=FixtureEmbedder(), budget=budget, **kwargs)


def ask(gw: Gateway, prompt: str) -> str:
    return gw.complete(CompletionRequest(prompt=prompt, tag="t"))


def in_thread(fn, *args) -> threading.Thread:
    thread = threading.Thread(target=fn, args=args, daemon=True)
    thread.start()
    return thread


class TestCallBudget:
    def test_the_size_of_a_run_s_budget(self):
        assert [call_slots(w) for w in (1, 2, 4, 8)] == [1, 4, 8, 16]
        with pytest.raises(ValueError):
            CallBudget(0)

    def test_at_most_size_slots_are_held_and_the_peak_is_recorded(self):
        budget, lock = CallBudget(2), threading.Lock()
        held = most = 0

        def hold(i):
            nonlocal held, most
            with budget.slot():
                with lock:
                    held += 1
                    most = max(most, held)
                time.sleep(0.001 * (i % 3))
                with lock:
                    held -= 1

        def both_slots():
            with budget.slot(), budget.slot():
                pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            map_bounded(hold, range(200), workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert most == budget.peak == 2
        # Every slot came back: both can be held at once again.
        taker = in_thread(both_slots)
        taker.join(timeout=10)
        assert not taker.is_alive()

    def test_a_cache_hit_returns_while_a_blocked_send_holds_the_only_slot(self):
        transport = HeldTransport(held="a")
        gw = budget_gateway(transport, CallBudget(1))
        assert ask(gw, "b") == "b"
        leader = in_thread(ask, gw, "a")
        try:
            assert transport.entered.wait(timeout=10)
            hit = in_thread(ask, gw, "b")
            hit.join(timeout=5)
            assert not hit.is_alive(), "a cache hit waited for a slot"
        finally:
            transport.release.set()
        leader.join(timeout=10)
        assert (gw.transport_calls, gw.cache_hits, gw.budget.peak) == (2, 1, 1)

    def test_a_single_flight_follower_holds_no_slot(self):
        # Two slots: the held leader takes one and its follower none, so a
        # third request still finds one free.
        transport = HeldTransport(held="a")
        gw = budget_gateway(transport, CallBudget(2))
        leader = in_thread(ask, gw, "a")
        try:
            assert transport.entered.wait(timeout=10)
            follower = in_thread(ask, gw, "a")
            time.sleep(0.05)  # let the follower reach the in-flight wait
            other = in_thread(ask, gw, "c")
            other.join(timeout=5)
            assert not other.is_alive(), "the follower held a slot"
        finally:
            transport.release.set()
        for thread in (leader, follower):
            thread.join(timeout=10)
        assert (gw.transport_calls, gw.budget.peak) == (2, 2)

    def test_the_backoff_sleeper_runs_while_the_slot_is_free(self):
        budget = CallBudget(1)
        free: list[bool] = []

        def take():
            with budget.slot():
                pass

        def sleeper(seconds):
            taker = in_thread(take)
            taker.join(timeout=10)
            free.append(not taker.is_alive())

        gw = budget_gateway(HeldTransport(refusals=1), budget, sleeper=sleeper)
        assert ask(gw, "a") == "a"
        assert free == [True]

    def test_an_embedding_batch_holds_a_slot_and_a_source_miss_or_a_hit_none(self):
        # A source miss holds none of the gateway's slots, which the chat
        # sends and embedding batches share; the source's counter sees it.
        gw, in_flight = budget_gateway(HeldTransport(), CallBudget()), CallBudget()
        source = CachedSource(FixtureSource([make_paper("p1")]), gw, "fixture", in_flight)
        source.search("q", 5)
        assert (in_flight.peak, gw.budget.peak) == (1, 0)
        gw.embed(["text"])
        assert (gw.transport_calls, gw.budget.peak) == (1, 1)
        gw.budget, source.in_flight = CallBudget(), CallBudget()
        source.search("q", 5)
        gw.embed(["text"])
        assert (gw.cache_hits, source.in_flight.peak, gw.budget.peak) == (2, 0, 0)
