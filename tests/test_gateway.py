from __future__ import annotations

import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest
import requests

from litsurvey import caching as caching_mod
from litsurvey.caching import DiskCache, cache_key
from litsurvey.errors import (
    BackendError,
    BudgetError,
    ExhaustionError,
    InvalidInputError,
    MalformedOutputError,
)
from litsurvey.gateway import (
    BackendProfile,
    CompletionRequest,
    Gateway,
    HashEmbedder,
    HttpChatTransport,
    HttpEmbedder,
    TransientBackendError,
    TransportResponse,
    _normalize,
    cosine,
    extract_chat_text,
    extract_json_payload,
    request_validated,
)
from litsurvey.model import ErrorMemory
from litsurvey.runlog import RunLog
from litsurvey.scripted import CannedReply, ScriptedTransport

from conftest import html_page, json_reply, scripted_gateway
from doubles import FixtureEmbedder, FlakyEmbedder, SequenceTransport


def recording_gateway(transport, **kwargs):
    delays: list[float] = []
    gw = Gateway(
        transport,
        embedder=FixtureEmbedder(),
        sleeper=delays.append,
        **kwargs,
    )
    return gw, delays


def req(prompt="hello world", **kwargs) -> CompletionRequest:
    return CompletionRequest(prompt=prompt, **kwargs)


class TestRequestValidation:
    def test_prompt_must_be_non_empty(self):
        with pytest.raises(InvalidInputError):
            CompletionRequest(prompt="")

    def test_temperature_bounds(self):
        with pytest.raises(InvalidInputError):
            CompletionRequest(prompt="x", temperature=2.5)

    def test_profile_bounds(self):
        with pytest.raises(InvalidInputError):
            BackendProfile(backoff_bounds=(300.0, 1.0))


class TestRetry:
    def test_success_on_first_attempt_is_one_call(self):
        transport = SequenceTransport(["fine"])
        gw, delays = recording_gateway(transport)
        assert gw.complete(req()) == "fine"
        assert len(transport.calls) == 1
        assert delays == []

    def test_retryable_then_success(self):
        transport = SequenceTransport([503, 503, "recovered"])
        gw, delays = recording_gateway(transport)
        assert gw.complete(req()) == "recovered"
        assert len(transport.calls) == 3
        assert delays == sorted(delays), "delays must be nondecreasing"
        assert all(1.0 <= d <= 300.0 for d in delays)

    def test_non_retryable_fails_immediately(self):
        transport = SequenceTransport([400])
        gw, _ = recording_gateway(transport)
        with pytest.raises(BackendError) as err:
            gw.complete(req())
        assert err.value.status == 400
        assert len(transport.calls) == 1

    def test_exhaustion_after_exactly_max_attempts(self):
        transport = SequenceTransport([429] * 12)
        gw, delays = recording_gateway(transport)
        with pytest.raises(ExhaustionError) as err:
            gw.complete(req())
        assert len(transport.calls) == 10
        assert err.value.status == 429
        assert len(delays) == 9
        assert delays == sorted(delays)
        assert delays[0] >= 1.0 and delays[-1] <= 300.0

    def test_backoff_doubles_and_caps(self):
        transport = SequenceTransport([503] * 30)
        profile = BackendProfile(max_attempts=12, backoff_bounds=(1.0, 300.0))
        gw, delays = recording_gateway(transport, profile=profile, draw=lambda: 0.0)
        with pytest.raises(ExhaustionError):
            gw.complete(req())
        assert delays[:9] == [1, 2, 4, 8, 16, 32, 64, 128, 256]
        assert all(d <= 300.0 for d in delays)

    def test_jitter_spreads_callers_within_the_bounds(self):
        profile = BackendProfile(max_attempts=12, backoff_bounds=(1.0, 300.0))
        runs = []
        for seed in (1, 2):
            draw = random.Random(seed).random
            gw, delays = recording_gateway(SequenceTransport([429] * 30), profile=profile, draw=draw)
            with pytest.raises(ExhaustionError):
                gw.complete(req())
            assert delays == sorted(delays), "each caller's delays are nondecreasing"
            assert all(1.0 <= d <= 300.0 for d in delays)
            assert delays[0] == 1.0 + random.Random(seed).random(), "one draw per call"
            assert delays[-1] == 300.0
            runs.append(delays)
        assert runs[0] != runs[1]

    def test_a_retry_after_longer_than_the_backoff_is_slept(self, monkeypatch):
        # A 429 asking for 3 s, then a 200: the one sleep is the backend's.
        replies = iter([(429, {"Retry-After": "3"}), (200, {})])

        def post(*args, **kwargs) -> requests.Response:
            resp = requests.Response()
            resp.status_code, headers = next(replies)
            resp.headers.update(headers)
            resp._content = b'{"choices": [{"message": {"content": "fine"}}]}'
            return resp

        monkeypatch.setattr(requests, "post", post)
        gw, delays = recording_gateway(HttpChatTransport("http://chat", "model"), draw=lambda: 0.0)
        assert gw.complete(req()) == "fine"
        assert delays == [3.0]

    def test_a_retry_after_is_capped_and_no_sleep_is_shorter_than_the_last(self):
        # Backoff alone would sleep 1, 2, 4 and 8 s, within bounds (1, 300).
        asked = [TransportResponse(429, "", retry_after=s) for s in (10.0, None, 500.0, None)]
        transport = SimpleNamespace(
            send=lambda request: asked.pop(0) if asked else TransportResponse(200, "fine")
        )
        gw, delays = recording_gateway(transport, draw=lambda: 0.0)
        assert gw.complete(req()) == "fine"
        assert delays == [10.0, 10.0, 300.0, 300.0]

    def test_prompt_over_window_is_budget_error(self):
        small = BackendProfile(context_window=4)
        gw, _ = recording_gateway(SequenceTransport(["x"]), profile=small)
        with pytest.raises(BudgetError):
            gw.complete(req("a" * 100))


class TestCaching:
    def test_identical_requests_one_transport_call(self):
        transport = SequenceTransport(["answer"])
        gw, _ = recording_gateway(transport)
        assert gw.complete(req("same prompt")) == "answer"
        assert gw.complete(req("same prompt")) == "answer"
        assert len(transport.calls) == 1
        assert gw.cache_hits == 1

    def test_tag_and_temperature_partition_the_cache(self):
        transport = ScriptedTransport(default="reply")
        gw, _ = recording_gateway(transport)
        gw.complete(req("p", tag="draft", temperature=0.7))
        gw.complete(req("p", tag="refine", temperature=0.7))
        gw.complete(req("p", tag="draft", temperature=0.1))
        assert len(transport.calls) == 3

    def test_cache_key_keeps_part_boundaries_and_types_apart(self):
        assert cache_key("ab", "c") != cache_key("a", "bc")
        # Without the lengths, a part ending in the next part's type name
        # would run into it.
        assert cache_key("astr", "c") != cache_key("a", "strc")
        assert len({cache_key(0), cache_key(0.0), cache_key("0"), cache_key(False)}) == 4
        assert cache_key("x", None) != cache_key("x", "None")
        assert cache_key("a", 1) == cache_key("a", 1)

    def test_cache_key_scheme_is_pinned(self):
        # Changing this digest makes every existing api cache cold once.
        assert cache_key("complete", "writing.outline", 0.0, 4096, "Propose an outline.") == (
            "1edcf3ef6931fac9978a68df2463048088c7d027e09939fd51f011cb532e6cee"
        )

    def test_cache_key_refuses_a_part_without_a_stable_form(self):
        with pytest.raises(TypeError, match="cannot hash a dict part"):
            cache_key("complete", {"tag": "x"})

    def test_a_disk_hit_opens_no_file(self, tmp_path, monkeypatch):
        writer, reader = DiskCache(tmp_path), DiskCache(tmp_path)
        writer.set({"early": {"v": 1}})
        assert reader.get("early") == {"v": 1}  # a miss: indexes the segment
        opened: list[str] = []
        real_open, real_scandir = open, os.scandir
        monkeypatch.setattr(caching_mod, "open", lambda *a, **k: opened.append(a[0]) or real_open(*a, **k), raising=False)
        monkeypatch.setattr(caching_mod.os, "scandir", lambda *a: opened.append("scandir") or real_scandir(*a))
        assert [reader.get("early") for _ in range(3)] == [{"v": 1}] * 3
        assert writer.get("early") == {"v": 1}
        assert opened == []
        # The writer appends to the segment the reader has already indexed:
        # the reader's miss lists the directory and reads that segment.
        writer.set({"later": [2]})
        [segment] = opened
        opened.clear()
        assert reader.get("later") == [2]
        assert opened == ["scandir", segment]
        assert reader.get("later") == [2] and len(opened) == 2

    def test_disk_cache_survives_gateway_restart(self, tmp_path):
        transport = SequenceTransport(["persisted"])
        gw1 = Gateway(transport, embedder=FixtureEmbedder(), cache_dir=str(tmp_path), sleeper=lambda s: None)
        gw1.complete(req("cached prompt"))
        transport2 = SequenceTransport(["should not be used"])
        gw2 = Gateway(transport2, embedder=FixtureEmbedder(), cache_dir=str(tmp_path), sleeper=lambda s: None)
        assert gw2.complete(req("cached prompt")) == "persisted"
        assert len(transport2.calls) == 0

    @pytest.mark.parametrize("age, hit", [(59.0, True), (61.0, False)])
    def test_disk_cache_entries_expire(self, tmp_path, monkeypatch, age, hit):
        clock = [1000.0]
        monkeypatch.setattr(caching_mod, "time", SimpleNamespace(time=lambda: clock[0]))

        def gateway(transport):
            return Gateway(
                transport, embedder=FixtureEmbedder(), cache_dir=str(tmp_path),
                cache_expiry=60.0, sleeper=lambda s: None,
            )

        gateway(SequenceTransport(["first"])).complete(req("aging prompt"))
        clock[0] += age
        later = SequenceTransport(["second"])
        reply = gateway(later).complete(req("aging prompt"))
        assert (reply, len(later.calls)) == (("first", 0) if hit else ("second", 1))

    def test_disk_caches_sharing_a_directory_write_one_key_concurrently(self, tmp_path):
        caches = [DiskCache(tmp_path), DiskCache(tmp_path)]
        start = threading.Barrier(8)
        errors: list[Exception] = []

        def write(writer: int):
            start.wait(timeout=10)
            try:
                for i in range(50):
                    caches[writer % 2].set({"shared": {"writer": writer, "i": i}})
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        final = caches[0].get("shared")
        assert final is not None and final["i"] == 49
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".log", ".log"]

    def test_disk_cache_entries_take_the_mode_of_a_plainly_created_file(self, tmp_path):
        # Entries follow the umask like any other file, so a cache directory
        # shared between users stays readable to them.
        DiskCache(tmp_path).set({"entry": {"v": 1}})
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        mode = lambda path: path.stat().st_mode & 0o777
        assert [mode(path) for path in tmp_path.glob("*.log")] == [mode(plain)]

    @pytest.mark.parametrize("cut", [1, 4])
    def test_a_segment_cut_inside_its_last_line_loses_that_line_alone(self, tmp_path, cut):
        # cut=1 leaves the last entry whole but without its newline.
        def gateway(transport):
            return Gateway(transport, embedder=FixtureEmbedder(), cache_dir=str(tmp_path))

        first = gateway(SequenceTransport(["one", "two", "three"]))
        for prompt in ("p1", "p2", "p3"):
            first.complete(req(prompt))
        [cut_segment] = (tmp_path / "api").glob("*.log")
        cut_segment.write_bytes(cut_segment.read_bytes()[:-cut])
        left = cut_segment.read_bytes()
        later = SequenceTransport(["asked again"])
        gw = gateway(later)
        assert [gw.complete(req(p)) for p in ("p1", "p2")] == ["one", "two"]
        assert later.calls == []
        assert gw.complete(req("p3")) == "asked again"
        assert len(later.calls) == 1
        assert cut_segment.read_bytes() == left

    def test_a_miss_rereads_segments_that_grew_or_appeared(self, tmp_path):
        writer, reader = DiskCache(tmp_path), DiskCache(tmp_path)
        writer.set({"early": 1})
        assert reader.get("grown") is None
        writer.set({"grown": {"v": 2}})
        assert reader.get("grown") == {"v": 2}
        assert reader.get("appeared") is None
        DiskCache(tmp_path).set({"appeared": [3]})
        assert reader.get("appeared") == [3]
        assert reader.get("early") == 1

    @pytest.mark.parametrize("names", [("a" * 32, "b" * 32), ("b" * 32, "a" * 32)])
    def test_a_key_in_two_segments_resolves_to_its_latest_entry(self, tmp_path, monkeypatch, names):
        # The segment names fix the order segments are read in, so both
        # orders are covered.
        clock = [1000.0]
        monkeypatch.setattr(caching_mod, "time", SimpleNamespace(time=lambda: clock[0]))
        hexes = iter(names)
        monkeypatch.setattr(caching_mod, "uuid", SimpleNamespace(uuid4=lambda: SimpleNamespace(hex=next(hexes))))
        stale = DiskCache(tmp_path, expiry_seconds=60.0)
        stale.set({"k": "stale"})
        clock[0] = 1100.0
        DiskCache(tmp_path, expiry_seconds=60.0).set({"k": "fresh"})
        clock[0] = 1130.0
        assert DiskCache(tmp_path, expiry_seconds=60.0).get("k") == "fresh"
        assert DiskCache(tmp_path).get("k") == "fresh"
        assert stale.get("k") == "fresh", "an expired entry hid a fresh one"

    def test_a_rerun_over_a_hard_linked_warm_cache_leaves_the_links_alone(self, tmp_path):
        def gateway(transport, workdir):
            return Gateway(transport, embedder=FixtureEmbedder(), cache_dir=str(workdir / "cache"))

        prompts = [f"prompt {i}" for i in range(5)]
        warm = gateway(ScriptedTransport(default="reply"), tmp_path / "pristine")
        for prompt in prompts:
            warm.complete(req(prompt))
        warm.embed(["a", "b"])
        # As the benchmark's fresh_workdir links a warm cache into each run.
        shutil.copytree(tmp_path / "pristine" / "cache", tmp_path / "run" / "cache", copy_function=os.link)
        linked = {p: p.read_bytes() for p in (tmp_path / "run" / "cache").rglob("*") if p.is_file()}
        assert linked and all(p.stat().st_nlink == 2 for p in linked)

        transport = ScriptedTransport(default="new")
        embedder = FixtureEmbedder()
        rerun = Gateway(transport, embedder=embedder, cache_dir=str(tmp_path / "run" / "cache"))
        assert [rerun.complete(req(p)) for p in prompts] == ["reply"] * 5
        rerun.embed(["a", "b"])
        assert (len(transport.calls), embedder.calls) == (0, 0)
        assert rerun.complete(req("a prompt the warm run never sent")) == "new"
        assert {p: p.read_bytes() for p in linked} == linked
        added = set((tmp_path / "run" / "cache" / "api").iterdir()) - set(linked)
        assert [p.stat().st_nlink for p in added] == [1]

    def test_an_embedding_batch_is_stored_with_one_append(self, tmp_path, monkeypatch):
        sets: list[list[str]] = []
        disk_set = DiskCache.set
        monkeypatch.setattr(DiskCache, "set", lambda cache, entries: sets.append(list(entries)) or disk_set(cache, entries))
        embedder = FixtureEmbedder()
        texts = [f"text {i}" for i in range(5)]
        gw = Gateway(SequenceTransport(["x"]), embedder=embedder, cache_dir=str(tmp_path), embed_batch_size=3)
        vectors = gw.embed(texts)
        assert [len(keys) for keys in sets] == [3, 2]
        [segment] = (tmp_path / "api").glob("*.log")
        assert segment.read_bytes().count(b"\n") == 5
        rerun = Gateway(SequenceTransport(["x"]), embedder=embedder, cache_dir=str(tmp_path))
        assert rerun.embed(texts) == vectors
        assert embedder.calls == 2

    @pytest.mark.parametrize("torn", ["inside the second line", "before the last newline"])
    def test_a_torn_append_of_several_entries_indexes_its_complete_lines(self, tmp_path, torn):
        DiskCache(tmp_path).set({"first": 1, "second": [2, 2], "third": {"v": 3}})
        [segment] = tmp_path.glob("*.log")
        data = segment.read_bytes()
        second = data.index(b"\n") + 1
        segment.write_bytes(data[: second + 10] if torn == "inside the second line" else data[:-1])
        reader = DiskCache(tmp_path)
        found = [reader.get(k) for k in ("first", "second", "third")]
        assert found == ([1, None, None] if torn == "inside the second line" else [1, [2, 2], None])

    def test_a_failed_append_of_several_entries_sends_later_ones_to_a_new_segment(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        cache.set({"kept": 0})
        real_open = open

        class TornHandle:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(caching_mod, "open", lambda f, mode="r": TornHandle(real_open(f, mode)), raising=False)
        with pytest.raises(OSError):
            cache.set({"a": "x", "b": "y" * 200})  # the half holds all of "a"
        monkeypatch.undo()
        reader = DiskCache(tmp_path)
        assert [reader.get(k) for k in ("kept", "a", "b")] == [0, "x", None]
        cache.set({"b": "again"})
        assert len(list(tmp_path.glob("*.log"))) == 2
        assert [DiskCache(tmp_path).get(k) for k in ("kept", "a", "b")] == [0, "x", "again"]

    def test_gateways_over_one_cache_hit_within_a_scope_and_miss_across_scopes(self, tmp_path):
        def gateway(chat_scope, embed_scope, reply):
            transport, embedder = SequenceTransport([reply]), FixtureEmbedder()
            gw = Gateway(
                transport, embedder=embedder, cache_dir=str(tmp_path),
                chat_scope=chat_scope, embed_scope=embed_scope,
            )
            return gw, transport, embedder

        first, _, _ = gateway("http u m1", "http e m1", "from m1")
        first.complete(req("shared prompt"))
        vector = first.embed(["shared text"])
        same, transport, embedder = gateway("http u m1", "http e m1", "unused")
        assert same.complete(req("shared prompt")) == "from m1"
        assert same.embed(["shared text"]) == vector
        assert (len(transport.calls), embedder.calls) == (0, 0)
        other, transport, embedder = gateway("http u m2", "http e m2", "from m2")
        assert other.complete(req("shared prompt")) == "from m2"
        other.embed(["shared text"])
        assert (len(transport.calls), embedder.calls) == (1, 1)


class BlockingTransport:
    """Holds every send until ``release`` is set, then answers from
    ``replies`` in order (the last one sticky)."""

    def __init__(self, *replies: CannedReply):
        self.replies = list(replies)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sends = 0
        self._lock = threading.Lock()

    def send(self, request):
        self.entered.set()
        assert self.release.wait(timeout=10), "transport never released"
        with self._lock:
            reply = self.replies[min(self.sends, len(self.replies) - 1)]
            self.sends += 1
        return TransportResponse(reply.status, reply.text)


def send_concurrently(gw, transport, callers=8):
    """``callers`` threads complete one identical request while the first
    send is held; returns (replies, errors)."""
    replies: list[str] = []
    errors: list[Exception] = []

    def call():
        try:
            replies.append(gw.complete(req("shared prompt")))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=call) for _ in range(callers)]
    for thread in threads:
        thread.start()
    assert transport.entered.wait(timeout=10)
    time.sleep(0.05)  # let the other callers reach the in-flight wait
    transport.release.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    return replies, errors


class TestSingleFlight:
    def test_concurrent_identical_requests_make_one_call(self):
        transport = BlockingTransport(CannedReply("shared answer"))
        gw, _ = recording_gateway(transport)
        replies, errors = send_concurrently(gw, transport)
        assert errors == []
        assert gw.transport_calls == 1
        assert replies == ["shared answer"] * 8

    def test_leader_error_reaches_the_leader_alone_and_a_waiter_retries(self):
        transport = BlockingTransport(CannedReply("bad request", 400), CannedReply("answer"))
        gw, _ = recording_gateway(transport)
        replies, errors = send_concurrently(gw, transport)
        assert [type(e) for e in errors] == [BackendError]
        assert gw.transport_calls == 2
        assert replies == ["answer"] * 7

    def test_each_key_produced_once_under_contention(self):
        gw, _ = recording_gateway(SequenceTransport(["unused"]))
        produced: dict[str, int] = {}
        lock = threading.Lock()
        start = threading.Barrier(16)
        results: list[tuple[str, str]] = []

        def produce(key: str) -> str:
            with lock:
                produced[key] = produced.get(key, 0) + 1
            time.sleep(0.001)
            return f"value of {key}"

        def caller(offset: int):
            start.wait(timeout=10)
            for i in range(40):
                key = f"k{(i + offset) % 10}"
                results.append((key, gw.cached(key, lambda: produce(key))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(n,)) for n in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert produced == {f"k{i}": 1 for i in range(10)}
        assert len(results) == 16 * 40
        assert all(value == f"value of {key}" for key, value in results)


def waiting(gw, count, ended=lambda: False) -> threading.Thread:
    """A thread that waits until ``gw`` has ``count`` requests out."""
    thread = threading.Thread(target=gw.wait_requests, args=(count, ended), daemon=True)
    thread.start()
    return thread


class TestRequestCount:
    def test_a_send_counts_before_the_backend_answers(self):
        transport = BlockingTransport(CannedReply("answer"))
        gw, _ = recording_gateway(transport)
        waiter = waiting(gw, 1)
        caller = threading.Thread(target=gw.complete, args=(req(),))
        caller.start()
        waiter.join(timeout=10)
        assert not waiter.is_alive() and not transport.release.is_set()
        assert gw.requests_out() == gw.transport_calls == 1
        transport.release.set()
        caller.join(timeout=10)

    def test_a_cache_hit_counts(self):
        transport = SequenceTransport(["answer"])
        gw, _ = recording_gateway(transport)
        gw.complete(req())
        waiter = waiting(gw, 2)
        waiter.join(timeout=0.05)
        assert waiter.is_alive()
        assert gw.complete(req()) == "answer"
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert (gw.transport_calls, gw.cache_hits, len(transport.calls)) == (1, 1, 1)

    def test_wake_ends_the_wait_once_ended_holds(self):
        gw, _ = recording_gateway(SequenceTransport(["unused"]))
        ended = threading.Event()
        waiter = waiting(gw, 1, ended.is_set)
        gw.wake()
        waiter.join(timeout=0.05)
        assert waiter.is_alive()
        ended.set()
        gw.wake()
        waiter.join(timeout=10)
        assert not waiter.is_alive() and gw.requests_out() == 0


class TestEmbeddings:
    def test_vectors_are_unit_norm(self):
        gw = scripted_gateway(embedder=FixtureEmbedder({"a": [3.0, 4.0]}))
        [vec] = gw.embed(["a"])
        assert math.isclose(math.hypot(*vec), 1.0, abs_tol=1e-6)
        assert vec == pytest.approx([0.6, 0.8])

    def test_second_call_served_from_cache(self):
        embedder = FixtureEmbedder({"a": [1.0, 0.0]})
        gw = scripted_gateway(embedder=embedder)
        gw.embed(["a"])
        gw.embed(["a"])
        assert embedder.calls == 1

    def test_disk_hit_is_promoted_to_the_runtime_tier(self, tmp_path, monkeypatch):
        embedder = FixtureEmbedder({"a": [1.0, 0.0]})
        Gateway(SequenceTransport(["x"]), embedder=embedder, cache_dir=str(tmp_path)).embed(["a"])
        reads: list[str] = []
        disk_get = DiskCache.get
        monkeypatch.setattr(DiskCache, "get", lambda cache, key: reads.append(key) or disk_get(cache, key))
        gw = Gateway(SequenceTransport(["x"]), embedder=embedder, cache_dir=str(tmp_path))
        first = gw.embed(["a"])
        assert gw.embed(["a"]) == first
        assert len(reads) == 1
        assert embedder.calls == 1
        assert gw.cache_hits == 2

    def test_batches_keep_input_order(self):
        embedder = FixtureEmbedder({t: [1.0, float(i)] for i, t in enumerate("abcde")})
        gw = Gateway(SequenceTransport(["x"]), embedder=embedder, embed_batch_size=2)
        vectors = gw.embed(list("abcde"))
        assert embedder.calls == 3
        assert [v[1] / v[0] for v in vectors] == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])

    def test_the_missing_texts_go_out_in_batches(self):
        texts = [f"text {i}" for i in range(100)]
        embedder = FixtureEmbedder()
        gw = Gateway(SequenceTransport(["x"]), embedder=embedder, embed_batch_size=7)
        gw.embed(texts[::3])  # cached texts split the misses
        gw.embed(texts)
        calls = gw.transport_calls
        assert calls == len(embedder.batches) == math.ceil(34 / 7) + math.ceil(66 / 7)

    def test_empty_input_rejected(self):
        gw = scripted_gateway()
        with pytest.raises(InvalidInputError):
            gw.embed([])

    def test_transient_failures_retry_then_succeed(self):
        flaky = FlakyEmbedder(FixtureEmbedder({"t": [1.0, 0.0]}), failures=2)
        gw = scripted_gateway(embedder=flaky)
        [vec] = gw.embed(["t"])
        assert vec == pytest.approx([1.0, 0.0])
        assert flaky.attempts == 3

    def test_exhaustion_after_persistent_failure(self):
        flaky = FlakyEmbedder(FixtureEmbedder(), failures=99)
        gw = scripted_gateway(embedder=flaky)
        with pytest.raises(ExhaustionError):
            gw.embed(["t"])
        assert flaky.attempts == 10


class TestHashEmbedder:
    def test_a_text_gets_the_same_vector_under_any_hash_seed(self):
        code = "from litsurvey.gateway import HashEmbedder; print(HashEmbedder().encode(['a text'])[0])"
        package = os.path.join(os.path.dirname(__file__), "..", "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
                env={**os.environ, "PYTHONPATH": package, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1] == f"{HashEmbedder().encode(['a text'])[0]}\n"

    def test_different_texts_get_different_vectors(self):
        vectors = HashEmbedder().encode([f"paper {i}" for i in range(50)])
        assert len({tuple(v) for v in vectors}) == 50
        assert all(len(v) == HashEmbedder.dim for v in vectors)

    def test_gateway_vectors_are_unit_norm(self):
        gw = Gateway(SequenceTransport(["x"]))
        for vec in gw.embed(["alpha", "beta", "a longer text about surveys"]):
            assert math.isclose(math.hypot(*vec), 1.0, abs_tol=1e-12)

    def test_the_generator_is_pinned(self):
        # Changing this value changes every hashed vector: make it on purpose.
        [vec] = HashEmbedder().encode(["automated survey generation"])
        assert vec[0] == pytest.approx(-0.9233146166438706, abs=1e-12)


class TestVectorMath:
    def test_cosine_and_normalize_agree_with_an_exact_sum(self):
        rng = random.Random(5)
        for dim in (2, 32, 1536):
            a = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            b = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            norm = math.sqrt(math.fsum(x * x for x in a))
            assert _normalize(a) == pytest.approx([x / norm for x in a], abs=1e-12)
            unit_a, unit_b = _normalize(a), _normalize(b)
            exact = math.fsum(x * y for x, y in zip(unit_a, unit_b))
            assert abs(cosine(unit_a, unit_b) - exact) < 1e-12

    def test_a_zero_vector_is_a_backend_error(self):
        with pytest.raises(BackendError, match="zero vector"):
            _normalize([0.0] * 32)
        gw = Gateway(SequenceTransport(["x"]), embedder=FixtureEmbedder({"z": [0.0, 0.0]}))
        with pytest.raises(BackendError, match="zero vector"):
            gw.embed(["z"])


class TestStructuredOutput:
    def test_json_payload_tolerates_fences_and_prose(self):
        assert extract_json_payload('```json\n{"a": 1}\n```') == {"a": 1}
        assert extract_json_payload('Sure! [1, 2, 3] there you go') == [1, 2, 3]
        with pytest.raises(ValueError):
            extract_json_payload("no json here")

    def test_malformed_then_valid_takes_two_calls(self):
        transport = ScriptedTransport().add("verdict", "not json at all", '{"ok": true}')
        gw = scripted_gateway(transport)
        value = request_validated(gw, "verdict please", extract_json_payload, tag="t")
        assert value == {"ok": True}
        assert len(transport.calls) == 2

    def test_a_reply_cut_at_its_length_is_retried_with_memory_and_not_cached(self, tmp_path):
        class CutFirst:
            """Cuts the reply to each request sent without error memory."""

            def __init__(self):
                self.calls: list[CompletionRequest] = []

            def send(self, request):
                self.calls.append(request)
                if "Avoid repeating" not in request.prompt:
                    return TransportResponse(200, '{"ok": tr', "length")
                return TransportResponse(200, '{"ok": true}', "stop")

        def run():
            transport = CutFirst()
            gw = Gateway(transport, cache_dir=str(tmp_path))
            value = request_validated(gw, "verdict please", extract_json_payload, tag="t")
            return value, transport.calls

        value, calls = run()
        assert value == {"ok": True}
        assert len(calls) == 2
        assert calls[1].prompt.startswith("(attempt 2)")
        assert "reply cut at 4096 tokens; answer more briefly" in calls[1].prompt
        # A rerun finds only the second reply cached: the first is asked again.
        value, calls = run()
        assert value == {"ok": True}
        assert [c.prompt for c in calls] == ["verdict please"]

    def test_a_reply_cut_on_every_attempt_raises(self):
        class AlwaysCut:
            def send(self, request):
                return TransportResponse(200, "{", "length")

        gw = Gateway(AlwaysCut())
        with pytest.raises(MalformedOutputError, match="reply cut at 4096 tokens"):
            request_validated(gw, "verdict please", extract_json_payload, tag="t", max_retries=1)
        with pytest.raises(MalformedOutputError, match="reply cut at 4096 tokens"):
            gw.complete(req())

    def test_exhausted_retries_raise(self):
        transport = ScriptedTransport(default="still not json")
        gw = scripted_gateway(transport)
        with pytest.raises(MalformedOutputError):
            request_validated(gw, "verdict please", extract_json_payload, tag="t", max_retries=2)
        assert len(transport.calls) == 3

    def test_last_parse_runs_only_on_the_final_attempt(self):
        transport = ScriptedTransport(default="reply")
        gw = scripted_gateway(transport)
        seen: list[str] = []

        def strict(reply: str) -> str:
            seen.append("strict")
            raise ValueError("strict rejects")

        def lenient(reply: str) -> str:
            seen.append("lenient")
            return "kept"

        value = request_validated(
            gw, "verdict please", strict, last_parse=lenient, tag="t", max_retries=2
        )
        assert value == "kept"
        assert len(transport.calls) == 3
        assert seen == ["strict", "strict", "lenient"]

    def test_each_value_error_arg_is_one_memory_entry(self):
        transport = ScriptedTransport().add("verdict", "bad", "good")
        gw = scripted_gateway(transport)
        retries: list[tuple[int, list[str]]] = []

        def parse(reply: str) -> str:
            if reply == "bad":
                raise ValueError("first problem", "second problem")
            return reply

        value = request_validated(
            gw, "verdict please", parse, tag="t", on_retry=lambda a, p: retries.append((a, p))
        )
        assert value == "good"
        assert len(transport.calls) == 2
        assert retries == [(0, ["first problem", "second problem"])]
        assert "- first problem\n- second problem\n" in transport.calls[1].prompt

    def test_request_is_preamble_then_prompt_then_context(self):
        transport = ScriptedTransport().add("verdict", "bad", "good")
        gw = scripted_gateway(transport)

        def parse(reply: str) -> str:
            if reply == "bad":
                raise ValueError("too vague")
            return reply

        request_validated(gw, "verdict please\n", parse, tag="t", context="the evidence")
        first, retry = (c.prompt for c in transport.calls)
        assert first == "verdict please\nthe evidence"
        memory = ErrorMemory().record("too vague").render()
        assert retry == "(attempt 2)\n" + memory + "verdict please\nthe evidence"

    def test_context_is_cut_to_the_window_and_the_cut_logged(self):
        transport = ScriptedTransport(default='{"ok": true}')
        gw = scripted_gateway(transport, profile=BackendProfile(context_window=10))
        runlog = RunLog()
        prompt = "p" * 20  # 5 tokens, leaving 5 for the context
        request_validated(
            gw, prompt, extract_json_payload, tag="t", context="c" * 100, runlog=runlog
        )
        assert transport.calls[0].prompt == prompt + "c" * 20
        assert runlog.of_kind("context_compressed") == [
            {"kind": "context_compressed", "stage": "t"}
        ]
        request_validated(
            gw, prompt, extract_json_payload, tag="t", context="c" * 20, runlog=runlog
        )
        assert len(runlog.of_kind("context_compressed")) == 1

    def test_extract_chat_text(self):
        payload = {"choices": [{"message": {"content": "hi"}}]}
        assert extract_chat_text(payload) == "hi"
        with pytest.raises(BackendError):
            extract_chat_text({"choices": []})


class TestHttpClients:
    def test_a_chat_reply_that_is_not_json_is_a_backend_error(self, monkeypatch):
        monkeypatch.setattr(requests, "post", html_page)
        with pytest.raises(BackendError, match="chat completion reply is not JSON"):
            HttpChatTransport("http://chat", "model").send(req())

    def test_an_embedding_reply_that_is_not_json_is_a_backend_error(self, monkeypatch):
        monkeypatch.setattr(requests, "post", html_page)
        with pytest.raises(BackendError, match="embedding reply is not JSON"):
            HttpEmbedder("http://embed", "model").encode(["text"])

    def test_an_embedding_error_body_is_a_backend_error(self, monkeypatch):
        monkeypatch.setattr(requests, "post", json_reply({"error": {"message": "overloaded"}}))
        with pytest.raises(BackendError, match="unexpected embedding payload"):
            HttpEmbedder("http://embed", "model").encode(["text"])

    def test_an_embedding_reply_short_of_vectors_is_a_backend_error(self, monkeypatch):
        monkeypatch.setattr(requests, "post", json_reply({"data": [{"embedding": [1.0, 0.0]}]}))
        gw = Gateway(ScriptedTransport(), embedder=HttpEmbedder("http://embed", "model"))
        with pytest.raises(BackendError, match="1 vectors for 2 texts"):
            gw.embed(["a", "b"])

    @pytest.mark.parametrize(
        "status, header, seconds",
        [
            (429, "3", 3.0),
            (503, "0.5", 0.5),
            (429, "Wed, 21 Oct 2026 07:28:00 GMT", None),
            (429, "-1", None),
            (400, "3", None),
        ],
    )
    def test_a_retryable_status_carries_its_retry_after(self, monkeypatch, status, header, seconds):
        def post(*args, **kwargs) -> requests.Response:
            resp = requests.Response()
            resp.status_code = status
            resp.headers["Retry-After"] = header
            resp._content = b"busy"
            return resp

        monkeypatch.setattr(requests, "post", post)
        response = HttpChatTransport("http://chat", "model").send(req())
        assert (response.status, response.retry_after) == (status, seconds)
        if status != 400:
            with pytest.raises(TransientBackendError) as err:
                HttpEmbedder("http://embed", "model").encode(["text"])
            assert err.value.retry_after == seconds

    @pytest.mark.parametrize("reason", ["length", "stop", None])
    def test_a_chat_reply_reports_why_it_stopped(self, monkeypatch, reason):
        choice = {"message": {"role": "assistant", "content": "hi"}, "finish_reason": reason}
        monkeypatch.setattr(requests, "post", json_reply({"choices": [choice]}))
        response = HttpChatTransport("http://chat", "model").send(req())
        assert (response.status, response.text, response.finish_reason) == (200, "hi", reason)

    def test_a_chat_reply_without_text_is_a_backend_error(self, monkeypatch):
        reply = {"choices": [{"message": {"role": "assistant", "content": None}}]}
        monkeypatch.setattr(requests, "post", json_reply(reply))
        gw = Gateway(HttpChatTransport("http://chat", "model"))
        with pytest.raises(BackendError, match="content is not text"):
            request_validated(gw, "p", extract_json_payload, tag="t")


def test_canned_reply_queue_is_sticky_on_last():
    transport = ScriptedTransport().add("x", CannedReply("first"), CannedReply("rest"))
    gw = scripted_gateway(transport)
    assert gw.complete(req("x 1")) == "first"
    assert gw.complete(req("x 2")) == "rest"
    assert gw.complete(req("x 3")) == "rest"


class SlowLenList(list):
    """Reply queue whose len() yields the interpreter lock, widening the
    window between checking the queue and popping from it."""

    def __len__(self) -> int:
        length = super().__len__()
        time.sleep(0.001)
        return length


def test_canned_reply_queue_serves_each_reply_once_under_concurrent_sends():
    transport = ScriptedTransport().add("x", "first", "second", "rest")
    pattern, queue = transport._rules[0]
    transport._rules[0] = (pattern, SlowLenList(queue))
    start = threading.Barrier(8)
    replies: list[str] = []
    errors: list[Exception] = []

    def send():
        start.wait(timeout=10)
        try:
            replies.append(transport.send(req("x")).text)
        except Exception as exc:  # any failure of a send is the finding
            errors.append(exc)

    threads = [threading.Thread(target=send) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(replies) == ["first"] + ["rest"] * 6 + ["second"]
