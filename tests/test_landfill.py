"""Fading-store behavior: worked examples plus the naive list oracle."""

import io
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import wastekit
from wastekit import landfill
from wastekit.errors import TraceError, WastekitError
from wastekit.landfill import (
    DigitalLandfill,
    LandfillConfig,
    LandfillStats,
    PutOutcome,
    load_trace,
    parse_trace,
    replay,
)

from naive_landfill import NaiveLandfill, assert_equivalent, naive_replay_events, random_ops

LONG = "9" * 5000  # past Python's digit limit for str-to-int


def store(capacity=100, fade=3, refresh=True):
    return DigitalLandfill(LandfillConfig(capacity, fade, refresh_on_read=refresh))


class TestConfig:
    def test_rejects_zero_capacity(self):
        with pytest.raises(WastekitError):
            LandfillConfig(0, 1)

    def test_rejects_zero_fade_lifetime(self):
        with pytest.raises(WastekitError):
            LandfillConfig(10, 0)

    @pytest.mark.parametrize("field", ["capacity_bytes", "fade_lifetime_epochs"])
    @pytest.mark.parametrize("value", [100.0, 1.5, True])
    def test_integer_fields_must_be_ints(self, field, value):
        # Once capacity_bytes=True made `replay` write `"capacity_bytes": True`,
        # which is not JSON, and 100.0 wrote `100.0`.
        kwargs = {"capacity_bytes": 100, "fade_lifetime_epochs": 2} | {field: value}
        with pytest.raises(WastekitError, match=f"{field} must be an integer"):
            LandfillConfig(**kwargs)

    @pytest.mark.parametrize(
        "value, message",
        [(-10**5000, "must be >= 1, got a negative integer of 16610 bits"),
         ([10**5000], "must be an integer, got a list holding an integer too long to show")],
        ids=["negative-int", "list"],
    )
    def test_refused_value_too_long_to_show_is_described(self, value, message):
        # Once repr() of such an int raised a bare ValueError that advised
        # sys.set_int_max_str_digits().
        with pytest.raises(WastekitError) as info:
            LandfillConfig(capacity_bytes=value, fade_lifetime_epochs=1)
        assert str(info.value) == f"capacity_bytes {message}"


class TestPut:
    def test_store_into_empty(self):
        s = store()
        assert s.put(b"a", b"xxx") is PutOutcome.STORED
        assert s.stats().live_bytes == 3

    def test_oversized_value_rejected_store_unchanged(self):
        s = store(capacity=100)
        s.put(b"a", b"x" * 60)
        before = s.stats()
        assert s.put(b"big", b"x" * 101) is PutOutcome.REJECTED_TOO_LARGE
        assert s.stats() == before
        assert s.get(b"big") is None

    def test_value_of_exactly_capacity_fits(self):
        s = store(capacity=100)
        assert s.put(b"a", b"x" * 100) is PutOutcome.STORED

    def test_lru_eviction_on_pressure(self):
        # A(60 B) stored at epoch 0, B(30 B) at epoch 1; C(40 B) at epoch 2
        # must push out A, the least recently used.
        s = store(capacity=100, fade=10)
        s.put(b"A", b"a" * 60)
        s.advance_epoch(1)
        s.put(b"B", b"b" * 30)
        s.advance_epoch(1)
        assert s.put(b"C", b"c" * 40) is PutOutcome.STORED
        assert s.live_keys() == [b"B", b"C"]
        assert s.get(b"A") is None
        assert s.stats().lifetime_evictions == 1

    def test_eviction_tie_breaks_by_key(self):
        s = store(capacity=100, fade=10)
        s.put(b"beta", b"x" * 50)
        s.put(b"alpha", b"x" * 50)  # same epoch as beta
        s.put(b"new", b"x" * 10)
        assert b"alpha" not in s.live_keys()
        assert b"beta" in s.live_keys()

    def test_overwrite_refreshes_and_is_not_an_eviction(self):
        s = store(capacity=100, fade=2)
        s.put(b"k", b"old")
        s.advance_epoch(2)
        s.put(b"k", b"new value")
        assert s.stats().lifetime_evictions == 0
        s.advance_epoch(2)  # within lifetime of the refreshed write
        assert s.get(b"k") == b"new value"

    def test_capacity_invariant_after_any_put(self):
        rng = random.Random(1)
        s = store(capacity=500, fade=5)
        for i in range(300):
            s.put(f"k{rng.randrange(40)}".encode(), b"v" * rng.randrange(0, 120))
            assert s.stats().live_bytes <= 500


class TestGet:
    def test_never_inserted_is_faded(self):
        assert store().get(b"ghost") is None

    def test_refresh_on_read(self):
        s = store(fade=3)
        s.put(b"k", b"v")
        s.advance_epoch(2)
        assert s.get(b"k") == b"v"  # read at epoch 2 refreshes
        s.advance_epoch(3)  # epoch 5; 5-2=3 not > 3
        assert s.get(b"k") == b"v"

    def test_fade_without_access(self):
        s = store(fade=3)
        s.put(b"k", b"v")
        s.advance_epoch(4)
        assert s.get(b"k") is None

    def test_no_refresh_when_disabled(self):
        s = store(fade=3, refresh=False)
        s.put(b"k", b"v")
        s.advance_epoch(2)
        assert s.get(b"k") == b"v"  # readable but not refreshed
        s.advance_epoch(2)  # 4 - 0 > 3
        assert s.get(b"k") is None


class TestKeys:
    """A key and a value must be `bytes`; with a log attached, a key's
    log text must also be one trace field: UTF-8, not empty, no
    whitespace. A refused call raises a one-line WastekitError and leaves
    the store and its log as they were."""

    @staticmethod
    def filled(log=None):
        s = DigitalLandfill(LandfillConfig(100, 2), log=log)
        s.put(b"a", b"xyz")
        s.advance_epoch(1)
        return s

    @pytest.mark.parametrize("key", ["b", 7, bytearray(b"b"), None])
    @pytest.mark.parametrize("call", ["put", "get"])
    def test_refuses_a_key_that_is_not_bytes(self, call, key):
        # Once a str key was stored and then failed in the heap, ordered
        # against a bytes key, with a TypeError traceback.
        s = self.filled()
        before = (s.stats(), s.live_keys())
        args = (key, b"v") if call == "put" else (key,)
        with pytest.raises(WastekitError) as info:
            getattr(s, call)(*args)
        assert str(info.value) == f"key must be bytes, got {type(key).__name__}"
        assert (s.stats(), s.live_keys()) == before

    @pytest.mark.parametrize(
        "key", [b"", b"x\nADV 9", b"a b", b"tab\t", b"cr\r", b"\x1c", "nl\u2028".encode(), "nb\u0085".encode()]
    )
    @pytest.mark.parametrize("call", ["put", "get"])
    def test_logged_key_must_read_back_as_one_field(self, call, key):
        # Once get(b"x\nADV 9") logged `GET x` and `ADV 9`, and the log
        # replayed to a store at epoch 10 with its entry faded.
        log = io.StringIO()
        s = self.filled(log)
        before = (s.stats(), s.live_keys(), log.getvalue())
        args = (key, b"v") if call == "put" else (key,)
        with pytest.raises(WastekitError, match="^a logged key must be text without whitespace, got ") as info:
            getattr(s, call)(*args)
        assert "\n" not in str(info.value)
        assert (s.stats(), s.live_keys(), log.getvalue()) == before
        again = DigitalLandfill(LandfillConfig(100, 2))
        for _ in replay(again, parse_trace(log.getvalue().splitlines())):
            pass
        assert again.stats() == s.stats()

    @pytest.mark.parametrize("key", [b"\xff", b"a\xffb"])
    @pytest.mark.parametrize("call", ["put", "get"])
    def test_logged_key_must_be_utf8(self, call, key):
        # Once such a key was logged with `\xNN` escapes, the text of
        # another key (see test_operation_log_refuses_non_utf8_keys).
        log = io.StringIO()
        s = self.filled(log)
        before = (s.stats(), s.live_keys(), log.getvalue())
        args = (key, b"v") if call == "put" else (key,)
        with pytest.raises(WastekitError) as info:
            getattr(s, call)(*args)
        assert str(info.value) == f"a logged key must be UTF-8, got {key!r}"
        assert (s.stats(), s.live_keys(), log.getvalue()) == before

    @pytest.mark.parametrize("value", ["\u00e9" * 10, None, bytearray(b"v"), memoryview(b"v"), 7])
    @pytest.mark.parametrize("logged", [False, True])
    def test_refuses_a_value_that_is_not_bytes(self, logged, value):
        # Once put(b"k", "\u00e9" * 10) stored the str as 10 bytes (its
        # UTF-8 is 20), and put(b"k", None) raised a TypeError from len.
        log = io.StringIO() if logged else None
        s = self.filled(log)
        before = (s.stats(), s.live_keys(), log and log.getvalue())
        with pytest.raises(WastekitError) as info:
            s.put(b"k", value)
        assert str(info.value) == f"value must be bytes, got {type(value).__name__}"
        assert (s.stats(), s.live_keys(), log and log.getvalue()) == before
        assert s.get(b"k") is None

    def test_whitespace_keys_are_kept_without_a_log(self):
        s = store()
        assert s.put(b"a b", b"xy") is PutOutcome.STORED
        assert s.get(b"a b") == b"xy"
        assert s.put(b"", b"z") is PutOutcome.STORED
        assert s.get(b"") == b"z"

    def test_non_utf8_keys_are_kept_without_a_log(self):
        s = store()
        assert s.put(b"\xff", b"w") is PutOutcome.STORED
        assert s.put(b"\\xff", b"xy") is PutOutcome.STORED
        assert (s.get(b"\xff"), s.get(b"\\xff")) == (b"w", b"xy")


class TestAdvance:
    def test_requires_positive_step(self):
        with pytest.raises(WastekitError, match="^n must be >= 1, got 0$"):
            store().advance_epoch(0)

    @pytest.mark.parametrize("n", [1.5, True])
    def test_step_must_be_an_int(self, n):
        # 1.5 was once accepted, and the epoch became 1.5.
        s = store()
        with pytest.raises(WastekitError, match=r"^n must be an integer, got \S+$"):
            s.advance_epoch(n)
        assert s.stats().current_epoch == 0

    def test_empty_store(self):
        fs = store().advance_epoch(5)
        assert (fs.entries_faded, fs.bytes_reclaimed) == (0, 0)

    def test_fade_counts_and_bytes(self):
        s = store(capacity=1000, fade=3)
        s.put(b"old", b"x" * 10)  # epoch 0
        s.advance_epoch(5)
        s.put(b"mid", b"y" * 7)  # epoch 5
        # jump to epoch 9: old is long gone (already faded at epoch 4+),
        # and 9-5=4 > 3 fades mid too
        fs = s.advance_epoch(4)
        assert (fs.entries_faded, fs.bytes_reclaimed) == (1, 7)
        assert s.stats().lifetime_fades == 2
        assert s.stats().live_entries == 0

    def test_single_advance_fades_multiple_strict_inequality(self):
        # entries last accessed at epochs 2 and 5; one jump to epoch 9
        # fades both: 9-2=7 > 3 and 9-5=4 > 3
        s = store(capacity=1000, fade=3)
        s.advance_epoch(2)
        s.put(b"old", b"x" * 10)
        s.advance_epoch(3)  # epoch 5: 5-2=3 is not > 3, so old survives
        assert s.stats().live_entries == 1
        s.put(b"mid", b"y" * 7)
        fs = s.advance_epoch(4)
        assert (fs.entries_faded, fs.bytes_reclaimed) == (2, 17)

    def test_advance_composes(self):
        def build():
            s = store(capacity=1000, fade=1)
            s.put(b"a", b"1" * 4)
            s.put(b"b", b"2" * 6)
            return s

        stepped = build()
        stepped.advance_epoch(1)
        stepped.advance_epoch(1)
        jumped = build()
        jumped.advance_epoch(2)
        assert stepped.live_keys() == jumped.live_keys()
        assert stepped.stats() == jumped.stats()

    def test_no_resurrection(self):
        s = store(capacity=50, fade=2)
        s.put(b"gone", b"x" * 40)
        s.advance_epoch(3)
        assert s.get(b"gone") is None
        s.put(b"other", b"y" * 30)
        assert s.get(b"gone") is None
        s.put(b"gone", b"fresh")
        assert s.get(b"gone") == b"fresh"


def test_liveness_guarantee():
    """An entry accessed within the fade window and never under capacity
    pressure is always retrievable."""
    s = store(capacity=10_000, fade=4)
    s.put(b"hot", b"h" * 10)
    rng = random.Random(2)
    for i in range(50):
        s.advance_epoch(rng.randrange(1, 4))
        assert s.get(b"hot") == b"h" * 10  # each read re-arms the fade clock
        s.put(f"noise{i}".encode(), b"n" * 20)


def test_heap_bounded_by_live_entries():
    """Overwrites and refreshes leave stale heap records behind; the heap
    is rebuilt before they outnumber the live entries by more than the
    slack."""
    bound = 2 * 10 + landfill._HEAP_SLACK
    s = store(capacity=10_000, fade=10**6)
    for i in range(200_000):
        s.put(f"k{i % 10}".encode(), b"v")
    assert len(s._heap) <= bound
    for i in range(100_000):
        s.advance_epoch(1)
        s.get(f"k{i % 10}".encode())
    assert len(s._heap) <= bound
    assert s.stats().live_entries == 10


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_traces_small(self, seed):
        rng = random.Random(seed)
        capacity = rng.randrange(200, 2000)
        fade = rng.randrange(1, 8)
        real = DigitalLandfill(LandfillConfig(capacity, fade))
        naive = NaiveLandfill(capacity, fade)
        assert_equivalent(real, naive, random_ops(rng, 2000))

    def test_no_refresh_variant(self):
        rng = random.Random(99)
        real = DigitalLandfill(LandfillConfig(500, 2, refresh_on_read=False))
        naive = NaiveLandfill(500, 2, refresh_on_read=False)
        assert_equivalent(real, naive, random_ops(rng, 2000))

    def test_overwrite_heavy_trace(self):
        # Ten keys, mostly puts: the heap is rebuilt many times over the
        # trace, under evictions and fades.
        rng = random.Random(7)
        real = DigitalLandfill(LandfillConfig(600, 3))
        ops = random_ops(rng, 20_000, key_space=10, put_w=80, get_w=15, adv_w=5)
        assert_equivalent(real, NaiveLandfill(600, 3), ops)
        assert len(real._heap) <= 2 * 10 + landfill._HEAP_SLACK

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("PUT"), st.binary(min_size=1, max_size=3), st.binary(max_size=30)),
                st.tuples(st.just("GET"), st.binary(min_size=1, max_size=3)),
                st.tuples(st.just("ADV"), st.integers(1, 5)),
            ),
            max_size=60,
        )
    )
    def test_hypothesis_op_sequences(self, ops):
        real = DigitalLandfill(LandfillConfig(64, 2))
        naive = NaiveLandfill(64, 2)
        assert_equivalent(real, naive, ops)


class TestReplay:
    """Replay stores a PUT's size through the same path as `put`, without
    building the value, and writes each event line itself: the lines must
    be byte for byte what `json.dumps(event, sort_keys=True)` gives."""

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(1, 40),
        fade=st.integers(1, 3),
        refresh=st.booleans(),
        data=st.data(),
    )
    def test_events_match_oracle(self, capacity, fade, refresh, data):
        # Few keys, so PUTs overwrite; among them keys that JSON must
        # escape: a quote, a backslash, control characters, non-ASCII and
        # astral (surrogate pair) characters. Sizes run past the capacity,
        # up to far beyond a machine word, and hit it exactly, so PUTs
        # are rejected and fill the store.
        keys = st.sampled_from(
            [b"a", b"b", "caf\u00e9".encode(), "\u65e5".encode(), b'q"uote', b"back\\slash",
             "\U0001f600".encode(), b"\x7f\x1f\t"]
        )
        sizes = st.one_of(st.integers(0, capacity + 3), st.just(capacity), st.integers(capacity, 10**30))
        ops = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("PUT"), keys, sizes),
                    st.tuples(st.just("GET"), keys),
                    st.tuples(st.just("ADV"), st.integers(1, 3)),
                ),
                max_size=60,
            )
        )
        store = DigitalLandfill(LandfillConfig(capacity, fade, refresh_on_read=refresh))
        naive = NaiveLandfill(capacity, fade, refresh_on_read=refresh)
        expected = [json.dumps(event, sort_keys=True) + "\n" for event in naive_replay_events(naive, ops)]
        assert list(replay(store, ops)) == expected

    def test_huge_sizes_are_encoded_like_json_dumps(self):
        # Sizes and byte counts past 2**64, stored, evicted and faded.
        ops = [("PUT", b"a", 10**30), ("PUT", b"b", 10**29), ("GET", b"a"), ("ADV", 3)]
        store = DigitalLandfill(LandfillConfig(10**30, 2))
        stats = {"capacity_bytes": 10**30, "current_epoch": 0, "lifetime_evictions": 0, "lifetime_fades": 0}
        expected = [
            {"op": "PUT", "key": "a", "size": 10**30, "outcome": "stored", "index": 0,
             "stats": {**stats, "live_bytes": 10**30, "live_entries": 1}},
            {"op": "PUT", "key": "b", "size": 10**29, "outcome": "stored", "index": 1,
             "stats": {**stats, "lifetime_evictions": 1, "live_bytes": 10**29, "live_entries": 1}},
            {"op": "GET", "key": "a", "result": "faded", "index": 2,
             "stats": {**stats, "lifetime_evictions": 1, "live_bytes": 10**29, "live_entries": 1}},
            {"op": "ADV", "n": 3, "entries_faded": 1, "bytes_reclaimed": 10**29, "index": 3,
             "stats": {**stats, "current_epoch": 3, "lifetime_evictions": 1, "lifetime_fades": 1,
                       "live_bytes": 0, "live_entries": 0}},
        ]
        assert list(replay(store, ops)) == [json.dumps(event, sort_keys=True) + "\n" for event in expected]

    @staticmethod
    def checked_lines(store, ops, between=lambda index: None):
        """Replay `ops`, asserting that each line's stats are the store's
        when it is yielded; `between(index)` runs after line `index`."""
        for index, line in enumerate(replay(store, ops)):
            assert json.loads(line)["stats"] == store.stats()._asdict(), f"line {index}"
            between(index)
        return index + 1

    def test_stats_follow_changes_made_between_lines(self):
        # A consumer that writes to the store between lines: the GET lines
        # after each change must show it, so the stats text cannot be
        # reused on the strength of the op kind alone.
        s = DigitalLandfill(LandfillConfig(100, 2))
        ops = [("PUT", b"a", 10), ("GET", b"a"), ("GET", b"a"), ("GET", b"b"), ("GET", b"a"), ("GET", b"a")]
        changes = {
            0: lambda: s.put(b"b", b"12345"),  # live bytes and entries
            1: lambda: s.advance_epoch(1),  # the epoch
            2: lambda: s.put(b"c", b"x" * 90),  # evictions
            3: lambda: s.advance_epoch(3),  # fades
        }
        assert self.checked_lines(s, ops, lambda index: changes.get(index, lambda: None)()) == len(ops)
        assert s.stats() == (0, 0, 100, 4, 1, 2)

    def test_stats_of_a_store_filled_beforehand(self):
        s = DigitalLandfill(LandfillConfig(100, 2))
        s.put(b"x", b"x" * 60)
        s.put(b"y", b"y" * 50)
        s.advance_epoch(2)
        s.put(b"z", b"z" * 10)
        assert self.checked_lines(s, [("GET", b"y"), ("GET", b"x"), ("ADV", 1), ("GET", b"z")]) == 4
        assert s.stats() == (2, 60, 100, 3, 1, 0)

    def test_memory_is_bounded_by_entries_not_sizes(self):
        ops = parse_trace(["PUT k 50000000", "GET k"])
        store = DigitalLandfill(LandfillConfig(10**8, 2))
        tracemalloc.start()
        try:
            lines = list(replay(store, ops))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        events = [json.loads(line) for line in lines]
        assert events[1]["result"] == "hit"
        assert events[1]["stats"]["live_bytes"] == 50_000_000


class TestTrace:
    def test_parse_happy_path(self):
        ops = parse_trace(["PUT a 10", "", "# comment", "GET a", "ADV 2"])
        assert ops == [("PUT", b"a", 10), ("GET", b"a"), ("ADV", 2)]

    @pytest.mark.parametrize(
        "line",
        [
            "FROB x", "PUT a", "PUT a ten", "PUT a -1", "GET", "ADV 0", "ADV x", "PUT a 1 2",
            pytest.param(f"PUT a {LONG}", id="PUT a 5000-digit size"),
            pytest.param(f"ADV -{LONG}", id="ADV 5000-digit n"),
            pytest.param("GET \ud800", id="GET unencodable key"),
        ],
    )
    def test_parse_rejects(self, line):
        with pytest.raises(TraceError) as info:
            parse_trace(["# first", line])
        message = str(info.value)
        assert message.startswith("trace line 2: ")
        assert "set_int_max_str_digits" not in message
        if LONG in line:
            assert message.endswith(" holds a number too long to read")

    def test_load_missing_file(self):
        with pytest.raises(WastekitError):
            load_trace("/no/such/trace.txt")

    def test_replay_events(self):
        ops = parse_trace(["PUT a 10", "GET a", "ADV 5"])
        s = store(capacity=100, fade=3)
        events = [json.loads(line) for line in replay(s, ops)]
        assert [e["op"] for e in events] == ["PUT", "GET", "ADV"]
        assert events[0]["outcome"] == "stored"
        assert events[1]["result"] == "hit"
        assert events[2]["entries_faded"] == 1
        assert events[2]["stats"]["live_entries"] == 0

    def test_operation_log_replays_to_same_state(self, tmp_path):
        ops = parse_trace(["PUT a 10", "PUT b 90", "GET a", "ADV 2", "PUT c 50", "GET b", "ADV 1"])
        log = io.StringIO()
        first = DigitalLandfill(LandfillConfig(120, 2), log=log)
        for _ in replay(first, ops):
            pass
        # the log is itself a trace; replaying it rebuilds the store
        second = DigitalLandfill(LandfillConfig(120, 2))
        for _ in replay(second, parse_trace(log.getvalue().splitlines())):
            pass
        assert first.stats() == second.stats()
        assert first.live_keys() == second.live_keys()

    def test_operation_log_refuses_non_utf8_keys(self):
        # Once b"\xff" was logged as `PUT \xff 3`, which is also the log
        # text of the key b"\\xff": the store held 2 entries and 8 bytes,
        # and its log replayed to 1 entry and 5 bytes.
        log = io.StringIO()
        s = DigitalLandfill(LandfillConfig(100, 2), log=log)
        with pytest.raises(WastekitError, match=r"^a logged key must be UTF-8, got b'\\xff'$"):
            s.put(b"\xff", b"abc")
        s.put(b"\\xff", b"defgh")
        assert log.getvalue() == "PUT \\xff 5\n"
        again = DigitalLandfill(LandfillConfig(100, 2))
        for _ in replay(again, parse_trace(log.getvalue().splitlines())):
            pass
        assert again.stats() == s.stats()
        assert (s.stats().live_entries, s.stats().live_bytes) == (1, 5)

    def test_stats_public_surface(self):
        s = store(capacity=100, fade=3)
        s.put(b"a", b"xyz")
        expected = LandfillStats(
            live_entries=1,
            live_bytes=3,
            capacity_bytes=100,
            current_epoch=0,
            lifetime_evictions=0,
            lifetime_fades=0,
        )
        assert s.stats() == expected
        assert s.stats()._asdict() == {
            "live_entries": 1,
            "live_bytes": 3,
            "capacity_bytes": 100,
            "current_epoch": 0,
            "lifetime_evictions": 0,
            "lifetime_fades": 0,
        }
        assert wastekit.LandfillStats is LandfillStats
