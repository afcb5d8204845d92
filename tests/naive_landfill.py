"""Naive list-based reference for the fading store.

Deliberately dumb: entries live in a plain list and every operation
scans it. This is the behavioral oracle the real heap-backed store is
compared against, op for op.
"""

from operator import attrgetter

REJECTED = "rejected_too_large"
STORED = "stored"


class NaiveLandfill:
    def __init__(self, capacity_bytes, fade_lifetime_epochs, refresh_on_read=True):
        self.capacity = capacity_bytes
        self.fade = fade_lifetime_epochs
        self.refresh = refresh_on_read
        self.entries = []  # [key, value, last_access_epoch]
        self.epoch = 0
        self.evictions = 0
        self.fades = 0

    def put(self, key, value):
        if len(value) > self.capacity:
            return REJECTED
        self.entries = [e for e in self.entries if e[0] != key]
        while sum(len(e[1]) for e in self.entries) + len(value) > self.capacity:
            victim = min(self.entries, key=lambda e: (e[2], e[0]))
            self.entries.remove(victim)
            self.evictions += 1
        self.entries.append([key, value, self.epoch])
        return STORED

    def get(self, key):
        for e in self.entries:
            if e[0] == key:
                if self.refresh:
                    e[2] = self.epoch
                return e[1]
        return None

    def advance_epoch(self, n):
        self.epoch += n
        faded = [e for e in self.entries if self.epoch - e[2] > self.fade]
        self.entries = [e for e in self.entries if self.epoch - e[2] <= self.fade]
        self.fades += len(faded)
        return len(faded), sum(len(e[1]) for e in faded)

    def stats(self):
        return {
            "live_entries": len(self.entries),
            "live_bytes": sum(len(e[1]) for e in self.entries),
            "capacity_bytes": self.capacity,
            "current_epoch": self.epoch,
            "lifetime_evictions": self.evictions,
            "lifetime_fades": self.fades,
        }

    def stats_tuple(self):
        return (
            len(self.entries),
            sum(len(e[1]) for e in self.entries),
            self.capacity,
            self.epoch,
            self.evictions,
            self.fades,
        )


def random_ops(rng, count, key_space=24, max_size=200, put_w=35, get_w=55, adv_w=10):
    """Mixed put/get/advance op stream. Values are random bytes, so any
    two puts almost surely differ and a store returning the wrong
    entry's bytes cannot go unnoticed."""
    ops = []
    verbs = ["PUT"] * put_w + ["GET"] * get_w + ["ADV"] * adv_w
    keys = [f"k{i}".encode() for i in range(key_space)]
    choice, randrange, randbytes = rng.choice, rng.randrange, rng.randbytes
    for _ in range(count):
        verb = choice(verbs)
        if verb == "PUT":
            ops.append(("PUT", choice(keys), randbytes(randrange(0, max_size + 1))))
        elif verb == "GET":
            ops.append(("GET", choice(keys)))
        else:
            ops.append(("ADV", randrange(1, 4)))
    return ops


def naive_replay_events(naive_store, ops):
    """The events `replay` must encode for a trace, built by driving the
    oracle with a zero-filled value of each PUT's size. A PUT larger than
    the capacity is rejected before its value is looked at, so no value
    is built for it: a trace may name sizes no memory can hold."""
    events = []
    for index, op in enumerate(ops):
        if op[0] == "PUT":
            outcome = REJECTED if op[2] > naive_store.capacity else naive_store.put(op[1], b"\x00" * op[2])
            event = {"op": "PUT", "key": op[1].decode("utf-8"), "size": op[2], "outcome": outcome}
        elif op[0] == "GET":
            result = "faded" if naive_store.get(op[1]) is None else "hit"
            event = {"op": "GET", "key": op[1].decode("utf-8"), "result": result}
        else:
            faded, reclaimed = naive_store.advance_epoch(op[1])
            event = {"op": "ADV", "n": op[1], "entries_faded": faded, "bytes_reclaimed": reclaimed}
        event["index"] = index
        event["stats"] = naive_store.stats()
        events.append(event)
    return events


def run_store(store, ops):
    """Apply ops to the heap-backed store alone, recording after every
    op its raw outcome and its raw stats() result. Nothing is converted
    here, so timing this call times the store and the recording only."""
    put, get, advance, stats = store.put, store.get, store.advance_epoch, store.stats
    outcomes, snapshots = [], []
    record_outcome, record_stats = outcomes.append, snapshots.append
    for op in ops:
        verb = op[0]
        if verb == "PUT":
            record_outcome(put(op[1], op[2]))
        elif verb == "GET":
            record_outcome(get(op[1]))
        else:
            record_outcome(advance(op[1]))
        record_stats(stats())
    return outcomes, snapshots


_STATS_FIELDS = attrgetter(
    "live_entries",
    "live_bytes",
    "capacity_bytes",
    "current_epoch",
    "lifetime_evictions",
    "lifetime_fades",
)


def store_observables(ops, outcomes, snapshots):
    """Turn a run_store record into (outcome, stats tuple) per op, in the
    oracle's form. Stats fields are read by name, so a reordered or
    renamed field cannot pass unnoticed."""
    observed = []
    for op, outcome, stats in zip(ops, outcomes, snapshots, strict=True):
        if op[0] == "PUT":
            outcome = outcome.value
        elif op[0] == "ADV":
            outcome = (outcome.entries_faded, outcome.bytes_reclaimed)
        observed.append((outcome, _STATS_FIELDS(stats)))
    return observed


def naive_observables(naive_store, ops):
    """Apply ops to the oracle, recording (outcome, stats tuple) per op."""
    observed = []
    for op in ops:
        if op[0] == "PUT":
            outcome = naive_store.put(op[1], op[2])
        elif op[0] == "GET":
            outcome = naive_store.get(op[1])
        else:
            outcome = naive_store.advance_epoch(op[1])
        observed.append((outcome, naive_store.stats_tuple()))
    return observed


def assert_same_observables(ops, got, want):
    """Fail on the first op after which the store and the oracle differ,
    naming its index, the op and both observables."""
    if got == want:
        return
    for index, (op, g, w) in enumerate(zip(ops, got, want, strict=True)):
        if g != w:
            shown = ("PUT", op[1], f"<{len(op[2])} bytes>") if op[0] == "PUT" else op
            raise AssertionError(f"divergence at op {index} {shown}: store {g!r} != reference {w!r}")


def assert_equivalent(real_store, naive_store, ops):
    """Apply ops to both stores, comparing every observable after every
    single operation."""
    got = store_observables(ops, *run_store(real_store, ops))
    assert_same_observables(ops, got, naive_observables(naive_store, ops))
