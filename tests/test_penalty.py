"""Penalty factor math, share apportionment, and the tick simulator."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wastekit.errors import TraceError, WastekitError
from wastekit.penalty import (
    SchedulerConfig,
    load_workload,
    parse_workload,
    simulate,
)

from naive_penalty import (
    ProducerAccount,
    allocate_shares,
    events_at,
    fraction_largest_remainder,
    fraction_simulate,
    largest_remainder,
    naive_apportion,
    naive_fair_sim,
    penalty_factor,
)


def acct(pid="p", useful=0, waste=0, weight=1):
    return ProducerAccount(id=pid, useful_bytes=useful, waste_bytes=waste, base_weight=weight)


class TestPenaltyFactor:
    def test_zero_waste_is_unpenalized(self):
        assert penalty_factor(acct(useful=10**9), alpha=5) == 1

    def test_alpha_zero_disables_penalty(self):
        assert penalty_factor(acct(useful=1, waste=10**9), alpha=0) == 1

    def test_documented_midpoint(self):
        # waste_ratio 1/2 with alpha 2 → 1 / (1 + 1) = 1/2 exactly
        a = acct(useful=50, waste=50)
        assert penalty_factor(a, alpha=2) == Fraction(1, 2)

    def test_empty_account_guard(self):
        # max(1, useful + waste) avoids 0/0 for a brand-new producer
        assert penalty_factor(acct(), alpha=3) == 1

    def test_result_is_exact_rational(self):
        f = penalty_factor(acct(useful=2, waste=1), alpha=Fraction(1, 3))
        assert f == 1 / (1 + Fraction(1, 3) * Fraction(1, 3))
        assert isinstance(f, Fraction)

    def test_rejects_negative_alpha(self):
        with pytest.raises(WastekitError):
            penalty_factor(acct(), alpha=-1)

    @given(st.integers(0, 10**12), st.integers(0, 10**12), st.integers(0, 10**12))
    def test_bounded_in_unit_interval(self, useful, w1, alpha):
        f = penalty_factor(acct(useful=useful, waste=w1), alpha)
        assert 0 < f <= 1

    @given(st.integers(0, 10**9), st.integers(0, 10**6), st.integers(1, 100))
    def test_monotone_in_waste(self, useful, waste, alpha):
        f1 = penalty_factor(acct(useful=useful, waste=waste), alpha)
        f2 = penalty_factor(acct(useful=useful, waste=waste + 1 + waste // 2), alpha)
        assert f2 <= f1


class TestAccount:
    def test_rejects_negative_bytes(self):
        with pytest.raises(WastekitError):
            acct(useful=-1)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(WastekitError):
            acct(weight=0)

    def test_accrue_accumulates(self):
        a = acct()
        a.accrue(10, 5)
        a.accrue(0, 2)
        assert (a.useful_bytes, a.waste_bytes) == (10, 7)
        with pytest.raises(WastekitError):
            a.accrue(-1, 0)


class TestAllocateShares:
    def config(self, bandwidth=300, alpha=2, ticks=1):
        return SchedulerConfig(total_bandwidth=bandwidth, alpha=alpha, tick_count=ticks)

    def test_symmetry(self):
        shares = allocate_shares([acct("a", 10, 10), acct("b", 10, 10)], self.config(bandwidth=500))
        assert shares == {"a": 250, "b": 250}

    def test_single_producer_gets_everything(self):
        shares = allocate_shares([acct("solo", 1, 10**9)], self.config(bandwidth=777))
        assert shares == {"solo": 777}

    def test_documented_two_producer_split(self):
        # factors (1.0, 0.5), equal weights, bandwidth 300 → (200, 100)
        clean = acct("clean", useful=100)
        dirty = acct("dirty", useful=50, waste=50)
        assert allocate_shares([clean, dirty], self.config(bandwidth=300, alpha=2)) == {
            "clean": 200,
            "dirty": 100,
        }

    def test_empty_account_list_rejected(self):
        with pytest.raises(WastekitError):
            allocate_shares([], self.config())

    def test_conservation_and_oracle_on_random_accounts(self):
        rng = random.Random(0xA110)
        for _ in range(300):
            n = rng.randrange(1, 8)
            accounts = [
                acct(f"p{i}", rng.randrange(0, 1000), rng.randrange(0, 1000), rng.randrange(1, 5))
                for i in range(n)
            ]
            bw = rng.randrange(1, 10**6)
            alpha = Fraction(rng.randrange(0, 50), rng.randrange(1, 10))
            cfg = SchedulerConfig(total_bandwidth=bw, alpha=alpha, tick_count=1)
            shares = allocate_shares(accounts, cfg)
            assert sum(shares.values()) == bw
            weights = [(a.id, a.base_weight * penalty_factor(a, alpha)) for a in accounts]
            assert shares == naive_apportion(bw, weights)

    def test_exact_share_monotonicity_in_waste(self):
        """More waste never helps the polluter or hurts a competitor, at
        the exact (pre-rounding) share level."""
        rng = random.Random(0xB0B)
        for _ in range(200):
            accounts = [acct(f"p{i}", rng.randrange(1, 500), rng.randrange(0, 500)) for i in range(3)]
            alpha = rng.randrange(1, 10)

            def exact_shares(accs):
                eff = {a.id: a.base_weight * penalty_factor(a, alpha) for a in accs}
                denom = sum(eff.values())
                return {pid: Fraction(1000) * e / denom for pid, e in eff.items()}

            before = exact_shares(accounts)
            bumped = [
                acct("p0", accounts[0].useful_bytes, accounts[0].waste_bytes + 100),
                accounts[1],
                accounts[2],
            ]
            after = exact_shares(bumped)
            assert after["p0"] <= before["p0"]
            assert after["p1"] >= before["p1"]
            assert after["p2"] >= before["p2"]

    def test_integral_share_stays_within_one_byte_of_exact(self):
        accounts = [acct("a", 7, 3), acct("b", 1, 9), acct("c", 100, 0)]
        cfg = SchedulerConfig(total_bandwidth=1009, alpha=1, tick_count=1)
        shares = allocate_shares(accounts, cfg)
        eff = {a.id: a.base_weight * penalty_factor(a, 1) for a in accounts}
        denom = sum(eff.values())
        for pid, got in shares.items():
            exact = Fraction(1009) * eff[pid] / denom
            assert abs(got - exact) < 1


def test_largest_remainder_tie_breaks_by_id():
    # equal weights, one leftover unit → lexicographically first id wins
    out = largest_remainder(7, [("b", Fraction(1)), ("a", Fraction(1))])
    assert out == {"a": 4, "b": 3}


class TestLargestRemainderOracle:
    """The integer apportionment against the definition and against the
    Fraction implementation it replaced. Ids run against list order so a
    tie broken by position instead of id shows."""

    @staticmethod
    def named(ws):
        return [(f"p{len(ws) - i:02d}", w) for i, w in enumerate(ws)]

    @given(st.integers(0, 10**6), st.lists(st.integers(0, 50), min_size=1, max_size=8))
    def test_int_weights(self, total, ws):
        if sum(ws) > 0:
            weights = self.named(ws)
            assert largest_remainder(total, weights) == naive_apportion(total, weights)

    @given(
        st.integers(0, 10**6),
        st.lists(st.fractions(min_value=0, max_value=50, max_denominator=12), min_size=1, max_size=8),
    )
    def test_fraction_weights(self, total, ws):
        if sum(ws) > 0:
            weights = self.named(ws)
            got = largest_remainder(total, weights)
            assert got == naive_apportion(total, weights) == fraction_largest_remainder(total, weights)

    @pytest.mark.parametrize("weights", [[], [("a", 0)], [("a", Fraction(-1)), ("b", Fraction(2))]])
    def test_rejects_weights_without_a_positive_split(self, weights):
        with pytest.raises(WastekitError):
            largest_remainder(5, weights)


class TestWorkloadParsing:
    def test_happy_path(self):
        t = parse_workload(["# demo", "0 alice 100 0.25", "1 bob 50 1", ""])
        assert t.producers == ["alice", "bob"]
        assert t.tick_span == 2
        assert t.events[0].waste_fraction == Fraction(1, 4)

    @pytest.mark.parametrize(
        "line",
        ["x alice 1 0", "0 alice -5 0", "0 alice 1 1.5", "0 alice 1 -0.1", "0 alice 1", "-1 a 1 0"],
    )
    def test_rejects_malformed(self, line):
        with pytest.raises(TraceError):
            parse_workload([line])

    def test_load_missing(self):
        with pytest.raises(WastekitError):
            load_workload("/no/such/workload")


def cfg(bandwidth=100, alpha=1, ticks=10):
    return SchedulerConfig(total_bandwidth=bandwidth, alpha=alpha, tick_count=ticks)


class TestSimulate:
    def test_all_zero_requests(self):
        trace = parse_workload(["0 a 0 0", "0 b 0 0.5"])
        rep = simulate(trace, cfg(ticks=3))
        for r in rep.producers.values():
            assert r.delivered_per_tick == [0, 0, 0]
            assert r.final_factor == 1

    def test_trace_longer_than_run_rejected(self):
        trace = parse_workload(["5 a 1 0"])
        with pytest.raises(WastekitError, match="tick_count"):
            simulate(trace, cfg(ticks=3))

    def test_clean_producer_outruns_the_waster(self):
        # identical demand, one writes 50% waste: the clean producer's
        # cumulative delivered bytes never trail and finish first (the
        # totals only equalize after both backlogs drain)
        lines = [f"{t} clean 100 0" for t in range(10)] + [f"{t} dirty 100 0.5" for t in range(10)]
        rep = simulate(parse_workload(lines), cfg(bandwidth=150, alpha=4, ticks=30))
        clean = rep.producers["clean"].delivered_per_tick
        dirty = rep.producers["dirty"].delivered_per_tick
        cum_c = cum_d = 0
        ahead_at_some_tick = False
        for c, d in zip(clean, dirty):
            cum_c += c
            cum_d += d
            assert cum_c >= cum_d
            ahead_at_some_tick = ahead_at_some_tick or cum_c > cum_d
        assert ahead_at_some_tick
        assert (
            rep.producers["clean"].completion_tick
            < rep.producers["dirty"].completion_tick
        )

    def test_conservation_every_tick(self):
        rng = random.Random(0x5EED)
        for _ in range(40):
            n_prod = rng.randrange(1, 5)
            ticks = rng.randrange(1, 12)
            lines = []
            for t in range(rng.randrange(1, ticks + 1)):
                for p in range(n_prod):
                    if rng.random() < 0.7:
                        lines.append(f"{t} p{p} {rng.randrange(0, 300)} {rng.choice(['0', '0.5', '1'])}")
            if not lines:
                lines = ["0 p0 10 0"]
            trace = parse_workload(lines)
            bw = rng.randrange(50, 400)
            rep = simulate(trace, cfg(bandwidth=bw, alpha=2, ticks=ticks))

            backlog = {p: 0 for p in trace.producers}
            for t in range(ticks):
                for e in events_at(trace, t):
                    backlog[e.producer] += e.requested_bytes
                outstanding = sum(backlog.values())
                delivered = rep.delivered_per_tick_total[t]
                assert delivered == min(bw, outstanding)
                for p in trace.producers:
                    got = rep.producers[p].delivered_per_tick[t]
                    assert 0 <= got <= backlog[p]
                    backlog[p] -= got

    def test_zero_waste_neutrality_every_tick(self):
        lines = ["0 pure 500 0", "0 grime 500 0.9", "3 pure 200 0", "3 grime 200 0.9"]
        trace = parse_workload(lines)
        rep = simulate(trace, cfg(bandwidth=100, alpha=9, ticks=20))
        assert rep.producers["pure"].final_factor == 1.0
        assert rep.producers["pure"].waste_bytes == 0

    def test_completion_tick_semantics(self):
        trace = parse_workload(["0 a 250 0"])
        rep = simulate(trace, cfg(bandwidth=100, alpha=0, ticks=5))
        # 100+100+50 → finished during tick 2
        assert rep.producers["a"].delivered_per_tick == [100, 100, 50, 0, 0]
        assert rep.producers["a"].completion_tick == 2

    def test_unfinished_work_has_no_completion_tick(self):
        trace = parse_workload(["0 a 1000 0"])
        rep = simulate(trace, cfg(bandwidth=10, alpha=0, ticks=3))
        assert rep.producers["a"].completion_tick is None
        assert rep.producers["a"].delivered_total == 30

    def test_determinism_bit_identical(self):
        lines = ["0 a 100 0.3", "0 b 80 0", "1 c 60 1", "2 a 40 0.7"]
        trace = parse_workload(lines)
        one = simulate(trace, cfg(bandwidth=90, alpha=Fraction(3, 7), ticks=8)).to_json()
        two = simulate(trace, cfg(bandwidth=90, alpha=Fraction(3, 7), ticks=8)).to_json()
        assert one == two


def test_alpha_zero_equals_weighted_fair_sharing():
    """With the penalty disabled the scheduler must be plain weighted
    fair sharing — checked bit-for-bit on the delivered schedule."""
    rng = random.Random(1234)
    for _ in range(50):
        lines = []
        for t in range(6):
            for p in range(3):
                if rng.random() < 0.8:
                    lines.append(f"{t} p{p} {rng.randrange(0, 200)} {rng.choice(['0', '0.25', '1'])}")
        if not lines:
            continue
        trace = parse_workload(lines)
        weights = {p: Fraction(rng.randrange(1, 4)) for p in trace.producers}
        bandwidth = rng.randrange(30, 250)
        rep = simulate(trace, cfg(bandwidth=bandwidth, alpha=0, ticks=10), base_weights=weights)
        want = naive_fair_sim(trace, bandwidth, 10, weights)
        got = {p: rep.producers[p].delivered_per_tick for p in trace.producers}
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# Spellings with odd denominators, so that scaled integer weights and
# the Fraction ones they replace can disagree only through a bug.
WASTE_SPELLINGS = ("0", "1", "1/3", "0.05", "0.5", "2/7", "0.999")
WEIGHT_SPELLINGS = ("1", "2", "1/3", "3.5", "5/7")
ALPHA_SPELLINGS = ("0", "0", "1/2", "3", "7/3")


@st.composite
def scheduler_runs(draw):
    """A small random trace with its config and base weights. Small
    bandwidths leave many remainder ties; a mirrored producer (the same
    requests as another) makes exact ties that only the id can break."""
    pids = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5, unique=True))
    ticks = draw(st.integers(1, 8))
    event = st.tuples(st.integers(0, ticks - 1), st.sampled_from(pids), st.integers(0, 60), st.sampled_from(WASTE_SPELLINGS))
    events = draw(st.lists(event, min_size=1, max_size=30))
    if len(pids) > 1 and draw(st.booleans()):
        events += [(t, pids[1], r, f) for t, p, r, f in events if p == pids[0]]
    lines = [f"{t} {p} {r} {f}" for t, p, r, f in events]
    named = sorted({p for _, p, _, _ in events})
    weights = draw(st.dictionaries(st.sampled_from(named), st.sampled_from(WEIGHT_SPELLINGS)))
    config = SchedulerConfig(
        total_bandwidth=draw(st.integers(1, 40)), alpha=draw(st.sampled_from(ALPHA_SPELLINGS)), tick_count=ticks
    )
    return parse_workload(lines), config, weights


@given(scheduler_runs())
def test_simulate_matches_fraction_oracle(run):
    trace, config, weights = run
    assert simulate(trace, config, weights).to_json() == fraction_simulate(trace, config, weights).to_json()


def test_simulate_matches_fraction_oracle_at_scale():
    """Twenty producers over sixty overloaded ticks, so that the scaled
    weights of a tick run to hundreds of digits."""
    rng = random.Random(0xFA1)
    pids = [f"p{k:02d}" for k in range(20)]
    lines = [
        f"{t} {p} {rng.randrange(0, 400)} {rng.choice(WASTE_SPELLINGS)}"
        for t in range(50) for p in pids if rng.random() < 0.5
    ]
    trace = parse_workload(lines)
    weights = {p: rng.choice(WEIGHT_SPELLINGS) for p in rng.sample(trace.producers, 6)}
    for alpha in ("0", "0.5", "7/3"):
        config = SchedulerConfig(total_bandwidth=1_999, alpha=alpha, tick_count=60)
        assert simulate(trace, config, weights).to_json() == fraction_simulate(trace, config, weights).to_json()


class TestRejectedInputs:
    @pytest.mark.parametrize("spelling", ["1e-5", "0e5", "1E3", "2.5e0"])
    def test_exponent_spellings(self, spelling):
        with pytest.raises(TraceError, match="exponent"):
            parse_workload([f"0 a 1 {spelling}"])
        with pytest.raises(WastekitError, match="exponent"):
            SchedulerConfig(total_bandwidth=1, alpha=spelling, tick_count=1)
        with pytest.raises(WastekitError, match="exponent"):
            simulate(parse_workload(["0 a 1 0"]), cfg(ticks=1), {"a": spelling})

    def test_float_inputs_keep_their_decimal_spelling(self):
        assert SchedulerConfig(total_bandwidth=1, alpha=1e-05, tick_count=1).alpha == Fraction(1, 100000)

    def test_weights_must_name_trace_producers(self):
        with pytest.raises(WastekitError, match="'ghost'"):
            simulate(parse_workload(["0 a 1 0"]), cfg(ticks=1), {"a": 2, "ghost": 1})

    def test_each_spelling_is_parsed_once(self):
        trace = parse_workload(["0 a 1 0.25", "1 b 2 0.25", "2 a 3 1/4"])
        assert trace.events[0].waste_fraction is trace.events[1].waste_fraction
        assert trace.events[2].waste_fraction == Fraction(1, 4)
