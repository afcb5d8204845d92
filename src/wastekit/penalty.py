"""Pay-as-you-throw bandwidth scheduler simulation.

Producers accumulate useful and waste bytes; a hyperbolic penalty
factor, 1 / (1 + alpha x waste ratio), shrinks the effective weight of
polluters, and a discrete-time simulator shows the incentive playing
out. Results are exact, so identical inputs give bit-identical reports
on any platform. The tick loop works in integers. Each tick's
water-filling is first decided in floats, which settle only what a
proven error bound lets them settle; a tick they cannot settle is
filled in exact integer arithmetic over the weights scaled to a common
denominator."""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from typing import NamedTuple, Optional, Union

from .errors import TraceError, WastekitError, open_input, read_int, require_int, shown, too_long

Rational = Union[int, float, str, Fraction]


def _as_fraction(x: Rational, what: str) -> Fraction:
    """Exact conversion; decimal strings and floats go via their decimal
    spelling so that e.g. 0.1 means 1/10, not the nearest binary float.
    A string may not use an exponent: Fraction("1e-999999999") would
    build 10**999999999 from a 12-byte input."""
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise WastekitError(f"invalid {what}: {shown(x)} (exponents are not accepted)")
    try:
        if isinstance(x, float):
            return Fraction(str(x))
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        if isinstance(exc, ValueError) and isinstance(x, str) and too_long(x, Fraction):
            raise WastekitError(f"{what} holds a number too long to read") from None
        raise WastekitError(f"invalid {what}: {shown(x)}") from exc


@dataclass(frozen=True)
class SchedulerConfig:
    total_bandwidth: int
    alpha: Fraction
    tick_count: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_fraction(self.alpha, "alpha"))
        require_int(self.total_bandwidth, "total_bandwidth")
        if self.alpha < 0:
            raise WastekitError("alpha must be >= 0")
        require_int(self.tick_count, "tick_count")


def _apportion(total: int, weights: list) -> dict:
    """Largest-remainder apportionment of `total` units over non-negative
    integer weights with a positive sum W: key i gets floor(total x w_i / W)
    and the leftover units go to the largest remainders of that division,
    ties to the smaller key."""
    denom = sum(w for _, w in weights)
    exact = [(key, *divmod(total * w, denom)) for key, w in weights]
    shares = {key: q for key, q, _ in exact}
    leftover = total - sum(shares.values())
    for key, _, _ in sorted(exact, key=lambda item: (-item[2], item[0]))[:leftover]:
        shares[key] += 1
    return shares


# -- workload traces ---------------------------------------------------
#
# A workload is a line trace (see README's "Line traces"), one event per line:
#   <tick> <producer> <requested_bytes> <waste_fraction>
# waste_fraction, a decimal or ratio in [0, 1] without an exponent, is exact.


class TraceEvent(NamedTuple):
    tick: int
    producer: str
    requested_bytes: int
    waste_fraction: Fraction


@dataclass(frozen=True)
class WorkloadTrace:
    events: tuple[TraceEvent, ...]

    @property
    def producers(self) -> list[str]:
        return sorted({e.producer for e in self.events})

    @property
    def tick_span(self) -> int:
        """Number of ticks the trace covers (last event tick + 1)."""
        return max((e.tick + 1 for e in self.events), default=0)


def parse_workload(lines) -> WorkloadTrace:
    new_event = tuple.__new__  # TraceEvent's own __new__ is Python code
    fractions: dict[str, Fraction] = {}  # each distinct spelling is parsed once
    events = []
    append = events.append
    for lineno, line in enumerate(lines, 1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        try:
            if len(fields) != 4:
                raise TraceError("expected '<tick> <producer> <requested> <waste_fraction>'")
            tick, producer, requested, spelling = fields
            tick, requested = read_int(tick, "tick", 0), read_int(requested, "requested_bytes", 0)
            fraction = fractions.get(spelling)
            if fraction is None:
                fraction = _as_fraction(spelling, "waste_fraction")
                if not 0 <= fraction <= 1:
                    raise TraceError("waste_fraction must be in [0, 1]")
                fractions[spelling] = fraction
        except WastekitError as exc:
            raise TraceError(f"workload line {lineno}: {exc}") from exc
        append(new_event(TraceEvent, (tick, producer, requested, fraction)))
    return WorkloadTrace(events=tuple(events))


def load_workload(path: str) -> WorkloadTrace:
    with open_input(path, "workload file") as fh:
        return parse_workload(fh)


# -- simulation --------------------------------------------------------


@dataclass
class ProducerResult:
    delivered_per_tick: list[int]
    requested_total: int
    delivered_total: int
    completion_tick: Optional[int]
    useful_bytes: Fraction
    waste_bytes: Fraction
    final_factor: Fraction


@dataclass
class SimulationReport:
    config: SchedulerConfig
    producers: dict[str, ProducerResult]
    delivered_per_tick_total: list[int] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        """The report in JSON types. A number JSON cannot carry (past the
        float range, or past Python's int-to-string digit limit) raises
        WastekitError naming the producer and the field."""

        def num(x: Fraction, name: str, pid: Optional[str] = None):
            try:
                if x.denominator != 1:
                    return float(x)
                value = int(x)
                str(value)  # json.dumps would raise the same ValueError
                return value
            except (OverflowError, ValueError):
                what = name if pid is None else f"producer {pid!r}: {name}"
                raise WastekitError(f"{what} is too large to write as a JSON number") from None

        return {
            "total_bandwidth": self.config.total_bandwidth,
            "alpha": num(self.config.alpha, "alpha"),
            "tick_count": self.config.tick_count,
            "delivered_per_tick_total": self.delivered_per_tick_total,
            "producers": {
                pid: {
                    "delivered_per_tick": r.delivered_per_tick,
                    "requested_total": num(r.requested_total, "requested_total", pid),
                    "delivered_total": num(r.delivered_total, "delivered_total", pid),
                    "completion_tick": r.completion_tick,
                    "useful_bytes": num(r.useful_bytes, "useful_bytes", pid),
                    "waste_bytes": num(r.waste_bytes, "waste_bytes", pid),
                    "final_factor": float(r.final_factor),
                }
                for pid, r in sorted(self.producers.items())
            },
        }


def simulate(
    trace: WorkloadTrace,
    config: SchedulerConfig,
    base_weights: Optional[dict[str, Rational]] = None,
) -> SimulationReport:
    """Run the scheduler for config.tick_count ticks.

    Each tick: trace events for the tick join their producer's backlog
    and accrue to its account (pollution is charged when the bytes are
    requested, whether or not they are ever delivered); shares are then
    recomputed from the updated accounts and delivery is water-filled —
    producers whose backlog fits inside their proportional share are
    satisfied fully and their slack re-split among the still-hungry, so
    the tick delivers exactly min(bandwidth, total backlog).

    Requests outlive their tick: undelivered bytes stay in the backlog,
    which is how a penalized producer actually feels the penalty (same
    work, more ticks). completion_tick is the tick a producer finished
    its last requested byte, or None if the run ended first.

    base_weights may name only producers of the trace; the rest weigh 1.
    """
    if trace.tick_span > config.tick_count:
        raise WastekitError(
            f"trace spans {trace.tick_span} ticks but config.tick_count is {config.tick_count}"
        )
    producers = trace.producers
    if not producers:
        raise WastekitError("workload trace names no producers")
    base_weights = base_weights or {}
    unknown = sorted(set(base_weights) - set(producers))
    if unknown:
        raise WastekitError(f"weights given for producers not in the trace: {', '.join(map(repr, unknown))}")
    base = [_as_fraction(base_weights.get(pid, 1), f"weight of {pid!r}") for pid in producers]
    for pid, w in zip(producers, base):
        if w <= 0:
            raise WastekitError(f"weight of {pid!r} must be > 0")

    # Integer ledgers. Useful plus waste bytes is the producer's integer
    # requested total R, so with M = max(1, R) the penalty factor is
    # M / (M + alpha * waste). Waste is kept scaled by the lcm of the
    # trace's waste_fraction denominators, which makes it an integer;
    # multiplying through by k = scale x alpha's denominator gives
    # factor = M*k / (M*k + alpha_num * scaled_waste). The effective
    # weight base x factor is kept as a reduced numerator/denominator
    # pair, recomputed only when the producer accrues.
    n = len(producers)
    index = {pid: i for i, pid in enumerate(producers)}
    scale = math.lcm(*{e.waste_fraction.denominator for e in trace.events})
    k = scale * config.alpha.denominator
    alpha_num = config.alpha.numerator
    base_num = [w.numerator for w in base]
    base_den = [w.denominator for w in base]
    eff_num = base_num[:]
    eff_den = base_den[:]
    scaled_waste = [0] * n
    requested_total = [0] * n
    last_event_tick = [0] * n
    events_by_tick: dict[int, list[tuple[int, int, int]]] = {}
    for tick, pid, requested, f in trace.events:
        events_by_tick.setdefault(tick, []).append(
            (index[pid], requested, requested * f.numerator * (scale // f.denominator))
        )

    bandwidth = config.total_bandwidth
    backlog = [0] * n
    rows = []  # rows[tick][i]: bytes delivered to producer i in that tick
    for tick in range(config.tick_count):
        for i, requested, waste in events_by_tick.get(tick, ()):
            backlog[i] += requested
            requested_total[i] += requested
            scaled_waste[i] += waste
            last_event_tick[i] = tick
            m = max(1, requested_total[i]) * k
            num = base_num[i] * m
            den = base_den[i] * (m + alpha_num * scaled_waste[i])
            g = math.gcd(num, den)
            eff_num[i], eff_den[i] = num // g, den // g
        if sum(backlog) <= bandwidth:
            rows.append(backlog)
            backlog = [0] * n
        else:
            row = _water_fill(bandwidth, backlog, eff_num, eff_den)
            rows.append(row)
            backlog = list(map(operator.sub, backlog, row))

    # A producer's cumulative delivery never exceeds its requested total,
    # so it completes at the first tick, from its last event on, where
    # the running sum reaches that total.
    results = {}
    for i, (pid, series) in enumerate(zip(producers, zip(*rows))):
        delivered = list(accumulate(series))
        done = bisect_left(delivered, requested_total[i], lo=last_event_tick[i])
        waste = Fraction(scaled_waste[i], scale)
        m = max(1, requested_total[i]) * k
        results[pid] = ProducerResult(
            delivered_per_tick=list(series),
            requested_total=requested_total[i],
            delivered_total=delivered[-1],
            completion_tick=done if done < len(delivered) else None,
            useful_bytes=requested_total[i] - waste,
            waste_bytes=waste,
            final_factor=Fraction(m, m + alpha_num * scaled_waste[i]),
        )
    return SimulationReport(config=config, producers=results, delivered_per_tick_total=list(map(sum, rows)))


_MARGIN = 2.0**-40  # see _water_fill


def _water_fill(bandwidth: int, backlog: list[int], eff_num: list[int], eff_den: list[int]) -> list[int]:
    """Water-filling split of an overloaded tick (sum(backlog) >
    bandwidth), producer by index: `_exact_water_fill`'s capping rounds
    and largest-remainder apportionment, decided in floats where an
    error bound proves the decision.

    Each weight w_i is eff_num[i] / eff_den[i], correctly rounded, and
    the total W is their math.fsum, so each share x_i = remaining x w_i
    / W is within 5 x 2**-53 of exact, relative, and x_i / backlog_i
    within 7 x 2**-53. A decision is taken only when it clears the
    margin _MARGIN = 2**-40, which leaves a factor of 2**10 to spare:
    - each cap test: x_i / backlog_i must lie outside
      [1 - _MARGIN, 1 + _MARGIN];
    - each floor of x_i: its fractional part must lie in
      [eta, 1 - eta], with eta = remaining x _MARGIN;
    - the leftover cut-off: the smallest fractional part that gets a
      unit must exceed the largest that does not by more than 2 x eta.

    Any other tick is filled by `_exact_water_fill`: one with a
    decision inside the margin (an exact cap equality, an integral
    share, a tie at the cut-off such as equal weights), a bandwidth of
    2**53 or more, a weight or backlog that overflows a float, a weight
    that is 0 or subnormal, or a bandwidth x W that overflows. Either
    way the result is the exact fill's, on every platform.
    """
    hungry = list(compress(range(len(backlog)), backlog))
    try:
        weight = list(map(operator.truediv, compress(eff_num, backlog), compress(eff_den, backlog)))
        need = list(map(float, compress(backlog, backlog)))
        total_weight = math.fsum(weight)
    except OverflowError:
        return _exact_water_fill(bandwidth, backlog, eff_num, eff_den)
    if bandwidth >= 2**53 or min(weight) < sys.float_info.min or math.isinf(bandwidth * total_weight):
        return _exact_water_fill(bandwidth, backlog, eff_num, eff_den)
    below, above = 1 - _MARGIN, 1 + _MARGIN
    delivered = [0] * len(backlog)
    remaining = bandwidth
    while True:
        share = [remaining * w / total_weight for w in weight]
        fill = list(map(operator.truediv, share, need))  # the cap test is fill >= 1
        if max(fill) <= below:
            break
        for i, f in zip(hungry, fill):
            if f > below:
                if f < above:
                    return _exact_water_fill(bandwidth, backlog, eff_num, eff_den)
                delivered[i] = backlog[i]
                remaining -= backlog[i]
        keep = [f <= below for f in fill]
        hungry, weight, need = (list(compress(v, keep)) for v in (hungry, weight, need))
        total_weight = math.fsum(weight)
    eta = remaining * _MARGIN
    floor = list(map(int, share))
    frac = list(map(operator.sub, share, floor))
    if min(frac) < eta or max(frac) > 1 - eta:
        return _exact_water_fill(bandwidth, backlog, eff_num, eff_den)
    leftover = remaining - sum(floor)
    ranked = sorted(frac, reverse=True)
    cut = ranked[leftover - 1]
    if cut - ranked[leftover] <= 2 * eta:
        return _exact_water_fill(bandwidth, backlog, eff_num, eff_den)
    for i, q, f in zip(hungry, floor, frac):
        delivered[i] = q + (f >= cut)
    return delivered


def _exact_water_fill(bandwidth: int, backlog: list[int], eff_num: list[int], eff_den: list[int]) -> list[int]:
    """Water-filling split of an overloaded tick (sum(backlog) >
    bandwidth), producer by index.

    The hungry producers' effective weights are scaled to integers over
    the lcm of their denominators, so every test below is exact integer
    arithmetic. Iteratively: any producer whose whole backlog fits within
    its proportional share (remaining x w_i / W >= backlog_i, tested
    cross-multiplied) is satisfied and removed, freeing its slack for the
    rest. When no cap binds, the leftover bandwidth is apportioned by
    largest remainder — each rounded share still fits under its
    producer's backlog because the exact share was strictly below an
    integer backlog.
    """
    delivered = [0] * len(backlog)
    hungry = [i for i, b in enumerate(backlog) if b]
    lcm = math.lcm(*(eff_den[i] for i in hungry))
    weight = {i: eff_num[i] * (lcm // eff_den[i]) for i in hungry}
    total_weight = sum(weight.values())
    remaining = bandwidth
    # The hungry backlog always exceeds `remaining`, so no round caps
    # every hungry producer.
    while True:
        capped = [i for i in hungry if remaining * weight[i] >= backlog[i] * total_weight]
        if not capped:
            break
        for i in capped:
            delivered[i] = backlog[i]
            remaining -= backlog[i]
            total_weight -= weight[i]
        hungry = [i for i in hungry if not delivered[i]]
    for i, share in _apportion(remaining, [(i, weight[i]) for i in hungry]).items():
        delivered[i] = share
    return delivered
