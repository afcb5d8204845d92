"""Independent references for the bandwidth scheduler.

Both are written from the definitions, not from the scheduler code:
largest-remainder apportionment and weighted fair sharing with backlog
carry-over (no penalty). They exist to catch the scheduler agreeing
with itself.
"""

from fractions import Fraction


def naive_apportion(total, weights):
    """Independent largest-remainder: floors, then leftovers to the
    biggest fractional parts, ids breaking ties."""
    denom = sum(w for _, w in weights)
    quotas = {pid: Fraction(total) * w / denom for pid, w in weights}
    out = {pid: q.numerator // q.denominator for pid, q in quotas.items()}
    left = total - sum(out.values())
    ranked = sorted(quotas, key=lambda pid: (out[pid] - quotas[pid], pid))
    for pid in ranked[:left]:
        out[pid] += 1
    return out


def events_at(trace, tick):
    """The trace's events at one tick, in trace order."""
    return [e for e in trace.events if e.tick == tick]


def naive_fair_sim(trace, bandwidth, ticks, weights):
    """Reference weighted fair sharing with backlog carry-over, no
    penalty. Written independently of the scheduler module."""
    producers = trace.producers
    backlog = {p: 0 for p in producers}
    delivered = {p: [] for p in producers}
    for t in range(ticks):
        for e in events_at(trace, t):
            backlog[e.producer] += e.requested_bytes
        hungry = {p for p in producers if backlog[p] > 0}
        give = {p: 0 for p in producers}
        remaining = bandwidth
        if sum(backlog[p] for p in hungry) <= remaining:
            for p in hungry:
                give[p] = backlog[p]
        else:
            while True:
                denom = sum(weights[p] for p in hungry)
                sat = [p for p in sorted(hungry) if Fraction(remaining) * weights[p] / denom >= backlog[p]]
                if not sat:
                    break
                for p in sat:
                    give[p] = backlog[p]
                    remaining -= backlog[p]
                    hungry.discard(p)
            give.update(naive_apportion(remaining, sorted((p, weights[p]) for p in hungry)))
        for p in producers:
            backlog[p] -= give[p]
            delivered[p].append(give[p])
    return delivered
