"""Machine speed, measured next to every timed item.

The benchmark's machine is a few cores of a shared host, and the speed of a
fixed Python loop there drifts by up to 1.6 times over seconds to minutes
(a 20 ms loop reads 19-37 ms; CPU time drifts with wall time, so the cause
is contention for the core, not time stolen by the hypervisor).  Least or
median latencies over a run do not remove drift that lasts as long as the
run.

So every item is timed between runs of ``reference``, a fixed pure-Python
loop of the benchmark's own (integer tuples, a dict keyed by tuples, float
arithmetic: the kinds of work the program does), and its latency is scaled
by ``NOMINAL_S`` over the mean reference time around it.  The loop runs at
least once and for at least ``SHARE`` of the item's time on each side of it
(before an item, its time in the previous pass), since the speed drifts
within a second and one 3.5 ms sample misjudges a long item.  The reported times are seconds at the speed at which ``reference``
takes ``NOMINAL_S``, about the speed of the reference machine in a quiet
stretch.  A program that does less work reads lower; a machine that runs
slower for a while does not.
"""

from __future__ import annotations

import time

import gen

# Seconds that one call of ``reference`` takes at nominal speed (its median
# on a 2-vCPU Intel Xeon at 2.1 GHz with Python 3.11.7, in a quiet stretch).
NOMINAL_S = 0.0035

_WORD = tuple(((i * 7919) % 11 - 5) or 1 for i in range(3000))
_TAIL = gen.inv(_WORD[:1500])


def reference() -> int:
    """A fixed amount of pure-Python work, about NOMINAL_S at nominal speed."""
    acc = 0
    for _ in range(4):
        acc += len(gen.free_reduce(_WORD + _TAIL))
        perm = list(range(12))
        seen: dict[tuple[int, ...], int] = {}
        for k in range(600):
            i = k % 11
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            key = tuple(perm)
            seen[key] = seen.get(key, 0) + 1
        acc += len(seen)
        x = 0.0
        for k in range(2000):
            x += (k * 0.5 - x * 0.001) / (1.0 + k)
        acc += int(x)
    return acc


# Least share of an item's time that the reference loop runs on each side.
SHARE = 0.05


def reference_seconds() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def reference_run(seconds: float) -> list[float]:
    """Times of reference calls, at least one, until they add up to ``seconds``."""
    times = [reference_seconds()]
    while sum(times) < seconds:
        times.append(reference_seconds())
    return times


def warm_up() -> None:
    for _ in range(20):
        reference()
