"""Seeded input generators for the benchmark.

Everything here is independent of ``braidshadow``: the program under test
receives only the documents and words produced below, so a change to the
program's own random helpers cannot silently change a workload.

Words are tuples of nonzero ints (i for sigma_i, -i for its inverse).  A
smooth band factorization is a list of conjugators g, one per band
g sigma_1 g^-1.
"""

from __future__ import annotations

import json
import random

FORMAT_VERSION = "1"

Word = tuple[int, ...]


def inv(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def free_reduce(w: Word) -> Word:
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def full_twist(d: int) -> Word:
    return tuple(range(1, d)) * d


def band_word(g: Word) -> Word:
    return g + (1,) + inv(g)


def standard_conjugators(d: int) -> list[Word]:
    """Conjugators of the cascade factorization of the full twist."""
    delta = tuple(range(1, d))
    return [delta * (i - 1) for _rep in range(d) for i in range(1, d)]


def hurwitz_step(conj: list[Word], i: int, right: bool) -> list[Word]:
    """One Hurwitz move at slot i (0-based pair i, i+1) on conjugators.

    Right: (a, b) -> (a b a^-1, a).  Left: (a, b) -> (b, b^-1 a b).
    """
    a, b = conj[i], conj[i + 1]
    if right:
        pair = [free_reduce(band_word(a) + b), a]
    else:
        pair = [b, free_reduce(inv(band_word(b)) + a)]
    return conj[:i] + pair + conj[i + 2 :]


def hurwitz_walk(d: int, rng: random.Random, total: int, cap: int) -> list[Word]:
    """Random walk from the standard factorization ending at a fixed size.

    Moves that push a conjugator beyond ``cap`` letters are rejected.  The
    walk stops at the first node after at least 2n moves whose conjugator
    lengths sum to exactly ``total``, so every seed gives inputs of the
    same size (and roughly the same cost).
    """
    start = standard_conjugators(d)
    n = len(start)
    for _attempt in range(1000):
        conj = start
        for step in range(60 * n):
            i = rng.randrange(n - 1)
            nxt = hurwitz_step(conj, i, rng.random() < 0.5)
            if max(len(g) for g in nxt) > cap:
                continue
            conj = nxt
            if step >= 2 * n and sum(len(g) for g in conj) == total:
                return conj
    raise RuntimeError(f"no walk at d = {d} reached {total} conjugator letters")


def factorization_doc(d: int, conj: list[Word]) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "type": "factorization",
        "strands": d,
        "factors": [{"conjugator": list(g), "exponent": 1, "sign": 1} for g in conj],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- word pairs ---------------------------------------------------------------


def random_word(d: int, rng: random.Random, length: int) -> Word:
    """Random word with exactly half of its letters inverse."""
    signs = [1] * (length - length // 2) + [-1] * (length // 2)
    rng.shuffle(signs)
    return tuple(s * rng.randint(1, d - 1) for s in signs)


def _relator(d: int, rng: random.Random) -> Word:
    """A word equal to the identity: a braid or commutation relator, or x x^-1."""
    kind = rng.randrange(3)
    i = rng.randint(1, d - 1)
    if kind == 0 and d >= 3:
        i = rng.randint(1, d - 2)
        j = i + 1
        return (i, j, i, -j, -i, -j)
    if kind == 1 and d >= 4:
        i = rng.randint(1, d - 3)
        j = rng.randint(i + 2, d - 1)
        return (i, j, -i, -j)
    return (i, -i) if rng.random() < 0.5 else (-i, i)


def insert_relators(d: int, rng: random.Random, w: Word, count: int) -> Word:
    """The same braid as ``w``, with ``count`` relators (conjugated by a
    random letter, so they do not cancel freely) spliced in at random places."""
    out = list(w)
    for _ in range(count):
        c = rng.choice((1, -1)) * rng.randint(1, d - 1)
        piece = (c,) + _relator(d, rng) + (-c,)
        at = rng.randint(0, len(out))
        out[at:at] = piece
    return tuple(out)


def flip_one_sign(rng: random.Random, w: Word) -> Word:
    """Flip the sign of one letter: the exponent sum changes by 2, so the
    result is a different braid."""
    at = rng.randrange(len(w))
    return w[:at] + (-w[at],) + w[at + 1 :]


def exponent_sum(w: Word) -> int:
    return sum(1 if x > 0 else -1 for x in w)
