"""Fixtures shared by several test modules: a seeded generator of valid
factorizations and a positive word for the half twist.  The library never
calls either; the tests use them as inputs and as independent oracles."""

import random

from braidshadow.factorization import Factorization, hurwitz_move, standard_factorization
from braidshadow.words import BraidError, BraidWord


def random_factorization(
    d: int,
    rng: random.Random,
    moves: int = 20,
    max_conjugator_length: int | None = None,
) -> Factorization:
    """Random valid smooth factorization: a bounded Hurwitz walk from standard.

    Moves that would push a free-reduced conjugator beyond the length cap
    are rejected, so every output is a valid factorization of Delta_d^2
    with short conjugators.
    """
    f = standard_factorization(d)
    n = len(f.factors)
    done = 0
    attempts = 0
    while done < moves and attempts < 50 * moves:
        attempts += 1
        i = rng.randint(1, n - 1)
        direction = rng.choice(("right", "left"))
        nxt = hurwitz_move(f, i, direction)
        if max_conjugator_length is not None and any(
            len(factor.conjugator) > max_conjugator_length for factor in nxt.factors
        ):
            continue
        f = nxt
        done += 1
    return f


def half_twist_word(d: int) -> BraidWord:
    """A positive word for the half twist Delta_d: (s1)(s2 s1)...(s_{d-1}..s1)."""
    if d < 1:
        raise BraidError(f"half twist needs d >= 1, got {d}")
    letters: list[int] = []
    for i in range(1, d):
        letters.extend(range(i, 0, -1))
    return BraidWord(d, tuple(letters))
