"""Dehornoy handle reduction: an independent word-problem solver for B_d.

This shares no machinery with the Garside code and is used to cross-check
it.  A handle is a subword  sigma_i^e v sigma_i^{-e}  where v contains no
letter of index i or i-1; reducing it deletes the two outer letters and
conjugates each sigma_{i+1}^t inside v to sigma_{i+1}^{-e} sigma_i^t
sigma_{i+1}^{e}.  Any sequence of handle reductions terminates, and a
fully reduced nonempty word is never trivial.

The handle reduced next is always the leftmost one (smallest closing
position), and the word is kept freely reduced.  Each step cancels its
replacement locally, against the letters on either side of it.  Whether a
handle closes at a position depends only on the letters up to it, so none
closes in the prefix that a step leaves unchanged: the scan resumes at the
end of that prefix, and one step costs about the size of its handle.
"""

from __future__ import annotations

from .words import BraidWord, compose, free_reduce, invert

_MAX_STEPS = 2_000_000
_OUT_OF_STEPS = "handle reduction did not terminate within step budget"


def handle_reduce(w: BraidWord, max_steps: int = _MAX_STEPS) -> BraidWord:
    """Reduce until no handle remains; the result is freely reduced too.

    Raises RuntimeError unless that takes fewer than ``max_steps`` reductions.
    """
    if max_steps < 1:
        raise RuntimeError(_OUT_OF_STEPS)
    # The word is out + reversed(todo).  No handle closes inside out, the
    # scanned prefix.  last[i] is the position in out of its latest letter of
    # index i (-1 if none); below[t] is what last held before out[t] came.
    todo = list(reversed(free_reduce(w).letters))
    out: list[int] = []
    below: list[int] = []
    last = [-1] * (w.strands + 1)
    steps = 0

    def drop() -> None:
        last[abs(out.pop())] = below.pop()

    while todo:
        x = todo.pop()
        i = abs(x)
        p = last[i]
        # a handle closes at x when the latest index-i letter is x^-1 and no
        # index-(i-1) letter follows it
        if p < 0 or out[p] != -x or last[i - 1] > p:
            below.append(p)
            last[i] = len(out)
            out.append(x)
            continue
        steps += 1
        if steps >= max_steps:
            raise RuntimeError(_OUT_OF_STEPS)
        inner = out[p + 1 :]
        while len(out) > p:
            drop()
        c = i + 1 if x > 0 else -i - 1
        mid: list[int] = []  # the replacement, freely reduced against out
        for t in inner:
            for y in (c, i if t > 0 else -i, -c) if abs(t) == i + 1 else (t,):
                if mid and mid[-1] == -y:
                    mid.pop()
                elif not mid and out and out[-1] == -y:
                    drop()
                else:
                    mid.append(y)
        while mid and todo and mid[-1] == -todo[-1]:
            mid.pop()
            todo.pop()
        while not mid and out and todo and out[-1] == -todo[-1]:
            drop()
            todo.pop()
        # out is the prefix this step left unchanged; the scan resumes after it
        todo.extend(reversed(mid))
    return BraidWord(w.strands, tuple(out))


def is_trivial_word(w: BraidWord) -> bool:
    """True iff w represents the identity braid (via handle reduction)."""
    return not handle_reduce(w).letters


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Independent equality test: a b^{-1} handle-reduces to the empty word."""
    return is_trivial_word(compose(a, invert(b)))
