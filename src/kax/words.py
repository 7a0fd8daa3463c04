"""Cyclic-word combinatorics.

Words are tuples of integer letters 0..d-1.  A cyclic word is the orbit of
a word under rotation; its period is the orbit size, which always divides
the length.  Two counting families live here:

* aperiodic cyclic words of length s on d letters (period exactly s),
  counted by Mobius inversion over d^u;
* the coordinate-axes variant: same, restricted to words with no two
  cyclically adjacent equal letters, counted by Mobius inversion over the
  proper-coloring count of a u-cycle.

Both counts are verified against direct enumeration by the oracle suite.
Every enumeration runs on one iterative Fredricksen-Kemp-Maier walk over
the Lyndon words of length s (the least rotations of the period-s
necklaces), so its stack depth does not grow with s.  For the axes family
the walk prunes as it goes: it never extends a prefix that holds two
adjacent equal letters, so it visits only the Lyndon prefixes of axes
words rather than filtering every Lyndon word afterwards.

The oracle count_by_enumeration runs its own copy of that walk which
batches its last two levels: once a prefix of length s - 1 is fixed, the
letters that close a Lyndon word form one run up to d - 1, and once a
prefix of length s - 2 is fixed, each step of the next letter closes a
Lyndon word of length s - 1 whose fill letter is the first one, so every
such step adds a run of the same length.  The walk counts both in one step
instead of visiting each word, so it steps mostly through the Lyndon words
of length at most s - 2, about d^2 times fewer nodes than the word-by-word
walk.  It still counts leaves of the walk, never the Mobius sums, so it
stays an independent check of count_aperiodic / count_axes.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

from .errors import BudgetExceededError, InternalError
from .numtheory import divisors, mobius

DEFAULT_BUDGET = 10**7

Word = tuple[int, ...]


def _budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("KAX_BUDGET")
    if env is not None:
        return int(env)
    return DEFAULT_BUDGET


class CyclicWord(namedtuple("CyclicWord", "canonical period")):
    """Rotation orbit of a word, keyed by its least rotation.

    Sorts as the tuple (canonical, period).
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.canonical)

    def __str__(self) -> str:
        # the orbit does not know its alphabet, so render on the smallest
        # one that holds its letters; a listing of one alphabet passes its
        # size to render_word instead, so that every word takes one form
        return render_word(self.canonical, max(self.canonical) + 1)


def render_word(w: Word, d: int) -> str:
    """Letters a..z for alphabets up to 26 letters, else dotted integers."""
    if d <= 26:
        return "".join(chr(ord("a") + c) for c in w)
    return ".".join(str(c) for c in w)


def parse_word(text: str, d: int) -> Word:
    """Inverse of render_word for a given alphabet size."""
    if d <= 26:
        w = tuple(ord(c) - ord("a") for c in text)
    else:
        w = tuple(int(c) for c in text.split("."))
    if not w:
        raise ValueError("empty word")
    if any(c < 0 or c >= d for c in w):
        raise ValueError(f"letter out of range for alphabet of size {d}")
    return w


def period(w: Word) -> int:
    """Smallest s dividing len(w) with w invariant under rotation by s."""
    m = len(w)
    if m == 0:
        raise ValueError("empty word has no period")
    for s in divisors(m):
        if w == w[s:] + w[:s]:
            return s
    raise AssertionError("unreachable: rotation by m is the identity")


def least_rotation(w: Word) -> Word:
    """Lexicographically least rotation, Booth's algorithm, O(len(w))."""
    m = len(w)
    ww = w + w
    f = [-1] * (2 * m)
    k = 0
    for j in range(1, 2 * m):
        sj = ww[j]
        i = f[j - k - 1]
        while i != -1 and sj != ww[k + i + 1]:
            if sj < ww[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != ww[k + i + 1]:
            if sj < ww[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return ww[k:k + m]


def canonicalize(w: Word) -> CyclicWord:
    """Orbit representative: least rotation plus attached period."""
    if not w:
        raise ValueError("empty word")
    return CyclicWord(least_rotation(w), period(w))


# both counts are pure in (s, d), and every run and table asks for them again
@lru_cache(maxsize=4096)
def count_aperiodic(s: int, d: int) -> int:
    """Number of cyclic words of length s on d letters with period exactly s.

    Computed as (sum over u | s of mu(s/u) d^u) / s; the sum is always
    divisible by s, which is asserted.
    """
    if s < 1 or d < 1:
        raise ValueError("count_aperiodic requires s >= 1 and d >= 1")
    total = sum(mobius(s // u) * d**u for u in divisors(s))
    if total % s != 0:
        raise InternalError(f"Mobius sum {total} not divisible by s={s}")
    return total // s


def _cycle_colorings(u: int, d: int) -> int:
    # proper colorings of a u-cycle with d colors (adjacent vertices differ);
    # for u = 1 the single vertex is adjacent to itself, so 0
    return (d - 1) ** u + (-1) ** u * (d - 1)


@lru_cache(maxsize=4096)
def count_axes(s: int, d: int) -> int:
    """Period-exactly-s cyclic words with no two cyclically adjacent equal letters."""
    if s < 1 or d < 1:
        raise ValueError("count_axes requires s >= 1 and d >= 1")
    total = sum(mobius(s // u) * _cycle_colorings(u, d) for u in divisors(s))
    if total % s != 0:
        raise InternalError(f"Mobius sum {total} not divisible by s={s}")
    return total // s


def _lyndon_words(s: int, d: int, axes: bool = False) -> Iterator[Word]:
    # Fredricksen-Kemp-Maier walk in Duval's iterative form: w runs through
    # the Lyndon words of length <= s on d letters in lexicographic order,
    # in constant amortised time per word; those of length exactly s are the
    # least rotations of the period-s necklaces.
    #
    # With axes set, the walk never extends a prefix that holds two adjacent
    # equal letters: a freshly stepped letter equal to its left neighbour is
    # neither yielded nor extended, but stepped next.  Every prefix of a
    # prenecklace is a prenecklace and stepping the last letter of one gives
    # a Lyndon word, so the walk keeps to Lyndon words in the same order and
    # skips only subtrees in which every word holds an adjacent repeat.  A
    # Lyndon word of length m >= 2 ends above its first letter, so neither
    # its cyclic wrap nor its fill by period m holds a repeat; at m = 1 both
    # do, so that word is not yielded and its fill stops at the repeat.
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if not (axes and m > 1 and w[-1] == w[-2]):
            if m == s and not (axes and m == 1):
                yield tuple(w)
            fill = min(s, 2) if axes and m == 1 else s
            while len(w) < fill:
                w.append(w[-m])
        while w and w[-1] == d - 1:
            w.pop()


def _check_budget(s: int, d: int, axes: bool, budget: int | None) -> None:
    budget = _budget(budget)
    # the axes walk extends only prefixes without an adjacent repeat
    if (d * (d - 1) ** (s - 1) if axes else d**s) > budget:
        words = f"{d}*{d - 1}^{s - 1}" if axes else f"{d}^{s}"
        raise BudgetExceededError(f"enumeration of {words} words exceeds budget {budget}")
    if s > budget:
        # below d = 2 the walk visits few words, but its fill holds s letters
        raise BudgetExceededError(f"a walk over words of {s} letters exceeds budget {budget}")


def _is_axes_word(w: Word) -> bool:
    s = len(w)
    return all(w[i] != w[(i + 1) % s] for i in range(s))


def enumerate_aperiodic(s: int, d: int, budget: int | None = None) -> list[CyclicWord]:
    """Canonical representatives of all period-s cyclic words, sorted."""
    if s < 1 or d < 1:
        raise ValueError("enumerate_aperiodic requires s >= 1 and d >= 1")
    _check_budget(s, d, False, budget)
    return [CyclicWord(w, s) for w in _lyndon_words(s, d)]


def enumerate_axes(s: int, d: int, budget: int | None = None) -> list[CyclicWord]:
    """As enumerate_aperiodic, restricted to cyclically adjacent-distinct words."""
    if s < 1 or d < 1:
        raise ValueError("enumerate_axes requires s >= 1 and d >= 1")
    _check_budget(s, d, True, budget)
    return [CyclicWord(w, s) for w in _lyndon_words(s, d, axes=True)]


def count_by_enumeration(
    s: int, d: int, axes: bool = False, budget: int | None = None
) -> int:
    """Enumeration-backed count, without materializing the word list.

    This is the independent oracle for count_aperiodic / count_axes: it
    counts the leaves of the walk of _lyndon_words and never touches the
    Mobius formulas.  It batches two levels of that walk.  Where the walk
    would step the last letter of a word of length s through lo..d-1,
    yielding each step as a Lyndon word, this loop adds the length of the
    run at once and pops the letter.  For s >= 3 it then batches the level
    above: each remaining step of the last letter of the prefix of length
    s - 1 closes a Lyndon word of length s - 1, which the walk fills with
    its first letter w[0] and whose run it counts, so the loop adds the
    runs of all those steps at once and pops that letter too.
    """
    if s < 1 or d < 1:
        raise ValueError("count_by_enumeration requires s >= 1 and d >= 1")
    _check_budget(s, d, axes, budget)
    count = 0
    w = [-1]
    while w:
        if len(w) == s:
            # a word filled to length s (for s = 1, the start): each letter
            # after its last one closes a Lyndon word of length s
            lo = w.pop() + 1
            if not axes:
                count += d - lo
            elif w:
                # drop the letter equal to the left neighbour; across the
                # wrap every letter of the run already differs from the
                # first, as a Lyndon word of length >= 2 ends in a letter
                # greater than its first.  A one-letter word is its own
                # neighbour, so s = 1 counts none.
                count += d - lo - (w[-1] >= lo)
            if s > 2:
                # each step v > cur of the prefix's last letter fills with
                # w[0], so its run is w[0] + 1..d - 1.  For axes, the step
                # v equal to its left neighbour w[-1] is skipped, and each
                # run drops v itself, which lies in it: v ends a Lyndon
                # word of length >= 2, so v > w[0].
                cur = w.pop()
                if not axes:
                    count += (d - 1 - cur) * (d - 1 - w[0])
                else:
                    count += (d - 1 - cur - (cur < w[-1])) * (d - 2 - w[0])
        else:
            # one step of _lyndon_words below length s
            w[-1] += 1
            m = len(w)
            if not (axes and m > 1 and w[-1] == w[-2]):
                fill = min(s, 2) if axes and m == 1 else s
                while len(w) < fill:
                    w.append(w[-m])
        while w and w[-1] == d - 1:
            w.pop()
    return count


def brute_force_orbits(s: int, d: int, axes: bool = False) -> list[CyclicWord]:
    """Dead-simple oracle: scan all d^s words, canonicalize, deduplicate.

    Only meant for small cells; used in tests to cross-check the necklace
    generator itself.
    """
    from itertools import product

    seen: set[CyclicWord] = set()
    for w in product(range(d), repeat=s):
        if period(w) == s and (not axes or _is_axes_word(w)):
            seen.add(canonicalize(w))
    return sorted(seen)
