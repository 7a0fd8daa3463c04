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

The oracle count_by_enumeration runs its own copy of that walk, which
stops at half length.  Call a prefix the walk has just stepped, a Lyndon
word u of length m, fresh; the walk fills it to w of length s by
w[i] = u[i mod m], and each step at a position t >= m of w (a letter above
w[t], and for axes not equal to w[t - 1]) makes a fresh prefix of length
t + 1 below u.  The leaves are the fresh prefixes of length s.

Half-length lemma.  If 2m >= s (and m >= 2 for axes), the subtree below u
depends only on x = u[:s - m]: it holds cs[s - m] leaves, where cs[0] = 1,
cs[j] = sum over r < j of wt_r * cs[j - 1 - r], and wt_r is the number of
steps at position r of x, d - 1 - x[r], for axes less one when the left
neighbour of x[r] lies above it (x[r - 1], or for r = 0 a letter above
x[0]).  Proof: as s - m <= m, the fill copies x into positions m..s-1, so
a step at t >= m compares with x[t - m] and, for axes, with x[t - m - 1]
or, at t = m, with u's last letter, which lies above u[0] = x[0] as u is a
Lyndon word of length >= 2.  So the steps at t are the wt_(t-m) of x.
The fresh prefix made at t has length t + 1 > m, and its own fill copies
its first s - t - 1 letters, which are x[:s - t - 1] as s - t - 1 < s - m;
its last letter lies above x[0] again.  By induction on s - m its subtree
holds cs[s - t - 1] leaves, and summing over t gives cs[s - m].

So the counting walk expands only the fresh prefixes of length at most
h = s // 2.  For each it adds, at every position t >= h of its fill, the
steps at t times cs[s - t - 1], as the prefix made there has length
t + 1 > s / 2.  It keeps cs beside w and recomputes only the entries whose
letters its last step changed, so it visits about the Lyndon words of
length at most s / 2, instead of the Lyndon words of length at most s.
cs[j] is still a count of leaves of the walk: each term is a number of
steps times the leaves below each of them, with no signs and no division,
so a wrong step rule changes it as it would the word-by-word walk.  It
never uses the Mobius sums, and stays an independent check of
count_aperiodic / count_axes.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache
from operator import mul

from .errors import BudgetExceededError, InternalError
from .numtheory import divisors, mobius

DEFAULT_BUDGET = 10**7

Word = tuple[int, ...]


def _budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("KAX_BUDGET")
    if env is None:
        return DEFAULT_BUDGET
    try:
        value = int(env)
        if value < 1:
            raise ValueError
    except ValueError:
        # a ValueError is a usage error at the command line
        raise ValueError(f"KAX_BUDGET must be a positive integer, not {env!r}") from None
    return value


class CyclicWord(namedtuple("CyclicWord", "canonical period")):
    """Rotation orbit of a word, keyed by its least rotation.

    Sorts as the tuple (canonical, period).
    """

    __slots__ = ()

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
    """Lexicographically least rotation, the least of all len(w) rotations."""
    return min((w[i:] + w[:i] for i in range(len(w))), default=w)


def canonicalize(w: Word) -> CyclicWord:
    """Orbit representative: least rotation plus attached period."""
    if not w:
        raise ValueError("empty word")
    return CyclicWord(least_rotation(w), period(w))


def _mobius_count(name: str, s: int, d: int, words: Callable[[int], int]) -> int:
    # (sum over u | s of mu(s/u) words(u)) / s, where words(u) counts the
    # words of length u fixed by rotation by u; the sum is always divisible
    # by s, which is asserted
    if s < 1 or d < 1:
        raise ValueError(f"{name} requires s >= 1 and d >= 1")
    total = sum(mobius(s // u) * words(u) for u in divisors(s))
    if total % s != 0:
        raise InternalError(f"Mobius sum {total} not divisible by s={s}")
    return total // s


# both counts are pure in (s, d), and every run and table asks for them again
@lru_cache(maxsize=4096)
def count_aperiodic(s: int, d: int) -> int:
    """Number of cyclic words of length s on d letters with period exactly s.

    Computed as (sum over u | s of mu(s/u) d^u) / s.
    """
    return _mobius_count("count_aperiodic", s, d, lambda u: d**u)


@lru_cache(maxsize=4096)
def count_axes(s: int, d: int) -> int:
    """Period-exactly-s cyclic words with no two cyclically adjacent equal letters.

    As count_aperiodic, over the proper colorings of a u-cycle with d
    colors, (d - 1)^u + (-1)^u (d - 1); for u = 1 the single vertex is
    adjacent to itself, so 0.
    """
    return _mobius_count("count_axes", s, d, lambda u: (d - 1) ** u + (-1) ** u * (d - 1))


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


def _walk_prefixes(lo: int, hi: int, d: int, axes: bool, budget: int) -> int:
    # the prefixes of lo..hi letters, for axes those without an adjacent
    # repeat, d (d - 1)^(m - 1) of length m; summed only until past the
    # budget, so a ratio >= 2 stops within bitlen(budget) + 1 terms
    ratio = d - 1 if axes else d
    if ratio <= 1:
        return d * (hi - lo + 1 if ratio else lo <= 1 <= hi)
    total, term = 0, d
    for m in range(1, hi + 1):
        if m >= lo:
            total += term
        if total > budget or term > budget:
            # every term from lo on is at least this one
            return max(total, term)
        term *= ratio
    return total


def _check_budget(s: int, d: int, axes: bool, budget: int | None,
                  counting: bool = False) -> None:
    budget = _budget(budget)
    if counting:
        # the counting walk steps only through prefixes of at most s // 2
        # letters
        h = s // 2
        if _walk_prefixes(1, h, d, axes, budget) > budget:
            terms = (f"{d}*{d - 1}^0 + ... + {d}*{d - 1}^{h - 1}" if axes
                     else f"{d}^1 + ... + {d}^{h}")
            raise BudgetExceededError(
                f"counting walk over {terms} prefixes exceeds budget {budget}")
    elif _walk_prefixes(s, s, d, axes, budget) > budget:
        # listing the words: the axes walk extends only prefixes without an
        # adjacent repeat
        words = f"{d}*{d - 1}^{s - 1}" if axes else f"{d}^{s}"
        raise BudgetExceededError(f"enumeration of {words} words exceeds budget {budget}")
    if s > budget:
        # below d = 2 the walk visits few words, but its fill holds s letters
        raise BudgetExceededError(f"a walk over words of {s} letters exceeds budget {budget}")


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
    Mobius formulas.  Half-length lemma (proved in the module docstring):
    the subtree below a fresh prefix u of length m >= s / 2 holds
    cs[s - m] leaves, a sum of products of step counts of x = u[:s - m]
    that groups equal subtrees but still counts each leaf once.  So the
    walk expands only the fresh prefixes of length m <= h = s // 2, and
    counts each subtree below a prefix of length > s / 2 from its first
    letters.  For a walked prefix filled to w, wt[t] is the number of
    steps at position t of w; at t = 0 it is taken against a left
    neighbour above w[0], as after the last letter of a Lyndon word, which
    makes wt[:j] the weights of x = w[:j].  The prefix made by a step at
    t >= h has x = w[:s - t - 1], so the walk adds wt[t] * cs[s - t - 1]
    for every t >= h.

    Every step that is not an adjacent repeat, whatever its length
    m <= h, takes one rule: set wt[m - 1] for the letter just stepped,
    refill wt[m:] by the period m of the fill, bring cs up to date, and
    add the dot product of wt[h:] with cs.  cs[j] depends on w[:j] only,
    so a step at position m - 1 leaves cs[:m] as it was; valid counts
    the entries still in force.  A prefix whose weights past h are all 0
    has no counted step, and the walk skips its cs: on one letter, and on
    two-letter axes, every weight is 0, so the walk does work linear in s
    and no s^2 sums.

    The budget is charged for the prefixes of at most h letters the walk
    can step through, d + d^2 + ... + d^h (for axes, those without an
    adjacent repeat), not for the d^s words enumerate_* list.
    """
    if s < 1 or d < 1:
        raise ValueError("count_by_enumeration requires s >= 1 and d >= 1")
    _check_budget(s, d, axes, budget, counting=True)
    if s == 1:
        # the leaves are the d one-letter words; for axes each one is its
        # own cyclic neighbour
        return 0 if axes else d
    h = s // 2
    n = s - h  # cs[:n] holds every count the walk reads
    top = d - 1
    wt = [0] * s
    # cs reversed, rc[n - 1 - j] = cs[j], so that it meets the weights
    # of the fill in order in a dot product
    rc = [1] * n
    valid = 1
    count = 0
    w = [-1]
    while w:
        v = w[-1] + 1
        w[-1] = v
        m = len(w)
        # an adjacent repeat is neither counted nor extended
        if not (axes and m > 1 and v == w[-2]):
            wt[m - 1] = top - v - (axes and (m == 1 or w[-2] > v))
            del wt[m:]
            if axes and m == 1:
                # the fill stops at the repeat w[0] w[0], so only
                # position 1 takes steps
                wt.append(top - v)
                wt += [0] * (s - 2)
                if h > 1:
                    w.append(v)
            else:
                # the fill repeats the prefix, and so do its weights: at
                # t = m the left neighbour is the prefix's last letter,
                # which lies above w[0]
                wt *= s // m + 1
                del wt[s:]
                w *= h // m + 1
                del w[h:]
            if valid > m:
                valid = m
            tail = wt[h:]
            if any(tail):
                for j in range(valid, n):
                    rc[n - 1 - j] = sum(map(mul, wt[:j], rc[n - j:]))
                valid = n
                count += sum(map(mul, tail, rc))
        while w and w[-1] == top:
            w.pop()
    return count
