import inspect
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kax import words
from kax.errors import BudgetExceededError
from kax.oracles import check_counts
from kax.words import (
    CyclicWord,
    DEFAULT_BUDGET,
    _lyndon_words,
    _walk,
    canonicalize,
    count_aperiodic,
    count_axes,
    count_by_enumeration,
    enumerate_aperiodic,
    enumerate_axes,
    parse_word,
    period,
    render_word,
)


def w(text):
    return parse_word(text, 26)


def test_period_examples():
    assert period(w("aaaa")) == 1
    assert period(w("abab")) == 2
    assert period(w("aab")) == 3


def test_period_rejects_empty():
    with pytest.raises(ValueError):
        period(())


def test_canonicalize_examples():
    assert canonicalize(w("ba")) == CyclicWord(w("ab"), 2)
    assert canonicalize(w("bab")) == CyclicWord(w("abb"), 3)
    assert canonicalize(w("aa")) == CyclicWord(w("aa"), 1)


words_strategy = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=12
).map(tuple)


@given(words_strategy, st.integers(min_value=0, max_value=11))
def test_canonicalize_rotation_invariant(word, k):
    k %= len(word)
    rotated = word[k:] + word[:k]
    assert canonicalize(rotated) == canonicalize(word)


@given(words_strategy)
def test_period_divides_length(word):
    assert len(word) % period(word) == 0


@given(words_strategy)
def test_canonical_is_least_rotation(word):
    canon = canonicalize(word).canonical
    rotations = [word[k:] + word[:k] for k in range(len(word))]
    assert canon == min(rotations)


def test_count_aperiodic_examples():
    for d in (1, 2, 5):
        assert count_aperiodic(1, d) == d
    assert count_aperiodic(4, 2) == 3
    assert count_aperiodic(6, 2) == 9


def test_count_axes_examples():
    for d in (1, 2, 7):
        assert count_axes(1, d) == 0
    assert count_axes(2, 2) == 1
    assert count_axes(3, 3) == 2


def test_enumerate_aperiodic_examples():
    assert [str(x) for x in enumerate_aperiodic(2, 2)] == ["ab"]
    assert [str(x) for x in enumerate_aperiodic(1, 3)] == ["a", "b", "c"]
    assert [str(x) for x in enumerate_aperiodic(3, 2)] == ["aab", "abb"]


def test_enumerate_axes_examples():
    assert [str(x) for x in enumerate_axes(2, 2)] == ["ab"]
    assert enumerate_axes(1, 2) == []
    assert enumerate_axes(4, 2) == []
    # edges of the pruned walk and of the counting walk: one letter, two
    # letters, length one
    for s in range(1, 40):
        assert enumerate_axes(s, 1) == []
        assert count_by_enumeration(s, 1, axes=True) == 0
        assert count_by_enumeration(s, 1) == len(enumerate_aperiodic(s, 1))
    for s in range(1, 21):
        expected = [CyclicWord((0, 1), 2)] if s == 2 else []
        assert enumerate_axes(s, 2) == expected
        assert count_by_enumeration(s, 2, axes=True) == len(expected)
    for d in range(1, 30):
        assert enumerate_axes(1, d) == []
        assert count_by_enumeration(1, d, axes=True) == 0
        assert count_by_enumeration(1, d) == len(enumerate_aperiodic(1, d))
        # s = 2 is the one length at which the axes fill meets an adjacent
        # repeat exactly at position s - 1: the prefix x fills to xx, and
        # the counted run starts above the repeat
        assert count_by_enumeration(2, d, axes=True) == len(enumerate_axes(2, d))


def _filtered_lyndon_words(s, d):
    # reference: the plain Lyndon-word walk with every word of length s
    # tested for a cyclically adjacent repeat afterwards
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == s and all(w[i] != w[(i + 1) % s] for i in range(s)):
            yield tuple(w)
        while len(w) < s:
            w.append(w[-m])
        while w and w[-1] == d - 1:
            w.pop()


def test_walk_steps_through_the_lyndon_words_in_order():
    # the walk both the listing and the counting oracle run: the copies of
    # what it yields are every Lyndon word of length 1..depth (strictly less
    # than each proper rotation), for axes those with no two adjacent equal
    # letters, in lexicographic order, each once
    for d in range(1, 5):
        lyndon = [x for m in range(1, 8) for x in product(range(d), repeat=m)
                  if all(x < x[i:] + x[:i] for i in range(1, m))]
        for axes, depth in product((False, True), range(1, 8)):
            expected = sorted(x for x in lyndon if len(x) <= depth
                              and not (axes and any(a == b for a, b in zip(x, x[1:]))))
            assert [tuple(w) for w in _walk(d, axes, depth)] == expected, (d, axes, depth)


def test_axes_walk_matches_filtered_walk():
    cells = [(s, d) for d in range(1, 5) for s in range(1, 11)]
    cells += [(s, d) for d in range(5, 8) for s in range(1, 8)]
    for s, d in cells:
        reference = [CyclicWord(x, s) for x in _filtered_lyndon_words(s, d)]
        assert enumerate_axes(s, d) == reference, (s, d)
        assert count_by_enumeration(s, d, axes=True) == len(reference), (s, d)


def _brute_force_orbits(s, d, axes=False):
    # scan all d^s words, keep the primitive ones (cyclically adjacent-distinct
    # for axes), canonicalize, deduplicate
    seen = set()
    for w in product(range(d), repeat=s):
        if period(w) == s and (not axes or all(w[i] != w[i - 1] for i in range(s))):
            seen.add(canonicalize(w))
    return sorted(seen)


def test_enumeration_matches_brute_force():
    # cross-check the necklace generator against the dumb scan
    for d in (1, 2, 3):
        for s in range(1, 8):
            aperiodic = _brute_force_orbits(s, d)
            axes = _brute_force_orbits(s, d, axes=True)
            assert enumerate_aperiodic(s, d) == aperiodic
            assert enumerate_axes(s, d) == axes
            assert count_by_enumeration(s, d) == len(aperiodic)
            assert count_by_enumeration(s, d, axes=True) == len(axes)


def test_counts_match_enumeration_small_grid():
    cells = [(s, d) for d in (1, 2, 3, 4) for s in range(1, 9)]
    cells += [(s, d) for d in range(5, 10) for s in range(1, 6)]
    for s, d in cells:
        aperiodic = len(enumerate_aperiodic(s, d))
        axes = len(enumerate_axes(s, d))
        # the batched counting walk against the word-by-word walk
        assert count_by_enumeration(s, d) == aperiodic, (s, d)
        assert count_by_enumeration(s, d, axes=True) == axes, (s, d)
        if d <= 4:
            assert count_aperiodic(s, d) == aperiodic
            assert count_axes(s, d) == axes


def test_counting_walk_matches_lyndon_walk_on_every_small_cell():
    # the counting walk expands prefixes up to length s // 2 and counts the
    # subtrees below; at every even s it meets 2m = s, where each expanded
    # prefix of length s / 2 has only counted steps, and d = 1 and d = 2
    # leave most weights 0
    s_max = {1: 12, 2: 12, 3: 12, 4: 10}
    cells = [(s, d) for d in range(1, 7) for s in range(1, s_max.get(d, 8) + 1)]
    for s, d in cells:
        for axes in (False, True):
            expected = sum(1 for _ in _lyndon_words(s, d, axes))
            assert count_by_enumeration(s, d, axes) == expected, (s, d, axes)


def test_counting_walk_matches_the_formulas_on_a_wide_grid():
    # every s, odd and even, up to the largest length per alphabet that
    # keeps this test near a second
    s_max = {1: 64, 2: 33, 3: 22, 4: 18, 5: 16, 6: 14}
    for d, top in s_max.items():
        for s in range(1, top + 1):
            assert count_by_enumeration(s, d) == count_aperiodic(s, d), (s, d)
            assert count_by_enumeration(s, d, axes=True) == count_axes(s, d), (s, d)


def test_counting_walk_uses_no_formula(monkeypatch):
    # the default grid of `kax verify counts`, counted with the Mobius
    # formulas and the number theory under them made to raise
    defaults = inspect.signature(check_counts).parameters
    s_max, d_max = defaults["s_max"].default, defaults["d_max"].default
    grid = [(s, d, axes) for d in range(1, d_max + 1) for s in range(1, s_max + 1)
            for axes in (False, True)]
    expected = [(count_axes if axes else count_aperiodic)(s, d) for s, d, axes in grid]

    def forbidden(*args):
        raise AssertionError("the counting walk used a formula")

    for name in ("count_aperiodic", "count_axes", "mobius", "divisors"):
        monkeypatch.setattr(words, name, forbidden)
    assert [count_by_enumeration(s, d, axes, budget=10**8)
            for s, d, axes in grid] == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=6),
       st.booleans())
def test_counting_walk_matches_lyndon_walk(s, d, axes):
    # 6**9 words is past the default budget
    counted = count_by_enumeration(s, d, axes, budget=6**9)
    assert counted == sum(1 for _ in _lyndon_words(s, d, axes))


def test_long_words_on_one_letter():
    # the only word on one letter is periodic with period 1, and the walk
    # does not recurse, so a length far above the recursion limit is fine
    assert count_by_enumeration(5000, 1) == 0
    assert count_by_enumeration(5000, 1, axes=True) == 0
    assert enumerate_aperiodic(5000, 1) == enumerate_axes(5000, 1) == []


@pytest.mark.parametrize("d, axes", [(1, False), (1, True), (2, True)])
def test_long_words_count_in_linear_work(monkeypatch, d, axes):
    # no word of length 10^5 on one letter, or on two letters without an
    # adjacent repeat, is aperiodic; every weight the counting walk reads
    # past s // 2 is 0 there, so it must not fill its table of subtree
    # counts, which would take about s^2 / 8 products
    s = 10**5
    products = 0

    def counted_mul(a, b):
        nonlocal products
        products += 1
        if products > s:
            raise AssertionError(f"more than {s} products for s = {s}")
        return a * b

    monkeypatch.setattr(words, "mul", counted_mul)
    assert count_by_enumeration(s, d, axes) == 0


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_aperiodic(30, 3, budget=10**4)
    with pytest.raises(BudgetExceededError):
        count_by_enumeration(30, 3, budget=10**4)


def test_counting_walk_is_charged_for_its_half_length_prefixes():
    # 3^15 words are past the default budget, but the walk steps through at
    # most 3^1 + ... + 3^7 = 3,279 prefixes
    assert 3**15 > DEFAULT_BUDGET
    assert count_by_enumeration(15, 3) == count_aperiodic(15, 3)
    assert count_by_enumeration(15, 3, axes=True) == count_axes(15, 3)
    with pytest.raises(BudgetExceededError) as exc:
        count_by_enumeration(30, 3, budget=10**4)
    assert str(exc.value) == "counting walk over 3^1 + ... + 3^15 prefixes exceeds budget 10000"
    with pytest.raises(BudgetExceededError) as exc:
        count_by_enumeration(30, 4, axes=True, budget=10**4)
    assert str(exc.value) == (
        "counting walk over 4*3^0 + ... + 4*3^14 prefixes exceeds budget 10000")
    # the listing still pays for every word
    with pytest.raises(BudgetExceededError, match=r"^enumeration of 3\^15 words exceeds budget"):
        enumerate_aperiodic(15, 3)


def test_listing_refuses_long_words_without_building_the_word_count():
    # d^s at s = 10^7 is a big integer whose product alone takes seconds;
    # the charge stops once its partial products pass the budget
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_aperiodic(10**7, 3)
    assert str(exc.value) == "enumeration of 3^10000000 words exceeds budget 10000000"
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_axes(10**7, 4)
    assert str(exc.value) == "enumeration of 4*3^9999999 words exceeds budget 10000000"
    assert time.perf_counter() - start < 1.0


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("KAX_BUDGET", "3")
    with pytest.raises(BudgetExceededError):
        enumerate_aperiodic(2, 2)
    monkeypatch.setenv("KAX_BUDGET", "100")
    assert len(enumerate_aperiodic(2, 2)) == 1


@pytest.mark.parametrize("value", ["abc", "-5", "0", "", "2.5"])
def test_budget_env_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("KAX_BUDGET", value)
    with pytest.raises(ValueError, match="KAX_BUDGET must be a positive integer"):
        enumerate_aperiodic(2, 2)


def test_render_parse_roundtrip():
    assert render_word((0, 1, 2), 3) == "abc"
    assert parse_word("abc", 3) == (0, 1, 2)
    big = tuple(range(30))
    assert parse_word(render_word(big, 30), 30) == big
    with pytest.raises(ValueError):
        parse_word("abc", 2)
