"""Assembly of the K-group formulas into structured abelian-group values.

k_group (one degree) and table (degrees 0..n) implement the closed-form
description of the p-adic relative K-groups of R[x_1..x_d]/(x_1..x_d)^2
for R a perfectoid coefficient ring: a finite product of truncated Witt
vector groups W_k(R), indexed by an integer m', a divisor s, and a cyclic
word of period s.  That is the "square" variant; the "axes" variant swaps
the word count for the adjacent-distinct count, the "dual" variant is
d = 1, and the "integral" variant (finite fields only) adds the Z and
Z/(q^i - 1) summands of the K-theory of the residue field.  relative_k,
axes_relative_k and integral_k_finite_field are k_group at one variant.

Branch structure, with r = floor(degree / 2): the factors range over the
m' that have the parity of the degree and, for p odd, are coprime to p.
The (m', t) run has one factor W_(t - v_p(s)) per word of period s, for
each s | m' p^(t-1) of the parity of m', where the window t is:

* even degree 2r:    t_ev(p, r, m');
* odd degree 2r+1:   t_od(p, r, m'), or 1 at p = 2, the one special case
                     (_steps): s | m', and each factor is W_1 = R (nu = 0).

A row is its (m', t) runs, m' ascending, which is t descending, then s
ascending: the canonical order.  One loop makes every row, of a table or
of a single degree: it steps one running row per parity from the empty
row.  A factor depends on the degree only through the window t, and m'
has window t at degree n exactly when n // p^t < m' <= n // p^(t-1); so
from n - 2 to n only m' = n // p^t moves, from window t to t + 1, for
each t whose bound moved (m' = n from window 0 to 1).  These steps depend
on (p, n) alone and are memoised, so no row reads a window.  A run's
factors come from its memoised shape, reading each s's word count once
per call; a run whose m' is above m_prime_limit stays empty.  A single
degree steps its parity alone and builds only its own row, and of the
runs only those that no later step replaces by that degree: a run entering
window t + 1 moves again at the least degree >= m' p^(t+1).  Each row of a
table is one copy of the running row, and the rows of one table() share
their factors, which are read-only named tuples.  Length-0 Witt factors
are pruned throughout.

Assembly builds each Witt factor as a plain tuple and, beside it in the
running row, its JSON wire entry; a row copies both and carries its
entries (after those of its Quillen summands), which group_expr_to_dict
copies.  Rows that share a factor share its entry, so the entries are
read-only.  An expression made any other way (by hand, by
group_expr_from_dict, by _replace) carries none: group_expr_to_dict
builds its entries from its factors.  Every entry, of a run's factor, a
Quillen summand or a factor of such an expression, is built by
_wire_entry from the fields of the factor it describes, its ring label in
place of its ring: the one entry format, where an integer too long for
the interpreter's int-to-str limit is a budget error.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from .errors import KaxError, factor_digit_limit_error
from .numtheory import divisors, factor_prime_power, require_prime
from .words import count_aperiodic, count_axes

VARIANTS = ("square", "axes", "dual", "integral")


# ---------------------------------------------------------------------------
# ring descriptors


class RingSpec(namedtuple("RingSpec", "kind p f name")):
    """Coefficient ring: finite field or one of the symbolic families.

    kind is "finite_field", "perfect_fp", "perfectoid" or "zp_cyclotomic".
    """

    __slots__ = ()

    def __new__(cls, kind: str, p: int, f: int = 1, name: str = "") -> "RingSpec":
        require_prime(p)
        return super().__new__(cls, kind, p, f, name)

    @classmethod
    def _make(cls, iterable) -> "RingSpec":
        # _replace builds through _make: check p there too
        return cls(*iterable)

    @property
    def is_symbolic(self) -> bool:
        return self.kind != "finite_field"

    @property
    def q(self) -> int:
        if self.kind != "finite_field":
            raise ValueError("only finite fields have an order")
        return self.p**self.f

    def label(self) -> str:
        if self.kind == "finite_field":
            return f"F_{self.q}"
        if self.kind == "zp_cyclotomic":
            return f"Z_{self.p}^cycl"
        return self.name or "R"

    @staticmethod
    def finite_field(p: int, f: int = 1) -> "RingSpec":
        return RingSpec("finite_field", p, f)

    @staticmethod
    def from_q(q: int) -> "RingSpec":
        # the scan of q is cached; at q = p^f, f > 1, p <= 10^7 is proved by
        # its own scan, of at most sqrt(p) <= 3,163 divisions
        return RingSpec("finite_field", *factor_prime_power(q))


def parse_ring_spec(text: str) -> RingSpec:
    """Parse the CLI ring syntax: Fq:<q> | perfect:<name>:<p> |
    perfectoid:<name>:<p> | zpcycl:<p>."""
    parts = text.split(":")
    try:
        if parts[0] == "Fq" and len(parts) == 2:
            return RingSpec.from_q(int(parts[1]))
        if parts[0] == "perfect" and len(parts) == 3:
            return RingSpec("perfect_fp", int(parts[2]), name=parts[1])
        if parts[0] == "perfectoid" and len(parts) == 3:
            return RingSpec("perfectoid", int(parts[2]), name=parts[1])
        if parts[0] == "zpcycl" and len(parts) == 2:
            return RingSpec("zp_cyclotomic", int(parts[1]))
    except ValueError as exc:
        raise KaxError(f"bad ring spec {text!r}: {exc}") from exc
    raise KaxError(f"unrecognized ring spec {text!r}")


# ---------------------------------------------------------------------------
# group expressions


class GroupFactor(namedtuple(
    "GroupFactor", "kind multiplicity length ring order rank m_prime s nu",
    defaults=(1, None, None, None, None, None, None, None),
)):
    """One factor of a finite(ly generated) abelian group expression.

    kind is "witt" (length and ring set), "cyclic" (order set) or "free"
    (rank set); m_prime, s and nu record where assembly found the factor.
    """

    __slots__ = ()


class GroupExpr(namedtuple("GroupExpr", "degree p completeness factors", defaults=((),))):
    """Formal finite(ly generated) abelian group, canonically ordered.

    completeness is "p-complete", "integral" or
    "integral-because-p-power-torsion"; factors is a tuple of GroupFactor.
    Read-only.  A row made by assembly also carries the JSON wire entries
    of its factors in its instance dict, outside the tuple, so ==, hash and
    repr do not see them; any other expression has _entries None.
    """

    _entries = None

    def __setattr__(self, name, value):
        raise AttributeError(f"GroupExpr is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GroupExpr is read-only: cannot delete {name!r}")

    @property
    def is_trivial(self) -> bool:
        return not self.factors


def factor_order_exponent(gf: GroupFactor) -> tuple[int, int] | str:
    """(N, c) with order(gf) == p**N * c, p its expression's, or "infinite" /
    "symbolic".

    A copy of W_k(F_{p^f}) has order p^(f k), so a witt factor has N = f *
    length * multiplicity and builds no power; a cyclic one has N = 0.  The
    witt rings have the expression's p, as assembled.
    """
    if gf.kind == "free":
        return "infinite" if (gf.rank or 0) > 0 else "symbolic"
    if gf.kind == "cyclic":
        return 0, gf.order**gf.multiplicity
    if gf.ring.is_symbolic:
        return "symbolic"
    return gf.ring.f * gf.length * gf.multiplicity, 1


def order_exponent(expr: GroupExpr, parts: Iterable | None = None) -> tuple[int, int] | str:
    """(N, c) with order(expr) == p**N * c, or "infinite" / "symbolic": the
    first factor that is not finite decides.

    Summed from factor_order_exponent of each factor, or from parts, those
    of expr's factors in order, for a caller that has them already.
    """
    n, c = 0, 1
    for o in map(factor_order_exponent, expr.factors) if parts is None else parts:
        if isinstance(o, str):
            return o
        n += o[0]
        c *= o[1]
    return n, c


def order(expr: GroupExpr) -> int | str:
    """Product of factor orders, or "infinite" / "symbolic"."""
    o = order_exponent(expr)
    return o if isinstance(o, str) else expr.p ** o[0] * o[1]


# ---------------------------------------------------------------------------
# the relative K-group assembly


# a run's shape depends on neither d nor the ring, and every table and
# single degree asks for the same (p, m', t) again
@lru_cache(maxsize=4096)
def _run_shape(p: int, m_prime: int, t: int) -> tuple[tuple[int, int], ...]:
    """The (s, t - v_p(s)) pairs of the (m', t) run with length > 0, for s |
    m' p^(t-1) of the parity of m', s ascending."""
    shape = []
    for s in divisors(m_prime * p ** (t - 1)):
        if s % 2 != m_prime % 2:
            continue
        length, u = t, s  # RingSpec checked p
        while u % p == 0:
            u //= p
            length -= 1
        if length > 0:
            shape.append((s, length))
    return tuple(shape)


@lru_cache(maxsize=4096)
def _steps(p: int, n: int) -> tuple[tuple[int, int], ...]:
    """The moves of a running row from degree n - 2 to n, t descending: (t, m')
    for each t whose bound n // p^t moved, m' = n // p^t entering window
    t + 1, or m' = 0 where no run moves (m' is 0, of the other parity, or
    divisible by an odd p).  At p = 2 and odd n, m' = n joins window 1 alone."""
    if n % 2 and p == 2:
        return ((0, n),)
    steps, t, m, m0 = [], 0, n, n - 2
    while t == 0 or m > m0 >= 0:
        steps.append((t, m if m and m % 2 == n % 2 and (p == 2 or m % p) else 0))
        t, m, m0 = t + 1, m // p, m0 // p
    return tuple(steps[::-1])


def _rows(ring: RingSpec, d: int, variant: str, degrees: range,
          quillen_convention: str = "standard", m_prime_limit: int | None = None
          ) -> list[GroupExpr]:
    """The GroupExpr of each degree in degrees, carrying its wire entries: the
    one map from a variant to its word count, its d (the dual numbers are
    d = 1) and its Quillen summands, for table() and k_group() alike.  Each
    parity of degrees steps its running row by _steps from the empty row, so
    a single degree n, range(n, n + 1, 2), steps n's parity alone; a run
    whose m' is above m_prime_limit stays empty, and a run that a later step
    replaces before degrees' first is not built."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    counter = count_axes if variant == "axes" else count_aperiodic
    integral = variant == "integral"
    if integral:
        if degrees.start < 0:
            raise ValueError("integral K-groups are computed for degree >= 0")
        ring = RingSpec.from_q(ring.q)
        completeness = "integral"
    elif ring.kind in ("finite_field", "perfect_fp"):
        # over F_q and perfect F_p the relative homotopy is p-power
        # torsion, so nothing is lost integrally
        completeness = "integral-because-p-power-torsion"
    else:
        completeness = "p-complete"
    if d < 1:
        raise ValueError("d must be >= 1")
    if variant == "dual":
        d = 1
    p = ring.p
    ring_text = _ring_to_str(ring)
    new = tuple.__new__
    top = degrees[-1]
    limit = top if m_prime_limit is None else m_prime_limit
    counts: list[int | None] = [None] * (top + 1)  # s -> its word count; s | m' p^(t-1) <= top
    sizes = [0] * (top + 1)  # m' -> the length of its run in its row
    # per parity: factors, entries, starts[t] = the index of the first m' > n // p^t
    width = top.bit_length() + 1
    rows = ([], [], [0] * width), ([], [], [0] * width)
    exprs = []
    # each parity from its least degree >= 0; a negative degree is its own empty row
    first = degrees.start
    for n in range(min(first, first % degrees.step), degrees.stop, degrees.step):
        odd, grown = n % 2 == 1, 0  # how far the runs replaced so far moved the rest
        factors, entries, starts = rows[odd]
        nu = 0 if odd and p == 2 else None
        for t, m in _steps(p, n):
            at = starts[t] + grown
            if 0 < m <= limit:
                # a run in window t + 1 next moves at the least degree of n's
                # parity >= m' p^(t+1); one that moves again by the first
                # degree wanted is not built (a p = 2 odd run never moves)
                if nu is not None or m * p ** (t + 1) > first:
                    # the (m', t + 1) run's factors with a nonzero word count
                    run_factors, run_entries = [], []
                    for s, length in _run_shape(p, m, t + 1):
                        mult = counts[s]
                        if mult is None:
                            mult = counts[s] = counter(s, d)
                        if mult:
                            run_factors.append(new(GroupFactor, ("witt", mult, length, ring, None,
                                                                 None, m, s, nu)))
                            run_entries.append(_wire_entry("witt", mult, length, ring_text, None,
                                                           None, m, s, nu))
                    size, sizes[m] = sizes[m], len(run_factors)
                    factors[at:at + size] = run_factors
                    entries[at:at + size] = run_entries
                    grown += sizes[m] - size
                at += sizes[m]
            starts[t] = at
        if n < first:
            continue
        if integral:  # the Quillen summands sort first; they have no ring, so no label
            quillen = _quillen_factors(ring.q, n, quillen_convention)
            row_factors = quillen + tuple(factors)
            row_entries = tuple([_wire_entry(*gf) for gf in quillen] + entries)
        else:
            row_factors, row_entries = tuple(factors), tuple(entries)
        expr = new(GroupExpr, (n, p, completeness, row_factors))
        expr.__dict__["_entries"] = row_entries
        exprs.append(expr)
    return exprs


def k_group(ring: RingSpec, d: int, degree: int, variant: str = "square",
            quillen_convention: str = "standard", m_prime_limit: int | None = None
            ) -> GroupExpr:
    """K_degree of the variant over ring in d variables: the single-degree
    twin of table(), with the factors of m' above m_prime_limit left out."""
    return _rows(ring, d, variant, range(degree, degree + 1, 2), quillen_convention,
                 m_prime_limit)[0]


def relative_k(
    ring: RingSpec, d: int, degree: int, m_prime_limit: int | None = None
) -> GroupExpr:
    """Relative p-adic K-group of the square-zero extension in d variables."""
    return k_group(ring, d, degree, m_prime_limit=m_prime_limit)


def axes_relative_k(
    ring: RingSpec, d: int, degree: int, m_prime_limit: int | None = None
) -> GroupExpr:
    """Coordinate-axes variant: word counts restricted to adjacent-distinct."""
    return k_group(ring, d, degree, "axes", m_prime_limit=m_prime_limit)


QUILLEN_CONVENTIONS = ("standard", "paper")


def _quillen_factors(
    q: int, degree: int, convention: str
) -> tuple[GroupFactor, ...]:
    # K-groups of the residue field F_q: Z in degree 0, Z/(q^i - 1) in
    # degree 2i-1, nothing in positive even degrees.
    if convention not in QUILLEN_CONVENTIONS:
        raise ValueError(f"unknown Quillen convention {convention!r}")
    if degree == 0:
        return (GroupFactor("free", rank=1),)
    if degree < 0 or degree % 2 == 0:
        return ()
    if convention == "standard":
        exponent = (degree + 1) // 2
    else:
        # verbatim exponent from the source display at degree 2r+1: r - 1;
        # undefined below degree 5, where we emit nothing
        exponent = (degree - 1) // 2 - 1
        if exponent < 1:
            return ()
    n = q**exponent - 1
    if n <= 1:
        return ()
    return (GroupFactor("cyclic", order=n),)


def integral_k_finite_field(
    q: int,
    d: int,
    degree: int,
    quillen_convention: str = "standard",
    m_prime_limit: int | None = None,
) -> GroupExpr:
    """Integral K-group over F_q: relative part plus the K(F_q) summand."""
    return k_group(RingSpec.from_q(q), d, degree, "integral", quillen_convention, m_prime_limit)


def table(
    ring: RingSpec,
    d: int,
    max_degree: int,
    variant: str = "square",
    quillen_convention: str = "standard",
) -> list[GroupExpr]:
    """One GroupExpr per degree 0..max_degree, sharing their factors."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    return _rows(ring, d, variant, range(max_degree + 1), quillen_convention)


# ---------------------------------------------------------------------------
# JSON wire format


def _ring_to_str(ring: RingSpec) -> str:
    if ring.kind == "finite_field":
        return f"Fq:{ring.q}"
    if ring.kind == "perfect_fp":
        return f"perfect:{ring.name}:{ring.p}"
    if ring.kind == "perfectoid":
        return f"perfectoid:{ring.name}:{ring.p}"
    return f"zpcycl:{ring.p}"


def _wire_entry(kind: str, multiplicity: int, length: int | None, ring_text: str | None,
                order: int | None, rank: int | None, m_prime: int | None, s: int | None,
                nu: int | None) -> dict:
    """The JSON wire entry of one factor, from its GroupFactor fields with
    ring_text, the label of its ring, in place of the ring.

    The integers that JSON cannot hold exactly (multiplicity, cyclic order)
    go out as decimal strings.  One too long for the interpreter's
    int-to-str limit is a budget error, not a usage error.
    """
    try:
        mult_text = str(multiplicity)
        order_text = None if order is None else str(order)
    except ValueError as exc:
        raise factor_digit_limit_error(kind, m_prime, s) from exc
    if kind == "witt":
        entry = {"kind": kind, "length": length, "ring": ring_text, "multiplicity": mult_text}
    elif kind == "cyclic":
        entry = {"kind": kind, "order": order_text, "multiplicity": mult_text}
    else:
        entry = {"kind": kind, "rank": rank, "multiplicity": mult_text}
    if m_prime is not None:
        entry["provenance"] = ({"m_prime": m_prime, "s": s} if nu is None
                               else {"m_prime": m_prime, "s": s, "nu": nu})
    return entry


def group_expr_to_dict(expr: GroupExpr) -> dict:
    """The JSON wire form of expr: a fresh top-level dict and factor list.

    A row made by assembly copies the entries it carries, which every row
    and call that serialises the same factor shares, so they are
    read-only: copy one before changing it.  Any other expression gets an
    entry built from each factor.
    """
    entries = expr._entries
    if entries is None:
        entries = [_wire_entry(kind, mult, length, None if ring is None else _ring_to_str(ring),
                               order, rank, m_prime, s, nu)
                   for kind, mult, length, ring, order, rank, m_prime, s, nu in expr.factors]
    complete = "integral" if expr.completeness.startswith("integral") else "p-complete"
    return {
        "degree": expr.degree,
        "p": expr.p,
        "complete": complete,
        "factors": list(entries),
    }


# the fields of each kind's wire entry besides multiplicity and provenance,
# each with its parser (None: the JSON value as it stands)
_WIRE_FIELDS = {
    "witt": (("length", None), ("ring", parse_ring_spec)),
    "cyclic": (("order", int),),
    "free": (("rank", None),),
}


def group_expr_from_dict(data: dict) -> GroupExpr:
    """Parse the wire format back; provenance and structure are preserved.

    The completeness tag collapses to the two wire values, so round-tripped
    expressions compare equal up to that projection.  An unknown kind or a
    missing field raises KeyError.
    """
    factors = []
    for entry in data["factors"]:
        kind = entry["kind"]
        fields = {name: entry[name] if parse is None else parse(entry[name])
                  for name, parse in _WIRE_FIELDS[kind]}
        prov = entry.get("provenance", {})
        factors.append(GroupFactor(
            kind, int(entry["multiplicity"]),
            m_prime=prov.get("m_prime"), s=prov.get("s"), nu=prov.get("nu"), **fields,
        ))
    return GroupExpr(data["degree"], data["p"], data["complete"], tuple(factors))


def normalize_for_roundtrip(expr: GroupExpr) -> GroupExpr:
    """Project the completeness tag onto the wire vocabulary."""
    complete = "integral" if expr.completeness.startswith("integral") else "p-complete"
    return expr._replace(completeness=complete)
