"""Correctness checks that do not depend on the code they check.

* Factor-structure hashes of the JSON wire format, so recorded results can
  be compared without breaking on an added JSON field.
* The Witt-vector oracle: W_n(F_q) -> Z_q/p^n, (a_i) -> sum p^i tau(a_i^(p^-i)),
  with tau the Teichmueller lift, is a ring isomorphism; every add, mul and
  neg result must map to the sum, product or negative of the images.
* The dual-number law: at odd degree 2i-1 the relative group has order
  q^i, so sum(length * multiplicity) over the factors is i.
* A mirror of the CLI's text rendering of factors, used only to check a
  request that failed when the results were recorded and succeeds now.
"""

from __future__ import annotations

import hashlib
import json

HASH_LEN = 10
FAILED_AT_SEED = "x" * HASH_LEN

_FACTOR_KEYS = ("kind", "length", "ring", "order", "rank", "multiplicity")
_PROV_KEYS = ("m_prime", "s", "nu")


def canon_row(row: dict) -> str:
    """Stable text of one GroupExpr dict, reading only the known keys."""
    factors = []
    for fac in row["factors"]:
        prov = fac.get("provenance", {})
        factors.append(
            [fac.get(k) for k in _FACTOR_KEYS] + [prov.get(k) for k in _PROV_KEYS]
        )
    return json.dumps(
        [row["degree"], row["p"], row["complete"], factors], separators=(",", ":")
    )


def short_hash(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:HASH_LEN]


def prefix_hashes(rows: list[dict], levels) -> dict[int, str]:
    """Hash of rows 0..L for every L in levels that the rows reach."""
    h = hashlib.sha256()
    out = {}
    wanted = set(levels)
    for row in rows:
        h.update(canon_row(row).encode() + b"\n")
        if row["degree"] in wanted:
            out[row["degree"]] = h.hexdigest()[:HASH_LEN]
    return out


def split_hashes(packed: str) -> list[str]:
    return [packed[i : i + HASH_LEN] for i in range(0, len(packed), HASH_LEN)]


# ---------------------------------------------------------------------------
# dual numbers


def dual_law_holds(row: dict) -> bool:
    """sum(length * multiplicity) == i at odd degree 2i - 1; True elsewhere."""
    degree = row["degree"]
    if degree < 1 or degree % 2 == 0:
        return True
    total = sum(
        fac["length"] * int(fac["multiplicity"])
        for fac in row["factors"]
        if fac["kind"] == "witt"
    )
    return total == (degree + 1) // 2


# ---------------------------------------------------------------------------
# Witt vectors through Z_q / p^n


def least_irreducible(p: int, f: int) -> list[int]:
    """Least monic irreducible of degree f <= 3 over F_p, ascending coefficients.

    Ordered by the integer code sum(c_i p^i) of the non-leading coefficients,
    which is the field encoding kax documents.  For f <= 3 a polynomial is
    irreducible iff it has no root.
    """
    if f == 1:
        return [0, 1]
    if f > 3:
        raise ValueError("the root test decides irreducibility only for f <= 3")
    for code in range(p**f):
        poly = [(code // p**i) % p for i in range(f)] + [1]
        if all(sum(c * x**k for k, c in enumerate(poly)) % p for x in range(p)):
            return poly
    raise AssertionError("unreachable")


class WittOracle:
    """Z_q/p^n = (Z/p^n)[x]/(m(x)) with m the lifted field modulus."""

    def __init__(self, p: int, n: int, f: int):
        self.p, self.n, self.f = p, n, f
        self.pn = p**n
        self.q = p**f
        self.modulus = least_irreducible(p, f)
        self._image: dict[tuple[int, int], tuple[int, ...]] = {}

    def _mul(self, a, b, m):
        f = self.f
        out = [0] * (2 * f - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        for i in range(2 * f - 2, f - 1, -1):
            c = out[i]
            if c:
                for j in range(f):
                    out[i - f + j] -= c * self.modulus[j]
        return tuple(c % m for c in out[:f])

    def _pow(self, a, e, m):
        out = (1,) + (0,) * (self.f - 1)
        while e:
            if e & 1:
                out = self._mul(out, a, m)
            a = self._mul(a, a, m)
            e >>= 1
        return out

    def _coords(self, code: int) -> tuple[int, ...]:
        return tuple((code // self.p**i) % self.p for i in range(self.f))

    def _shifted_lift(self, code: int, i: int) -> tuple[int, ...]:
        # p^i * tau(a^(p^-i)); Frobenius has order f on F_q
        key = (code, i)
        if key not in self._image:
            root = self._pow(self._coords(code), self.p ** ((-i) % self.f), self.p)
            tau = self._pow(root, self.q ** (self.n - 1), self.pn)
            self._image[key] = tuple(c * self.p**i % self.pn for c in tau)
        return self._image[key]

    def image(self, vec) -> tuple[int, ...]:
        total = [0] * self.f
        for i, code in enumerate(vec):
            for k, c in enumerate(self._shifted_lift(code, i)):
                total[k] += c
        return tuple(c % self.pn for c in total)

    def neg(self, vec) -> tuple[int, ...]:
        """-vec, read back from its image one Teichmueller digit at a time."""
        rest = [-c % self.pn for c in self.image(vec)]
        out = []
        for i in range(self.n):
            mod = self.p ** (i + 1)
            code = next(c for c in range(self.q)
                        if all((x - y) % mod == 0 for x, y in zip(rest, self._shifted_lift(c, i))))
            rest = [x - y for x, y in zip(rest, self._shifted_lift(code, i))]
            out.append(code)
        return tuple(out)

    def holds(self, kind: str, a, b, result) -> bool:
        got = self.image(result)
        ia = self.image(a)
        if kind == "neg":
            return got == tuple(-c % self.pn for c in ia)
        ib = self.image(b)
        if kind == "add":
            return got == tuple((x + y) % self.pn for x, y in zip(ia, ib))
        return got == self._mul(ia, ib, self.pn)


# ---------------------------------------------------------------------------
# text rendering mirror


def _ring_label(spec: str) -> str:
    parts = spec.split(":")
    if parts[0] == "Fq":
        return f"F_{parts[1]}"
    if parts[0] == "zpcycl":
        return f"Z_{parts[1]}^cycl"
    return parts[1] or "R"


def text_body(row: dict, integral: bool) -> str:
    """The factor list of a text line, without the order suffix."""
    if not row["factors"]:
        return "0"
    parts = []
    for fac in row["factors"]:
        mult = int(fac["multiplicity"])
        if fac["kind"] == "free":
            rank = fac["rank"] or 1
            parts.append("Z" if rank == 1 else f"Z^{rank}")
            continue
        if fac["kind"] == "cyclic":
            base = f"Z/{fac['order']}"
        else:
            spec, length = fac["ring"], fac["length"]
            if integral and spec.startswith("Fq:"):
                q = int(spec[3:])
                p = next(k for k in range(2, q + 1) if q % k == 0)
                if p == q:
                    base = f"Z/{p ** length}"
                else:
                    base = f"O_F/{p}^{length}" if length > 1 else f"O_F/{p}"
            elif length == 1:
                base = _ring_label(spec)
            else:
                base = f"W_{length}({_ring_label(spec)})"
        parts.append(f"{base}^{mult}" if mult > 1 else base)
    return " x ".join(parts)


def strip_order(line: str) -> str:
    """Drop the trailing ' (...)' order note of a text line."""
    if line.endswith(")") and " (" in line:
        return line.rsplit(" (", 1)[0]
    return line
