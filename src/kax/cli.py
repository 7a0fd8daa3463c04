"""Command-line surface.

Subcommands: compute, table, count-words, witt, verify.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 budget exceeded,
4 internal error, 141 (128 + SIGPIPE) when the reader closed stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from math import isqrt

from .errors import (
    BudgetExceededError,
    InternalError,
    KaxError,
    digit_limit_error,
    factor_digit_limit_error,
)
from .numtheory import require_prime

# Each command imports the layers it runs, and json loads only for the JSON
# format: kcalc (with words) for compute and table, words for count-words,
# witt for witt, oracles for verify.  So a request compiles and loads no
# layer it does not use.  The annotations name types that only a type
# checker reads, so only it imports them.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

    from .kcalc import GroupExpr, GroupFactor, RingSpec

MAX_DEGREE = 200


# ---------------------------------------------------------------------------
# rendering
#
# The renderers format integers with str(), whose only ValueError is an
# integer past the interpreter's int-to-str limit: a budget error, as in the
# JSON wire entries, not a usage error.
#
# The rows of one table share their factors and wire entries as objects, so
# cmd_table passes every row one memo, and each shared object is rendered
# once per table: memo maps its id to the object (which keeps the id from
# being reused) and its rendering.  A memo serves the rows of one table,
# which share one completeness.


def _each(make: Callable, items: Iterable, memo: dict | None) -> list:
    """[make(x) for x in items], each object made once over the calls that
    share memo."""
    if memo is None:
        return [make(x) for x in items]
    out = []
    for x in items:
        hit = memo.get(id(x))
        if hit is None:
            hit = memo[id(x)] = (x, make(x))
        out.append(hit[1])
    return out


def _render_factor_text(gf: GroupFactor, expr: GroupExpr) -> str:
    try:
        if gf.kind == "free":
            return "Z" if (gf.rank or 1) == 1 else f"Z^{gf.rank}"
        if gf.kind == "cyclic":
            base = f"Z/{gf.order}"
        else:
            ring = gf.ring
            if expr.completeness == "integral" and ring.kind == "finite_field":
                # render W_k(F_q) as the unramified quotient it is isomorphic to
                if ring.f == 1:
                    base = f"Z/{ring.p ** gf.length}"
                else:
                    base = f"O_F/{ring.p}^{gf.length}" if gf.length > 1 else f"O_F/{ring.p}"
            elif gf.length == 1:
                base = ring.label()
            else:
                base = f"W_{gf.length}({ring.label()})"
        if gf.multiplicity > 1:
            return f"{base}^{gf.multiplicity}"
        return base
    except ValueError as exc:
        raise factor_digit_limit_error(gf.kind, gf.m_prime, gf.s) from exc


def _bits_surely_too_long(bits: int) -> bool:
    """True when an integer of at least 2**bits must pass the int-to-str limit.

    Such an integer has at least bits * 3 // 10 + 1 decimal digits, as each
    bit is worth more than 3/10 of a digit.  Off when the limit is 0.
    """
    limit = sys.get_int_max_str_digits()
    return limit != 0 and bits * 3 // 10 + 1 > limit


def _order_text(p: int, n: int, c: int = 1) -> str:
    """p**n * c as its decimal wherever that fits the int-to-str limit, past
    it p^N or p^N * c; a c too long for even that raises ValueError."""
    # p**n >= 2**(n * (bit_length(p) - 1)): far past the limit the decimal
    # is never built, and nearer it str() decides
    if not _bits_surely_too_long(n * (p.bit_length() - 1)):
        with suppress(ValueError):
            return str(p**n * c)
    return f"{p}^{n}" if c == 1 else f"{p}^{n} * {c}"


def render_text(expr: GroupExpr, memo: dict | None = None) -> str:
    """The factors and the order, by _order_text from order_exponent."""
    if expr.is_trivial:
        return "0"
    from .kcalc import factor_order_exponent, order_exponent

    def make(gf):
        return _render_factor_text(gf, expr), factor_order_exponent(gf)

    pieces = _each(make, expr.factors, memo)
    body = " x ".join([text for text, _ in pieces])
    o = order_exponent(expr, [part for _, part in pieces])
    if isinstance(o, str):
        return f"{body} ({o} order)" if o == "symbolic" else f"{body} (infinite)"
    try:
        return f"{body} (order {_order_text(expr.p, *o)})"
    except ValueError as exc:
        raise digit_limit_error(f"the order of the degree {expr.degree} group") from exc


def _latex_ring(ring: RingSpec) -> str:
    if ring.kind == "finite_field":
        return rf"\mathbb{{F}}_{{{ring.q}}}"
    if ring.kind == "zp_cyclotomic":
        return rf"\mathbb{{Z}}_{{{ring.p}}}^{{\mathrm{{cycl}}}}"
    return ring.name or "R"


def _render_factor_latex(gf: GroupFactor) -> str:
    try:
        if gf.kind == "free":
            base = r"\mathbb{Z}"
            mult = gf.rank or 1
        elif gf.kind == "cyclic":
            base = rf"\mathbb{{Z}}/{gf.order}"
            mult = gf.multiplicity
        else:
            base = rf"W_{{{gf.length}}}({_latex_ring(gf.ring)})"
            mult = gf.multiplicity
        return base if mult == 1 else rf"{base}^{{{mult}}}"
    except ValueError as exc:
        raise factor_digit_limit_error(gf.kind, gf.m_prime, gf.s) from exc


def render_latex(expr: GroupExpr, memo: dict | None = None) -> str:
    if expr.is_trivial:
        return "0"
    return r" \times ".join(_each(_render_factor_latex, expr.factors, memo))


def _render_json(expr: GroupExpr, memo: dict | None) -> str:
    """json.dumps(group_expr_to_dict(expr)), each wire entry encoded by itself."""
    import json

    from .kcalc import group_expr_to_dict

    wire = group_expr_to_dict(expr)
    entries = _each(json.dumps, wire["factors"], memo)
    # the factor list is the last field of the wire form: "factors": []}
    wire["factors"] = []
    return f"{json.dumps(wire)[:-2]}{', '.join(entries)}]}}"


def render(expr: GroupExpr, fmt: str, memo: dict | None = None) -> str:
    """expr as text, json or latex; memo, if given, is shared by its table."""
    if fmt == "json":
        return _render_json(expr, memo)
    if fmt == "latex":
        return render_latex(expr, memo)
    return render_text(expr, memo)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common_compute_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="the prime")
    sub.add_argument("--d", type=int, default=1, help="number of variables")
    sub.add_argument("--ring", required=True, help="Fq:<q> | perfect:<name>:<p> | perfectoid:<name>:<p> | zpcycl:<p>")
    sub.add_argument(
        "--variant", choices=["square", "axes", "dual"], default="square"
    )
    sub.add_argument("--integral", action="store_true", help="include the K(F_q) summand (finite fields, square variant only)")
    sub.add_argument(
        "--quillen-exponent", choices=["standard", "paper"], default="standard"
    )
    sub.add_argument("--format", choices=["text", "json", "latex"], default="text")


def _resolve_ring(args) -> RingSpec:
    from .kcalc import parse_ring_spec

    # parsing proved ring.p prime, so --p needs its own proof only when it
    # differs, and fails with its own message when it is not prime
    ring = parse_ring_spec(args.ring)
    if ring.p != args.p:
        require_prime(args.p)
        raise KaxError(f"ring {args.ring} has p={ring.p}, but --p {args.p} given")
    if args.integral and ring.kind != "finite_field":
        raise KaxError("--integral requires a finite field ring (Fq:<q>)")
    if args.integral and args.variant != "square":
        raise KaxError(f"--integral cannot be combined with --variant {args.variant}")
    return ring


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise KaxError(f"degree {degree} exceeds ceiling {MAX_DEGREE}")


def _compute_one(ring: RingSpec, args, degree: int) -> GroupExpr:
    from . import kcalc

    if args.integral:
        return kcalc.integral_k_finite_field(
            ring.q, args.d, degree, args.quillen_exponent
        )
    if args.variant == "axes":
        return kcalc.axes_relative_k(ring, args.d, degree)
    if args.variant == "dual":
        return kcalc.dual_numbers_k(ring, degree)
    return kcalc.relative_k(ring, args.d, degree)


def _dual_report_lines(ring: RingSpec, expr: GroupExpr) -> list[str]:
    degree = expr.degree
    lines = []
    if ring.p != 2 and degree % 2 == 1:
        # at odd degree and p odd the factors with s = 1 are one per m',
        # each of length t_od
        lines = [f"h({gf.m_prime}) = {gf.length}" for gf in expr.factors if gf.s == 1]
    if not ring.is_symbolic and degree >= 1 and degree % 2 == 1:
        # |W_2i(F_q)| / |W_i(F_q)| = q^i = p^(f i); kax verify dual checks
        # the factors against W_2i / V_2 W_i
        i = (degree + 1) // 2
        lines.append(f"big Witt check: |W_{2 * i}|/|W_{i}| = {_order_text(ring.p, ring.f * i)}")
    return lines


def cmd_compute(args) -> int:
    ring = _resolve_ring(args)
    _check_degree(args.degree)
    expr = _compute_one(ring, args, args.degree)
    # build every line first, so a line that fails leaves no partial output
    lines = [render(expr, args.format)]
    if args.variant == "dual" and args.format == "text":
        lines += _dual_report_lines(ring, expr)
    print(*lines, sep="\n")
    return 0


def cmd_table(args) -> int:
    from .kcalc import table

    ring = _resolve_ring(args)
    _check_degree(args.max_degree)
    variant = "integral" if args.integral else args.variant
    exprs = table(ring, args.d, args.max_degree, variant, args.quillen_exponent)
    # render every row first, so a row that fails leaves no partial table;
    # print writes the rows one by one, with no second copy of the table
    memo: dict = {}
    if args.format == "json":
        rows = [render(e, "json", memo) for e in exprs]
        print("[", end="")
        print(*rows, sep=", ", end="]\n")
    else:
        lines = [f"degree {e.degree}: {render(e, args.format, memo)}" for e in exprs]
        print(*lines, sep="\n")
    return 0


def _count_surely_too_long(s: int, base: int) -> bool:
    """True when a word count near base**s / s must pass the int-to-str limit.

    Decided from bit lengths alone, before the Mobius sum builds base**u for
    every u | s.  For s >= 8 and base >= 2 (base d, or d - 1 for the axes
    family) the rest of the Mobius sum (the terms with u < s, and the
    +-(d - 1) of the axes family) is at most half of base**s, so the count
    is at least base**s / (2s) >= 2**(s * floor(log2 base) - log2(s) - 1).
    Nearer the limit this is False, and the exact count decides.
    """
    if s < 8 or base < 2:
        return False
    return _bits_surely_too_long(s * (base.bit_length() - 1) - s.bit_length() - 1)


def cmd_count_words(args) -> int:
    from . import words

    what = f"the count of words of length {args.s} on {args.d} letters"
    if _count_surely_too_long(args.s, args.d - 1 if args.axes else args.d):
        raise digit_limit_error(what)
    budget = words._budget(None)
    if args.s > 0 and args.d > 0 and isqrt(args.s) > budget:
        # the Mobius sum finds the divisors of s by trial division up to sqrt(s)
        raise BudgetExceededError(
            f"the divisors of s = {args.s} take {isqrt(args.s)} trial divisions,"
            f" more than budget {budget}"
        )
    if args.axes:
        count = words.count_axes(args.s, args.d)
    else:
        count = words.count_aperiodic(args.s, args.d)
    try:
        count_text = str(count)
    except ValueError as exc:
        raise digit_limit_error(what) from exc
    record = {"count": count_text}
    if args.list:
        enum = words.enumerate_axes if args.axes else words.enumerate_aperiodic
        record["words"] = [words.render_word(w.canonical, args.d) for w in enum(args.s, args.d)]
    if args.format == "json":
        import json

        print(json.dumps(record))
    else:
        print(count_text)
        if args.list:
            print(" ".join(record["words"]))
    return 0


def _parse_coords(text: str, n: int, f: int, p: int) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise KaxError(f"expected {n} coordinates, got {len(parts)}")
    out = []
    for part in parts:
        digits = [int(x) % p for x in part.split(":")]
        if len(digits) != f:
            raise KaxError(f"coordinate {part!r} must have {f} components")
        out.append(sum(c * p**i for i, c in enumerate(digits)))
    return tuple(out)


def _format_coords(vec: tuple[int, ...], f: int, p: int) -> str:
    return ",".join(
        ":".join(str((x // p**i) % p) for i in range(f)) for x in vec
    )


def cmd_witt(args) -> int:
    from .witt import restrict, verschiebung, witt_ring

    require_prime(args.p)
    if args.n < 1:
        raise KaxError("--n must be >= 1")
    if args.f < 1:
        raise KaxError("--f must be >= 1")
    a = _parse_coords(args.a, args.n, args.f, args.p)
    if args.op in ("add", "mul"):
        if args.b is None:
            raise KaxError(f"witt {args.op} needs two vectors")
        b = _parse_coords(args.b, args.n, args.f, args.p)
        # only add and mul build a ring: v and r move coordinates
        ring = witt_ring(args.p, args.n, args.f)
        result = ring.add(a, b) if args.op == "add" else ring.mul(a, b)
    elif args.op == "v":
        result = verschiebung(a)
    else:
        if args.n < 2:
            raise KaxError("restriction needs --n >= 2")
        result = restrict(a)
    print(_format_coords(result, args.f, args.p))
    return 0


def cmd_verify(args) -> int:
    from . import oracles

    try:
        report = oracles.run_suites(args.suite or ["all"])
    except KeyError as exc:
        raise KaxError(f"unknown suite {exc.args[0]!r}") from exc
    if args.format == "json":
        import json

        print(json.dumps([e.to_dict() for e in report]))
    else:
        for e in report:
            params = " ".join(f"{k}={v}" for k, v in e.params.items())
            line = f"{e.status.upper():7s} {e.check} {params}"
            if e.witness:
                line += f"  [{e.witness}]"
            print(line)
        fails = sum(1 for e in report if e.status == "fail")
        print(f"{len(report)} checks, {fails} failures")
    return 0 if oracles.all_passed(report) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kax",
        description="K-groups of square-zero multivariable extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="one K-group at one degree")
    _add_common_compute_args(p_compute)
    p_compute.add_argument("--degree", type=int, required=True)
    p_compute.set_defaults(func=cmd_compute)

    p_table = sub.add_parser("table", help="K-groups for degrees 0..max")
    _add_common_compute_args(p_table)
    p_table.add_argument("--max-degree", type=int, required=True)
    p_table.set_defaults(func=cmd_table)

    p_count = sub.add_parser("count-words", help="cyclic word counts")
    p_count.add_argument("--s", type=int, required=True)
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--axes", action="store_true")
    p_count.add_argument("--list", action="store_true")
    p_count.add_argument("--format", choices=["text", "json"], default="text")
    p_count.set_defaults(func=cmd_count_words)

    p_witt = sub.add_parser("witt", help="Witt vector arithmetic")
    p_witt.add_argument("op", choices=["add", "mul", "v", "r"])
    p_witt.add_argument("--p", type=int, required=True)
    p_witt.add_argument("--n", type=int, required=True)
    p_witt.add_argument("--f", type=int, default=1)
    p_witt.add_argument("a")
    p_witt.add_argument("b", nargs="?")
    p_witt.set_defaults(func=cmd_witt)

    p_verify = sub.add_parser("verify", help="run brute-force verification suites")
    p_verify.add_argument(
        "suite", nargs="*", help="counts | witt | k1 | dual | all (default all)"
    )
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # with the int-to-str limit off (0) parsing and the command run under the
    # default limit, so that no decimal is read or built digit by digit past it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit or sys.int_info.default_max_str_digits)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse uses exit code 2 for usage errors already
            return exc.code if exc.code is not None else 2
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: end quietly, with SIGPIPE's status, and
        # point stdout at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except BudgetExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (KaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
