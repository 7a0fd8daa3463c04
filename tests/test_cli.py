import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kax.cli import build_parser, cmd_table, main, render, render_text
from kax.errors import BudgetExceededError, InternalError
from kax.kcalc import GroupExpr, GroupFactor, RingSpec, group_expr_to_dict, parse_ring_spec, table
from kax.tbounds import t_od
from kax.witt import MAX_WITT_BITS
from kax.words import DEFAULT_BUDGET, count_aperiodic, count_axes, enumerate_aperiodic, parse_word


def run_cli(*argv, timeout=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "kax", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def test_compute_text_examples(capsys):
    assert main(["compute", "--p", "3", "--d", "2", "--ring", "Fq:3",
                 "--degree", "1"]) == 0
    assert capsys.readouterr().out == "F_3^2 (order 9)\n"

    assert main(["compute", "--p", "3", "--d", "1", "--ring", "Fq:3",
                 "--degree", "3"]) == 0
    assert capsys.readouterr().out == "W_2(F_3) (order 9)\n"

    assert main(["compute", "--p", "3", "--d", "1", "--ring", "Fq:3",
                 "--degree", "2"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_compute_json(capsys):
    assert main(["compute", "--p", "2", "--d", "1", "--ring", "Fq:2",
                 "--degree", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degree"] == 3
    assert data["complete"] == "integral"
    assert all(f["multiplicity"] == "1" for f in data["factors"])


def test_compute_latex(capsys):
    assert main(["compute", "--p", "3", "--d", "2", "--ring", "Fq:3",
                 "--degree", "1", "--format", "latex"]) == 0
    assert capsys.readouterr().out == r"W_{1}(\mathbb{F}_{3})^{2}" + "\n"


def test_compute_integral(capsys):
    assert main(["compute", "--p", "3", "--d", "1", "--ring", "Fq:3",
                 "--degree", "1", "--integral"]) == 0
    assert capsys.readouterr().out == "Z/2 x Z/3 (order 6)\n"

    assert main(["compute", "--p", "3", "--d", "1", "--ring", "Fq:3",
                 "--degree", "0", "--integral"]) == 0
    assert capsys.readouterr().out == "Z (infinite)\n"


def test_compute_dual_report(capsys):
    assert main(["compute", "--p", "3", "--d", "1", "--ring", "Fq:3",
                 "--degree", "3", "--variant", "dual"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "W_2(F_3) (order 9)"
    assert "h(1) = 2" in out
    assert out[-1] == "big Witt check: |W_4|/|W_2| = 9"


def test_compute_dual_report_lists_every_window(capsys):
    # one line h(m') = t_od per odd m' coprime to p, as the windows give it
    for p, q in ((3, 3), (3, 9), (5, 25)):
        for degree in (1, 3, 9, 15, 27, 45):
            argv = ["compute", "--p", str(p), "--ring", f"Fq:{q}", "--degree", str(degree),
                    "--variant", "dual"]
            assert main(argv) == 0
            out = capsys.readouterr().out.splitlines()
            r = (degree - 1) // 2
            want = [f"h({m}) = {t_od(p, r, m)}" for m in range(1, degree + 1, 2) if m % p]
            assert out[1:-1] == want, (p, q, degree)


def test_compute_symbolic_ring(capsys):
    assert main(["compute", "--p", "3", "--d", "2", "--ring", "perfect:k:3",
                 "--degree", "1"]) == 0
    assert capsys.readouterr().out == "k^2 (symbolic order)\n"


# sha256 of (argv, exit code, stdout, stderr) of every compute request of
# this grid in turn: no rewrite of the variant map, assembly or rendering
# may change one byte of these.  Its d and degree pairs hold a d below 1 in
# each variant, negative and zero degrees, and a degree past MAX_DEGREE.
COMPUTE_GRID = (
    ("Fq:2", "Fq:4", "Fq:9", "perfectoid:R:3", "zpcycl:5"),
    (["--variant", "square"], ["--variant", "axes"], ["--variant", "dual"], ["--integral"],
     ["--integral", "--quillen-exponent", "paper"], ["--integral", "--variant", "axes"]),
    ((0, -1), (0, 5), (1, -1), (1, 0), (1, 5), (3, 20), (3, 201)),
    ("text", "json", "latex"),
)
COMPUTE_GRID_DIGEST = "de72d54975330aeabc1cdf290408a21994a0b3ab3cc11cc7b8312f5a055c4e6b"


def test_compute_output_bytes_are_pinned():
    digest, refusals = hashlib.sha256(), set()
    for ring, flags, (d, degree), fmt in itertools.product(*COMPUTE_GRID):
        argv = ["compute", "--p", str(parse_ring_spec(ring).p), "--d", str(d), "--ring", ring,
                *flags, "--degree", str(degree), "--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
        if code:
            refusals.add((flags[-1], err.getvalue()))
    assert digest.hexdigest() == COMPUTE_GRID_DIGEST
    # every class of usage error compute has for these flags
    assert {(flag, "error: d must be >= 1\n") for flag in ("square", "axes", "dual",
                                                         "--integral", "paper")} <= refusals
    assert {("--integral", "error: integral K-groups are computed for degree >= 0\n"),
            ("--integral", "error: --integral requires a finite field ring (Fq:<q>)\n"),
            ("axes", "error: --integral cannot be combined with --variant axes\n"),
            ("square", "error: degree 201 exceeds ceiling 200\n")} <= refusals


def test_table(capsys):
    assert main(["table", "--p", "3", "--d", "1", "--ring", "Fq:3",
                 "--max-degree", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "degree 0: 0",
        "degree 1: F_3 (order 3)",
        "degree 2: 0",
        "degree 3: W_2(F_3) (order 9)",
    ]


# sha256 of the whole stdout of `kax table ... --max-degree 200`: no
# rewrite of assembly or rendering may change one byte of these
GOLDEN_TABLES = {
    "Fq5-integral-json": (
        ["--p", "5", "--d", "6", "--ring", "Fq:5", "--integral", "--format", "json"],
        "35125ff2e344220a0f11560c1db00a84e689861985fe9ac264a954a4a4891841"),
    "zpcycl5-json": (
        ["--p", "5", "--d", "6", "--ring", "zpcycl:5", "--format", "json"],
        "6ea72dc39b47716ccffc929efb29a7ce335d2ff1b790e5f02199e452e842f7f7"),
    "Fq4-axes-json": (
        ["--p", "2", "--d", "6", "--ring", "Fq:4", "--variant", "axes", "--format", "json"],
        "6f155e6db48f5a6d729a462a378a601326756267156c42958f31b1588354bdf6"),
    "perfectoid3-dual-json": (
        ["--p", "3", "--d", "1", "--ring", "perfectoid:R:3", "--variant", "dual",
         "--format", "json"],
        "a0eb672b93abdd9dedec4fec612a4a1e9483cc0d35408aff27860f7e4f5674af"),
    "Fq9-text": (
        ["--p", "3", "--d", "2", "--ring", "Fq:9", "--format", "text"],
        "038c3bffed2f52c49bbf1472ad4886ade08d55a2107ca9fa51f9880dd2510635"),
    "Fq9-latex": (
        ["--p", "3", "--d", "2", "--ring", "Fq:9", "--format", "latex"],
        "a330a815f231d6ef3e2b1e66e65a08445d65b603aa1b418303d8737365149186"),
    # the largest tables in the advertised range: d = 200, q = 2^12, and the
    # one cell with p > 5, where a window never reaches past t = 1
    "Fq4096-d200-json": (
        ["--p", "2", "--d", "200", "--ring", "Fq:4096", "--format", "json"],
        "c0470d8c82cfa9fccc459cd6f388c3d201861d5d36dae68d13e87459cb838c68"),
    "Fq4096-d200-text": (
        ["--p", "2", "--d", "200", "--ring", "Fq:4096", "--format", "text"],
        "b7d9b6f76b7387b6519416fa93fad793597f2e1daf07c1e4112eed29d6fee980"),
    "Fq4096-d200-latex": (
        ["--p", "2", "--d", "200", "--ring", "Fq:4096", "--format", "latex"],
        "42784e1ac14618fa8fa9a4c926c8e7b17fa54d2baee906d2300024503f9aa532"),
    "Fq4096-d200-integral-json": (
        ["--p", "2", "--d", "200", "--ring", "Fq:4096", "--integral", "--format", "json"],
        "18a65d89c0d3ddfed012caeb68a91968f08a57824aec657d242466a8e4fa8dd9"),
    "Fq4093-d200-json": (
        ["--p", "4093", "--d", "200", "--ring", "Fq:4093", "--format", "json"],
        "3580dec4e21701015b44454f9e041c5eaf0433031acf077327e2fa2572fdbd04"),
}


@pytest.mark.parametrize("cell", GOLDEN_TABLES)
def test_table_output_bytes_are_pinned(capsys, cell):
    argv, digest = GOLDEN_TABLES[cell]
    assert main(["table", *argv, "--max-degree", "200"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_table_output_bytes_are_pinned_in_a_fresh_process():
    argv, digest = GOLDEN_TABLES["perfectoid3-dual-json"]
    proc = subprocess.run([sys.executable, "-m", "kax", "table", *argv, "--max-degree", "200"],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_table_failing_row_prints_nothing(capsys, monkeypatch, fmt):
    import kax.cli

    real_render = kax.cli.render

    def render_failing_at_2(expr, *args):
        if expr.degree == 2:
            raise ValueError("row 2 cannot be rendered")
        return real_render(expr, *args)

    monkeypatch.setattr(kax.cli, "render", render_failing_at_2)
    assert main(["table", "--p", "3", "--d", "1", "--ring", "Fq:3",
                 "--max-degree", "3", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "row 2 cannot be rendered" in captured.err


# every (ring, variant, d) cell of a table: the rings and variants the
# benchmark draws, at d = 1..6, the dual numbers at d = 1 only
TABLE_CELLS = [
    (ring, variant, d)
    for ring in ("Fq:2", "Fq:3", "Fq:4", "Fq:5", "Fq:8", "Fq:9", "Fq:25", "perfectoid:R:3",
                 "zpcycl:5")
    for variant in ("square", "axes", "dual", "integral")
    if variant != "integral" or ring.startswith("Fq:")
    for d in ((1,) if variant == "dual" else range(1, 7))
]

# sha256 of the stdouts of `kax table ... --max-degree 200` over every
# TABLE_CELLS cell in turn, as the per-row reference gives them
TABLE_CELLS_AT_200 = {
    "json": "e16ff7feef3285f65b5739605b1f453e9655538a35d5892e4d0d2cda41a2fcbf",
    "text": "f401eaae5fb20e5c75d5a790459968f28606a4d8e9bec446edde047f79f9a621",
    "latex": "eb5221131b3642f37488450dc6d75033952ab29936b2a862b4166d725e8a8875",
}


@pytest.mark.parametrize("fmt", TABLE_CELLS_AT_200)
def test_table_renders_every_cell_as_its_rows_do(capsys, fmt):
    # cmd_table renders each factor and wire entry its rows share once per
    # table: its stdout must be the rows rendered one by one, by render or,
    # in JSON, by json.dumps of their wire dicts.  At max degree 200 that
    # reference takes about 25 s to build, so its digest is pinned.
    at_200 = hashlib.sha256()
    for ring, variant, d in TABLE_CELLS:
        flags = ["--integral"] if variant == "integral" else ["--variant", variant]
        args = build_parser().parse_args(
            ["table", "--p", str(parse_ring_spec(ring).p), "--d", str(d), "--ring", ring,
             *flags, "--max-degree", "0", "--format", fmt])
        for level in (0, 5, 40, 200):
            args.max_degree = level
            assert cmd_table(args) == 0
            out = capsys.readouterr().out
            if level == 200:
                at_200.update(out.encode())
                continue
            exprs = table(parse_ring_spec(ring), d, level, variant)
            if fmt == "json":
                want = json.dumps([group_expr_to_dict(e) for e in exprs])
            else:
                want = "\n".join(f"degree {e.degree}: {render(e, fmt)}" for e in exprs)
            assert out == want + "\n", (ring, variant, d, level)
    assert at_200.hexdigest() == TABLE_CELLS_AT_200[fmt]


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
def test_table_past_the_str_limit_is_a_budget_error_with_no_rows(capsys, fmt):
    # the multiplicities pass the int-to-str limit from about degree 73 on,
    # after the rows before it rendered their shared factors
    assert main(["table", "--p", "2", "--d", str(10**60), "--ring", "Fq:2",
                 "--max-degree", "200", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: budget exceeded: an integer of the witt factor")


def test_count_words(capsys):
    assert main(["count-words", "--s", "3", "--d", "2", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["2", "aab abb"]

    assert main(["count-words", "--s", "2", "--d", "2", "--axes",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": "1"}


def test_count_words_list_over_26_letters(capsys):
    # the form follows the alphabet, not the letters of each word
    assert main(["count-words", "--s", "2", "--d", "27", "--list",
                 "--format", "json"]) == 0
    listed = json.loads(capsys.readouterr().out)["words"]
    assert len(listed) == 351
    assert all("." in text for text in listed)
    assert [parse_word(text, 27) for text in listed] == [
        x.canonical for x in enumerate_aperiodic(2, 27)
    ]


def test_count_words_long_one_letter_list():
    # s far above the recursion limit, inside the budget since 1^s = 1
    proc = run_cli("count-words", "--s", "5000", "--d", "1", "--list")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n\n", "")


def test_witt_ops(capsys):
    assert main(["witt", "add", "--p", "2", "--n", "2", "1,0", "1,0"]) == 0
    assert capsys.readouterr().out == "0,1\n"

    assert main(["witt", "mul", "--p", "3", "--n", "2", "2,1", "2,0"]) == 0
    out1 = capsys.readouterr().out

    assert main(["witt", "v", "--p", "3", "--n", "2", "1,2"]) == 0
    assert capsys.readouterr().out == "0,1,2\n"

    assert main(["witt", "r", "--p", "3", "--n", "2", "1,2"]) == 0
    assert capsys.readouterr().out == "1\n"

    # f > 1 uses colon-separated digit vectors
    assert main(["witt", "add", "--p", "2", "--n", "1", "--f", "2",
                 "1:1", "0:1"]) == 0
    assert capsys.readouterr().out == "1:0\n"
    assert out1 == "1,2\n"


@pytest.mark.parametrize("p, n", [(2, 7), (3, 5)])
def test_witt_past_the_old_solve_answers(p, n):
    # the ghost solve of W_7(F_2) or W_5(F_3) never finished; restriction
    # to W_(n-1), a ring map, checks the answer against the ring below
    from kax.witt import restrict, witt_ring

    rng = random.Random(n)
    a = tuple(rng.randrange(p) for _ in range(n))
    b = tuple(rng.randrange(p) for _ in range(n))
    proc = run_cli("witt", "mul", "--p", str(p), "--n", str(n),
                   ",".join(map(str, a)), ",".join(map(str, b)), timeout=1)
    assert (proc.returncode, proc.stderr) == (0, "")
    product = tuple(int(x) for x in proc.stdout.split(","))
    assert restrict(product) == witt_ring(p, n - 1).mul(restrict(a), restrict(b))


@pytest.mark.parametrize("n, code", [(256, 0), (257, 3)])
def test_witt_ceiling_at_q_512(n, code):
    # n * ceil(log2 p) <= 256: the last admitted and the first refused
    # cell over F_512
    vec = ",".join(["1:0:1:1:0:0:1:0:1"] * n)
    proc = run_cli("witt", "mul", "--p", "2", "--n", str(n), "--f", "9", vec, vec,
                   timeout=2)
    assert proc.returncode == code
    if code:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: budget exceeded: W_257 at p = 2 is past the ceiling")
    else:
        assert proc.stderr == "" and len(proc.stdout.split(",")) == n


@pytest.mark.parametrize("op", ["add", "mul", "v", "r"])
@pytest.mark.parametrize("flag", ["--n", "--f"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_witt_rejects_a_length_or_degree_below_one(capsys, op, flag, value):
    # --n and --f size the vectors, so they are refused before a vector is
    # read and not reported as a malformed vector
    sizes = {"--n": "1", "--f": "1", flag: value}
    argv = ["witt", op, "--p", "2", "--n", sizes["--n"], "--f", sizes["--f"], "1", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {flag} must be >= 1\n")


# how a drawn argv's last vector is malformed: None leaves it well formed,
# and "missing" drops it
_VECTOR_FLAWS = [None] * 5 + ["count", "digits", "text", "huge", "empty", "missing"]


@st.composite
def witt_argvs(draw):
    # the primes up to 13 and one composite; f with q <= 512 and one past;
    # n small, at the ceiling n * ceil(log2 p) <= MAX_WITT_BITS and one past
    op = draw(st.sampled_from(["add", "mul", "v", "r"]))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 9]))
    f = draw(st.integers(1, max(f for f in range(1, 10) if p**f <= 512) + 1))
    top = MAX_WITT_BITS // (p - 1).bit_length()
    n = draw(st.one_of(st.integers(1, 6), st.sampled_from([top, top + 1])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    vectors = [[":".join(str(rng.randrange(p)) for _ in range(f)) for _ in range(n)]
               for _ in range(2 if op in ("add", "mul") else 1)]
    flaw, last = draw(st.sampled_from(_VECTOR_FLAWS)), vectors[-1]
    if flaw == "count":
        last.append(last[0])
    elif flaw == "digits":
        last[0] += ":0"
    elif flaw == "text":
        last[-1] = "x"
    elif flaw == "huge":
        last[0] = "9" * 5000
    elif flaw == "empty":
        last.clear()
    elif flaw == "missing":
        vectors.pop()
    return ["witt", op, "--p", str(p), "--n", str(n), "--f", str(f),
            *(",".join(v) for v in vectors)]


class _Deadline(Exception):
    pass


def _raise_deadline(signum, frame):
    raise _Deadline


def _answers_or_fails_cleanly(argv):
    # in-process under a 5 s deadline: an answer on stdout alone, or a
    # usage (2) or budget (3) error on stderr alone, never a traceback
    out, err = io.StringIO(), io.StringIO()
    handler = signal.signal(signal.SIGALRM, _raise_deadline)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in out + err
    assert err == "" if code == 0 else out == ""


# the ceiling ring over F_49, and the first n past the ceiling over F_512
@example(["witt", "mul", "--p", "7", "--n", "85", "--f", "2", *[",".join(["6:6"] * 85)] * 2])
@example(["witt", "add", "--p", "2", "--n", "257", "--f", "9",
          *[",".join(["1:0:0:0:0:0:0:0:1"] * 257)] * 2])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(witt_argvs())
def test_every_witt_argv_answers_or_fails_cleanly(argv):
    _answers_or_fails_cleanly(argv)


@st.composite
def count_words_argvs(draw):
    # s small, and on each side of the divisor scan's edge under a budget of
    # 5,000: isqrt(s) = 5000 answers, 5001 is refused; d small, at the
    # switch from letters to dotted integers, large, and at the int-to-str
    # limit of 4,300 digits and one past it, which argparse refuses
    s = draw(st.one_of(st.integers(0, 60), st.sampled_from([5001**2 - 1, 5001**2])))
    d = draw(st.one_of(st.integers(0, 40).map(str),
                       st.sampled_from(["26", "27", "1000000", "9" * 4300, "1" + "0" * 4300])))
    flags = [flag for flag in ("--axes", "--list") if draw(st.booleans())]
    fmt = draw(st.sampled_from(["text", "json"]))
    return ["count-words", "--s", str(s), "--d", d, *flags, "--format", fmt]


# the largest axes listing under the default budget, and the one-letter
# axes word, which is its own cyclic neighbour
@example(["count-words", "--s", "14", "--d", "4", "--axes", "--list"])
@example(["count-words", "--s", "1", "--d", "1", "--axes", "--list"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(count_words_argvs())
def test_every_count_words_argv_answers_or_fails_cleanly(argv):
    # a budget of 5,000 keeps every walk it allows to milliseconds and
    # draws its refusals
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("KAX_BUDGET", "5000")
        _answers_or_fails_cleanly(argv)


_PRIMES = [n for n in range(2, 4094) if all(n % k for k in range(2, isqrt(n) + 1))]

# how a drawn compute or table argv's ring and --p disagree: None leaves
# them well formed
_RING_FLAWS = [None] * 5 + ["other p", "not a prime", "not a prime power"]


@st.composite
def compute_and_table_argvs(draw):
    # F_q with q = p^f <= 4096 and the symbolic rings, p <= 13 half the
    # time, with a flaw drawn
    # from _RING_FLAWS; d small, at 200 and at 10^60; the degree mostly
    # small, and up to one past MAX_DEGREE
    p = draw(st.one_of(st.sampled_from(_PRIMES[:6]), st.sampled_from(_PRIMES)))
    q = p ** draw(st.integers(1, max(f for f in range(1, 13) if p**f <= 4096)))
    ring = draw(st.sampled_from([f"Fq:{q}", f"Fq:{q}", f"perfect:k:{p}", f"perfectoid:R:{p}",
                                 f"zpcycl:{p}"]))
    given_p, flaw = p, draw(st.sampled_from(_RING_FLAWS))
    if flaw == "other p":
        given_p = draw(st.sampled_from(_PRIMES).filter(lambda other: other != p))
    elif flaw == "not a prime":
        given_p = draw(st.sampled_from([1, 4, 4096]))
    elif flaw == "not a prime power":
        ring = f"Fq:{draw(st.sampled_from([1, 6, 12, 1000, 4095]))}"
    d = draw(st.one_of(st.integers(1, 6), st.sampled_from([0, 200, 10**60])))
    command, bound = draw(st.sampled_from([("compute", "--degree"), ("table", "--max-degree")]))
    degree = draw(st.one_of(st.integers(-3, 12), st.integers(-3, 201)))
    variant = draw(st.sampled_from([[], ["--variant", "square"], ["--variant", "axes"],
                                    ["--variant", "dual"]]))
    integral = draw(st.sampled_from([[]] * 3 + [["--integral"]]))
    quillen = draw(st.sampled_from([[], ["--quillen-exponent", "standard"],
                                    ["--quillen-exponent", "paper"]]))
    fmt = draw(st.sampled_from(["text", "json", "latex"]))
    return [command, "--p", str(given_p), "--d", str(d), "--ring", ring, *variant, *integral,
            *quillen, bound, str(degree), "--format", fmt]


# the largest table in the advertised range
@example(["table", "--p", "2", "--d", "200", "--ring", "Fq:4096", "--integral",
          "--quillen-exponent", "paper", "--max-degree", "200", "--format", "json"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(compute_and_table_argvs())
def test_every_compute_and_table_argv_answers_or_fails_cleanly(argv):
    _answers_or_fails_cleanly(argv)


@pytest.mark.parametrize("command", ["compute --degree 3", "table --max-degree 3"])
@pytest.mark.parametrize("variant", ["square", "axes", "dual"])
@pytest.mark.parametrize("d", ["0", "-3"])
def test_a_d_below_one_is_a_usage_error_for_every_variant(capsys, command, variant, d):
    # the dual numbers take d = 1 whatever --d says, but not a --d below 1
    command, *degree = command.split()
    assert main([command, "--p", "3", "--ring", "Fq:3", "--variant", variant,
                 "--d", d, *degree]) == 2
    assert capsys.readouterr() == ("", "error: d must be >= 1\n")


def test_usage_errors(capsys):
    assert main(["compute", "--p", "4", "--d", "1", "--ring", "Fq:4",
                 "--degree", "1"]) == 2
    assert main(["compute", "--p", "3", "--d", "1", "--ring", "Fq:2",
                 "--degree", "1"]) == 2
    assert main(["compute", "--p", "3", "--d", "1", "--ring", "Fq:3",
                 "--degree", "1000"]) == 2
    assert main(["compute", "--p", "3", "--d", "1", "--ring", "perfect:k:3",
                 "--degree", "1", "--integral"]) == 2
    assert main(["witt", "add", "--p", "3", "--n", "2", "1,0"]) == 2
    assert main(["verify", "bogus"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_budget_exceeded_has_its_own_exit_code(capsys, monkeypatch):
    monkeypatch.delenv("KAX_BUDGET", raising=False)
    assert main(["count-words", "--s", "12", "--d", "4", "--list"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: budget exceeded: enumeration of 4^12 words")


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_budget_env_that_is_not_a_positive_integer_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("KAX_BUDGET", value)
    assert main(["count-words", "--s", "3", "--d", "2", "--list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: KAX_BUDGET must be a positive integer, not {value!r}\n"


@pytest.mark.parametrize("s, d", [(12, 4), (13, 4), (15, 3), (30, 2)])
def test_axes_list_budget_charges_the_pruned_walk(capsys, monkeypatch, s, d):
    # d^s words are past the budget, but the axes walk extends only the
    # d (d - 1)^(s - 1) prefixes without an adjacent repeat
    monkeypatch.delenv("KAX_BUDGET", raising=False)
    assert d * (d - 1) ** (s - 1) <= DEFAULT_BUDGET < d**s
    assert main(["count-words", "--s", str(s), "--d", str(d), "--axes", "--list"]) == 0
    count, listed = capsys.readouterr().out.split("\n")[:2]
    assert int(count) == count_axes(s, d) == len(listed.split())


@pytest.mark.parametrize("s, d", [(15, 4), (12, 5)])
def test_axes_list_past_the_pruned_budget_is_refused(capsys, monkeypatch, s, d):
    monkeypatch.delenv("KAX_BUDGET", raising=False)
    assert main(["count-words", "--s", str(s), "--d", str(d), "--axes", "--list"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: budget exceeded: enumeration of {d}*{d - 1}^{s - 1} words")


@pytest.mark.parametrize("command", ["compute", "table"])
@pytest.mark.parametrize("variant", ["axes", "dual"])
def test_integral_rejects_a_variant(capsys, command, variant):
    # --integral has no axes or dual form
    bound = "--degree" if command == "compute" else "--max-degree"
    assert main([command, "--p", "3", "--d", "2", "--ring", "Fq:3", bound, "3",
                 "--variant", variant, "--integral"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --integral cannot be combined with --variant {variant}\n"


@pytest.mark.parametrize("fmt", ["json", "latex", "text"])
def test_multiplicity_past_the_str_limit_is_a_budget_error(capsys, fmt):
    assert main(["compute", "--p", "2", "--d", str(10**60), "--ring", "Fq:2",
                 "--degree", "200", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: budget exceeded: an integer of the witt factor")


def test_large_multiplicities_within_the_str_limit_print(capsys):
    assert main(["compute", "--p", "2", "--d", str(10**24), "--ring", "Fq:2",
                 "--degree", "200", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert len(out) > 100_000
    for factor in json.loads(out)["factors"]:
        s = factor["provenance"]["s"]
        assert factor["multiplicity"] == str(count_aperiodic(s, 10**24))


@pytest.mark.parametrize("fmt", ["json", "latex", "text"])
def test_cyclic_order_past_the_str_limit_is_a_budget_error(capsys, fmt):
    # the Quillen summand Z/(q^100 - 1) of K_199(F_q), q = 2^200, has 6021 digits
    assert main(["compute", "--p", "2", "--ring", f"Fq:{2**200}", "--integral",
                 "--degree", "199", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: budget exceeded: an integer of the cyclic factor has more than")


def _json_order_exponents(argv):
    """N and c of each row of a compute or table request, read off its
    JSON output as sum f * length * multiplicity and the cyclic orders."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*argv, "--format", "json"]) == 0
    data = json.loads(out.getvalue())
    exponents = []
    for row in data if isinstance(data, list) else [data]:
        n, c = 0, 1
        for fac in row["factors"]:
            if fac["kind"] == "cyclic":
                c *= int(fac["order"]) ** int(fac["multiplicity"])
            else:
                q = int(fac["ring"].removeprefix("Fq:"))
                f = next(k for k in range(1, q) if row["p"] ** k == q)
                n += f * fac["length"] * int(fac["multiplicity"])
        exponents.append((row["p"], n, c))
    return exponents


def _decimal_fits(p, n, c):
    limit = sys.get_int_max_str_digits()
    return n < 4 * limit and p**n * c < 10**limit


def test_text_order_past_the_str_limit_is_a_budget_error(capsys):
    # every factor prints, and so does the order: as 3^N, since the decimal
    # 3^72795 has more digits than the int-to-str limit allows
    argv = ["compute", "--p", "3", "--d", "2", "--ring", "Fq:3", "--degree", "20"]
    [(p, n, c)] = _json_order_exponents(argv)
    assert (p, n, c) == (3, 72795, 1) and not _decimal_fits(p, n, c)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith(" F_3^52377 (order 3^72795)\n")
    # a degree whose order fits still prints the decimal
    [(p, n, c)] = _json_order_exponents([*argv[:-1], "10"])
    assert _decimal_fits(p, n, c)
    assert main([*argv[:-1], "10"]) == 0
    assert capsys.readouterr().out.endswith(f" (order {p**n})\n")


def test_text_order_exponent_past_the_str_limit_is_a_budget_error(capsys):
    # every multiplicity prints, but N = sum f * length * multiplicity over
    # F_4 has more digits than the limit, so no form of the order prints
    argv = ["compute", "--p", "2", "--d", "10471285480508995334645020315281400790567914",
            "--ring", "Fq:4", "--degree", "200"]
    [(p, n, c)] = _json_order_exponents(argv)
    assert n >= 10 ** sys.get_int_max_str_digits()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: budget exceeded: the order of the degree 200 group has more than")


def test_integral_witt_base_past_the_str_limit_is_a_budget_error():
    # W_k(F_p) renders as Z/p^k in integral text; 2^20000 has 6021 digits
    gf = GroupFactor("witt", length=20000, ring=RingSpec.finite_field(2), m_prime=1, s=1)
    expr = GroupExpr(0, 2, "integral", (gf,))
    with pytest.raises(BudgetExceededError, match="an integer of the witt factor at m'=1, s=1"):
        render_text(expr)


def test_word_count_past_the_str_limit_is_a_budget_error(capsys):
    # just inside the limit (4298 digits) the count still prints
    assert main(["count-words", "--s", "14290", "--d", "2"]) == 0
    assert capsys.readouterr().out == f"{count_aperiodic(14290, 2)}\n"
    assert main(["count-words", "--s", "20000", "--d", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: budget exceeded: the count of words of length 20000 on 2 letters")
    # far past the limit the count is refused before the Mobius sum builds
    # d**u for every u | s, which took seconds to minutes
    for s, d in [("1000000", "1000000"), ("30000000", "7")]:
        proc = run_cli("count-words", "--s", s, "--d", d, timeout=1)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith(
            f"error: budget exceeded: the count of words of length {s} on {d} letters"
            " has more than")


@pytest.mark.parametrize("argv", [
    "compute --p 3 --d 3 --ring Fq:9 --integral --degree 16",
    "compute --p 2 --d 5 --ring Fq:2 --degree 30",
    "compute --p 3 --d 4 --ring Fq:3 --degree 200",
    "compute --p 3 --d 3 --ring Fq:9 --degree 100",
])
def test_text_order_surely_too_long_is_refused_before_it_is_built(argv):
    # these orders have from about 10^4 to 10^120 digits; the text line
    # gives them as p^N, and the decimal is never built
    proc = run_cli(*argv.split(), timeout=1)
    assert (proc.returncode, proc.stderr) == (0, "")
    [(p, n, c)] = _json_order_exponents(argv.split())
    assert not _decimal_fits(p, n, c)
    note = f"(order {p}^{n})" if c == 1 else f"(order {p}^{n} * {c})"
    assert proc.stdout.endswith(f" {note}\n")


# sha256 of the whole stdout of the dual request below at q = 2^142
DUAL_Q_2_142 = "a40cb42fa688a4a3a122247621dbec5eb3ffa81b6124bc2bf80075f4cbb07c50"


@pytest.mark.parametrize("limit_env", [None, "0"])
@pytest.mark.parametrize("e", [142, 143])
def test_dual_big_witt_line_past_the_str_limit_prints_p_to_the_n(e, limit_env):
    # the line prints q^100 = 2^(100 e): as its 4,275-digit decimal at e = 142,
    # as 2^14300 at e = 143, whose 4,305 digits pass the int-to-str limit, as
    # the order does; with the limit off (0) the command runs under the default
    env = None if limit_env is None else {**os.environ, "PYTHONINTMAXSTRDIGITS": limit_env}
    proc = run_cli("compute", "--p", "2", "--d", "1", "--ring", f"Fq:{2**e}", "--degree", "199",
                   "--variant", "dual", timeout=60, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    group, line = proc.stdout.splitlines()
    if e == 142:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DUAL_Q_2_142
        assert line == f"big Witt check: |W_200|/|W_100| = {2**14200}"
    else:
        assert group.endswith(f" x F_{2**143} (order 2^14300)")
        assert line == "big Witt check: |W_200|/|W_100| = 2^14300"


def test_text_order_with_the_str_limit_off_is_bounded(capsys):
    # a limit of 0 lets str() build any decimal; the order note still
    # stops at the default limit, so 3^N prints at once
    argv = ["compute", "--p", "3", "--d", "4", "--ring", "Fq:3", "--degree", "200"]
    [(p, n, c)] = _json_order_exponents(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        t0 = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - t0
    finally:
        sys.set_int_max_str_digits(limit)
    assert elapsed < 1
    assert c == 1 and capsys.readouterr().out.endswith(f" (order 3^{n})\n")


@pytest.mark.parametrize("argv", [
    ["count-words", "--s", "3000000", "--d", "2"],
    ["compute", "--p", "2", "--d", str(10**4000), "--ring", "Fq:2", "--degree", "200",
     "--format", "json"],
])
def test_every_decimal_with_the_str_limit_off_is_bounded(capsys, argv):
    # a limit of 0 runs the command under the default limit, and the
    # caller's 0 is back when main returns
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, after) == (3, 0)
    assert elapsed < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: budget exceeded: ")


def test_an_option_past_the_str_limit_is_a_usage_error_with_the_limit_off(capsys):
    # parsing runs under the default limit too, so argparse refuses the
    # 5001-digit integer itself, before a message could name it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = main(["compute", "--p", "3", "--d", "1", "--ring", "Fq:3", "--degree", "9" * 5001])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "argument --degree: invalid int value" in captured.err
    assert "Exceeds the limit" not in captured.err


def test_order_bound_only_refuses_what_str_refuses(capsys):
    from kax.cli import _bits_surely_too_long

    fired = [b for b in range(14200, 14400) if _bits_surely_too_long(b)]
    assert fired
    for b in fired:
        with pytest.raises(ValueError):
            str(2**b)
    # the text table prints every row: the decimal order wherever str()
    # gives it, 2^N where it does not, first at degree 19
    argv = ["table", "--p", "2", "--d", "2", "--ring", "Fq:2", "--max-degree", "40"]
    exponents = _json_order_exponents(argv)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 41
    for degree, (line, (p, n, c)) in enumerate(zip(lines, exponents)):
        assert c == 1
        if n == 0:
            assert line == f"degree {degree}: 0"
        elif _decimal_fits(p, n, c):
            assert line.endswith(f" (order {2**n})"), line
        else:
            assert degree >= 19 and line.endswith(f" (order 2^{n})"), line
    assert not _decimal_fits(*exponents[19])


def test_count_words_refuses_hopeless_divisor_scans_and_fills():
    # trial division up to sqrt(s) = 10^9 > the 10^7 budget: refused at once
    for argv in (["--s", "1000000000000000003", "--d", "2", "--axes"],
                 ["--s", "1000000000000000003", "--d", "1"]):
        proc = run_cli("count-words", *argv, timeout=1)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error: budget exceeded: the divisors of s = ")
    # the walk of --list fills a word of s letters even on one letter
    proc = run_cli("count-words", "--s", "20000000", "--d", "1", "--list", timeout=1)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: budget exceeded: a walk over words of 20000000")
    # within the budget the count still comes out
    proc = run_cli("count-words", "--s", "1000003", "--d", "1", timeout=1)
    assert (proc.returncode, proc.stdout) == (0, "0\n")


BIG_PRIME = "1000000000000000003"


@pytest.mark.parametrize("argv", [
    f"compute --p {BIG_PRIME} --d 1 --ring Fq:{BIG_PRIME} --degree 1",
    f"compute --p {BIG_PRIME} --ring perfect:k:{BIG_PRIME} --degree 1",
    f"witt v --p {BIG_PRIME} --n 2 1,2",
])
def test_a_prime_past_the_trial_division_ceiling_is_refused(argv):
    # a prime whose square root, 10^9, is past MAX_TRIAL_DIVISOR
    proc = run_cli(*argv.split(), timeout=5)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: budget exceeded:")


def test_a_twelve_digit_prime_answers():
    q = "1000000000039"
    proc = run_cli("compute", "--p", q, "--d", "1", "--ring", f"Fq:{q}", "--degree", "1",
                   timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"F_{q} (order {q})\n"


@pytest.mark.parametrize("argv", [
    "compute --p {q} --d 1 --ring Fq:{q} --degree 1",
    "compute --p {q} --d 1 --ring Fq:{q} --integral --degree 1",
    "table --p {q} --d 2 --ring Fq:{q} --max-degree 3 --format json",
    "compute --p {q} --ring perfect:k:{q} --degree 1 --format latex",
])
def test_a_request_proves_its_prime_once(capsys, monkeypatch, argv):
    from kax import numtheory

    q = 1000000000039
    scanned = []
    real = numtheory._least_factor

    def counting(n):
        scanned.append(n)
        return real(n)

    monkeypatch.setattr(numtheory, "_least_factor", counting)
    numtheory._cached_least_factor.cache_clear()
    assert main(argv.format(q=q).split()) == 0
    assert scanned.count(q) == 1
    # a --p that differs is still proved, with the same message
    assert main(["compute", "--p", "15", "--ring", f"Fq:{q}", "--degree", "1"]) == 2
    assert main(["compute", "--p", "5", "--ring", f"Fq:{q}", "--degree", "1"]) == 2
    assert capsys.readouterr().err.splitlines()[-2:] == [
        "error: 15 is not prime", f"error: ring Fq:{q} has p={q}, but --p 5 given"]


@pytest.mark.parametrize("argv, code, stream, text, scans", [
    # factor_prime_power's scan for the ring, the request's one proof of p:
    # the dual-numbers order line prints q^i and checks no prime
    ("compute --p {q} --d 1 --ring Fq:{q} --variant dual --degree 1", 0, "out",
     "F_{q} (order {q})\nh(1) = 1\nbig Witt check: |W_2|/|W_1| = {q}\n", 1),
    # cmd_witt, WittRing and GaloisField each prove p; one scan serves them
    ("witt add --p {q} --n 1 1 2", 2, "err",
     "error: field order {q} exceeds supported size\n", 1),
])
def test_a_prime_proved_once_is_not_scanned_again(capsys, monkeypatch, argv, code, stream,
                                                  text, scans):
    from kax import numtheory

    q = 1000000000039
    scanned = []
    real = numtheory._least_factor

    def counting(n):
        if n > 10**6:
            scanned.append(n)
        return real(n)

    monkeypatch.setattr(numtheory, "_least_factor", counting)
    numtheory._cached_least_factor.cache_clear()
    assert main(argv.format(q=q).split()) == code
    assert getattr(capsys.readouterr(), stream) == text.format(q=q)
    assert scanned == [q] * scans


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    import kax.kcalc

    def broken(*args):
        raise InternalError("Mobius sum 7 not divisible by s=2")

    # the word count that assembly calls, where that error is raised
    monkeypatch.setattr(kax.kcalc, "count_aperiodic", broken)
    assert main(["compute", "--p", "3", "--d", "2", "--ring", "Fq:3", "--degree", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: Mobius sum 7 not divisible by s=2\n"


def test_reader_closing_a_large_output_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "kax", "table", "--p", "2", "--d", "6", "--ring", "Fq:2",
         "--max-degree", "200", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(200)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert len(head) == 200
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_write_into_a_closed_pipe_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kax", "compute", "--p", "3", "--d", "2", "--ring", "Fq:3",
             "--degree", "1"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_verify_exit_zero():
    proc = run_cli("verify", "dual", "k1")
    assert proc.returncode == 0, proc.stderr
    assert "0 failures" in proc.stdout


def test_verify_json(capsys):
    assert main(["verify", "dual", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(e["status"] == "pass" for e in report)


def test_verify_counts_json_bytes_are_pinned(capsys):
    # sha256 of the whole stdout of `kax verify counts --format json`, as the
    # word-by-word counting walk gave it: no rewrite of that walk may change
    # one byte
    assert main(["verify", "counts", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "fa873c3ee3261c9595940b6dd9c8754236290bc30c1415424fa921ab27a24ebd")


# sha256 of the whole stdout of `kax verify all`: no rewrite of an oracle
# may change one byte
VERIFY_ALL = {
    "text": "5beabef90408386f061da5bd660918653806ba1ecfce2bb22629628752aeb6aa",
    "json": "ebe125258e7b2a9ca014381069df9f112cce18f701f930d24669c5ecb5d6463f",
}


@pytest.mark.parametrize("fmt", VERIFY_ALL)
def test_verify_all_bytes_are_pinned(capsys, fmt):
    assert main(["verify", "all", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == VERIFY_ALL[fmt]


def test_verify_expands_all_wherever_it_appears(capsys):
    assert main(["verify", "counts", "all"]) == 0
    assert capsys.readouterr().out.endswith("\n258 checks, 0 failures\n")
    assert main(["verify", "nosuch"]) == 2
    assert main(["verify", "all", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: unknown suite 'nosuch'") == 2


def test_repeated_invocations_byte_identical():
    args = ("compute", "--p", "3", "--d", "3", "--ring", "Fq:9",
            "--degree", "5", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_json_output_roundtrips():
    from kax.kcalc import group_expr_from_dict

    proc = run_cli("table", "--p", "2", "--d", "2", "--ring", "Fq:4",
                   "--max-degree", "6", "--format", "json")
    assert proc.returncode == 0
    for entry in json.loads(proc.stdout):
        expr = group_expr_from_dict(entry)
        assert group_expr_from_dict(json.loads(json.dumps(entry))) == expr


def _run_main_in_fresh_interpreter(*argvs):
    """Run kax.cli.main on each argv in one new interpreter.

    Returns the exit codes and the modules that importing and running kax
    loaded (those loaded before it, e.g. by site, do not count).
    """
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from kax.cli import main\n"
        "codes = []\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv.split()))\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *map(" ".join, argvs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_compute_table_and_count_words_start_without_the_witt_layers():
    codes, loaded = _run_main_in_fresh_interpreter(
        ["compute", "--p", "3", "--d", "2", "--ring", "Fq:9", "--degree", "5"],
        ["table", "--p", "2", "--d", "2", "--ring", "Fq:4", "--max-degree", "8",
         "--integral", "--format", "json"],
        ["count-words", "--s", "6", "--d", "2", "--list"],
    )
    assert codes == [0, 0, 0]
    assert "kax.kcalc" in loaded
    assert not {"dataclasses", "typing", "kax.witt", "kax.fields", "kax.oracles"} & set(loaded)


@pytest.mark.parametrize("argv", [
    ["witt", "add", "--p", "2", "--n", "2", "1,0", "1,0"],
    ["verify", "dual"],
])
def test_witt_and_verify_import_their_layers_when_run(argv):
    codes, loaded = _run_main_in_fresh_interpreter(argv)
    assert codes == [0]
    assert "kax.witt" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)
    if argv[0] == "witt":
        assert "kax.kcalc" not in loaded


@pytest.mark.parametrize("argv, unused", [
    ("witt v --p 2 --n 2 1,2", {"kax.kcalc", "kax.words", "json"}),
    ("count-words --s 6 --d 2 --list", {"kax.kcalc", "json"}),
    ("compute --p 3 --d 2 --ring Fq:9 --degree 5", {"json", "kax.tbounds"}),
    ("compute --p 3 --d 2 --ring Fq:9 --degree 5 --format latex", {"json", "kax.tbounds"}),
    ("table --p 3 --d 2 --ring Fq:9 --max-degree 9", {"json", "kax.witt", "kax.tbounds"}),
])
def test_a_command_loads_no_layer_it_does_not_run(argv, unused):
    codes, loaded = _run_main_in_fresh_interpreter(argv.split())
    assert codes == [0]
    assert not unused & set(loaded)
