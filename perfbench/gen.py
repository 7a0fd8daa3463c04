"""Seeded inputs: each workload is an endless stream of blocks of one shape.

A block fixes how many ops of each stratum it holds; the seed picks the
instances and their order.  Runs measure whole blocks, so two seeds load
the program alike while feeding it different inputs.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

import grids
from checks import FAILED_AT_SEED, HASH_LEN, WittOracle

HERE = os.path.dirname(os.path.abspath(__file__))


def load_expected(name: str) -> dict:
    with open(os.path.join(HERE, "expected", name + ".json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# table-sweep: one op per (ring, variant) stratum, d and max_degree spread


def table_sweep_block(rng: random.Random) -> list[tuple]:
    strata = [
        (ring, variant)
        for ring in grids.RINGS
        for variant in grids.VARIANTS
        if grids.is_field(ring) or variant != "integral"
    ]
    # Each stratum has a fixed pair of levels, one and its mirror image, and
    # its op at the top level always has d=6, so the seed never moves the
    # largest tables, which set a block's cost and the run's peak memory.
    # On the other strata the seed deals a fixed multiset of d (d and 7 - d
    # on a stratum's two ops); it also orders the ops.
    levels = grids.SWEEP_LEVELS
    top = len(levels) - 1
    index = [(top - k) % len(levels) for k in range(len(strata))]
    ds = [1 + k % grids.D_MAX for k, i in enumerate(index) if i not in (0, top)]
    rng.shuffle(ds)
    ops = []
    for (ring, variant), i in zip(strata, index):
        d = grids.D_MAX if i == top else 1 if i == 0 else ds.pop()
        for dd, ii in ((d, i), (grids.D_MAX + 1 - d, top - i)):
            ops.append((ring, variant, 1 if variant == "dual" else dd, levels[ii]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# witt-arith: every (p, n, f) cell times every kind, random vectors


def witt_arith_block(rng: random.Random, oracles: dict) -> list[tuple]:
    ops = []
    for p, n, f in grids.witt_cells():
        q = p**f
        for kind in grids.WITT_KINDS:
            a = tuple(rng.randrange(q) for _ in range(n))
            b = tuple(rng.randrange(q) for _ in range(n))
            if kind == "neg" and p == 2 and n > 1:
                if (p, n, f) not in oracles:
                    oracles[(p, n, f)] = WittOracle(p, n, f)
                a = _neg_of_mean_digits(rng, oracles[(p, n, f)])
            ops.append((p, n, f, kind, a, b))
    rng.shuffle(ops)
    return ops


def _neg_of_mean_digits(rng: random.Random, oracle: WittOracle) -> tuple[int, ...]:
    """-x for a random x whose digits sum to the mean, n (q - 1) / 2.

    For p = 2 kax finds -a by trying each digit's candidates 0, 1, ... in
    turn, so the cost of neg(a) follows the digit sum of the answer; with
    the answer's digit sum fixed, every draw costs alike and the seed does
    not move the run's slowest ops.
    """
    n, q = oracle.n, oracle.q
    while True:
        x = tuple(rng.randrange(q) for _ in range(n))
        if sum(x) == n * (q - 1) // 2:
            return oracle.neg(x)


# ---------------------------------------------------------------------------
# verify: the four suites of `kax verify all`, in seeded order


def verify_block(rng: random.Random) -> list[str]:
    suites = list(grids.VERIFY_SUITES)
    rng.shuffle(suites)
    return suites


# ---------------------------------------------------------------------------
# cli: one fresh process per request


# in-range requests the seed commit fails; every block carries all of them
# and `witt mul --p 2 --n 7` on random vectors, whose solve never finishes
DEFECT_CELLS = (
    ("compute", "Fq:3", "square", 2, 20, "text"),  # 4300-digit crash
    ("table", "Fq:2", "square", 2, 40, "text"),  # crash after degree 18
    ("compute", "Fq:3", "square", 4, 200, "text"),  # order() never finishes
)

USAGE_ERRORS = (
    ["compute", "--p", "3", "--d", "2", "--ring", "Fq:3", "--degree", "201"],
    ["table", "--p", "2", "--d", "1", "--ring", "Fq:2", "--max-degree", "201"],
    ["compute", "--p", "3", "--ring", "Fq:6", "--degree", "3"],
    ["compute", "--p", "3", "--ring", "Fq:2", "--degree", "3"],
    ["compute", "--p", "4", "--ring", "Fq:4", "--degree", "3"],
    ["compute", "--p", "5", "--ring", "perfectoid:R:5", "--degree", "3", "--integral"],
    ["compute", "--p", "3", "--ring", "Fq:3"],
    ["verify", "nosuch"],
    ["witt", "add", "--p", "3", "--n", "2", "1,2"],
    ["count-words", "--s", "0", "--d", "2"],
)

# the largest answer in range, in every block, so the peak child memory is
# the same request each run
LARGEST = ("table", "Fq:2", "square", 6, 200, "json")

# block shape: request class -> requests per block
CLI_SHAPE = {
    "defect": len(DEFECT_CELLS) + 1,
    "largest": 1,
    "usage": 3,
    "compute-json": 6,
    "compute-latex": 4,
    "compute-text": 5,
    "table-json": 2,
    "table-latex": 2,
    "table-text": 2,
    "count": 4,
    "witt": 5,
    "verify": 1,
}


def compute_argv(kind, ring, variant, d, degree, fmt) -> list[str]:
    argv = [kind, "--p", str(grids.RINGS[ring]), "--d", str(d), "--ring", ring]
    if variant == "integral":
        argv.append("--integral")
    elif variant != "square":
        argv += ["--variant", variant]
    argv += ["--degree" if kind == "compute" else "--max-degree", str(degree)]
    if fmt != "text":
        argv += ["--format", fmt]
    return argv


def count_argv(s, d, axes, listed, fmt) -> list[str]:
    argv = ["count-words", "--s", str(s), "--d", str(d)]
    if axes:
        argv.append("--axes")
    if listed:
        argv.append("--list")
    if fmt != "text":
        argv += ["--format", fmt]
    return argv


def count_cells() -> list[tuple]:
    return [
        (s, d, axes, listed, fmt)
        for s in range(1, grids.COUNT_S_MAX + 1)
        for d in range(1, grids.COUNT_D_MAX + 1)
        for axes in (False, True)
        for listed in (False, True)
        for fmt in ("text", "json")
        if not listed or d**s <= grids.COUNT_LIST_LIMIT
    ]


def format_coords(vec, p, f) -> str:
    if f == 1:
        return ",".join(str(x) for x in vec)
    return ",".join(":".join(str((x // p**i) % p) for i in range(f)) for x in vec)


def _witt_request(rng: random.Random) -> dict:
    p = rng.choice(sorted(grids.CLI_WITT_N_MAX))
    f = rng.choice(grids.CLI_WITT_F)
    op = rng.choice(("add", "mul", "v", "r"))
    n = rng.randint(2 if op == "r" else 1, grids.CLI_WITT_N_MAX[p])
    q = p**f
    a = tuple(rng.randrange(q) for _ in range(n))
    b = tuple(rng.randrange(q) for _ in range(n))
    argv = ["witt", op, "--p", str(p), "--n", str(n)]
    if f > 1:
        argv += ["--f", str(f)]
    argv.append(format_coords(a, p, f))
    if op in ("add", "mul"):
        argv.append(format_coords(b, p, f))
    return {"class": "witt", "argv": argv, "witt": (op, p, n, f, a, b)}


def _grid_cell(rng: random.Random, expected: dict, kind: str, fmt: str, degree: int) -> dict:
    """A (ring, variant, d) combo at the given degree; text cells only where
    the seed commit answered, since failing text cells are the defect class."""
    degrees = grids.COMPUTE_DEGREES if kind == "compute" else grids.TABLE_LEVELS
    i = degrees.index(degree)
    combos = grids.combos()
    while True:
        ring, variant, d = rng.choice(combos)
        if fmt == "text":
            packed = expected[kind]["text"][grids.combo_key(ring, variant, d)]
            if packed[i * HASH_LEN : (i + 1) * HASH_LEN] == FAILED_AT_SEED:
                continue
        cell = (kind, ring, variant, d, degree, fmt)
        return {"class": f"{kind}-{fmt}", "argv": compute_argv(*cell), "cell": cell}


def cli_block(rng: random.Random, expected: dict) -> list[dict]:
    reqs = [{"class": "defect", "argv": compute_argv(*cell), "cell": cell} for cell in DEFECT_CELLS]
    a = tuple(rng.randrange(2) for _ in range(7))
    b = tuple(rng.randrange(2) for _ in range(7))
    argv = ["witt", "mul", "--p", "2", "--n", "7", format_coords(a, 2, 1), format_coords(b, 2, 1)]
    reqs.append({"class": "defect", "argv": argv, "witt": ("mul", 2, 7, 1, a, b)})
    reqs.append({"class": "largest", "argv": compute_argv(*LARGEST), "cell": LARGEST})
    for argv in rng.sample(USAGE_ERRORS, CLI_SHAPE["usage"]):
        reqs.append({"class": "usage", "argv": list(argv)})
    for kind, degrees in (("compute", grids.COMPUTE_DEGREES), ("table", grids.TABLE_LEVELS)):
        # degrees are dealt from a shuffled deck, so a block holds no more
        # large cells than another
        deck = []
        for fmt in ("json", "latex", "text"):
            for _ in range(CLI_SHAPE[f"{kind}-{fmt}"]):
                if not deck:
                    deck = list(degrees)
                    rng.shuffle(deck)
                reqs.append(_grid_cell(rng, expected, kind, fmt, deck.pop()))
    cells = count_cells()
    for _ in range(CLI_SHAPE["count"]):
        cell = rng.choice(cells)
        reqs.append({"class": "count", "argv": count_argv(*cell), "count": cell})
    for _ in range(CLI_SHAPE["witt"]):
        reqs.append(_witt_request(rng))
    fmt = rng.choice(("text", "json"))
    argv = ["verify", "dual"] + (["--format", "json"] if fmt == "json" else [])
    reqs.append({"class": "verify", "argv": argv, "verify": fmt})
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------


def blocks(workload: str, seed: int):
    """Endless stream of blocks for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    expected = load_expected("cli") if workload == "cli" else None
    oracles: dict = {}
    while True:
        if workload == "table-sweep":
            yield table_sweep_block(rng)
        elif workload == "witt-arith":
            yield witt_arith_block(rng, oracles)
        elif workload == "verify":
            yield verify_block(rng)
        elif workload == "cli":
            yield cli_block(rng, expected)
        else:
            raise ValueError(f"unknown workload {workload!r}")


def shape(workload: str, block: list) -> Counter:
    """Stratum counts of a block, which every seed shares."""
    if workload == "table-sweep":
        return Counter((ring, variant) for ring, variant, _, _ in block)
    if workload == "witt-arith":
        return Counter((p, n, f, kind) for p, n, f, kind, _, _ in block)
    if workload == "verify":
        return Counter(block)
    return Counter(req["class"] for req in block)
