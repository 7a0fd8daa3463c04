"""Input grids shared by the generator, the workers and the recorder.

Kept free of imports so a worker can read them before its timed set-up
without paying for the benchmark's own modules.
"""

# ring spec -> prime, for every ring the table-sweep and cli workloads draw
RINGS = {
    "Fq:2": 2,
    "Fq:3": 3,
    "Fq:4": 2,
    "Fq:5": 5,
    "Fq:8": 2,
    "Fq:9": 3,
    "Fq:25": 5,
    "perfectoid:R:3": 3,
    "zpcycl:5": 5,
}
VARIANTS = ("square", "axes", "dual", "integral")
D_MAX = 6


def is_field(ring):
    return ring.startswith("Fq:")


def combos():
    """Every (ring, variant, d) cell; dual ignores d, so it only has d = 1."""
    out = []
    for ring in RINGS:
        for variant in VARIANTS:
            if variant == "integral" and not is_field(ring):
                continue
            for d in (1,) if variant == "dual" else range(1, D_MAX + 1):
                out.append((ring, variant, d))
    return out


def combo_key(ring, variant, d):
    return f"{ring}|{variant}|{d}"


# table-sweep draws max_degree from these levels
SWEEP_LEVELS = (25, 50, 75, 100, 125, 150, 175, 200)
# cli compute requests draw a degree, cli table requests a max degree
COMPUTE_DEGREES = (0, 1, 2, 3, 4, 5, 7, 9, 12, 16, 20, 30, 50, 100, 150, 200)
TABLE_LEVELS = (5, 10, 20, 40, 100, 200)
# every table prefix whose hash is recorded
PREFIX_LEVELS = tuple(sorted(set(SWEEP_LEVELS) | set(TABLE_LEVELS)))

# witt-arith: p -> largest n, each with f in WITT_F; every q stays <= 512
WITT_N_MAX = {2: 6, 3: 4, 5: 3}
WITT_F = (1, 2, 3)
WITT_KINDS = ("add", "mul", "neg")


def witt_cells():
    return [
        (p, n, f)
        for p, n_max in WITT_N_MAX.items()
        for n in range(1, n_max + 1)
        for f in WITT_F
    ]


# cli witt requests stay below the n = 6 solve, which alone exceeds the
# per-request deadline; n = 6 is measured in-process by witt-arith
CLI_WITT_N_MAX = {2: 5, 3: 4, 5: 3}
CLI_WITT_F = (1, 2)

COUNT_S_MAX = 12
COUNT_D_MAX = 4
COUNT_LIST_LIMIT = 4096  # --list only where d^s words are cheap to print

VERIFY_SUITES = ("counts", "witt", "k1", "dual")
