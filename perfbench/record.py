"""Record the expected results the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/expected/{table,cli,verify}.json from the kax in ./src.
The committed files were recorded from the commit that introduced the
benchmark; re-record only when a change of output is intended.  Text
cells whose order has more than 4300 digits crash or hang there; they are
recorded as failed (checks.FAILED_AT_SEED) instead of being run.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import clirun  # noqa: E402
import gen  # noqa: E402
import grids  # noqa: E402
from kax import kcalc, oracles  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench")
# Python refuses int -> str beyond 4300 digits; below this margin text runs
DIGIT_LIMIT = 4200


def combo_rows():
    """(combo, rows 0..200) one combo at a time, so forked children stay small."""
    for ring, variant, d in grids.combos():
        spec = kcalc.parse_ring_spec(ring)
        yield (ring, variant, d), [
            kcalc.group_expr_to_dict(e) for e in kcalc.table(spec, d, 200, variant)
        ]


def order_digits(row: dict) -> float:
    """Decimal digits of the group order, from the factor list."""
    digits = 0.0
    for fac in row["factors"]:
        mult = int(fac["multiplicity"])
        if fac["kind"] == "cyclic":
            digits += mult * math.log10(int(fac["order"]))
        elif fac["kind"] == "witt" and fac["ring"].startswith("Fq:"):
            digits += mult * fac["length"] * math.log10(int(fac["ring"][3:]))
    return digits


def record_table(rows) -> dict:
    prefix = checks.prefix_hashes(rows, grids.PREFIX_LEVELS)
    return {
        "row": "".join(checks.short_hash(checks.canon_row(rows[k])) for k in grids.COMPUTE_DEGREES),
        "prefix": "".join(prefix[k] for k in grids.PREFIX_LEVELS),
    }


def _stdout_hash(argv, mirror=None) -> str:
    outcome, _ = clirun.run_forked(argv, SCRATCH)
    if outcome.exit_code != 0:
        return checks.FAILED_AT_SEED
    if mirror is not None:
        got = [checks.strip_order(line) for line in outcome.stdout.decode().splitlines()]
        assert got[: len(mirror)] == mirror, (argv, got[:2], mirror[:2])
    return checks.short_hash(outcome.stdout)


def record_cells(cli, ring, variant, d, rows) -> None:
    """Text and LaTeX stdout hashes of every compute and table cell of a combo."""
    key = grids.combo_key(ring, variant, d)
    digits = [order_digits(r) for r in rows]
    for kind, degrees in (("compute", grids.COMPUTE_DEGREES), ("table", grids.TABLE_LEVELS)):
        for fmt in ("text", "latex"):
            packed = []
            for deg in degrees:
                worst = digits[deg] if kind == "compute" else max(digits[: deg + 1])
                if fmt == "text" and worst > DIGIT_LIMIT:
                    packed.append(checks.FAILED_AT_SEED)
                    continue
                argv = gen.compute_argv(kind, ring, variant, d, deg, fmt)
                mirror = _text_lines(kind, variant, rows, deg) if fmt == "text" else None
                packed.append(_stdout_hash(argv, mirror))
                assert fmt == "text" or packed[-1] != checks.FAILED_AT_SEED, argv
            cli[kind][fmt][key] = "".join(packed)


def record_other_cli(cli) -> None:
    cli["count"] = {
        f"{s}|{d}|{axes}|{listed}|{fmt}": _stdout_hash(gen.count_argv(s, d, axes, listed, fmt))
        for s, d, axes, listed, fmt in gen.count_cells()
    }
    cli["verify"] = {
        "text": _stdout_hash(["verify", "dual"]),
        "json": _stdout_hash(["verify", "dual", "--format", "json"]),
    }
    for argv in gen.USAGE_ERRORS:
        outcome, _ = clirun.run_forked(list(argv), SCRATCH)
        assert outcome.exit_code == 2 and outcome.stdout == b"", argv


def _text_lines(kind, variant, rows, deg) -> list[str]:
    """Text lines the mirror renderer in checks expects, order notes stripped;
    recording asserts the CLI prints them, so the mirror stays faithful."""
    integral = variant == "integral"
    if kind == "compute":
        return [checks.text_body(rows[deg], integral)]
    return [f"degree {r['degree']}: {checks.text_body(r, integral)}" for r in rows[: deg + 1]]


def record_verify() -> dict:
    report = oracles.run_suites(["all"])
    return {
        "entries": sorted(
            [e.check, json.dumps(e.params, sort_keys=True), e.status] for e in report
        )
    }


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    table = {}
    cli = {"compute": {"text": {}, "latex": {}}, "table": {"text": {}, "latex": {}}}
    for (ring, variant, d), rows in combo_rows():
        if variant == "dual":
            assert all(checks.dual_law_holds(r) for r in rows), (ring, "dual law")
        table[grids.combo_key(ring, variant, d)] = record_table(rows)
        record_cells(cli, ring, variant, d, rows)
    record_other_cli(cli)
    out_dir = os.path.join(HERE, "expected")
    for name, data in (("table", table), ("cli", cli), ("verify", record_verify())):
        with open(os.path.join(out_dir, name + ".json"), "w") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
