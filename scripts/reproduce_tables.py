#!/usr/bin/env python3
"""Recompute both published parameter tables and write JSON reports.

Default budgets keep the run desk-scale: rows whose cheapest enumeration
exceeds the budget come back as reconciled bounds rather than exact values.
--budget caps the operations spent on each row, code and dual together.
--extended raises the prefix probe's cap to 1e11 operations within that
budget; it adds no operations on top of it.

Usage: python scripts/reproduce_tables.py [--outdir OUT] [--extended]
"""

import argparse
import pathlib
import sys

from constacyclic import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out", type=pathlib.Path)
    ap.add_argument("--extended", action="store_true")
    ap.add_argument("--budget", type=int, default=None)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for table_id in (1, 2):
        argv = ["table", "--id", str(table_id),
                "--out", str(args.outdir / f"table{table_id}.json")]
        if args.extended:
            argv.append("--extended")
        if args.budget is not None:
            argv += ["--budget", str(args.budget)]
        code = cli.main(argv)
        print(f"table {table_id}: exit {code} "
              f"-> {args.outdir / f'table{table_id}.json'}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
