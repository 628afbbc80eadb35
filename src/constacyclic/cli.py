"""Command-line front end.

Subcommands: field, cosets, construct, certify, table, selfdual-scan.  Each
takes only the flags it reads: every subcommand takes --format and --out;
field, construct, certify and selfdual-scan take --preset and --modulus;
certify and table take --budget.
Exit codes: 0 ok, 2 bad parameters, 3 budget exhausted, 4 table mismatch.
Output is deterministic: JSON with sorted keys and ascending set orderings.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from fractions import Fraction

from . import distance, families, tables
from .codes import ConstacyclicCode
from .errors import BadParams, NotPrimitive
from .galois import prime_power, tower_for
from .qadic import index_universe

EXIT_OK = 0
EXIT_BAD_PARAMS = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _int_list(text):
    return tuple(int(x) for x in text.split(","))


def _count(text):
    """A non-negative integer, also written as an exact decimal like 3e11."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value < 0 or value.denominator != 1:
        raise argparse.ArgumentTypeError(
            f"need a non-negative integer, got {text!r}")
    return int(value)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="constacyclic",
        description="Construct constacyclic codes and certify their "
                    "minimum distances.")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    output.add_argument("--out", default=None, help="write output to a file")
    tower = argparse.ArgumentParser(add_help=False)
    tower.add_argument("--preset", choices=("paper", "auto"), default="auto",
                       help="paper: use the published worked-example moduli")
    tower.add_argument("--modulus", type=_int_list, default=None,
                       help="comma-separated coefficients, constant first")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_count,
                        default=distance.DEFAULT_OP_BUDGET,
                        help="operation-count cap for distance work, "
                             "a non-negative integer such as 3e11")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", parents=[output, tower],
                       help="build a tower and print its descriptor")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("cosets", parents=[output],
                       help="print the coset split of a residue class")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--residue", type=int, default=1)

    for name, parents in (("construct", [output, tower]),
                          ("certify", [output, tower, budget])):
        p = sub.add_parser(name, parents=parents)
        p.add_argument("--family", choices=families.FAMILIES, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--i", type=int, default=None)
        p.add_argument("--selectors", type=_int_list, default=None)

    p = sub.add_parser("table", parents=[output, budget],
                       help="reproduce a published parameter table")
    p.add_argument("--id", dest="table_id", type=int, choices=(1, 2),
                   required=True)

    p = sub.add_parser("selfdual-scan", parents=[output, tower],
                       help="check self-duality of the ternary family "
                            "across selector vectors")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sample", type=_count, default=None,
                   help="check at most this many selector vectors")
    return parser


# ----------------------------------------------------------------------
# command bodies; each returns (exit_code, payload)
# ----------------------------------------------------------------------

def _family_params(ns):
    return families.FamilyParams(family=ns.family, q=ns.q, m=ns.m,
                                 ell=ns.ell, i=ns.i, selectors=ns.selectors)


def _tower_options(ns):
    """The tower keywords of --modulus and --preset (auto: no preset)."""
    return {"modulus": ns.modulus,
            "preset": None if ns.preset == "auto" else ns.preset}


def cmd_field(ns):
    tower = tower_for(ns.q, ns.m, ns.r, **_tower_options(ns))
    return EXIT_OK, {
        "tower": tower.descriptor(),
        "N": tower.N,
        "n": tower.n,
        "lambda": tower.lambda_code,
        "lambda_log": tower.lambda_log,
    }


def cmd_cosets(ns):
    prime_power(ns.q)
    N = ns.q ** ns.m - 1
    if (ns.q - 1) % ns.r:
        raise BadParams(f"r = {ns.r} must divide q - 1")
    uni = index_universe(ns.q, ns.r, N, ns.residue)
    return EXIT_OK, {
        "q": ns.q, "m": ns.m, "r": ns.r, "residue": uni.residue,
        "N": N, "n": uni.n,
        "gamma1": list(uni.gamma1),
        "cosets": {str(l): list(uni.coset(l)) for l in uni.gamma1},
    }


def cmd_construct(ns):
    params = _family_params(ns)
    code = families.family_code(params, **_tower_options(ns))
    report = families.closed_form_bounds(params)
    return EXIT_OK, {
        "descriptor": code.descriptor(family_tag=params.family),
        "g_pretty": code.g.pretty(),
        "g": code.g.to_json(),
        "defining_set": sorted(code.defining_set.members),
        "k": code.k,
        "closed_form": report.to_json(),
    }


def cmd_certify(ns):
    params = _family_params(ns)
    code = families.family_code(params, **_tower_options(ns))
    hints = families.closed_form_bounds(params)
    result = distance.certify(code, hints=hints, op_budget=ns.budget)
    payload = {
        "code": {"n": code.n, "k": code.k, "family": params.to_json()},
        "result": result.to_json(),
    }
    return (EXIT_OK if result.exact else EXIT_BUDGET), payload


def cmd_table(ns):
    rows_out = []
    mismatch = False
    for row in tables.table_rows(ns.table_id):
        if ns.table_id == 1:
            q, m, prm, label, dprm, dlabel = row
            params = families.FamilyParams(family="parity", q=q, m=m, i=1)
        else:
            q, m, ells, prm, label, dprm, dlabel = row
            params = families.FamilyParams(family="qweight", q=q, m=m,
                                           ell=ells[0])
        code = families.family_code(params)
        hints = families.closed_form_bounds(params)
        res, dres = distance.certify_pair(code, hints, hints.dual_view(),
                                          op_budget=ns.budget)
        row_report = {
            "q": q, "m": m,
            "family": params.to_json(),
            "published": list(prm), "optimality": label,
            "published_dual": list(dprm), "dual_optimality": dlabel,
            "n": code.n, "k": code.k, "dual_k": code.n - code.k,
            "distance": res.to_json(),
            "dual_distance": dres.to_json(),
            "ours_exact": res.exact and dres.exact,
        }
        ok = code.n == prm[0] and code.k == prm[1] \
            and (code.n - code.k) == dprm[1]
        if ns.table_id == 2:
            # paired ell values on the same row share the dimensions
            for ell in ells:
                alt = families.FamilyParams(family="qweight", q=q, m=m, ell=ell)
                ok = ok and families.family_dimension(alt) == prm[1]
        for r, d_pub in ((res, prm[2]), (dres, dprm[2])):
            if r.exact:
                ok = ok and r.lower == d_pub
            else:
                ok = ok and r.lower <= d_pub <= r.upper
        row_report["matches_published"] = ok
        mismatch = mismatch or not ok
        rows_out.append(row_report)
    payload = {"table": ns.table_id, "rows": rows_out}
    return (EXIT_MISMATCH if mismatch else EXIT_OK), payload


def cmd_selfdual_scan(ns):
    m = ns.m
    if m < 4 or m % 2:
        raise BadParams("selfdual-scan needs even m >= 4")
    vectors = list(itertools.product(*[(idx, m - 1 - idx)
                                       for idx in range(m // 2)]))
    if ns.sample is not None:
        vectors = vectors[:ns.sample]
    tower = tower_for(3, m, 2, **_tower_options(ns))
    out = []
    for sel in vectors:
        dset = families.family_defining_set(
            families.FamilyParams(family="s4", q=3, m=m, selectors=sel))
        code = ConstacyclicCode(tower, dset)
        out.append({
            "selectors": list(sel),
            "n": code.n, "k": code.k,
            "self_dual": code.is_self_dual(),
            "defining_set_size": len(dset),
        })
    return EXIT_OK, {"q": 3, "m": m, "checked": len(out), "instances": out}


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------

def _emit_csv(payload):
    buf = io.StringIO()
    rows = payload.get("rows")
    if rows is None:
        writer = csv.writer(buf)
        for key, value in sorted(payload.items()):
            writer.writerow([key, json.dumps(value, sort_keys=True)])
        return buf.getvalue()
    writer = csv.writer(buf)
    writer.writerow(["q", "m", "published", "n", "k", "lower", "upper",
                     "exact", "dual_lower", "dual_upper", "dual_exact",
                     "matches_published"])
    for row in rows:
        writer.writerow([
            row["q"], row["m"], "-".join(map(str, row["published"])),
            row["n"], row["k"],
            row["distance"]["lower"], row["distance"]["upper"],
            row["distance"]["exact"],
            row["dual_distance"]["lower"], row["dual_distance"]["upper"],
            row["dual_distance"]["exact"],
            row["matches_published"],
        ])
    return buf.getvalue()


def _emit_text(payload):
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in obj:
                val = obj[key]
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {val}")
        elif isinstance(obj, list):
            for val in obj:
                if isinstance(val, (dict, list)):
                    walk(val, indent + 1)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {val}")
        else:
            lines.append(f"{pad}{obj}")

    walk(payload)
    return "\n".join(lines) + "\n"


def emit(ns, payload):
    if ns.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif ns.format == "csv":
        text = _emit_csv(payload)
    else:
        text = _emit_text(payload)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "field": cmd_field,
    "cosets": cmd_cosets,
    "construct": cmd_construct,
    "certify": cmd_certify,
    "table": cmd_table,
    "selfdual-scan": cmd_selfdual_scan,
}


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own exit (bad flags, --help)
        return int(exc.code or 0)
    try:
        exit_code, payload = _COMMANDS[ns.command](ns)
    except (BadParams, NotPrimitive) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_PARAMS
    emit(ns, payload)
    return exit_code


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
