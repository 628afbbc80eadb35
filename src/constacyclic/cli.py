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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RunSpec:
    """Canonical form of one CLI invocation."""

    command: str
    q: int = None
    m: int = None
    r: int = None
    residue: int = 1
    family: str = None
    ell: int = None
    i: int = None
    selectors: tuple = None
    table_id: int = None
    sample: int = None
    preset: str = "auto"
    modulus: tuple = None
    budget: int = distance.DEFAULT_OP_BUDGET
    format: str = "json"
    out: str = None


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


def parse_argv(argv):
    ns = build_parser().parse_args(argv)
    fields = {f: getattr(ns, f) for f in RunSpec.__dataclass_fields__
              if hasattr(ns, f)}
    return RunSpec(**fields)


# ----------------------------------------------------------------------
# command bodies; each returns (exit_code, payload)
# ----------------------------------------------------------------------

def _family_params(rs):
    return families.FamilyParams(family=rs.family, q=rs.q, m=rs.m,
                                 ell=rs.ell, i=rs.i, selectors=rs.selectors)


def _tower(rs, params=None):
    q = rs.q if params is None else params.q
    m = rs.m if params is None else params.m
    r = rs.r if params is None else params.r
    preset = rs.preset if rs.preset != "auto" else None
    return tower_for(q, m, r, modulus=rs.modulus, preset=preset)


def cmd_field(rs):
    tower = _tower(rs)
    return EXIT_OK, {
        "tower": tower.descriptor(),
        "N": tower.N,
        "n": tower.n,
        "lambda": tower.lambda_code,
        "lambda_log": tower.lambda_log,
    }


def cmd_cosets(rs):
    prime_power(rs.q)
    N = rs.q ** rs.m - 1
    if (rs.q - 1) % rs.r:
        raise BadParams(f"r = {rs.r} must divide q - 1")
    uni = index_universe(rs.q, rs.r, N, rs.residue)
    return EXIT_OK, {
        "q": rs.q, "m": rs.m, "r": rs.r, "residue": uni.residue,
        "N": N, "n": uni.n,
        "gamma1": list(uni.gamma1),
        "cosets": {str(l): list(uni.coset(l)) for l in uni.gamma1},
    }


def cmd_construct(rs):
    params = _family_params(rs)
    code = families.family_code(params, modulus=rs.modulus,
                                preset=rs.preset if rs.preset != "auto" else None)
    report = families.closed_form_bounds(params)
    return EXIT_OK, {
        "descriptor": code.descriptor(family_tag=params.family),
        "g_pretty": code.g.pretty(),
        "g": code.g.to_json(),
        "defining_set": sorted(code.defining_set.members),
        "k": code.k,
        "closed_form": report.to_json(),
    }


def cmd_certify(rs):
    params = _family_params(rs)
    code = families.family_code(params, modulus=rs.modulus,
                                preset=rs.preset if rs.preset != "auto" else None)
    hints = families.closed_form_bounds(params)
    result = distance.certify(code, hints=hints, op_budget=rs.budget)
    payload = {
        "code": {"n": code.n, "k": code.k, "family": params.to_json()},
        "result": result.to_json(),
    }
    return (EXIT_OK if result.exact else EXIT_BUDGET), payload


def cmd_table(rs):
    rows_out = []
    mismatch = False
    for row in tables.table_rows(rs.table_id):
        if rs.table_id == 1:
            q, m, prm, label, dprm, dlabel = row
            params = families.FamilyParams(family="parity", q=q, m=m, i=1)
        else:
            q, m, ells, prm, label, dprm, dlabel = row
            params = families.FamilyParams(family="qweight", q=q, m=m,
                                           ell=ells[0])
        code = families.family_code(params)
        hints = families.closed_form_bounds(params)
        res, dres = distance.certify_pair(code, hints, hints.dual_view(),
                                          op_budget=rs.budget)
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
        if rs.table_id == 2:
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
    payload = {"table": rs.table_id, "rows": rows_out}
    return (EXIT_MISMATCH if mismatch else EXIT_OK), payload


def cmd_selfdual_scan(rs):
    m = rs.m
    if m < 4 or m % 2:
        raise BadParams("selfdual-scan needs even m >= 4")
    vectors = list(itertools.product(*[(idx, m - 1 - idx)
                                       for idx in range(m // 2)]))
    if rs.sample is not None:
        vectors = vectors[:rs.sample]
    preset = rs.preset if rs.preset != "auto" else None
    tower = tower_for(3, m, 2, modulus=rs.modulus, preset=preset)
    out = []
    for sel in vectors:
        dset = families.subcode_defining_set("s4", 3, m, selectors=sel)
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


def emit(rs, payload):
    if rs.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif rs.format == "csv":
        text = _emit_csv(payload)
    else:
        text = _emit_text(payload)
    if rs.out:
        with open(rs.out, "w") as fh:
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
        rs = parse_argv(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:  # argparse's own exit (bad flags, --help)
        return int(exc.code or 0)
    try:
        exit_code, payload = _COMMANDS[rs.command](rs)
    except (BadParams, NotPrimitive) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_PARAMS
    emit(rs, payload)
    return exit_code


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
