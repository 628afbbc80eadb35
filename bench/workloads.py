"""Workload definitions and seeded input generation.

This module imports nothing from ``constacyclic``: run.py uses it to
generate the inputs, and only the generated items reach the worker.

Why each workload exists (see README.md for what is left out):

* ``tables-exact`` runs the ``constacyclic table`` path (``family_code`` ->
  ``closed_form_bounds`` -> ``certify_pair`` at the default budget) over the
  24 published rows of Tables 1 and 2 that certify exactly: 48
  certificates.  Nearly all the time goes to the message-enumeration kernel
  in ``distance``, over q = 3, 4, 5, 7 and 9, direct and dual.
* ``certify-bounds`` runs the ``constacyclic certify`` path (``certify``
  with closed-form hints) on the codes and duals of the four open rows, the
  self-dual [40,20,9] parity code and two q-weight codes over GF(4): 11
  certificates, mostly bound-only.  It exercises ``bch_search``, the
  sparse and prefix probes under fixed caps, an early-stop enumeration and
  a dual enumeration plus syndrome scan, so it shows probe speed and
  certificate strength.
* ``construct-large`` builds three long codes (n = 3280 to 9841) and the
  self-dual [364,182] code with cold towers and does no distance work: the
  time goes to ``galois``, ``polyring``/``codes`` and ``families``.

The seed shuffles item order in the two certify workloads and picks a
random primitive modulus for each code in ``construct-large``.
"""

import random

WORKLOADS = ("tables-exact", "certify-bounds", "construct-large")

# (table, row index) of the rows that stay bound-only at the default budget
OPEN_ROWS = ((1, 4), (2, 6), (2, 20), (2, 21))
# the self-dual [40,20,9] row: certify_pair enumerates all 3^20 words
SELF_DUAL_ROW = (1, 2)
TABLE_SIZES = {1: 7, 2: 22}


def _table_item(table, row):
    return {"id": f"T{table}r{row}", "kind": "table", "table": table,
            "row": row}


def _certify_item(table, row, side):
    return {"id": f"T{table}r{row}-{side}", "kind": "certify",
            "table": table, "row": row, "side": side}


def _family_item(ident, kind, family, **extra):
    return {"id": ident, "kind": kind, "family": family, **extra}


def tables_exact_items():
    skip = set(OPEN_ROWS) | {SELF_DUAL_ROW}
    return [_table_item(t, r) for t in (1, 2) for r in range(TABLE_SIZES[t])
            if (t, r) not in skip]


def certify_bounds_items():
    items = [_certify_item(t, r, side) for t, r in OPEN_ROWS
             for side in ("code", "dual")]
    items.append(_certify_item(*SELF_DUAL_ROW, "code"))
    items.append(_family_item("qw-q4m5l0", "certify-family",
                              {"family": "qweight", "q": 4, "m": 5, "ell": 0}))
    items.append(_family_item("qw-q4m4l3", "certify-family",
                              {"family": "qweight", "q": 4, "m": 4, "ell": 3}))
    return items


# (item id, family descriptor, p, degree of the modulus over GF(p)).  The
# self-dual code is the [364,182] one: at [3280,1640] the int64 Gram test
# in is_self_dual is memory-bandwidth bound, and on a shared machine it made
# the workload's wall time spread by 25-50 % from run to run.
CONSTRUCT_CODES = (
    ("parity-q3m6", {"family": "parity", "q": 3, "m": 6, "i": 1}, 3, 6),
    ("qw-q3m8l3", {"family": "qweight", "q": 3, "m": 8, "ell": 3}, 3, 8),
    ("parity-q9m4", {"family": "parity", "q": 9, "m": 4, "i": 1}, 3, 8),
    ("qw-q3m9l2", {"family": "qweight", "q": 3, "m": 9, "ell": 2}, 3, 9),
)


def construct_large_items(rng):
    return [_family_item(ident, "construct", fam,
                         modulus=random_primitive_modulus(p, deg, rng))
            for ident, fam, p, deg in CONSTRUCT_CODES]


def items_for(workload, seed):
    rng = random.Random(seed)
    if workload == "tables-exact":
        items = tables_exact_items()
        rng.shuffle(items)
        return items
    if workload == "certify-bounds":
        items = certify_bounds_items()
        rng.shuffle(items)
        return items
    if workload == "construct-large":
        return construct_large_items(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# primitive moduli over GF(p), independent of the library under test
# ----------------------------------------------------------------------

def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _mulmod(a, b, mod, p):
    """a*b mod (monic) mod over GF(p); coefficient lists, low degree first."""
    deg = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    for top in range(len(out) - 1, deg - 1, -1):
        c = out[top]
        if c:
            for j in range(deg + 1):
                out[top - deg + j] = (out[top - deg + j] - c * mod[j]) % p
    out = out[:deg] + [0] * max(0, deg - len(out))
    return out


def _x_pow(e, mod, p):
    deg = len(mod) - 1
    result = [1] + [0] * (deg - 1)
    base = [0, 1] + [0] * (deg - 2)
    while e:
        if e & 1:
            result = _mulmod(result, base, mod, p)
        base = _mulmod(base, base, mod, p)
        e >>= 1
    return result


def is_primitive(mod, p):
    deg = len(mod) - 1
    order = p ** deg - 1
    one = [1] + [0] * (deg - 1)
    if _x_pow(order, mod, p) != one:
        return False
    return all(_x_pow(order // d, mod, p) != one
               for d in _prime_divisors(order))


def random_primitive_modulus(p, deg, rng):
    """A uniformly drawn monic primitive polynomial of degree deg over GF(p),
    as ascending coefficients (constant term first)."""
    while True:
        mod = [rng.randrange(1, p)] + [rng.randrange(p)
                                       for _ in range(deg - 1)] + [1]
        if is_primitive(mod, p):
            return mod
