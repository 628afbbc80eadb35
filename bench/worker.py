"""One benchmark pass in a fresh interpreter.

Usage (from run.py only): ``python worker.py T0`` with T0 run.py's
``time.monotonic()`` just before it started this process, and a JSON spec
on stdin.  The last stdout line is a JSON report.

The worker imports ``constacyclic`` first, so that ``setup_s`` is the time
from interpreter start until that import finishes.  It then runs the items
one after another (the timed region), takes the peak resident memory, and
only afterwards checks every output against the published tables and
against tests written here.  With tracing on, it records a span around each
call the items make into a module of the library, and runs the fixed-size
kernel sweep.
"""

import sys
import time

import constacyclic  # noqa: F401  (first import: this is what setup_s times)

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

from constacyclic import tables  # noqa: E402
from constacyclic.codes import ConstacyclicCode  # noqa: E402
from constacyclic.distance import (DEFAULT_OP_BUDGET, certify,  # noqa: E402
                                   certify_pair, exhaustive_enumerator,
                                   macwilliams_transform)
from constacyclic.families import (FamilyParams, bch_search,  # noqa: E402
                                   closed_form_bounds, family_code,
                                   family_defining_set, family_dimension)
from constacyclic.galois import ZERO, tower_for  # noqa: E402
from constacyclic.qadic import index_universe  # noqa: E402

# method_trace entries whose ops field holds a budget cap rather than the
# operations spent: distance.certify logs the sparse-probe and prefix-probe
# budgets, certify_pair the _PROBE_BUDGET and _PREFIX_PROBE_BUDGET constants
CAPPED_METHODS = ("sparse-probe", "prefix-probe")

# duals of these rows are the kernel sweep's fixed sizes: (name, table, row)
SWEEP = (("q3_k16", 2, 4), ("q5_k10", 2, 16), ("q9_k8", 1, 6))


class Tracer:
    """Spans kept in memory: name, start, end, parent index, item id."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.item = None
        self._open = []  # indices of the spans not yet ended

    def span(self, name, **attrs):
        return self._record(name, attrs) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name, attrs):
        index = len(self.spans)
        self.spans.append({"name": name, "item": self.item,
                           "parent": self._open[-1] if self._open else None,
                           "start": time.perf_counter(), "end": None, **attrs})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()


# ----------------------------------------------------------------------
# items
# ----------------------------------------------------------------------

def table_row(table, row):
    """(FamilyParams, published [n,k,d], published dual [n,k,d], ells)."""
    if table == 1:
        q, m, prm, _, dprm, _ = tables.TABLE1[row]
        return FamilyParams(family="parity", q=q, m=m, i=1), prm, dprm, None
    q, m, ells, prm, _, dprm, _ = tables.TABLE2[row]
    return (FamilyParams(family="qweight", q=q, m=m, ell=ells[0]), prm, dprm,
            ells)


def build(params, tr, modulus=None):
    """family_code and closed_form_bounds, one span per library call."""
    key = f"q={params.q} m={params.m} r={params.r} modulus={modulus}"
    with tr.span("galois.tower_for", N=params.N, tower=key):
        tower = tower_for(params.q, params.m, params.r, modulus=modulus)
    with tr.span("galois.subfield_tables"):
        tower.subfield_tables()
    with tr.span("qadic.index_universe"):
        index_universe(params.q, params.r, params.N, 1)
    with tr.span("families.family_defining_set"):
        dset = family_defining_set(params)
    with tr.span("codes.ConstacyclicCode"):
        code = ConstacyclicCode(tower, dset)
    with tr.span("families.closed_form_bounds"):
        hints = closed_form_bounds(params)
    return code, hints


def run_item(item, tr):
    """Run one item; returns what the checks need."""
    kind = item["kind"]
    if kind == "table":
        params, _, _, _ = table_row(item["table"], item["row"])
        code, hints = build(params, tr)
        with tr.span("distance.certify_pair"):
            res, dres = certify_pair(code, hints, hints.dual_view(),
                                     op_budget=DEFAULT_OP_BUDGET)
        return {"params": params, "code": code, "certs": [res, dres]}
    if kind in ("certify", "certify-family"):
        if kind == "certify":
            params, _, _, _ = table_row(item["table"], item["row"])
        else:
            params = FamilyParams(**item["family"])
        code, hints = build(params, tr)
        target = code
        if item.get("side") == "dual":
            with tr.span("codes.dual"):
                target = code.dual()
            hints = hints.dual_view()
        with tr.span("distance.certify"):
            res = certify(target, hints=hints, op_budget=DEFAULT_OP_BUDGET)
        return {"params": params, "code": code, "target": target,
                "certs": [res]}
    if kind == "construct":
        params = FamilyParams(**item["family"])
        code, hints = build(params, tr, modulus=tuple(item["modulus"]))
        with tr.span("families.bch_search"):
            wit = bch_search(code.defining_set)
        with tr.span("codes.matrices", bytes=code.n * code.n):
            code.generator_matrix()
            code.parity_check_matrix()
        with tr.span("codes.is_self_dual"):
            self_dual = code.is_self_dual()
        lower = max(hints.distance_lb or 1, wit.delta)
        # keep what the checks need, not the code and its matrices
        return {"params": params, "g": code.g, "k": code.k, "n": code.n,
                "dset": code.defining_set, "self_dual": self_dual,
                "bounds": (lower, code.n - code.k + 1)}
    raise ValueError(f"unknown item kind {kind!r}")


# ----------------------------------------------------------------------
# output checks, outside the timed region
# ----------------------------------------------------------------------

def check_certificate(code, res, d_pub):
    """Failures of one certificate; d_pub None when no published value."""
    out = []
    if res.lower > res.upper:
        out.append(f"lower {res.lower} > upper {res.upper}")
    if d_pub is not None:
        if res.exact and res.lower != d_pub:
            out.append(f"exact d = {res.lower} but published {d_pub}")
        if not res.exact and not res.lower <= d_pub <= res.upper:
            out.append(f"[{res.lower},{res.upper}] misses published {d_pub}")
    w = res.witness_codeword
    if w is None:
        if res.exact:
            out.append("exact certificate without a witness")
    else:
        if not code.contains(w):
            out.append("witness is not a codeword")
        weight = sum(1 for x in w if x)
        if weight != res.upper:
            out.append(f"witness weight {weight} != upper {res.upper}")
    return out


def partition_self_dual(dset, n, k):
    """Self-duality from the defining set alone: with lambda = lambda^-1,
    C = C^perp iff Z and -Z = {N - z} partition the residue class."""
    uni = dset.universe
    if (2 * uni.residue) % uni.r:
        return False
    omega = {(uni.residue + uni.r * i) % uni.N for i in range(uni.n)}
    neg = {(uni.N - z) % uni.N for z in dset.members}
    return (2 * k == n and not (dset.members & neg)
            and (dset.members | neg) == omega)


def check_item(item, out):
    kind = item["kind"]
    params = out["params"]
    fails = []
    if kind == "construct":
        if out["k"] != family_dimension(params):
            fails.append(f"k = {out['k']} != family_dimension")
        for leader in out["dset"].leaders:
            if out["g"].eval(leader) != ZERO:
                fails.append(f"g(beta^{leader}) != 0")
                break
        expect = partition_self_dual(out["dset"], out["n"], out["k"])
        if out["self_dual"] != expect:
            fails.append(f"is_self_dual {out['self_dual']} != "
                         f"defining-set test {expect}")
        return fails
    code = out["code"]
    if kind == "certify-family":
        if (code.n, code.k) != (params.n, family_dimension(params)):
            fails.append(f"[n,k] = [{code.n},{code.k}] != closed form")
        return fails + check_certificate(code, out["certs"][0], None)
    _, prm, dprm, ells = table_row(item["table"], item["row"])
    if (code.n, code.k, code.n - code.k) != (prm[0], prm[1], dprm[1]):
        fails.append(f"[n,k,dual k] = [{code.n},{code.k},{code.n - code.k}]"
                     f" != published {list(prm[:2])}, {dprm[1]}")
    for ell in ells or ():
        alt = FamilyParams(family="qweight", q=params.q, m=params.m, ell=ell)
        if family_dimension(alt) != prm[1]:
            fails.append(f"paired ell = {ell} has another dimension")
    if kind == "table":
        res, dres = out["certs"]
        fails += check_certificate(code, res, prm[2])
        fails += check_certificate(code.dual(), dres, dprm[2])
    else:
        d_pub = dprm[2] if item["side"] == "dual" else prm[2]
        fails += check_certificate(out["target"], out["certs"][0], d_pub)
    return fails


# ----------------------------------------------------------------------
# pass
# ----------------------------------------------------------------------

def certificate_report(res):
    return {"lower": res.lower, "upper": res.upper, "exact": res.exact,
            "method_trace": [{"method": m, "ops": o, "note": s,
                              "ops_is_cap": m in CAPPED_METHODS}
                             for m, o, s in res.method_trace]}


def kernel_sweep():
    """Words per second of exhaustive_enumerator at fixed sizes, and the
    time of the MacWilliams transform of each distribution."""
    rates, mac_s = {}, 0.0
    for name, table, row in SWEEP:
        params, _, _, _ = table_row(table, row)
        dual = family_code(params).dual()
        q = dual.tower.q
        t0 = time.perf_counter()
        enum = exhaustive_enumerator(dual)
        rates[name] = q ** dual.k / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        macwilliams_transform(enum.counts, dual.n, q)
        mac_s += time.perf_counter() - t0
    return {"enum_words_per_s": rates, "macwilliams_s": mac_s}


def run_pass(items, trace, setup_s=None):
    tr = Tracer(trace)
    outs = []
    t_start = time.perf_counter()
    for item in items:
        tr.item = item["id"]
        t0 = time.perf_counter()
        try:
            with tr.span("item"):
                out = run_item(item, tr)
        except Exception:
            out = {"error": traceback.format_exc()}
        outs.append((item, out, time.perf_counter() - t0))
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reports = []
    for item, out, secs in outs:
        if "error" in out:
            fails = [out["error"]]
        else:
            try:
                fails = check_item(item, out)
            except Exception:
                fails = [traceback.format_exc()]
        rep = {"id": item["id"], "seconds": secs, "failures": fails}
        if "certs" in out:
            rep["certs"] = [certificate_report(r) for r in out["certs"]]
        if "bounds" in out:
            rep["bounds"] = list(out["bounds"])
        reports.append(rep)
    result = {"setup_s": setup_s, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
              "items": reports}
    if trace:
        result["spans"] = tr.spans
        result["sweep"] = kernel_sweep()
    return result


def main():
    setup_s = IMPORTED_AT - float(sys.argv[1])
    spec = json.loads(sys.stdin.read())
    if spec["mode"] == "setup":
        result = {"setup_s": setup_s}
    else:
        result = run_pass(spec["items"], spec["trace"], setup_s)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
