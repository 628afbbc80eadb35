"""Benchmark runner: ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0|1``, run from the root of a checkout.

Closed loop, one client: every pass over a workload's items runs in a fresh
worker interpreter (``worker.py``), one after another, so cached towers start
cold as they do for every CLI call.  The seed only shapes the inputs (see
``workloads.py``); the worker receives the generated items.

``--trace 0`` runs as many passes as fit in ``--seconds`` at the first
pass's pace (at least one), with import-only probes for ``setup_s`` before,
between and after them, and reports the end-to-end metrics as medians.  ``--trace 1`` runs one plain pass and one
traced pass, and reports the per-layer metrics from the traced one.

Human-readable lines, the environment and every extra count come first on
stdout; the last line is the JSON result.  A full record (per-item times,
method traces, spans) goes to ``bench/out/``.  The exit code is 0 only when
every output check passed.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 3
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_", "OPENBLAS_", "MKL_")

# printed by name and unit, but not in the result's metrics: each is 0 on
# some workload, and an end-to-end metric must never be 0
REPORT_UNITS = {"certs_exact": "count", "bound_gap": "count",
                "items": "count", "items_failed": "count"}


class WorkerError(RuntimeError):
    pass


def run_worker(root, spec, deadline):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), repr(t0)],
        input=json.dumps(spec), capture_output=True, text=True, env=env,
        cwd=root, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(root):
    sha = None
    if (root / ".git").exists():  # a checkout without git has no sha
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": sha, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith(THREAD_VARS)}}


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def certificate_counts(pass_result):
    """certs, certs_exact, bound_gap and open_values of one pass.

    open_values is the number of distance values not yet ruled out, summed
    over every certified interval: 1 for an exact certificate, upper -
    lower + 1 otherwise.  construct-large has no certificates; its
    intervals are [best progression bound, Singleton bound n - k + 1].
    """
    certs = exact = gap = open_values = 0
    for rep in pass_result["items"]:
        for c in rep.get("certs", ()):
            certs += 1
            exact += c["exact"]
            if not c["exact"]:
                gap += c["upper"] - c["lower"]
            open_values += c["upper"] - c["lower"] + 1
        if "bounds" in rep:
            lower, upper = rep["bounds"]
            open_values += upper - lower + 1
    return {"certs": certs, "certs_exact": exact, "bound_gap": gap,
            "open_values": open_values}


def failed_items(pass_result):
    return sum(1 for rep in pass_result["items"] if rep["failures"])


def layer_metrics(traced, plain_wall_s):
    """Per-layer metrics from the traced pass's spans and certificates."""
    by_name = {}
    for s in traced["spans"]:
        by_name.setdefault(s["name"], []).append(s)

    def total(*names):
        return sum((s["end"] - s["start"] for n in names
                    for s in by_name.get(n, ())), 0.0)

    # a tower's first call in the interpreter builds it; later ones hit the
    # cache, so only first calls contribute elements
    seen, elems = set(), 0
    for s in by_name.get("galois.tower_for", ()):
        if s["tower"] not in seen:
            seen.add(s["tower"])
            elems += s["N"]
    tower_s = total("galois.tower_for")
    ops = {"enum": 0, "probe": 0, "scan": 0}
    kinds = {"enumeration": "enum", "dual-enumeration": "enum",
             "sparse-probe": "probe", "prefix-probe": "probe",
             "support-scan": "scan"}
    for rep in traced["items"]:
        for c in rep.get("certs", ()):
            for entry in c["method_trace"]:
                kind = kinds.get(entry["method"])
                if kind:
                    ops[kind] += entry["ops"]
    certs = certificate_counts(traced)
    sweep = traced["sweep"]
    out = {
        "galois.tower_s": (tower_s, "s"),
        "galois.tower_elems_per_s": (elems / tower_s if tower_s else 0.0,
                                     "1/s"),
        "galois.subfield_tables_s": (total("galois.subfield_tables"), "s"),
        "qadic.universe_s": (total("qadic.index_universe"), "s"),
        "families.defining_set_s": (total("families.family_defining_set"),
                                    "s"),
        "families.closed_form_s": (total("families.closed_form_bounds"), "s"),
        "families.bch_search_s": (total("families.bch_search"), "s"),
        "codes.construct_s": (total("codes.ConstacyclicCode", "codes.dual"),
                              "s"),
        "codes.matrices_s": (total("codes.matrices"), "s"),
        "codes.matrix_mb": (sum(s["bytes"] for s in
                                by_name.get("codes.matrices", ()))
                            / 2 ** 20, "MB"),
        "codes.self_dual_s": (total("codes.is_self_dual"), "s"),
        "distance.certify_s": (total("distance.certify",
                                     "distance.certify_pair"), "s"),
        "distance.certs": (certs["certs"], "count"),
        "distance.exact_ratio": (certs["certs_exact"] / certs["certs"]
                                 if certs["certs"] else 0.0, "ratio"),
        "distance.enum_ops": (ops["enum"], "ops"),
        "distance.probe_ops": (ops["probe"], "ops"),
        "distance.scan_ops": (ops["scan"], "ops"),
        "distance.macwilliams_s": (sweep["macwilliams_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - plain_wall_s, "s"),
    }
    for name, rate in sweep["enum_words_per_s"].items():
        out[f"distance.enum_words_per_s.{name}"] = (rate, "1/s")
    return out


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def measure(root, workload, items, seconds, trace):
    """Run the passes; returns (result line, full record)."""
    spec = {"mode": "pass", "items": items, "trace": False}
    deadline = time.monotonic() + RUN_TIMEOUT_S
    record = {"workload": workload, "environment": environment(root)}
    if trace:
        plain = run_worker(root, spec, deadline)
        traced = run_worker(root, dict(spec, trace=True), deadline)
        passes = [plain, traced]
        metrics = layer_metrics(traced, plain["wall_s"])
    else:
        # import-only probes around every pass, so that setup_s samples
        # the whole run and not one moment of it
        setups = []

        def probe():
            setups.extend(run_worker(root, {"mode": "setup"}, deadline)
                          ["setup_s"]
                          for _ in range(SETUP_PROBES))

        probe()
        passes = [run_worker(root, spec, deadline)]
        # as many passes as fit in --seconds at the first one's pace
        for _ in range(int(seconds // passes[0]["wall_s"]) - 1):
            probe()
            passes.append(run_worker(root, spec, deadline))
        probe()
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"]
                                              for p in passes), "MB"),
            "open_values": (certificate_counts(passes[0])["open_values"],
                            "count"),
        }
        record["setup_samples_s"] = setups
    record["passes"] = passes
    attempted = len(items) * len(passes)
    failed = sum(failed_items(p) for p in passes)
    counts = certificate_counts(passes[0])
    report = {"certs_exact": counts["certs_exact"],
              "bound_gap": counts["bound_gap"],
              "items": attempted, "items_failed": failed}
    record["report"] = report
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": v, "unit": u}
                          for name, (v, u) in metrics.items()}}
    return result, record


def print_result(result, record):
    env = record["environment"]
    print(f"# workload {record['workload']}, {len(record['passes'])} passes, "
          f"git {env['git_sha']}, nproc {env['nproc']}, python "
          f"{env['python']}, numpy {env['numpy']}, "
          f"threads {env['thread_env'] or 'unset'}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    for name, value in record["report"].items():
        print(f"{name} {value} {REPORT_UNITS[name]}")
    for p in record["passes"]:
        for rep in p["items"]:
            for f in rep["failures"]:
                print(f"FAILED {rep['id']}: {f}")
    print(json.dumps(result))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "constacyclic" / "__init__.py").is_file():
        print(f"no constacyclic sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    items = workloads.items_for(args.workload, args.seed)
    try:
        result, record = measure(root, args.workload, items, args.seconds,
                                 bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 3
    record.update(seed=args.seed, seconds=args.seconds, items=items)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_result(result, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
