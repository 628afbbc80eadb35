"""Fast self-check of the benchmark on its smallest items.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL_ITEMS = [
    {"id": "T1r0", "kind": "table", "table": 1, "row": 0},
    {"id": "T2r7-dual", "kind": "certify", "table": 2, "row": 7,
     "side": "dual"},
    {"id": "qw-q3m3l1", "kind": "certify-family",
     "family": {"family": "qweight", "q": 3, "m": 3, "ell": 1}},
    {"id": "parity-q3m4", "kind": "construct",
     "family": {"family": "parity", "q": 3, "m": 4, "i": 1},
     "modulus": workloads.random_primitive_modulus(3, 4, random.Random(0))},
]


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _printed(capsys, trace):
    result, record = run.measure(ROOT, "self-check", SMALL_ITEMS, 0, trace)
    run.print_result(result, record)
    lines = capsys.readouterr().out.splitlines()
    return result, json.loads(lines[-1]), lines[:-1]


def test_every_metric_printed_with_its_unit(capsys):
    spec = _benchmark_spec()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, last, lines = _printed(capsys, trace)
        assert last == json.loads(json.dumps(result))
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        assert set(last["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(line.startswith(m["name"] + " ")
                       and line.endswith(" " + m["unit"]) for line in lines)
        for name, unit in run.REPORT_UNITS.items():
            assert any(line.startswith(name + " ")
                       and line.endswith(" " + unit) for line in lines)


def test_corrupted_witness_and_dimension_are_failed_items(monkeypatch):
    real = worker.run_item

    def corrupted(item, tr):
        out = real(item, tr)
        if item["kind"] == "construct":
            out["k"] += 1
            return out
        res = out["certs"][0]
        word = list(res.witness_codeword)
        pos = next(i for i, x in enumerate(word) if x)
        word[pos] = 1 if word[pos] != 1 else 2  # same weight, one symbol off
        out["certs"][0] = dataclasses.replace(res,
                                              witness_codeword=tuple(word))
        return out

    clean = worker.run_pass(SMALL_ITEMS, trace=False)
    assert run.failed_items(clean) == 0
    monkeypatch.setattr(worker, "run_item", corrupted)
    bad = worker.run_pass(SMALL_ITEMS, trace=False)
    assert run.failed_items(bad) == len(SMALL_ITEMS)
