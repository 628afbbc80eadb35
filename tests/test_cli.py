import json

import pytest

from constacyclic import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


def test_construct_worked_examples(capsys):
    code, obj = run_json(["construct", "--family", "qweight", "--q", "5",
                          "--m", "3", "--ell", "0", "--preset", "paper"],
                         capsys)
    assert code == 0
    assert obj["g_pretty"] == "x^3 + 3x + 3"
    assert obj["k"] == 28

    code, obj = run_json(["construct", "--family", "parity", "--q", "3",
                          "--m", "2", "--i", "1"], capsys)
    assert code == 0
    assert obj["k"] == 2 and obj["descriptor"]["n"] == 4

    code, obj = run_json(["construct", "--family", "s4", "--q", "3", "--m", "4",
                          "--selectors", "0,2", "--preset", "paper"], capsys)
    assert code == 0
    assert obj["defining_set"] == [1, 3, 9, 17, 23, 25, 27, 35, 41, 43, 47,
                                   49, 51, 59, 61, 65, 67, 69, 73, 75]


def test_construct_bad_params_exit_2(capsys):
    assert cli.main(["construct", "--family", "s1", "--q", "3", "--m", "4"]) == 2
    err = capsys.readouterr().err
    assert "odd m >= 5" in err


def test_certify_exact_exit_0(capsys):
    code, obj = run_json(["certify", "--family", "parity", "--q", "3",
                          "--m", "3", "--i", "1"], capsys)
    assert code == 0
    assert obj["result"]["exact"] is True
    assert obj["result"]["lower"] == 6


def test_certify_budget_exhaustion_exit_3(capsys):
    code, obj = run_json(["certify", "--family", "parity", "--q", "3",
                          "--m", "4", "--i", "1", "--budget", "0"], capsys)
    assert code == 3
    assert obj["result"]["exact"] is False
    assert obj["result"]["lower"] == 9  # progression bounds still reported


def test_field_and_cosets(capsys):
    code, obj = run_json(["field", "--q", "3", "--m", "2", "--r", "2",
                          "--preset", "paper"], capsys)
    assert code == 0
    assert obj["lambda"] == 2 and obj["n"] == 4
    assert obj["tower"]["modulus"] == [2, 2, 1]

    code, obj = run_json(["cosets", "--q", "3", "--m", "2", "--r", "2"], capsys)
    assert code == 0
    assert obj["gamma1"] == [1, 5]
    assert obj["cosets"] == {"1": [1, 3], "5": [5, 7]}


def test_deterministic_output(capsys):
    argv = ["construct", "--family", "qweight", "--q", "3", "--m", "3",
            "--ell", "1"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second


def test_selfdual_scan(capsys):
    code, obj = run_json(["selfdual-scan", "--m", "4"], capsys)
    assert code == 0
    assert obj["checked"] == 4
    assert all(inst["self_dual"] for inst in obj["instances"])
    assert all(inst["k"] == 20 for inst in obj["instances"])


def test_output_formats_and_file(tmp_path, capsys):
    out = tmp_path / "field.json"
    code = cli.main(["field", "--q", "3", "--m", "2", "--r", "2",
                     "--out", str(out)])
    assert code == 0 and json.loads(out.read_text())["n"] == 4

    code, text = run(["field", "--q", "3", "--m", "2", "--r", "2",
                      "--format", "text"], capsys)
    assert code == 0 and "lambda: 2" in text

    code, text = run(["field", "--q", "3", "--m", "2", "--r", "2",
                      "--format", "csv"], capsys)
    assert code == 0 and "lambda" in text


def test_table_small_budget_smoke(capsys):
    # tiny budget: every heavy row degrades to reconciliation, exit stays 0,
    # and no row's pair of certificates spends past the budget
    budget = 2_000_000
    code, obj = run_json(["table", "--id", "1", "--budget", str(budget)],
                         capsys)
    assert code == 0
    rows = obj["rows"]
    assert [r["published"] for r in rows][:3] == [[4, 2, 3], [13, 6, 6],
                                                  [40, 20, 9]]
    for row in rows:
        assert row["matches_published"]
        assert row["k"] == row["published"][1]
        spent = sum(e["ops"] for side in ("distance", "dual_distance")
                    for e in row[side]["method_trace"])
        assert spent <= budget, (row["published"], spent)
    small = next(r for r in rows if r["published"] == [4, 2, 3])
    assert small["distance"]["exact"] and small["distance"]["lower"] == 3


def test_table_csv(capsys):
    code, text = run(["table", "--id", "1", "--budget", "1000",
                      "--format", "csv"], capsys)
    assert code == 0
    assert text.splitlines()[0].startswith("q,m,published")
    assert len(text.splitlines()) == 8


def test_construct_descriptor_feeds_loader(capsys):
    from constacyclic.codes import code_from_descriptor

    code, obj = run_json(["construct", "--family", "s3", "--q", "3", "--m", "4",
                          "--ell", "0", "--preset", "paper"], capsys)
    assert code == 0
    rebuilt = code_from_descriptor(obj["descriptor"])
    assert list(rebuilt.g.codes()) == obj["g"]["coeffs"]
    assert rebuilt.k == obj["k"]


def test_certify_row_extended_probe_budget(capsys):
    from constacyclic import families as F
    from constacyclic.distance import certify_pair

    params = F.FamilyParams(family="parity", q=3, m=4, i=1)
    code = F.family_code(params)
    hints = F.closed_form_bounds(params)
    # budget too small to enumerate; the prefix probe, within a hundredth
    # of the budget, reaches a word of the proven weight 9
    res, dres = certify_pair(code, hints, hints.dual_view(),
                             op_budget=10 ** 8)
    assert res.exact and res.lower == res.upper == 9
    probe = [o for m, o, _ in res.method_trace if m == "prefix-probe"]
    assert probe == [787_320]
    assert sum(o for c in (res, dres) for _, o, _ in c.method_trace) <= 10 ** 8


def test_certify_extended_raises_prefix_cap(capsys):
    # [57,36] q=7 stays open at [7,12], so the probe never stops early and
    # a larger --budget lets it span more generator rows, within budget // 100
    argv = ["certify", "--family", "qweight", "--q", "7", "--m", "3",
            "--ell", "2", "--budget"]
    for budget, probe in ((100_000_000_000, 93_883_902),
                          (300_000_000_000, 422_477_559)):
        code, obj = run_json(argv + [str(budget)], capsys)
        assert code == 3
        result = obj["result"]
        assert (result["lower"], result["upper"]) == (7, 12)
        trace = result["method_trace"]
        assert [e["ops"] for e in trace
                if e["method"] == "prefix-probe"] == [probe]
        assert probe <= budget // 100
        assert sum(e["ops"] for e in trace) <= budget


def test_scripts_smoke(tmp_path):
    assert cli.main(["selfdual-scan", "--m", "4",
                     "--out", str(tmp_path / "scan.json")]) == 0
    blob = json.loads((tmp_path / "scan.json").read_text())
    assert blob["checked"] == 4


def test_table_mismatch_exit_4(capsys, monkeypatch):
    from constacyclic import tables

    wrong = ((3, 2, (4, 2, 2), "optimal linear code",
              (4, 2, 3), "optimal linear code"),)
    monkeypatch.setattr(tables, "TABLE1", wrong)
    code, obj = run_json(["table", "--id", "1"], capsys)
    assert code == 4
    assert obj["rows"][0]["matches_published"] is False


def test_unknown_family_flag_exits_2(capsys):
    assert cli.main(["construct", "--family", "bogus", "--q", "3",
                     "--m", "3"]) == 2
    capsys.readouterr()


def test_non_primitive_modulus_exits_2(capsys):
    code = cli.main(["field", "--q", "3", "--m", "2", "--r", "2",
                     "--modulus", "1,0,1"])
    assert code == 2
    assert "order" in capsys.readouterr().err


def test_budget_accepts_exact_scientific_form(capsys):
    argv = ["certify", "--family", "parity", "--q", "3", "--m", "3",
            "--i", "1", "--budget"]
    code, plain = run(argv + ["200000000000"], capsys)
    assert code == 0
    assert run(argv + ["2e11"], capsys) == (code, plain)


@pytest.mark.parametrize("argv", [
    ["certify", "--family", "parity", "--q", "3", "--m", "3", "--i", "1",
     "--budget", "-5"],
    ["certify", "--family", "parity", "--q", "3", "--m", "3", "--i", "1",
     "--budget", "1.5"],
    ["selfdual-scan", "--m", "4", "--sample", "-1"],
])
def test_negative_or_fractional_counts_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    assert "non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cosets", "--q", "3", "--m", "2", "--r", "2", "--modulus", "2,2,1"],
    ["table", "--id", "1", "--preset", "paper"],
    ["construct", "--family", "parity", "--q", "3", "--m", "3", "--i", "1",
     "--budget", "5"],
    ["selfdual-scan", "--m", "4", "--q", "3"],
])
def test_flags_a_subcommand_does_not_read_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
