import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import kreisslab
from kreisslab.cli import main
from kreisslab.reproduce import REPRODUCIBLE_IDS


def read_report(path):
    return json.loads((path / "report.json").read_text())


def test_construct_writes_report(tmp_path):
    code = main(["construct", "--operator", "tn", "--trunc", "8", "--eta", "0.3",
                 "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path)
    assert report["config"]["operator"] == "tn"
    assert report["config"]["params"] == {"n": 8, "eta": 0.3}
    assert report["summary"]["all_passed"] is True


def test_powers_csv_columns(tmp_path):
    code = main(["powers", "--operator", "tn", "--trunc", "8", "--eta", "0.3",
                 "--k-max", "15", "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "powers.csv").read_text().splitlines()[0]
    assert header == "k,norm,method"


def test_cesaro_csv_columns(tmp_path):
    code = main(["cesaro", "--operator", "ergces", "--trunc", "8", "--n-max", "16",
                 "--angles", "4", "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "means.csv").read_text().splitlines()
    assert lines[0] == "n,norm_M1,norm_M2,sup_lambda"
    assert len(lines) == 18  # header plus n = 0..16


def test_growth_csv_columns(tmp_path):
    code = main(["growth", "--operator", "shields", "--epsilon", "0.15", "--eta", "0.45",
                 "--nmax-sum", "16", "--k-max", "40", "--window", "2", "30",
                 "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    header, *lines = (tmp_path / "growth.csv").read_text().splitlines()
    assert header == "k,norm,lower_bound,pass"
    # The truncation certifies k <= 30; past it the pass column stays empty.
    passes = [line.split(",")[3] for line in lines]
    assert passes == ["true"] * 30 + [""] * 10


def test_growth_exits_one_on_a_broken_envelope(tmp_path, monkeypatch):
    def halved(spec, k_max):
        series = kreisslab.power_norms(spec, k_max)
        return kreisslab.NormSeries(series.k, series.values / 2.0, series.methods)

    monkeypatch.setattr(kreisslab.cli, "power_norms", halved)
    code = main(["growth", "--operator", "shields", "--nmax-sum", "16", "--k-max", "30",
                 "--window", "2", "30", "--out", str(tmp_path)])
    assert code == 1
    report = read_report(tmp_path)
    [envelope] = [r for r in report["results"] if r["check_id"] == "shields-lower-bound"]
    assert envelope["status"] == "fail"
    assert envelope["value"] < 0.0
    assert report["summary"]["failed"] == 1


def test_growth_gates_the_envelope_like_thm25(tmp_path):
    assert main(["growth", "--operator", "shields", "--nmax-sum", "64", "--k-max", "126",
                 "--format", "csv", "--out", str(tmp_path / "growth")]) == 0
    assert main(["reproduce", "thm2.5", "--out", str(tmp_path / "thm25")]) == 0

    def envelope(name):
        return [r for r in read_report(tmp_path / name)["results"]
                if r["check_id"] == "shields-lower-bound"]

    assert envelope("growth") == envelope("thm25")
    assert envelope("growth")[0]["status"] == "pass"
    growth_csv = (tmp_path / "growth" / "growth.csv").read_bytes()
    assert growth_csv == (tmp_path / "thm25" / "growth.csv").read_bytes()


def test_kreiss_constants_table(tmp_path):
    code = main(["kreiss", "--operator", "tn", "--trunc", "4", "--eta", "0.3",
                 "--n-max", "16", "--k-max", "4", "--angles", "4",
                 "--radii", "1.5,1.25,1.125", "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "constants.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["kreiss_C", "ukb_C", "kb2_C", "kb2_sum_C", "strong_C"]


def test_kreiss_flags_a_sup_on_the_innermost_radius(tmp_path):
    # ergces peaks at the innermost radius (its sup lies beyond the grid),
    # tzblock 4 inside the grid at r = 1.5.
    for name, trunc, radius, flagged in (("ergces", "6", 1.000244140625, True),
                                         ("tzblock", "4", 1.5, False)):
        out = tmp_path / name
        assert main(["kreiss", "--operator", name, "--trunc", trunc, "--n-max", "4",
                     "--k-max", "2", "--angles", "8", "--out", str(out)]) == 0
        report, *rest = read_report(out)["results"]
        assert report["kreiss_C_radius"] == radius
        assert (radius == min(report["radii"])) == flagged
        flags = [(r["check_id"], r["status"], r["value"], r["r"]) for r in rest]
        assert flags == ([("kreiss-sup-on-inner-radius", "info", report["kreiss_C"], radius)]
                         if flagged else [])


def test_claims_exit_zero(tmp_path):
    code = main(["claims", "--operator", "tn", "--trunc", "8", "--eta", "0.3",
                 "--n-max", "32", "--k-max", "16", "--probes", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path)
    assert report["summary"]["failed"] == 0
    assert report["summary"]["vacuous_pass"] > 0


def test_reproduce_smoke(tmp_path):
    assert main(["reproduce", "thm2.5", "--out", str(tmp_path / "a")]) == 0
    names = {p.name for p in (tmp_path / "a").iterdir()}
    assert names == {"report.json", "growth.csv"}


def test_reproduce_shift_norm_experiment(tmp_path):
    assert main(["reproduce", "thm2.4", "--out", str(tmp_path)]) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {"tn_norms.csv", "tn_means.csv", "report.json"} <= names
    report = read_report(tmp_path)
    assert report["summary"]["failed"] == 0


def test_reproduce_lemma(tmp_path):
    assert main(["reproduce", "lemma2.1", "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    statuses = [r.get("status") for r in report["results"]]
    assert "hypothesis-diverged" in statuses


def test_reproduce_unknown_id(tmp_path):
    assert main(["reproduce", "thm9.9", "--out", str(tmp_path)]) == 2


def test_reproduce_covers_every_supported_experiment():
    assert set(REPRODUCIBLE_IDS) == {
        "thm2.4", "thm2.5", "thm2.7-claims", "thm2.8",
        "prop3.5", "ex2.9", "lemma2.1", "thm1.5",
    }


def test_reports_byte_identical_across_runs(tmp_path):
    argv = ["powers", "--operator", "bermbmp", "--eta", "0.3", "--trunc", "12",
            "--k-max", "11", "--format", "csv"]
    main(argv + ["--out", str(tmp_path / "a")])
    main(argv + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "powers.csv").read_bytes() == (
        tmp_path / "b" / "powers.csv"
    ).read_bytes()
    # the out path is part of the configuration, so byte-identity of the
    # JSON document is asserted for repeated runs into the same directory
    json_argv = ["reproduce", "lemma2.1", "--out", str(tmp_path / "c")]
    main(json_argv)
    first = (tmp_path / "c" / "report.json").read_bytes()
    main(json_argv)
    assert (tmp_path / "c" / "report.json").read_bytes() == first


def test_ex29_outputs_byte_identical_across_runs(tmp_path):
    argv = ["reproduce", "ex2.9", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = {name: (tmp_path / name).read_bytes() for name in ("report.json", "tz_growth.csv")}
    assert main(argv) == 0
    for name, data in first.items():
        assert (tmp_path / name).read_bytes() == data, name
    ids = [r["check_id"] for r in read_report(tmp_path)["results"]]
    assert "tz-norm-dense-oracle" in ids and "tz-growth-vs-kreiss-rate" in ids


#: Records OPENBLAS_NUM_THREADS at the moment numpy is first imported.
_SEE_NUMPY_LOAD = """
import os, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and "seen" not in globals():
            globals()["seen"] = os.environ.get("OPENBLAS_NUM_THREADS")
        return None

sys.meta_path.insert(0, Spy())
import kreisslab
print(seen)
"""


def test_thread_cap_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["KREISSLAB_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(kreisslab.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _SEE_NUMPY_LOAD], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1"]


def test_reproduce_names_the_submodule():
    import kreisslab.reproduce as r

    assert isinstance(r, types.ModuleType)
    assert callable(r.reproduce)


def test_validation_error_exit_code(tmp_path, capsys):
    code = main(["construct", "--operator", "tn", "--trunc", "4", "--eta", "0.9",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # A shift of dimension 600 > SVD_CAP is normed by power iteration alone;
    # a stall is a clean error line and exit 3, not a traceback.
    monkeypatch.setattr(kreisslab.operators, "_power_iteration",
                        lambda *args, **kwargs: (1.0, 0.5, 300, False))
    code = main(["construct", "--operator", "tn", "--trunc", "300", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: power iteration stalled")


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_non_finite_matrix_norm_exit_code(tmp_path, capsys):
    # At lam = -r, r - 1 = 2^-12, the strong sweep's resolvent powers of
    # ergces 20 overflow by R^85: the norm policy raises ConvergenceError,
    # a clean error line and exit 3, not a traceback.
    code = main(["kreiss", "--operator", "ergces", "--trunc", "20",
                 "--radii", "1.000244140625", "--angles", "2", "--k-max", "100",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: matrix has non-finite entries") and "Traceback" not in err


def test_tz_block_above_the_svd_cap_is_normed(tmp_path):
    # d = 1024 > SVD_CAP, with top singular values too clustered for a power
    # iteration to separate: the Gram eigensolve norms it.
    code = main(["construct", "--operator", "tzblock", "--trunc", "512",
                 "--out", str(tmp_path)])
    assert code == 0
    value = read_report(tmp_path)["results"][0]["value"]
    assert 2.414 <= value <= 1.0 + np.sqrt(2.0)


def test_csv_runs_keep_every_verdict(tmp_path):
    args = ["kreiss", "--operator", "ergces", "--trunc", "6", "--n-max", "8"]
    assert main(args + ["--out", str(tmp_path / "json")]) == 0
    assert main(args + ["--format", "csv", "--out", str(tmp_path / "csv")]) == 0
    json_run = read_report(tmp_path / "json")
    csv_run = read_report(tmp_path / "csv")
    assert csv_run["results"] == json_run["results"]
    assert csv_run["summary"] == json_run["summary"]
    assert (tmp_path / "csv" / "constants.csv").exists()
    assert not (tmp_path / "json" / "constants.csv").exists()


def _gate_holds(record) -> bool:
    value, op, bound, slack = (record[k] for k in ("value", "op", "bound", "slack"))
    margin = bound - value if op[0] == "<" else value - bound
    assert record["margin"] == margin
    if op in ("<", ">"):
        assert slack == 0.0
        return margin > 0.0
    return margin >= -slack * abs(bound)


@pytest.mark.parametrize("argv", [
    ["reproduce", "thm2.4"],
    ["reproduce", "thm2.5"],
    ["reproduce", "thm2.8"],
    ["reproduce", "prop3.5"],
    ["reproduce", "lemma2.1"],
    ["reproduce", "thm1.5"],
    ["kreiss", "--operator", "ergces", "--trunc", "6", "--n-max", "8"],
    ["claims", "--operator", "tn", "--trunc", "8", "--eta", "0.3", "--n-max", "32",
     "--k-max", "16", "--probes", "4"],
    ["growth", "--operator", "shields", "--nmax-sum", "16", "--k-max", "30", "--window", "2", "30"],
    ["reproduce", "ex2.9"],
])
def test_every_verdict_is_its_recorded_gate(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    results = read_report(tmp_path)["results"]
    for record in results:
        assert "passed" not in record
        if record["status"] in ("pass", "fail"):
            assert record["op"] in ("<=", "<", ">=", ">"), record["check_id"]
        if record["op"] is not None:
            expected = "pass" if _gate_holds(record) else "fail"
            assert record["status"] == expected, record["check_id"]
    if argv[0] == "reproduce":
        assert any(r["op"] is not None for r in results)


def test_skipped_grid_points_become_no_verdict_records(tmp_path, monkeypatch):
    # The first resolvent of each sweep fails; both points must surface in
    # the report, not only lower strong_C and kreiss_C unseen.
    def fail_first(fn, error):
        calls = []

        def wrapped(*args):
            calls.append(args)
            if len(calls) == 1:
                raise error
            return fn(*args)
        return wrapped

    monkeypatch.setattr(np.linalg, "inv", fail_first(np.linalg.inv, np.linalg.LinAlgError()))
    monkeypatch.setattr(kreisslab.kreiss, "resolvent_norm",
                        fail_first(kreisslab.kreiss.resolvent_norm, kreisslab.SingularError()))
    code = main(["kreiss", "--operator", "ergces", "--trunc", "6", "--n-max", "8",
                 "--out", str(tmp_path)])
    report = read_report(tmp_path)
    skipped = [r for r in report["results"] if r["check_id"] == "skipped-grid-point"]
    assert [(r["sweep"], r["r"], r["angle"], r["status"]) for r in skipped] == [
        ("kreiss", 1.5, 0.0, "skipped"),
        ("strong", 1.5, 0.0, "skipped"),
    ]
    assert report["results"][0]["skipped"] == [[1.5, [1.0, 0.0]], [1.5, [1.0, 0.0]]]
    # kreiss-report, kreiss-sup-on-inner-radius (ergces peaks there) and the two skipped points
    assert report["summary"]["no_verdict"] == 4
    assert code == 0  # no definite check failed; the gaps are recorded as no-verdict
