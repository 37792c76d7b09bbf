import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import kreisslab
import kreisslab.cli
from kreisslab.cli import main
from kreisslab.reproduce import CANONICAL_CATALOG, REPRODUCIBLE_IDS


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
        # ergces' mean sweeps at n_max = 4 also fall below kreiss_C.
        means = [r["constant"] for r in rest if r["check_id"] == "mean-sweep-below-kreiss"]
        assert means == (["ukb_C", "kb2_C"] if flagged else [])
        flags = [(r["check_id"], r["status"], r["value"], r["r"]) for r in rest
                 if r["check_id"] != "mean-sweep-below-kreiss"]
        assert flags == ([("kreiss-sup-on-inner-radius", "info", report["kreiss_C"], radius)]
                         if flagged else [])


def test_a_mean_constant_below_kreiss_c_is_recorded(tmp_path):
    # (r-1) ||R(r mu)|| <= sup_n ||M_n(conj(mu) T)|| by Abel summation, and the
    # same for the second means: ergces 20's ukb_C 7.39 and kb2_C 5.87 sit
    # below its kreiss_C 54.36, tzblock 16's 9.61 and 7.62 above its 6.03.
    for name, trunc, expected in (("ergces", "20", ["ukb_C", "kb2_C"]), ("tzblock", "16", [])):
        out = tmp_path / name
        assert main(["kreiss", "--operator", name, "--trunc", trunc, "--out", str(out)]) == 0
        report, *rest = read_report(out)["results"]
        assert report["check_id"] == "kreiss-report"
        below = [r for r in rest if r["check_id"] == "mean-sweep-below-kreiss"]
        assert [r["constant"] for r in below] == expected
        for record in below:
            assert record["status"] == "info"
            assert record["kreiss_C"] == report["kreiss_C"]
            assert record["value"] == report[record["constant"]] < report["kreiss_C"]


#: kreiss command-line flags of each catalog entry's parameters.
CATALOG_FLAGS = {
    "tn": lambda p: ["--trunc", str(p["n"]), "--eta", str(p["eta"])],
    "shields": lambda p: ["--epsilon", str(p["epsilon"]), "--eta", str(p["eta"]),
                          "--nmax-sum", str(p["n_max"])],
    "bermbmp": lambda p: ["--eta", str(p["alpha"]), "--direction", p["direction"],
                          "--trunc", str(p["d"])],
    "ergces": lambda p: ["--trunc", str(p["j_max"])],
    "tzblock": lambda p: ["--trunc", str(p["d"])],
}


def test_mean_sweep_records_follow_from_each_catalog_report(tmp_path):
    # Consistency record A on every catalog entry: the report's own
    # kreiss_C, ukb_C and kb2_C decide which records must be present.
    emitted = {}
    for name, params in CANONICAL_CATALOG:
        out = tmp_path / name
        assert main(["kreiss", "--operator", name, *CATALOG_FLAGS[name](params), "--n-max", "8",
                     "--k-max", "2", "--angles", "8", "--out", str(out)]) == 0
        report, *rest = read_report(out)["results"]
        assert report["check_id"] == "kreiss-report"
        assert report["n_max"] == 8 and report["angle_count"] == 8
        kreiss_c = report["kreiss_C"]
        expected = [("info", report[constant], constant, kreiss_c)
                    for constant in ("ukb_C", "kb2_C")
                    if report[constant] < kreiss_c * (1.0 - 1e-9)]
        got = [(r["status"], r["value"], r["constant"], r["kreiss_C"]) for r in rest
               if r["check_id"] == "mean-sweep-below-kreiss"]
        assert got == expected
        emitted[name] = [constant for *_, constant, _ in got]
    # At n_max = 8 both ergces means and tzblock's second mean fall below
    # kreiss_C; the shifts' means stay above it.
    assert emitted == {"tn": [], "shields": [], "bermbmp": [], "ergces": ["ukb_C", "kb2_C"],
                       "tzblock": ["kb2_C"]}


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



@pytest.mark.parametrize("argv, message", [
    (["kreiss", "--operator", "tzblock", "--trunc", "4", "--n-max", "-1", "--k-max", "1",
      "--angles", "4"], "n_max"),
    (["claims", "--operator", "tzblock", "--trunc", "4", "--angles", "0"], "angle count"),
    (["claims", "--operator", "tzblock", "--trunc", "4", "--n-max", "8", "--angles", "4",
      "--k-max", "3", "--probes", "2"], "power of two"),
    (["kreiss", "--operator", "tzblock", "--trunc", "4", "--angles", "0"], "angle count"),
    (["claims", "--operator", "tzblock", "--trunc", "4", "--n-max", "-1"], "n_max"),
    (["claims", "--operator", "tzblock", "--trunc", "4", "--probes", "0"], "probe"),
    (["claims", "--operator", "tzblock", "--trunc", "4", "--probes", "-2"], "probe"),
    (["kreiss", "--operator", "tzblock", "--trunc", "4", "--radii", "inf"], "finite"),
    (["kreiss", "--operator", "tzblock", "--trunc", "4", "--radii", "1.5,nan"], "finite"),
    (["kreiss", "--operator", "tzblock", "--trunc", "4", "--radii", ","], "radii"),
])
def test_invalid_sweep_settings_exit_2_and_write_no_report(tmp_path, capsys, monkeypatch, argv,
                                                           message):
    # Each once produced a report: from the n = 0 cell alone, from a NaN
    # grid (exit 3), from a ladder cut short below its stated top, with no
    # probe and no claim checked, or from the default radii in place of an
    # empty list; or it was rejected only after a sweep, or ended in a
    # traceback from a non-finite radius.
    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before the settings were checked")

    for name in ("kreiss_constant", "kb2_constant", "run_hilbert_claims"):
        monkeypatch.setattr(kreisslab.cli, name, sweep)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv, out", [
    (["construct", "--operator", "tn"], "taken"),
    (["reproduce", "thm1.5"], "taken/sub"),
    (["kreiss", "--operator", "tzblock", "--trunc", "4", "--angles", "4"], "taken"),
], ids=["construct", "reproduce", "kreiss"])
def test_an_unusable_out_exits_2_before_any_sweep(tmp_path, capsys, monkeypatch, argv, out):
    # Each once ended in a FileExistsError or NotADirectoryError traceback
    # (exit 1, "a check failed"), kreiss only after its whole sweep.
    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before --out was checked")

    for name in ("spectral_norm", "kreiss_constant", "kb2_constant", "reproduce"):
        monkeypatch.setattr(kreisslab.cli, name, sweep)
    (tmp_path / "taken").write_text("kept")
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: --out") and "is not a directory" in line
    assert (tmp_path / "taken").read_text() == "kept"


def test_an_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(kreisslab.cli.os, "access", lambda path, mode: False)
    out = tmp_path / "new"
    assert main(["construct", "--operator", "tn", "--trunc", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {out}: {tmp_path} is not writable\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["claims", "--operator", "tn", "--trunc", "8", "--probes", "2", "--k-max", "4", "--seed", "-1"],
    ["reproduce", "thm1.5", "--seed", "-1"],
    ["reproduce", "thm2.7-claims", "--seed", "-3"],
    ["construct", "--operator", "tzblock", "--trunc", "4", "--seed", "-1"],
], ids=["claims", "thm1.5", "thm2.7-claims", "construct"])
def test_a_negative_seed_exits_2_before_any_sweep(tmp_path, capsys, monkeypatch, argv):
    # numpy's seeded generators reject a negative seed: the claims and
    # reproduce runs ended in a ValueError traceback (exit 1, "a check
    # failed"), claims only after its whole kb2_constant sweep.
    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before --seed was checked")

    for name in ("spectral_norm", "kb2_constant", "run_hilbert_claims", "reproduce"):
        monkeypatch.setattr(kreisslab.cli, name, sweep)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: --seed must be non-negative, got {argv[-1]}"
    assert not out.exists()


def test_claims_reject_a_negative_seed():
    with pytest.raises(kreisslab.ValidationError):
        kreisslab.run_hilbert_claims(kreisslab.build_tz_block(4), 1.0, n_probes=2, n_top=4, seed=-1)


def test_reproduce_rejects_a_negative_seed_before_writing(tmp_path, monkeypatch):
    # It ended in numpy's ValueError ("expected non-negative integer").
    import kreisslab.reproduce as r

    def runner(seed):
        raise AssertionError("an experiment ran before its seed was checked")

    monkeypatch.setitem(r.RUNNERS, "thm1.5", runner)
    out = tmp_path / "out"
    with pytest.raises(kreisslab.ValidationError, match="seed must be non-negative, got -1"):
        r.reproduce("thm1.5", out, seed=-1)
    assert not out.exists()


@pytest.mark.parametrize("seed", [2.5, "7"])
def test_claims_reject_a_non_integral_seed(seed, monkeypatch):
    # They ended in numpy's TypeError ("SeedSequence expects int") or in a failed `<`.
    def orbits(*args):
        raise AssertionError("orbits were stepped before the seed was checked")

    monkeypatch.setattr(kreisslab.kreiss, "orbit_norms", orbits)
    with pytest.raises(kreisslab.ValidationError, match="seed must be an integer"):
        kreisslab.run_hilbert_claims(kreisslab.build_tz_block(4), 1.0, n_probes=2, n_top=4,
                                     seed=seed)


@pytest.mark.parametrize("seed", [2.5, "7"])
def test_reproduce_rejects_a_non_integral_seed_before_running(seed, tmp_path, monkeypatch):
    # thm2.4 ran its whole mean sweep before numpy's TypeError ("seed must be integer").
    import kreisslab.reproduce as r

    def runner(seed):
        raise AssertionError("an experiment ran before its seed was checked")

    monkeypatch.setitem(r.RUNNERS, "thm2.4", runner)
    out = tmp_path / "out"
    with pytest.raises(kreisslab.ValidationError, match="seed must be an integer"):
        r.reproduce("thm2.4", out, seed=seed)
    assert not out.exists()


def test_prop35_reads_its_norms_from_the_checked_stream():
    # ergces-power-decay reads ||T^32|| and ||T^256|| from the stream that
    # is checked against the closed form: the values of power_norms, bit for bit.
    # Its even means are that stream's sums times the reciprocal of n + 1,
    # which is what cesaro_mean computes.
    from kreisslab.cesaro import _dense_norm
    from kreisslab.reproduce import _prop35

    op = kreisslab.build_ergces(20)
    records, tables = _prop35(kreisslab.SEED)
    (decay,) = [r for r in records if r.check_id == "ergces-power-decay"]
    norms = kreisslab.power_norms(op, 256).values[[31, 255]]
    assert decay.value == float(norms[1]) / 256.0
    assert decay.bound == float(norms[0]) / 32.0 / 2.0
    _, rows = tables["even_means.csv"]
    means = [kreisslab.cesaro_mean(op, 2 * k).matrix for k in range(1, 129)]
    assert rows == [(k, _dense_norm(mean)) for k, mean in enumerate(means, 1)]


def test_claims_reject_a_negative_probe_count():
    with pytest.raises(kreisslab.ValidationError):
        kreisslab.run_hilbert_claims(kreisslab.build_tz_block(4), 1.0, n_probes=-1, n_top=4)
    assert kreisslab.run_hilbert_claims(kreisslab.build_tz_block(4), 1.0, n_probes=0,
                                        n_top=4) == []

def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # A shift of dimension 600 > SVD_CAP is normed by power iteration alone;
    # a stall is a clean error line and exit 3, not a traceback.
    monkeypatch.setattr(kreisslab.operators, "_power_iteration",
                        lambda *args, **kwargs: (1.0, 0.5, 300, False))
    code = main(["construct", "--operator", "tn", "--trunc", "300", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: power iteration stalled")


@pytest.mark.parametrize("argv", [
    ["claims", "--operator", "tn", "--trunc", "8", "--eta", "0.3", "--k-max", "16",
     "--probes", "4"],
    ["reproduce", "thm2.7-claims"],
])
def test_a_non_finite_orbit_norm_exits_3_with_no_report(tmp_path, capsys, monkeypatch, argv):
    # Once a NaN at ||T^3 x|| reached the report writer: exit 2 and an empty --out.
    real = kreisslab.kreiss.orbit_norms

    def poisoned(*args):
        orbits = real(*args)
        orbits[1, 3] = np.nan
        return orbits

    monkeypatch.setattr(kreisslab.kreiss, "orbit_norms", poisoned)
    assert main([*argv, "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: orbit norm ||T^3 x|| of probe 1 is not finite (nan)"]
    assert "Traceback" not in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []


def test_long_strong_chain_near_the_circle_stays_finite(tmp_path):
    # At lam = -r, r - 1 = 2^-12, R^85 of ergces 20 overflows, but every
    # strong term (r-1)^k ||R^k|| is finite: the sweep powers the scaled
    # inverse (r-1) R, so the run ends cleanly and warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["kreiss", "--operator", "ergces", "--trunc", "20",
                     "--radii", "1.000244140625", "--angles", "2", "--k-max", "100",
                     "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path)["results"][0]
    for name in ("kreiss_C", "ukb_C", "kb2_C", "strong_C"):
        assert math.isfinite(report[name]), name
    assert report["strong_C"] >= report["kreiss_C"]


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
    # The first resolvent inverse fails: the point leaves both sweeps and must
    # surface in the report once per sweep, not only lower strong_C and kreiss_C unseen.
    def fail_first(fn, error):
        calls = []

        def wrapped(*args):
            calls.append(args)
            if len(calls) == 1:
                raise error
            return fn(*args)
        return wrapped

    monkeypatch.setattr(np.linalg, "inv", fail_first(np.linalg.inv, np.linalg.LinAlgError()))
    code = main(["kreiss", "--operator", "ergces", "--trunc", "6", "--n-max", "8",
                 "--out", str(tmp_path)])
    report = read_report(tmp_path)
    skipped = [r for r in report["results"] if r["check_id"] == "skipped-grid-point"]
    assert [(r["sweep"], r["r"], r["angle"], r["status"]) for r in skipped] == [
        ("kreiss", 1.5, 0.0, "skipped"),
        ("strong", 1.5, 0.0, "skipped"),
    ]
    assert report["results"][0]["skipped"] == [[1.5, [1.0, 0.0]]]
    # kreiss-report, kreiss-sup-on-inner-radius (ergces peaks there), the two
    # mean-sweep-below-kreiss records (ukb_C and kb2_C at n_max = 8) and the two skipped points
    assert report["summary"]["no_verdict"] == 6
    assert code == 0  # no definite check failed; the gaps are recorded as no-verdict
