import csv
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
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


@pytest.mark.parametrize("argv, weights", [
    (["--operator", "tn", "--trunc", "64", "--eta", "0.45"], kreisslab.tn_weights(64, 0.45)),
    (["--operator", "bermbmp", "--trunc", "64", "--eta", "0.3", "--direction", "backward"],
     np.arange(1.0, 65.0) ** 0.3),
    # A direct sum lists every shift block's weights at its own coordinates.
    (["--operator", "shields", "--nmax-sum", "20"],
     np.concatenate([kreisslab.tn_weights(n, 0.45) for n in range(1, 21)])),
], ids=["tn", "bermbmp", "shields"])
def test_construct_writes_the_weights_with_w1_one(tmp_path, argv, weights):
    # The running product of the ratios: the catalog weights to rounding.
    assert main(["construct", *argv, "--format", "csv", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "operator.csv").read_text().splitlines()
    assert lines[:2] == ["index,value", "1,1.0"]
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, len(weights) + 1))
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    np.testing.assert_allclose(values, weights, rtol=4e-15, atol=0)


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
    def halved(entry, k_max):
        series = kreisslab.power_norms(entry.spec, k_max)
        return kreisslab.NormSeries(series.k, series.values / 2.0, series.methods)

    monkeypatch.setattr(kreisslab.CatalogEntry, "power_norms", halved)
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


def test_growth_names_the_first_zero_power_in_the_window(tmp_path, capsys):
    # T_N of tn 16 is nilpotent of order 2N = 32, inside the default window (16, 126).
    assert main(["growth", "--operator", "tn", "--trunc", "16", "--out", str(tmp_path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: fit window must contain positive norms only")
    assert "k = 32" in line


def test_kreiss_report_record_is_one_kreiss_report(tmp_path):
    # The record holds exactly KreissReport's fields, besides CheckRecord's own,
    # and its mean constants are kb2_constant's.
    assert main(["kreiss", "--operator", "tzblock", "--trunc", "4", "--angles", "4",
                 "--out", str(tmp_path)]) == 0
    record = read_report(tmp_path)["results"][0]
    assert record["check_id"] == "kreiss-report"
    own = {f.name for f in dataclasses.fields(kreisslab.CheckRecord)} - {"params"}
    assert record.keys() - own == {f.name for f in dataclasses.fields(kreisslab.KreissReport)}
    kb2 = kreisslab.kb2_constant(kreisslab.make_operator("tzblock", d=4).spec, 128, 4)
    for name in ("ukb_C", "kb2_C", "kb2_sum_C", "n_max"):
        assert record[name] == getattr(kb2, name), name


def test_kreiss_constants_table(tmp_path):
    code = main(["kreiss", "--operator", "tn", "--trunc", "4", "--eta", "0.3",
                 "--n-max", "16", "--k-max", "4", "--angles", "4",
                 "--radii", "1.5,1.25,1.125", "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "constants.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["kreiss_C", "kreiss_C_lower", "kreiss_C_upper", "ukb_C", "kb2_C",
                     "kb2_sum_C", "strong_C"]


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
        # ergces' grid sup also lies below its certified lower side (tested below).
        flags = [(r["check_id"], r["status"], r["value"], r["r"]) for r in rest
                 if r["check_id"] not in ("mean-sweep-below-kreiss", "kreiss-grid-missed-sup")]
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


def test_kreiss_report_brackets_the_kreiss_constant(tmp_path):
    # The grid sup is a lower side for every operator.  For ergces J the
    # eigenprojection at -1 gives K >= ||y_J||, far above the grid's 54.36 at
    # J = 20, and the power bound K <= 1 + ||y_J||.
    left = kreisslab.ErgcesParams(20).left_norm
    for name, trunc in (("ergces", "20"), ("tzblock", "16")):
        out = tmp_path / name
        assert main(["kreiss", "--operator", name, "--trunc", trunc, "--format", "csv",
                     "--out", str(out)]) == 0
        report, *rest = read_report(out)["results"]
        assert report["check_id"] == "kreiss-report"
        bracket = [report[key] for key in ("kreiss_C_lower", "kreiss_C_lower_method",
                                           "kreiss_C_upper", "kreiss_C_upper_method")]
        missed = [(r["status"], r["value"], r["kreiss_C_lower"], r["method"]) for r in rest
                  if r["check_id"] == "kreiss-grid-missed-sup"]
        if name == "ergces":
            assert bracket == [left, "eigenprojection", 1.0 + left, "power-bound"]
            assert round(left, 2) == 1210791.27 and round(report["kreiss_C"], 2) == 54.36
            assert missed == [("info", report["kreiss_C"], left, "eigenprojection")]
        else:
            assert bracket == [report["kreiss_C"], "grid", None, None]
            assert missed == []
        with (out / "constants.csv").open(newline="") as handle:
            table = {row["constant"]: row["value"] for row in csv.DictReader(handle)}
        assert list(table) == ["kreiss_C", "kreiss_C_lower", "kreiss_C_upper", "ukb_C", "kb2_C",
                               "kb2_sum_C", "strong_C"]
        assert table["kreiss_C_lower"] == repr(report["kreiss_C_lower"])
        assert table["kreiss_C_upper"] == ("" if report["kreiss_C_upper"] is None
                                           else repr(report["kreiss_C_upper"]))


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
    # TN 8 (dimension 16) vanishes at N = 16: those H2-H4 instances are counted, not passed.
    vacuous = [r for r in report["results"] if r["check_id"] == "claims-vacuous"]
    assert [(r["value"], r["N"]) for r in vacuous] == [(11, [16])]
    assert "vacuous_pass" not in report["summary"]


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


@pytest.mark.parametrize("theorem_id", ["prop3.5", "ex2.9"])
def test_certificate_ids_ignore_the_seed(tmp_path, theorem_id):
    # Nothing in these runs is random: two seeds give the same results and tables.
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        assert main(["reproduce", theorem_id, "--seed", seed, "--out", str(out)]) == 0
        tables = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
        outputs.append((read_report(out)["results"], tables))
    assert outputs[0][1] and outputs[0] == outputs[1]


def test_seeded_ids_fail_no_record_at_seeds_0_and_1():
    # thm2.4, thm2.7-claims and thm1.5 are the ids that read --seed: a gate
    # that held only at the default seed would fail here.
    from kreisslab.reproduce import RUNNERS

    for theorem_id in ("thm2.4", "thm2.7-claims", "thm1.5"):
        for seed in (0, 1):
            records, _ = RUNNERS[theorem_id](seed)
            failed = [r.check_id for r in records if r.status == "fail"]
            assert not failed, (theorem_id, seed, failed)


def test_reproduce_names_the_submodule():
    import kreisslab.reproduce as r

    assert isinstance(r, types.ModuleType)
    assert callable(r.reproduce)


_SUBCOMMAND_LINES = {
    "construct": ["--operator", "bermbmp", "--trunc", "6", "--direction", "backward"],
    "powers": ["--operator", "tn", "--trunc", "8", "--k-max", "5"],
    "cesaro": ["--operator", "tzblock", "--trunc", "4", "--angles", "4", "--order", "2"],
    "kreiss": ["--operator", "tzblock", "--trunc", "4", "--radii", "1.5,2"],
    "claims": ["--operator", "tzblock", "--trunc", "4", "--probes", "2"],
    "growth": ["--operator", "shields", "--nmax-sum", "4", "--window", "2", "6"],
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_LINES))
def test_config_holds_every_parsed_flag(command):
    # The config once left out cesaro --order, claims --probes and
    # growth --window: every parsed dest is a fixed field or an option.
    args = kreisslab.cli.build_parser().parse_args(
        [command, *_SUBCOMMAND_LINES[command], "--seed", "5", "--out", "runs",
         "--format", "csv"])
    entry = kreisslab.cli._operator_entry(args)
    config = kreisslab.cli._config(args, entry)
    fixed = {f.name for f in dataclasses.fields(config)} - {"params", "options"}
    assert not config.options.keys() & fixed
    assert config.params == entry.params
    for dest, value in vars(args).items():
        assert (getattr(config, dest) if dest in fixed else config.options[dest]) == value, dest


@pytest.mark.parametrize("argv, flag, values", [
    (["cesaro", "--operator", "tzblock", "--trunc", "4", "--angles", "4", "--n-max", "8"],
     "--order", (["1"], ["2"])),
    (["claims", "--operator", "tzblock", "--trunc", "4", "--angles", "4", "--n-max", "8",
      "--k-max", "4"], "--probes", (["2"], ["4"])),
    (["growth", "--operator", "ergces", "--trunc", "8", "--k-max", "60"],
     "--window", (["16", "60"], ["20", "60"])),
], ids=["order", "probes", "window"])
def test_configs_differ_with_a_flag(tmp_path, argv, flag, values):
    configs = []
    for i, value in enumerate(values):
        out = tmp_path / str(i)
        assert main([*argv, flag, *value, "--out", str(out)]) == 0
        config = read_report(out)["config"]
        del config["out"]
        configs.append(config)
    assert configs[0] != configs[1]


def test_reproduce_records_the_csv_format_it_writes(tmp_path, monkeypatch):
    import kreisslab.reproduce as r

    monkeypatch.setitem(r.RUNNERS, "thm1.5", lambda seed: ([], {"t.csv": (("a",), [])}))
    assert r.reproduce("thm1.5", tmp_path, seed=3) == 0
    assert (tmp_path / "t.csv").exists()
    assert read_report(tmp_path)["config"] == {
        "command": "reproduce", "operator": "thm1.5", "params": {}, "options": {}, "seed": 3,
        "out": str(tmp_path), "format": "csv"}


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

    for name in ("kreiss_constant", "kb2_constant", "reproduce"):
        monkeypatch.setattr(kreisslab.cli, name, sweep)
    monkeypatch.setattr(kreisslab.CatalogEntry, "power_norms", sweep)
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

    for name in ("kb2_constant", "run_hilbert_claims", "reproduce"):
        monkeypatch.setattr(kreisslab.cli, name, sweep)
    monkeypatch.setattr(kreisslab.CatalogEntry, "power_norms", sweep)
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
    # ergces-power-bound gates ||r_n||^2/n <= 5/3 for the first row r_n of
    # T^n, so ||T^n|| <= 1 + sqrt(5n/3): the stepped power norms lie below it.
    from kreisslab.reproduce import _prop35

    records, _ = _prop35(kreisslab.SEED)
    (bound,) = [r for r in records if r.check_id == "ergces-power-bound"]
    assert bound.status == "pass"
    norms = kreisslab.power_norms(kreisslab.build_ergces(20), 256).values
    for n in (32, 256):
        assert norms[n - 1] < 1.0 + math.sqrt(5.0 * n / 3.0)


def test_claims_reject_a_negative_probe_count():
    with pytest.raises(kreisslab.ValidationError):
        kreisslab.run_hilbert_claims(kreisslab.build_tz_block(4), 1.0, n_probes=-1, n_top=4)
    assert kreisslab.run_hilbert_claims(kreisslab.build_tz_block(4), 1.0, n_probes=0,
                                        n_top=4) == []

def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # A failed Gram eigensolve is a clean error line and exit 3, not a
    # traceback: ergces's norm is _matrix_norm's Gram eigensolve.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code = main(["construct", "--operator", "ergces", "--trunc", "4", "--out", str(tmp_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: Gram eigensolve failed: Eigenvalues did not converge"]
    assert "Traceback" not in captured.out + captured.err


def test_a_stalled_shift_norm_is_not_a_failure(tmp_path, capsys, monkeypatch):
    # thm1.5 norms a backward shift by spectral_norm: the closed form max r_j
    # overrides a stalled estimate, so a stall is not an exit 3.
    monkeypatch.setattr(kreisslab.operators, "_power_iteration",
                        lambda *args, **kwargs: (1.0, 0.5, 300, False))
    code = main(["reproduce", "thm1.5", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    (record,) = [r for r in read_report(tmp_path)["results"] if r["check_id"] == "bermbmp-norm"]
    assert record["status"] == "pass"


def test_construct_is_the_first_power_norm_and_never_iterates(tmp_path, monkeypatch):
    # Each entry reports power_norms(1)[0], its closed form or Gram value: the
    # shift iteration of spectral_norm does not run.
    def refuse(*args, **kwargs):
        raise AssertionError("power iteration ran")

    monkeypatch.setattr(kreisslab.operators, "_power_iteration", refuse)
    assert main(["construct", "--operator", "tn", "--trunc", "300", "--out", str(tmp_path)]) == 0
    value = read_report(tmp_path)["results"][0]["value"]
    spec = kreisslab.build_TN(300, 0.45)
    assert value == kreisslab.power_norms(spec, 1).values[0]
    assert abs(value - spec.ratios.max()) <= 1e-14


@pytest.mark.parametrize("argv", [
    ["construct"],
    ["powers", "--k-max", "80"],
    ["growth", "--k-max", "64", "--window", "16", "64"],
], ids=["construct", "powers", "growth"])
def test_tz_block_commands_form_no_dense_power(tmp_path, monkeypatch, argv):
    # The Sturm count and the closed-form tail norm every tzblock power, so
    # neither a Gram eigensolve nor the dense norm runs, and the entry's
    # params and dimension stand in for its spec, so no block is built:
    # the run writes the bytes of an unpatched one.
    argv = [*argv, "--operator", "tzblock", "--trunc", "64", "--format", "csv",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    expected = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def refuse(*args, **kwargs):
        raise AssertionError("dense norm ran or block built")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(kreisslab.operators, "_matrix_norm", refuse)
    monkeypatch.setattr(kreisslab.constructions, "build_tz_block", refuse)
    assert main(argv) == 0
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == expected


def test_kreiss_builds_the_tz_block_once(tmp_path, monkeypatch):
    # kreiss_constant and kb2_constant read the one cached spec.
    calls, build = [], kreisslab.constructions.build_tz_block
    monkeypatch.setattr(kreisslab.constructions, "build_tz_block",
                        lambda d: calls.append(d) or build(d))
    assert main(["kreiss", "--operator", "tzblock", "--trunc", "4", "--out", str(tmp_path)]) == 0
    assert calls == [4]


@pytest.mark.parametrize("argv", [
    ["kreiss"], ["cesaro"], ["claims"],
], ids=["kreiss", "cesaro", "claims"])
def test_dense_commands_refuse_a_tz_block_above_the_cap_before_building_it(
        tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(kreisslab.operators, "DENSE_CAP", 64)
    calls = []
    monkeypatch.setattr(kreisslab.constructions, "tz_block_power",
                        lambda *args: calls.append(args))
    code = main([*argv, "--operator", "tzblock", "--trunc", "40", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == ["error: dimension 80 exceeds dense cap 64"]
    assert calls == []


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, mib", [
    (["construct", "--operator", "tzblock", "--trunc", "512"], 1),
    (["powers", "--operator", "tzblock", "--trunc", "512"], 1),
    # The closed-form T^32 at d = 512 (8 MiB) and the 961 x 961 flip block
    # that the oracle eigensolves (7.0 MiB), with no Gram product.
    (["reproduce", "ex2.9"], 17),
], ids=["construct", "powers", "ex2.9"])
def test_tz_block_commands_keep_to_their_memory_budget(tmp_path, argv, mib):
    codes = []
    peak = traced_peak(lambda: codes.append(main([*argv, "--out", str(tmp_path)])))
    assert codes == [0]
    assert peak < mib * 2**20


#: Runs reproduce("ex2.9", argv[1]) in a fresh process; prints its exit
#: code and the rise of the peak resident set size over it, in KiB.
_RSS_RISE = """
import resource, sys
import kreisslab
from kreisslab.reproduce import reproduce
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = reproduce("ex2.9", sys.argv[1])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_ex29_keeps_the_peak_rss_of_a_fresh_process_to_its_budget(tmp_path):
    # tracemalloc cannot see LAPACK's own buffers: eigvalsh copies its input
    # outside Python's allocator, so holding T^32 through the eigensolve
    # passed the traced budget above.  The peak RSS sees every buffer; the
    # run raised it by 16.8-16.9 MiB, and by 30.0 MiB with the Gram route.
    env = dict(os.environ, PYTHONPATH=str(Path(kreisslab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RSS_RISE, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    code, rise_kib = map(int, proc.stdout.split())
    assert code == 0
    assert rise_kib < 20 * 2**10


def test_powers_reject_a_zero_k_max_before_norming(tmp_path, capsys):
    code = main(["powers", "--operator", "tzblock", "--k-max", "0", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: kmax must be at least 1, got 0"]


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


def load_file(relative):
    """The module at a path relative to the repository root."""
    path = Path(__file__).resolve().parent.parent / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_identity_commands_are_cli_lines():
    # tools/identity.py compares these commands with a parent's; each must
    # parse, and together they run every reproduce id.
    identity = load_file("tools/identity.py")
    parser = kreisslab.cli.build_parser()
    for command in identity.COMMANDS:
        parser.parse_args([*command, "--out", "unused"])
    ids = {command[1] for command in identity.COMMANDS if command[0] == "reproduce"}
    assert ids == set(REPRODUCIBLE_IDS)


def test_pool_cpu_commands_are_the_benchmark_ops():
    # tools/pool_cpu.py measures these commands, which it reads from the
    # benchmark's workloads; each must parse.
    pool_cpu = load_file("tools/pool_cpu.py")
    parser = kreisslab.cli.build_parser()
    for command in pool_cpu.COMMANDS:
        parser.parse_args([*command, "--out", "unused"])


def test_identity_names_a_config_change_apart_from_the_report(tmp_path):
    # --epsilon does not enter a tn operator, so these two runs differ in
    # their config alone, which tools/identity.py names apart from the rest
    # of report.json.
    identity = load_file("tools/identity.py")
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["powers", "--operator", "tn", "--trunc", "4", "--k-max", "3", "--format", "csv"]
    before = identity.outputs(src, argv, tmp_path / "a")
    after = identity.outputs(src, [*argv, "--epsilon", "0.2"], tmp_path / "b")
    assert before[2].keys() == {"powers.csv"}
    assert identity.differences(before, after) == ["config"]


def test_tz_block_at_d512_is_normed_by_the_sturm_count(tmp_path):
    # d = 1024, with top singular values too clustered for a power iteration
    # to separate: the Sturm count norms T with no Gram eigensolve, and
    # equals the dense Gram oracle bit for bit.
    code = main(["construct", "--operator", "tzblock", "--trunc", "512",
                 "--out", str(tmp_path)])
    assert code == 0
    value = read_report(tmp_path)["results"][0]["value"]
    assert 2.414 <= value <= 1.0 + np.sqrt(2.0)
    dense = kreisslab.operators._matrix_norm(kreisslab.materialize(kreisslab.build_tz_block(512)))
    assert value == dense.value


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
    # The first resolvent inverse fails: the point leaves both sweeps at once and must
    # surface in the report as one record, not only lower strong_C and kreiss_C unseen.
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
    assert [(r["r"], r["angle"], r["status"]) for r in skipped] == [(1.5, 0.0, "skipped")]
    assert "sweep" not in skipped[0] and "kreiss and strong" in skipped[0]["detail"]
    assert report["results"][0]["skipped"] == [[1.5, [1.0, 0.0]]]
    # kreiss-report, kreiss-grid-missed-sup (below ||y_6||), kreiss-sup-on-inner-radius
    # (ergces peaks there), the two mean-sweep-below-kreiss records (ukb_C and kb2_C at
    # n_max = 8) and the skipped point
    assert report["summary"]["no_verdict"] == 6
    assert code == 0  # no definite check failed; the gaps are recorded as no-verdict
