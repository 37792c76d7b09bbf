import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kreisslab as kl
from kreisslab.reports import summarize, to_json_bytes, write_csv
from kreisslab.reproduce import shields_envelope


def linear_series(kmax=64):
    k = np.arange(1, kmax + 1)
    return kl.NormSeries(k, k.astype(float), ("closed-form",) * kmax)


# --- growth fit ---


def test_growth_fit_linear_norms():
    report = kl.growth_fit(linear_series(), (2, 64))
    assert abs(report.exponent - 1.0) <= 1e-10
    assert report.residual_rms <= 1e-12


def test_growth_fit_shields():
    op = kl.build_shields_counterexample(0.15, 0.45, 64)
    series = kl.power_norms(op, 126)
    report = kl.growth_fit(series, (16, 126))
    assert 0.85 <= report.exponent <= 0.95
    envelope, rows = shields_envelope(series, 0.15, kl.shields_certified_kmax(64))
    assert envelope.status == "pass"
    assert all(row[3] for row in rows)


def test_growth_fit_window_validation():
    series = linear_series(10)
    with pytest.raises(kl.ValidationError):
        kl.growth_fit(series, (1, 5))  # fewer than 8 points
    with pytest.raises(kl.ValidationError):
        kl.growth_fit(series, (5, 5))
    zeros = kl.NormSeries(series.k, np.zeros(10), series.methods)
    with pytest.raises(kl.ValidationError):
        kl.growth_fit(zeros, (1, 10))
    # Both ends are counts: a float end such as 16.5 is not truncated to 16.
    series = linear_series()
    for window, name in (((16.5, 60), "window start"), ((16, 60.0), "window end")):
        with pytest.raises(kl.ValidationError, match=name):
            kl.growth_fit(series, window)
    assert kl.growth_fit(series, (np.int64(16), np.int32(60))).window == (16, 60)


# --- serialization ---


def test_float_formatting_shortest_repr():
    assert to_json_bytes(0.1) == b"0.1\n"
    assert to_json_bytes(1.0) == b"1.0\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(FINITE)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072009e-308)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_finite_floats_round_trip_through_json_and_csv(tmp_path_factory, x):
    for value in (x, np.float64(x)):
        parsed = json.loads(to_json_bytes({"v": value, "a": np.array([x])}))
        assert parsed["v"].hex() == x.hex() and parsed["a"][0].hex() == x.hex()
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", ("v",), [(x,), (np.float64(x),)])
    with open(path, newline="") as f:
        header, *cells = list(csv.reader(f))
    assert header == ["v"]
    assert [float(row[0]).hex() for row in cells] == [x.hex(), x.hex()]


def test_integral_floats_stay_floats_and_ints_stay_ints(tmp_path):
    parsed = json.loads(to_json_bytes([1.0, 1, np.float64(2.0), np.int64(2), -0.0]))
    assert [type(v) for v in parsed] == [float, int, float, int, float]
    path = write_csv(tmp_path / "t.csv", ("f", "i"), [(1.0, 1), (np.float64(2.0), np.int64(2))])
    assert path.read_bytes() == b"f,i\r\n1.0,1\r\n2.0,2\r\n"


def test_float32_is_written_as_the_double_it_holds(tmp_path):
    x = np.float32(0.1)
    assert json.loads(to_json_bytes(x)) == float(x) != 0.1
    path = write_csv(tmp_path / "t.csv", ("v",), [(x,)])
    assert path.read_bytes() == f"v\r\n{float(x)!r}\r\n".encode()


def test_json_sorted_keys_and_types():
    payload = {"b": [1, 2.5, None, True], "a": {"z": "text", "y": (1, 2)}}
    text = to_json_bytes(payload).decode()
    assert text.index('"a"') < text.index('"b"')
    parsed = json.loads(text)
    assert parsed["b"] == [1, 2.5, None, True]


def test_json_rejects_non_finite():
    with pytest.raises(kl.ValidationError):
        to_json_bytes(float("nan"))


@pytest.mark.parametrize("payload", [
    np.array([0.5, np.nan]),
    complex(np.inf, 0.0),
    [np.complex128(0.0, np.nan)],
    {"x": np.float32("inf")},
])
def test_non_finite_inside_arrays_and_complex_is_rejected(payload):
    with pytest.raises(kl.ValidationError, match="non-finite"):
        to_json_bytes(payload)


def test_unsupported_object_is_not_relabelled_as_non_finite():
    with pytest.raises(kl.ValidationError, match="cannot serialize") as info:
        to_json_bytes({"a": [1.0, object()]})
    assert "non-finite" not in str(info.value)


def test_non_string_params_keys_are_rejected():
    with pytest.raises(kl.ValidationError):
        kl.CheckRecord("c", "info", params={1: 0.5})
    with pytest.raises(kl.ValidationError):
        kl.gate("c", 0.1, "<=", 0.2, params={("n",): 1})
    with pytest.raises(kl.ValidationError):
        kl.RunConfig(command="powers", params={2: "x"})


def test_json_numpy_scalars_and_arrays():
    out = json.loads(to_json_bytes({"v": np.arange(3), "s": np.float64(0.5)}))
    assert out == {"v": [0, 1, 2], "s": 0.5}


def test_csv_rfc4180(tmp_path):
    path = write_csv(tmp_path / "t.csv", ("a", "b"), [(1, 'x,"y"'), (0.5, None)])
    raw = path.read_bytes()
    assert raw == b'a,b\r\n1,"x,""y"""\r\n0.5,\r\n'


def test_csv_lone_empty_cell_is_quoted(tmp_path):
    # A row of one empty field would read as a blank line, so csv quotes it.
    path = write_csv(tmp_path / "t.csv", ("a",), [(None,), ("",), (True,)])
    assert path.read_bytes() == b'a\r\n""\r\n""\r\ntrue\r\n'


@pytest.mark.parametrize("row, error", [
    (("caf\u00e9",), UnicodeEncodeError),
    ((float("inf"),), kl.ValidationError),
])
def test_csv_that_fails_writes_nothing(tmp_path, row, error):
    path = tmp_path / "t.csv"
    with pytest.raises(error):
        write_csv(path, ("a",), [(1,), row])
    assert not path.exists()


def test_numpy_cells_are_converted_and_checked_on_every_row(tmp_path):
    # Rows of plain cells take the writer's fast path; a numpy cell in any
    # row, the last of a long table too, is still converted or refused.
    rows = [(k, 0.5 * k, None, "x") for k in range(2000)]
    path = write_csv(tmp_path / "t.csv", ("k", "v", "e", "s"),
                     [*rows, (np.bool_(True), np.float32(0.1), np.bool_(False), "y")])
    lines = path.read_bytes().split(b"\r\n")
    assert lines[1:3] == [b"0,0.0,,x", b"1,0.5,,x"]
    assert lines[-2:] == [f"true,{float(np.float32(0.1))!r},false,y".encode(), b""]
    for bad in (np.float64("nan"), np.float64("-inf")):
        with pytest.raises(kl.ValidationError, match="non-finite"):
            write_csv(tmp_path / "bad.csv", ("k", "v", "e", "s"), [*rows, (1, bad, None, "y")])
        assert not (tmp_path / "bad.csv").exists()


def test_empty_tables_are_valid_files(tmp_path):
    config = kl.RunConfig(command="powers")
    paths = kl.emit_report(config, [], {"empty.csv": (("k", "norm"), [])}, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"] == []
    assert report["summary"]["all_passed"] is True
    assert (tmp_path / "empty.csv").read_bytes() == b"k,norm\r\n"
    assert len(paths) == 2


def test_report_bytes_deterministic(tmp_path):
    config = kl.RunConfig(command="powers", operator="tn", params={"n": 4, "eta": 0.3},
                          seed=7, out=str(tmp_path))
    results = [kl.gate("x", 0.1, "<=", 0.2).to_dict()]
    a = tmp_path / "a"
    b = tmp_path / "b"
    kl.emit_report(config, results, None, a)
    kl.emit_report(config, results, None, b)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_run_config_roundtrip():
    values = {"command": "growth", "operator": "tn", "params": {"n": 16, "eta": 0.45},
              "options": {"k_max": 126, "window": [16, 60], "trunc": 16}, "seed": 3,
              "out": "runs", "format": "csv"}
    assert values.keys() == {f.name for f in dataclasses.fields(kl.RunConfig)}
    config = kl.RunConfig(**values)
    for f in dataclasses.fields(kl.RunConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(config, f.name) != f.default, f.name
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(config, f.name) != f.default_factory(), f.name
    assert config.to_dict() == values


def test_every_field_is_serialized():
    report = kl.KreissReport(radii=(1.5,), skipped=((1.5, 1.0 + 0j),))
    assert report.to_dict().keys() == {f.name for f in dataclasses.fields(kl.KreissReport)}
    assert report.to_dict()["radii"] == [1.5]
    assert report.to_dict()["skipped"] == [[1.5, 1.0 + 0j]]
    record = kl.CheckRecord("c", "info", params={"n": 3, "r": 1.5})
    names = {f.name for f in dataclasses.fields(kl.CheckRecord)} - {"params"}
    assert record.to_dict().keys() == names | {"n", "r"}


def test_summarize_counts():
    results = [
        {"status": "pass"},
        {"status": "fail"},
        {"status": "vacuous-pass"},
        {"status": "hypothesis-diverged"},
        {"status": "info"},
    ]
    summary = summarize(results)
    # Only pass and fail are verdicts; a vacuous-pass status made outside
    # the library counts as no verdict.
    assert summary == {
        "checks": 5,
        "passed": 1,
        "failed": 1,
        "no_verdict": 3,
        "all_passed": False,
    }


def test_summarize_counts_a_failing_claim_verdict():
    g = np.ones(4) / 2.0
    claim = kl.tn_claim1_bound(0.3, 2, g, g, 1e-6)
    assert claim.status == "fail" and type(claim.passed) is bool
    summary = summarize([claim.to_dict()])
    assert (summary["failed"], summary["all_passed"]) == (1, False)


# --- the one gate ---

_BOUND = 4.0


def _below(x):
    return float(np.nextafter(x, -np.inf))


def _above(x):
    return float(np.nextafter(x, np.inf))


@pytest.mark.parametrize("op, at, inside, outside", [
    ("<=", "pass", _below(_BOUND), _above(_BOUND)),
    ("<", "fail", _below(_BOUND), _above(_BOUND)),
    (">=", "pass", _above(_BOUND), _below(_BOUND)),
    (">", "fail", _above(_BOUND), _below(_BOUND)),
])
def test_gate_decides_each_side_of_the_bound(op, at, inside, outside):
    assert kl.gate("c", _BOUND, op, _BOUND).status == at
    assert kl.gate("c", inside, op, _BOUND).status == "pass"
    assert kl.gate("c", outside, op, _BOUND).status == "fail"
    record = kl.gate("c", inside, op, _BOUND)
    assert (record.op, record.bound, record.slack) == (op, _BOUND, 0.0)
    assert record.margin > 0.0  # the margin is measured in the bound's favor


@pytest.mark.parametrize("bound", [_BOUND, -_BOUND])
def test_gate_slack_is_relative_to_the_bound(bound):
    # slack 0.25 of |bound| = 4 allows exactly 1.0 on the wrong side
    assert kl.gate("c", bound + 1.0, "<=", bound, 0.25).status == "pass"
    assert kl.gate("c", _above(bound + 1.0), "<=", bound, 0.25).status == "fail"
    assert kl.gate("c", bound - 1.0, ">=", bound, 0.25).status == "pass"
    assert kl.gate("c", _below(bound - 1.0), ">=", bound, 0.25).status == "fail"
    record = kl.gate("c", bound + 1.0, "<=", bound, 0.25)
    assert (record.margin, record.slack) == (-1.0, 0.25)


def test_gate_rejects_malformed_verdicts():
    for op in ("<", ">"):
        with pytest.raises(kl.ValidationError, match="strict"):
            kl.gate("c", 1.0, op, 2.0, 1e-9)
    with pytest.raises(kl.ValidationError, match="comparison"):
        kl.gate("c", 1.0, "==", 2.0)
    for status in ("pass", "fail"):
        with pytest.raises(kl.ValidationError, match="gate"):
            kl.CheckRecord("c", status)
        with pytest.raises(kl.ValidationError, match="gate"):
            kl.CheckRecord("c", status, 1.0, "<=")
    with pytest.raises(kl.ValidationError, match="repeat"):
        kl.gate("c", 1.0, "<=", 2.0, params={"bound": 3.0})
    with pytest.raises(kl.ValidationError, match="repeat"):
        kl.CheckRecord("c", "info", params={"status": "pass"})


def test_no_verdict_records_carry_no_gate():
    info = kl.CheckRecord("c", "info", 1.5, params={"n": 3})
    assert info.passed is None
    assert info.to_dict() == {"check_id": "c", "status": "info", "value": 1.5, "op": None,
                              "bound": None, "slack": None, "margin": None, "detail": "",
                              "n": 3}
    assert kl.CheckRecord("c", "vacuous-pass").passed is None
    assert kl.CheckRecord("c", "hypothesis-diverged").passed is None


def test_check_record_stores_a_python_bool():
    record = kl.gate("c", np.float64(3.0), "<=", np.float32(2.0))
    assert type(record.passed) is bool and record.passed is False
    assert type(record.value) is float and type(record.bound) is float
    assert type(record.margin) is float
    assert record.to_dict()["status"] == "fail"
    assert "passed" not in record.to_dict()
    assert kl.gate("c", np.int64(1), ">=", np.int64(1)).passed is True
