"""Tests of the benchmark's own helpers: the output comparator and the span
arithmetic. Run with `python3 -m pytest perfbench/tests`; imlab is not needed.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import outputs  # noqa: E402
import spans  # noqa: E402


def _report(runtime, value=0.5):
    payload = {"all_pass": True, "fitted_C_sup": value, "runtime_seconds": runtime,
               "rows": [{"eps": 0.1, "iterations_graph": 3}]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Output comparator


def test_strip_runtime_drops_only_the_runtime():
    text = outputs.strip_runtime(_report(12.5))
    assert "runtime_seconds" not in text
    assert json.loads(text) == {"all_pass": True, "fitted_C_sup": 0.5,
                                "rows": [{"eps": 0.1, "iterations_graph": 3}]}
    # re-dumped exactly the way imlab dumps, so equal reports stay byte-equal
    assert text == outputs.strip_runtime(text)


def test_reports_differing_only_in_runtime_are_identical():
    a = outputs.canonical("report.json", _report(12.5))
    b = outputs.canonical("report.json", _report(40.25))
    assert a == b
    assert outputs.mismatches({"report.json": a}, {"report.json": b}) == []


def test_json_numbers_within_relative_tolerance():
    ref = outputs.canonical("report.json", _report(1.0, value=0.5))
    close = outputs.canonical("report.json", _report(1.0, value=0.5 * (1 + 4e-13)))
    far = outputs.canonical("report.json", _report(1.0, value=0.5 * (1 + 4e-12)))
    assert outputs.same_output("report.json", ref, close)
    assert not outputs.same_output("report.json", ref, far)


def test_json_booleans_and_structure_must_match():
    ref = outputs.canonical("report.json", json.dumps({"ok": True, "n": [1, 2]}))
    assert not outputs.same_output(
        "report.json", ref, outputs.canonical("report.json", json.dumps({"ok": 1, "n": [1, 2]})))
    assert not outputs.same_output(
        "report.json", ref, outputs.canonical("report.json", json.dumps({"ok": True, "n": [1]})))


def test_csv_cells_compare_numerically_and_textually():
    ref = "eps,d_sup,pass_sup\n0.1,0.25,1\n"
    assert outputs.same_output("report.csv", ref, ref)
    assert outputs.same_output("report.csv", ref, "eps,d_sup,pass_sup\n0.1,0.25000000000000005,1\n")
    assert not outputs.same_output("report.csv", ref, "eps,d_sup,pass_sup\n0.1,0.2500001,1\n")
    assert not outputs.same_output("report.csv", ref, "eps,d_sup,pass_sup\n0.1,0.25,0\n")
    assert not outputs.same_output("report.csv", ref, "eps,d_sup,pass\n0.1,0.25,1\n")
    assert not outputs.same_output("report.csv", ref, ref + "0.01,0.1,1\n")


def test_suite_lines_keep_counts_and_worst_ratio():
    stdout = ("constants certified against fresh samples\n"
              "distp          samples=10900  violations=0   worst=1  ok\n"
              "Jdistance      samples=2450   violations=0   worst=0.0655373  ok\n")
    ref = outputs.suite_lines(stdout)
    assert ref.count("\n") == 2 and "certified" not in ref
    assert outputs.same_output("suites.txt", ref, ref)
    assert not outputs.same_output("suites.txt", ref, ref.replace("violations=0 ", "violations=1 "))
    assert not outputs.same_output("suites.txt", ref, ref.replace("2450", "2451"))
    assert not outputs.same_output("suites.txt", ref, ref.replace("0.0655373", "0.0655374"))


def test_missing_output_is_a_mismatch():
    assert outputs.mismatches({"report.csv": "a\n"}, {}) == ["report.csv"]


def test_reference_round_trip(tmp_path):
    texts = {"report.csv": "eps\n0.1\n", "suites.txt": "x\n"}
    outputs.save_reference(tmp_path / "ref", texts)
    first = (tmp_path / "ref" / "report.csv.gz").read_bytes()
    outputs.save_reference(tmp_path / "ref", texts)
    assert (tmp_path / "ref" / "report.csv.gz").read_bytes() == first  # no timestamp
    assert outputs.load_reference(tmp_path / "ref", texts) == texts


# ---------------------------------------------------------------------------
# Span arithmetic


def test_self_time_subtracts_children():
    spans_ = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["leaf", 5.0, 6.0, 2],
    ]
    assert spans.self_times(spans_) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans_ = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 3.0, 7.0, 0],
              ["c", 9.0, 12.0, 0]]
    # children cover [1, 7] and [9, 10] of the root
    assert spans.self_times(spans_)[0] == pytest.approx(3.0)


def test_inclusive_time_skips_nested_spans_of_the_same_set():
    spans_ = [
        ["f", 0.0, 10.0, -1],
        ["g", 1.0, 4.0, 0],
        ["f", 2.0, 3.0, 1],  # recursive call below another f
        ["f", 20.0, 25.0, -1],
        ["h", 30.0, 31.0, -1],
    ]
    assert spans.inclusive_time(spans_, ("f",)) == pytest.approx(15.0)
    assert spans.inclusive_time(spans_, ("g",)) == pytest.approx(3.0)
    assert spans.inclusive_time(spans_, ("f", "g")) == pytest.approx(15.0)
    assert spans.inclusive_time(spans_, ("g", "h")) == pytest.approx(4.0)


def test_recorder_nests_spans_and_sums_counts():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def rows(result, u):
        return {"rows": len(u)}

    inner = rec.wrap("inner", lambda u: sum(u), rows)
    outer = rec.wrap("outer", lambda u: inner(u) + inner(u[:1]))
    assert outer([1, 2, 3]) == 7
    assert [(s[0], s[3]) for s in rec.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert rec.counts == {"inner.rows": 4}
    assert spans.self_times(rec.spans) == pytest.approx([3.0, 1.0, 1.0])


def test_recorder_closes_span_on_error():
    rec = spans.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.spans[0][2] is not None and rec._open == []
