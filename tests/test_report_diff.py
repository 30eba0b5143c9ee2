"""tools/report_diff.py on synthetic report pairs."""

import copy
import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "report_diff.py")
_spec = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)

SIMULATE = {
    "schema_version": 1,
    "results": [{"s": 8.0, "cluster_dim": 2, "converged": True, "seconds": 0.25},
                {"s": 16.0, "cluster_dim": 4, "converged": True, "seconds": 0.5}],
    "seconds": 0.75,
    "manifest": {"command": "simulate", "wall_time_s": 0.8, "counts": {"pass": 2}},
}
VERIFY = {"entries": [{"identity": "wedge_anticommute", "failures": 0}],
          "manifest": {"command": "verify", "wall_time_s": 0.5}}


def _write(directory, reports):
    directory.mkdir()
    for name, body in reports.items():
        (directory / name).write_text(json.dumps(body))
    return str(directory)


def _retimed(report):
    """report with every timing changed."""
    out = copy.deepcopy(report)
    out["manifest"]["wall_time_s"] += 1.0
    if "seconds" in out:
        out["seconds"] += 1.0
        for row in out["results"]:
            row["seconds"] += 1.0
    return out


def test_reports_equal_apart_from_timings_exit_0(tmp_path, capsys):
    a = _write(tmp_path / "a", {"simulate.json": SIMULATE, "verify.json": VERIFY})
    b = _write(tmp_path / "b", {"simulate.json": _retimed(SIMULATE),
                                "verify.json": _retimed(VERIFY)})
    assert report_diff.main([a, b]) == 0
    assert capsys.readouterr().out == "reports equal\n"


def test_changed_field_exits_1_and_names_its_path(tmp_path, capsys):
    changed = _retimed(SIMULATE)
    changed["results"][0]["cluster_dim"] = 3
    a = _write(tmp_path / "a", {"simulate.json": SIMULATE})
    b = _write(tmp_path / "b", {"simulate.json": changed})
    assert report_diff.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "simulate.json: results[0].cluster_dim: 2 != 3", "1 difference(s)"]


@pytest.mark.parametrize("changed", [
    {"converged": 1},           # true and 1 are different JSON values
    {"extra": None},            # a key on one side only
])
def test_type_and_key_changes_are_differences(tmp_path, changed):
    other = copy.deepcopy(SIMULATE)
    other["results"][1].update(changed)
    a = _write(tmp_path / "a", {"simulate.json": SIMULATE})
    b = _write(tmp_path / "b", {"simulate.json": other})
    assert report_diff.main([a, b]) == 1


def test_report_on_one_side_only_exits_1(tmp_path, capsys):
    a = _write(tmp_path / "a", {"verify.json": VERIFY, "condition.json": {"passed": True}})
    b = _write(tmp_path / "b", {"verify.json": VERIFY})
    assert report_diff.main([a, b]) == 1
    assert f"condition.json: only in {a}" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path, capsys):
    empty = _write(tmp_path / "empty", {})
    full = _write(tmp_path / "full", {"verify.json": VERIFY})
    (tmp_path / "bad").mkdir()
    (tmp_path / "bad" / "verify.json").write_text("{not json")
    assert report_diff.main([empty, empty]) == 2
    assert report_diff.main([full, str(tmp_path / "missing")]) == 2
    assert report_diff.main([full, str(tmp_path / "bad")]) == 2
    with pytest.raises(SystemExit) as exc:
        report_diff.main([full])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err
