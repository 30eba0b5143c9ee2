"""tools/report_diff.py on synthetic report pairs and report sets, and the
fixed set of tools/report_set.py."""

import copy
import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_diff = _tool("report_diff")
report_set = _tool("report_set")

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
    directory.mkdir(parents=True)
    for name, body in reports.items():
        if isinstance(body, bytes):
            (directory / name).write_bytes(body)
        else:
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


CSV = b"s,eig_1,outside_mass,sigma_min\r\n8.0,1e-08,0.14,1e-08\r\n"
SVG = b'<svg xmlns="http://www.w3.org/2000/svg"><rect fill="#000"/></svg>\n'


def _report_set(root, retime=False, **changes):
    """A synthetic report set: two cases, a config directory and a log,
    with the reports retimed and the given files of sin_zeros replaced."""
    sim = {"simulate.json": _retimed(SIMULATE) if retime else SIMULATE,
           "simulate.csv": CSV, "heatmap_s8.svg": SVG, "heatmap_s16.svg": SVG}
    sim.update(changes)
    _write(root / "sin_zeros", {k: v for k, v in sim.items() if v is not None})
    _write(root / "verify_seed1",
           {"verify.json": _retimed(VERIFY) if retime else VERIFY})
    (root / "configs").mkdir()
    (root / "configs" / "torus_large.cfg").write_text("N = 256\n")
    (root / "sin_zeros.log").write_text("0.25s\n" if retime else "0.5s\n")
    return str(root)


def test_report_sets_are_compared_case_by_case(tmp_path, capsys):
    a = _report_set(tmp_path / "a")
    b = _report_set(tmp_path / "b", retime=True)
    assert report_diff.main([a, b]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sin_zeros: reports equal", "verify_seed1: reports equal", "reports equal"]


def test_a_set_compares_csv_and_heatmaps_byte_for_byte(tmp_path, capsys):
    changed = copy.deepcopy(SIMULATE)
    changed["results"][0]["cluster_dim"] = 3
    a = _report_set(tmp_path / "a")
    b = _report_set(tmp_path / "b", retime=True, **{
        "simulate.json": changed, "simulate.csv": CSV.replace(b"0.14", b"0.15"),
        "heatmap_s8.svg": SVG.replace(b"#000", b"#001"), "heatmap_s16.svg": None})
    assert report_diff.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "sin_zeros/simulate.json: results[0].cluster_dim: 2 != 3",
        f"sin_zeros/heatmap_s16.svg: only in {os.path.join(a, 'sin_zeros')}",
        "sin_zeros/heatmap_s8.svg: bytes differ",
        "sin_zeros/simulate.csv: bytes differ",
        "sin_zeros: 4 difference(s)",
        "verify_seed1: reports equal",
        "4 difference(s)"]


def test_a_case_on_one_side_only_is_a_difference(tmp_path, capsys):
    a = _report_set(tmp_path / "a")
    b = _report_set(tmp_path / "b")
    _write(tmp_path / "a" / "condition_long", {"condition.json": {"passed": True}})
    assert report_diff.main([a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"condition_long: only in {a}"
    assert out[-1] == "1 difference(s)"


def test_a_directory_with_no_report_anywhere_is_a_usage_error(tmp_path):
    (tmp_path / "a" / "configs").mkdir(parents=True)
    (tmp_path / "b").mkdir()
    assert report_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2


def test_report_set_runs_the_fixed_set():
    assert dict(report_set.cases()) == {
        **{f"verify_seed{i}": ["verify", "--seed", str(i)] for i in (1, 2, 3)},
        **{f"condition_seed{i}": ["condition", "--seed", str(i)] for i in (1, 2, 3)},
        "verify_n7": ["verify", "--n-max", "7", "--trials", "3"],
        "condition_long": ["condition", "--long"],
        "condition_n9": ["condition", "--n-list", "9", "--trials", "2",
                         "--wrong-trials", "4"],
        "sin_zeros": ["simulate", "sin_zeros.cfg"],
        "constant": ["simulate", "constant.cfg"],
        "torus_large": ["simulate", "configs/torus_large.cfg"],
        "known_defect": ["simulate", "configs/known_defect.cfg"],
    }


def test_report_set_derives_its_configs_from_the_bundled_preset():
    with open(os.path.join(_ROOT, "src", "cldirac", "torus", "presets",
                           "sin_zeros.cfg"), encoding="utf-8") as fh:
        preset = fh.read()
    text = report_set.derived_config(preset, report_set.DERIVED["known_defect"])
    lines = text.splitlines()
    assert "N = 128" in lines and "s_values = 32, 64, 128" in lines
    assert len(lines) == len(preset.splitlines())
    with pytest.raises(ValueError):
        report_set.derived_config(preset, {"no_such_key": "1"})


def test_report_set_usage_errors_exit_2(tmp_path):
    src = os.path.join(_ROOT, "src")
    (tmp_path / "full").mkdir()
    (tmp_path / "full" / "old.log").write_text("")
    assert report_set.main([str(tmp_path), str(tmp_path / "out")]) == 2
    assert report_set.main([src, str(tmp_path / "full")]) == 2
    assert not (tmp_path / "out").exists()
