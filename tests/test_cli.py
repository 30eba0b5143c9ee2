"""CLI contracts: exit codes, report schemas, artifact files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cldirac
from cldirac.cli import main
from cldirac.suites import MAX_RANK, ConditionReport, IdentityRecord
from cldirac.torus.config import load_config
from cldirac.torus.sweep import SpectralReport, SweepRow


def test_verify_small_run(tmp_path):
    code = main(["verify", "--n-max", "2", "--trials", "6", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["schema_version"] == 5
    assert report["manifest"]["counts"]["fail"] == 0
    entries = report["entries"]
    # one entry per (identity, n, p)
    keys = {(e["identity"], e["n"], e["p"]) for e in entries}
    assert len(keys) == len(entries)
    assert {"identity", "n", "p", "trials", "failures", "max_defect",
            "counterexample"} <= set(entries[0])
    assert all(e["failures"] == 0 for e in entries)


def test_verify_rejects_bad_nmax(tmp_path):
    assert main(["verify", "--n-max", "0", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--n-max", "9", "--out", str(tmp_path)]) == 2


def test_condition_small_run(tmp_path):
    code = main(["condition", "--n-list", "1", "--r-list", "1,2,3",
                 "--trials", "6", "--wrong-trials", "30", "--seed", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "condition.json").read_text())
    assert report["passed"] is True
    assert all(row["max_defect"] == 0.0 for row in report["correct_class"])
    assert all(row["nonzero_rate"] >= 0.95 for row in report["wrong_class"])
    # odd-rank antisymmetric rows always report det = 0
    odd = [row for row in report["odd_rank_det"] if row["r"] % 2 == 1]
    assert odd and all(row["all_singular"] for row in odd)


def test_python_m_cldirac_runs_the_command_line(tmp_path):
    src = Path(cldirac.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-m", "cldirac", "condition", "--n-list", "1",
         "--r-list", "1", "--trials", "1", "--wrong-trials", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "condition.json").read_text())["passed"] is True


def test_condition_rejects_even_dimension(tmp_path):
    assert main(["condition", "--n-list", "2", "--out", str(tmp_path)]) == 2


def test_simulate_missing_config(tmp_path):
    assert main(["simulate", "definitely_missing.cfg", "--out", str(tmp_path)]) == 2


def test_a_missing_path_does_not_run_the_bundled_preset(tmp_path, capsys):
    # only a bare name falls back to a bundled preset
    missing = tmp_path / "nonexistent" / "constant.cfg"
    out = tmp_path / "out"
    assert main(["simulate", str(missing), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["sin_zeros.cfg", "constant.cfg"])
def test_a_bare_preset_name_runs_the_bundled_preset(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", name, "--out", "out"]) == 0
    report = json.loads((tmp_path / "out" / "simulate.json").read_text())
    assert report["manifest"]["params"] == {"config": name}
    assert report["manifest"]["counts"]["fail"] == 0


def test_simulate_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("N = 20\n")
    assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2


def test_simulate_small_sweep(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("""
        N = 32
        s_values = 4, 8
        phi_preset = sin_zeros
        delta = 0.5
        eig_count = 3
        eig_tol = 1e-8
        seed = 3
    """)
    out = tmp_path / "out"
    code = main(["simulate", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "simulate.json").read_text())
    assert report["schema_version"] == 5
    assert report["assertions"]["passed"] is True
    assert len(report["results"]) == 2
    assert (out / "simulate.csv").exists()
    assert (out / "heatmap_s4.svg").exists()
    assert (out / "heatmap_s8.svg").exists()
    masses = [row["outside_mass"] for row in report["results"]]
    assert masses[1] < masses[0]
    assert set(report["manifest"]["versions"]) == {"cldirac", "python", "numpy",
                                                   "scipy"}
    assert "backend" not in report
    assert report["discretization"]["scheme"] == "fourier-galerkin-band"
    assert report["discretization"]["band_limit"] == 10


_CONFIG = """
N = 16
s_values = 4, 8
phi_preset = sin_zeros
delta = 0.5
eig_count = 2
eig_tol = 1e-7
seed = 5
max_iterations = 100
"""


def _config_with(**values):
    lines = []
    for line in _CONFIG.strip().splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {values.pop(key)}" if key in values else line)
    lines += [f"{key} = {val}" for key, val in values.items()]
    return "\n".join(lines) + "\n"


_BAD_CONFIGS = {
    "N-not-integer": {"N": "abc"},
    "N-float": {"N": "16.0"},
    "seed-not-integer": {"seed": "x"},
    "seed-negative": {"seed": "-1"},
    "eig_count-not-integer": {"eig_count": "2.5"},
    "max_iterations-not-integer": {"max_iterations": "many"},
    "s_values-token": {"s_values": "1, x"},
    "fourier-token": {"phi_preset": "custom", "fourier_coeffs": "1,0,a,0"},
    "delta-nan": {"delta": "nan"},
    "eig_tol-nan": {"eig_tol": "nan"},
    "s_values-inf": {"s_values": "1, inf"},
    "constant-unbalanced": {"phi_preset": "constant(1"},
    "max_iterations-zero": {"max_iterations": "0"},
    "eig_count-too-large": {"eig_count": "1000"},
    "constant-inf": {"phi_preset": "constant(inf)"},
    "fourier-nan": {"phi_preset": "custom", "fourier_coeffs": "1,0,nan,0"},
    "fourier-zero": {"phi_preset": "custom", "fourier_coeffs": "0,0,0,0"},
    "fourier-cancelling": {"phi_preset": "custom",
                           "fourier_coeffs": "1,0,1,0; 1,0,-1,0"},
    # sums to 5.6e-17 in floating point: cancelled to rounding
    "fourier-cancelling-to-rounding": {
        "phi_preset": "custom",
        "fourier_coeffs": "0,0,0.1,0; 0,0,0.2,0; 0,0,-0.3,0"},
    # |w| >= 0.75: no zero for the mass checks, no check but convergence
    "fourier-no-zero": {"phi_preset": "custom",
                        "fourier_coeffs": "0,0,1,0; 1,0,0.25,0"},
    # the N = 16 grid resolves modes below N/2 only: e^{8ix} aliases e^{-8ix}
    "fourier-aliased": {"phi_preset": "custom",
                        "fourier_coeffs": "8,0,1,0; 0,0,-0.5,0"},
    # a preset name is exact, and fourier_coeffs is read by custom only
    "sin_zeros-suffix": {"phi_preset": "sin_zeros(2)"},
    "custom-suffix": {"phi_preset": "custom(typo)",
                      "fourier_coeffs": "1,0,0,-0.5; -1,0,0,0.5; 0,1,0.5,0; 0,-1,-0.5,0"},
    "fourier-unused": {"fourier_coeffs": "0,0,1,0; 2,0,0.5,0"},
    # sqrt2 M + s_max max|w| must stay below float max ** 0.25 ~ 1.2e77
    "s_values-overflow": {"s_values": "1e160"},
    "constant-s-overflow": {"phi_preset": "constant(1)", "s_values": "1e100"},
    "constant-s-past-bound": {"phi_preset": "constant(1)", "s_values": "1e80"},
    "fourier-overflow": {"phi_preset": "custom",
                         "fourier_coeffs": "1,0,1e300,0; 0,1,0,1e300"},
    "N-huge": {"N": "1048576"},
    "eig_tol-below-rounding": {"eig_tol": "1e-300"},
    "key-repeated": _CONFIG + "N = 32\n",
    # the concentration checks compare rows: one row would have none
    "zeros-one-s": {"s_values": "1e60"},
    # the zeros of sin_zeros lie pi apart, so delta >= pi/2 makes their
    # disks overlap, and the outside mass integrates each disk once; at
    # 2.5 >= pi/sqrt2 the disks cover every point, at 2 they do not
    "delta-covers-every-site": {"delta": "2.5"},
    "delta-disks-overlap": {"delta": "2"},
    "custom-disks-overlap": {"phi_preset": "custom", "delta": "1.6",
                             "fourier_coeffs": "1,0,0,-0.5; -1,0,0,0.5; "
                                               "0,1,0.5,0; 0,-1,-0.5,0"},
    # a disk of radius pi wraps onto itself on the torus
    "delta-pi": {"delta": "3.15"},
    "delta-zero": {"delta": "0"},
    "delta-negative": {"delta": "-0.5"},
    # w = sin x vanishes on two lines, not at points: no delta-disks cover them
    "fourier-zero-lines": {"phi_preset": "custom",
                           "fourier_coeffs": "1,0,0,-0.5; -1,0,0,0.5"},
    # rows are keyed by f"{s:g}": these two would share heatmap_s8.svg
    "s_values-same-text": {"phi_preset": "constant(1)", "s_values": "8, 8.0000001"},
    "config-not-utf8": b"N = 64\n\xff\xfe\n",
    "config-is-directory": None,
}

_BAD_ARGS = {
    "verify-trials-zero": ["verify", "--n-max", "1", "--trials", "0"],
    "verify-trials-negative": ["verify", "--n-max", "1", "--trials", "-1"],
    "condition-trials-zero": ["condition", "--n-list", "1", "--trials", "0"],
    "condition-wrong-trials-zero": ["condition", "--n-list", "1",
                                    "--wrong-trials", "0"],
    "condition-n-even": ["condition", "--n-list", "1,2"],
    "condition-n-too-large": ["condition", "--n-list", "13"],
    "condition-n-negative": ["condition", "--n-list", "-1"],
    "condition-n-empty": ["condition", "--n-list", ","],
    "condition-r-zero": ["condition", "--n-list", "1", "--r-list", "1,0"],
    "condition-r-empty-entry": ["condition", "--n-list", "1", "--r-list", "1,,2"],
    "condition-n-trailing-comma": ["condition", "--n-list", "1,3,"],
    "condition-r-not-integer": ["condition", "--n-list", "1", "--r-list", "a"],
    # one trial each, so even a missing check would not run long
    "condition-r-too-large": ["condition", "--n-list", "1", "--r-list",
                              f"1,{MAX_RANK + 1}", "--trials", "1",
                              "--wrong-trials", "1"],
    "condition-n-repeated": ["condition", "--n-list", "1,1"],
    "condition-r-repeated": ["condition", "--n-list", "1", "--r-list", "2,2"],
    "verify-long-with-n-max": ["verify", "--long", "--n-max", "1"],
    "condition-long-with-n-list": ["condition", "--long", "--n-list", "1"],
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGS) + sorted(_BAD_CONFIGS))
def test_bad_input_exits_2_with_message(case, tmp_path, capsys):
    if case in _BAD_ARGS:
        argv = _BAD_ARGS[case]
    elif _BAD_CONFIGS[case] is None:
        argv = ["simulate", str(tmp_path)]
    else:
        bad = _BAD_CONFIGS[case]
        cfg = tmp_path / "bad.cfg"
        if isinstance(bad, bytes):
            cfg.write_bytes(bad)
        else:
            cfg.write_text(bad if isinstance(bad, str) else _config_with(**bad))
        argv = ["simulate", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_condition_rank_cap_exits_2_before_any_draw(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("condition drew a phi before checking --r-list")
    monkeypatch.setattr("cldirac.suites.random_phi", no_work)
    monkeypatch.setattr("cldirac.suites.random_nonzero_phi", no_work)
    argv = ["condition", "--n-list", "1", "--r-list", f"2,{MAX_RANK + 1}",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    # the cap the README states
    assert "every r must be in 1..64" in capsys.readouterr().err


def test_simulate_constant_at_large_s_stays_inside_the_bound(tmp_path):
    # s = 1e50 is below the overflow bound, and sigma_min = s is resolved
    cfg = tmp_path / "large_s.cfg"
    cfg.write_text(_config_with(phi_preset="constant(1)", s_values="1e50"))
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 0


_OUT_CASES = {
    "verify": ["verify", "--n-max", "1", "--trials", "2"],
    "condition": ["condition", "--n-list", "1", "--r-list", "1",
                  "--trials", "2", "--wrong-trials", "2"],
    "simulate": ["simulate", "constant.cfg"],
}


@pytest.mark.parametrize("command", sorted(_OUT_CASES))
def test_out_naming_a_file_exits_2_before_any_work(command, tmp_path,
                                                   monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before checking --out")
    monkeypatch.setattr("cldirac.cli.verify_suite", no_work)
    monkeypatch.setattr("cldirac.cli.condition_suite", no_work)
    monkeypatch.setattr("cldirac.torus.sweep.run_sweep", no_work)
    out = tmp_path / "out"
    out.write_text("keep\n")
    assert main(_OUT_CASES[command] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


_JSON_CASES = {
    "verify": ["verify", "--n-max", "1", "--trials", "1"],
    "condition": ["condition", "--n-list", "1", "--r-list", "1", "--trials", "1",
                  "--wrong-trials", "1"],
    "simulate": ["simulate", "small.cfg"],
}


@pytest.mark.parametrize("command", sorted(_JSON_CASES))
def test_json_prints_the_written_report(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small.cfg").write_text(_CONFIG)
    assert main(_JSON_CASES[command] + ["--out", "out", "--json"]) == 0
    printed, _end = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    written = json.loads((tmp_path / "out" / f"{command}.json").read_text())
    assert printed == written and printed["manifest"]["command"] == command


def test_report_write_failure_exits_2(tmp_path, capsys):
    # a directory where the report file should go makes open() fail
    (tmp_path / "verify.json").mkdir()
    code = main(["verify", "--n-max", "1", "--trials", "2",
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


def _condition_report():
    return ConditionReport(
        correct=[{"n": 1, "r": 1, "phi_class": "symmetric", "trials": 5,
                  "failures": 1, "max_defect": 0.0}],
        wrong=[{"n": 1, "phi_class": "antisymmetric", "r_values": [2],
                "trials": 10, "nonzero_rate": 0.9}],
        odd_rank=[{"n": 1, "r": 1, "trials": 5, "all_singular": True}])


def test_condition_cli_reads_the_report_verdicts(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("cldirac.cli.condition_suite",
                        lambda *args, **kwargs: _condition_report())
    assert main(["condition", "--n-list", "1", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "condition.json").read_text())
    assert report["passed"] is False
    assert report["manifest"]["counts"] == {"pass": 1, "fail": 2}
    lines = capsys.readouterr().out.splitlines()
    assert [line[:6] for line in lines[:3]] == ["[FAIL]", "[FAIL]", "[ok ] "]


def test_verify_cli_reads_the_report_verdicts(tmp_path, monkeypatch, capsys):
    records = [IdentityRecord("wedge_anticommute", 1, p, 5, 0, 0.0)
               for p in (0, 1)]
    records.append(IdentityRecord("tau_square", 1, 0, 5, 1, 0.5, "x=1"))
    monkeypatch.setattr("cldirac.cli.verify_suite",
                        lambda *args, **kwargs: records)
    assert main(["verify", "--n-max", "1", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["manifest"]["counts"] == {"pass": 2, "fail": 1}
    assert [e["failures"] for e in report["entries"]] == [0, 0, 1]
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] tau_square: 1 (n,p) entries, 5 checks, 1 failing entries",
        "[ok ] wedge_anticommute: 2 (n,p) entries, 10 checks, 0 failing entries",
        "    counterexample tau_square n=1 p=0: x=1",
        f"report: {tmp_path / 'verify.json'}",
    ]


def _sweep_report(config, zeros, masses, sigmas):
    rows = [SweepRow(s=s, eigenvalues=[sig * sig], outside_mass=m, band_tail=0.0,
                     band_limit=10, cluster_dim=1, sigma_min=sig, sigma_floor=0.0,
                     residual_max=0.0, converged=True, iterations=1, seconds=0.0)
            for s, m, sig in zip((4.0, 8.0, 16.0), masses, sigmas)]
    return SpectralReport(config=config, zeros=zeros, rows=rows, fit=None,
                          seconds=0.0)


# the one failing row of each synthetic sweep below; in sin_zeros only the
# outside-mass check names it, and every row converged
_FAILING_S = {"sin_zeros": "16", "constant(1)": "8"}


@pytest.mark.parametrize("preset,zeros,masses,sigmas,problem", [
    ("sin_zeros", [(0.0, 0.0)], (0.3, 0.05, 0.05), (0.0, 0.0, 0.0),
     "not strictly decreasing"),
    ("constant(1)", [], (1.0, 1.0, 1.0), (4.0, 8.16, 16.0), "deviates"),
])
def test_simulate_contract_failures(preset, zeros, masses, sigmas, problem,
                                    tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "synthetic.cfg"
    cfg.write_text(_config_with(phi_preset=preset, s_values="4, 8, 16"))
    report = _sweep_report(load_config(cfg), zeros, masses, sigmas)
    problems = report.to_dict()["assertions"]["problems"]
    assert len(problems) == 1 and problem in problems[0]
    monkeypatch.setattr("cldirac.torus.sweep.run_sweep", lambda config: report)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 1
    body = json.loads((out / "simulate.json").read_text())
    assert body["assertions"] == {"passed": False, "problems": problems}
    assert body["manifest"]["counts"] == {"pass": 2, "fail": 1}
    lines = capsys.readouterr().out.splitlines()
    assert f"[FAIL] {problems[0]}" in lines
    # each row's marker is its verdict
    for s in ("4", "8", "16"):
        marker = "[FAIL]" if s == _FAILING_S[preset] else "[ok ] "
        assert [line[:6] for line in lines if f" s={s}:" in line] == [marker]


def test_simulate_counts_rows_not_problems(tmp_path):
    # row s = 8 fails two checks, row s = 16 one: two failed rows, three problems
    cfg = tmp_path / "synthetic.cfg"
    cfg.write_text(_config_with(phi_preset="constant(1)", s_values="4, 8, 16"))
    config = load_config(cfg)
    report = _sweep_report(config, [], (1.0, 1.0, 1.0), (4.0, 8.16, 16.5))
    report.rows[1].converged = False
    assert len(report.to_dict()["assertions"]["problems"]) == 3
    assert report.verdicts() == [True, False, False]
    good = _sweep_report(config, [], (1.0, 1.0, 1.0), (4.0, 8.0, 16.0))
    assert good.verdicts() == [True, True, True]


def test_simulate_contract_passes_good_sweeps(tmp_path):
    cfg = tmp_path / "good.cfg"
    cfg.write_text(_config_with(phi_preset="constant(1)", s_values="4, 8, 16"))
    good = _sweep_report(load_config(cfg), [], (1.0, 1.0, 1.0), (4.0, 8.0, 16.0))
    assert good.to_dict()["assertions"] == {"passed": True, "problems": []}
    cfg.write_text(_config_with(s_values="4, 8, 16"))
    good = _sweep_report(load_config(cfg), [(0.0, 0.0)], (0.3, 0.1, 0.05),
                         (0.0, 0.0, 0.0))
    assert good.to_dict()["assertions"] == {"passed": True, "problems": []}
