"""CLI contracts: exit codes, report schemas, artifact files."""

import json

from cldirac.cli import main


def test_verify_small_run(tmp_path):
    code = main(["verify", "--n-max", "2", "--trials", "6", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["schema_version"] == 1
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


def test_condition_rejects_even_dimension(tmp_path):
    assert main(["condition", "--n-list", "2", "--out", str(tmp_path)]) == 2


def test_simulate_missing_config(tmp_path):
    assert main(["simulate", "definitely_missing.cfg", "--out", str(tmp_path)]) == 2


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
    assert report["schema_version"] == 1
    assert report["assertions"]["passed"] is True
    assert len(report["results"]) == 2
    assert (out / "simulate.csv").exists()
    assert (out / "heatmap_s4.svg").exists()
    assert (out / "heatmap_s8.svg").exists()
    masses = [row["outside_mass"] for row in report["results"]]
    assert masses[1] < masses[0]
    assert report["manifest"]["versions"]["kernel_backend"] == "numpy"
