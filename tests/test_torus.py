"""Torus simulator: config, kernels, operator oracles, eigensolver, sweep."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from cldirac.torus import (
    SimConfig,
    TorusOperator,
    complex_to_flat,
    dense_sigma_min,
    flat_to_complex,
    fourier_preconditioner,
    normal_eigenpairs,
    outside_mass,
    parse_config_text,
    phi_field,
    preset_path,
    run_sweep,
    write_heatmap_svg,
    zero_locations,
)
from cldirac.torus import eigensolve, kernels
from cldirac.torus.config import ConfigError, load_config
from cldirac.torus.eigensolve import blockwise, residual_norms
from cldirac.torus.heatmap import _STOPS, _colors
from cldirac.torus.sweep import check_sweep, fit_loglog, lowest_field, row_counts

TWO_PI = 2.0 * math.pi


# -- configuration ------------------------------------------------------------

def test_parse_config_roundtrip():
    cfg = parse_config_text("""
        # comment
        N = 32
        s_values = 2, 4, 8
        phi_preset = constant(1+0.5j)
        delta = 0.5
        eig_count = 3
        eig_tol = 1e-7
        seed = 9
    """)
    assert cfg.N == 32 and cfg.s_values == (2.0, 4.0, 8.0)
    assert cfg.constant_value == 1 + 0.5j
    assert cfg.eig_count == 3 and cfg.seed == 9


@pytest.mark.parametrize("text,message", [
    ("N = 20", "power of two"),
    ("N = 8", ">= 16"),
    ("s_values = 4, 2", "strictly increasing"),
    ("s_values = -1, 2", "positive"),
    ("delta = 0.01\nN = 32", "spacing"),
    ("phi_preset = constant(0)", "nonzero"),
    ("N = 16\nphi_preset = custom\nfourier_coeffs = 0,0,1,0; 16,0,-1,0", "vanishes"),
    ("phi_preset = bogus", "unknown phi preset"),
    ("bogus_key = 1", "unknown key"),
])
def test_config_validation(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


def test_bundled_presets_load():
    for name in ("sin_zeros.cfg", "constant.cfg"):
        cfg = load_config(preset_path(name))
        assert cfg.N == 64
        assert cfg.s_values == (8.0, 16.0, 32.0, 64.0)


def test_sin_zeros_field_and_zeros():
    cfg = SimConfig(N=32, s_values=(4.0,), phi_preset="sin_zeros")
    w = phi_field(cfg)
    pi_idx = 16  # x = pi
    assert abs(w[0, 0]) < 1e-15 and abs(w[pi_idx, pi_idx]) < 1e-15
    zs = zero_locations(cfg)
    assert sorted(zs) == sorted(
        [(0.0, 0.0), (math.pi, 0.0), (0.0, math.pi), (math.pi, math.pi)])


def test_custom_zero_bracketing():
    # sin x + i sin y written as Fourier data; bracketing should find all
    # four zeros to within a few cells
    coeffs = ((1, 0, -0.5j), (-1, 0, 0.5j), (0, 1, 0.5 + 0j), (0, -1, -0.5 + 0j))
    cfg = SimConfig(N=64, s_values=(4.0,), phi_preset="custom",
                    fourier_coeffs=coeffs, delta=0.5)
    found = zero_locations(cfg)
    exact = [(0.0, 0.0), (math.pi, 0.0), (0.0, math.pi), (math.pi, math.pi)]
    assert len(found) == 4
    for (zx, zy) in exact:
        dist = min(math.hypot(min(abs(fx - zx), TWO_PI - abs(fx - zx)),
                              min(abs(fy - zy), TWO_PI - abs(fy - zy)))
                   for (fx, fy) in found)
        assert dist < 3 * cfg.spacing


# -- operator oracles ---------------------------------------------------------

def _config(N=32, preset="sin_zeros", s=(4.0,), **kw):
    return SimConfig(N=N, s_values=s, phi_preset=preset, delta=0.5, **kw)


def test_fourier_symbol_zero_field():
    cfg = _config(N=64, preset="constant(1)")
    op = TorusOperator(cfg, 0.0)
    op.w = np.zeros_like(op.w)  # w = 0: pure derivative operator
    h = cfg.spacing
    xs = np.arange(64) * h
    for (m, k) in [(1, 0), (0, 1), (2, 1), (3, 2)]:
        u = np.exp(1j * (m * xs[:, None] + k * xs[None, :]))
        ratio = np.linalg.norm(op.apply_plus(u)) / np.linalg.norm(u)
        symx = (8 * math.sin(m * h) - math.sin(2 * m * h)) / (6 * h)
        symy = (8 * math.sin(k * h) - math.sin(2 * k * h)) / (6 * h)
        assert abs(ratio - math.hypot(symx, symy)) < 1e-10
        # 4th-order accuracy: close to the continuum symbol |i m - k|
        assert abs(ratio - math.hypot(m, k)) < 2e-3


def test_flat_views_share_memory():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    x = complex_to_flat(u)
    assert np.shares_memory(x, u)
    assert x[0] == u[0, 0].real and x[1] == u[0, 0].imag
    back = flat_to_complex(x, 16)
    assert np.shares_memory(back, u) and np.array_equal(back, u)


def test_constant_field_action():
    cfg = _config(N=32, preset="constant(1)")
    s = 5.0
    op = TorusOperator(cfg, s)
    u = np.full((32, 32), 2.0 + 1.0j)
    v = op.apply_plus(u)
    assert np.max(np.abs(v - (-s * np.conj(u)))) < 1e-12
    assert abs(np.linalg.norm(v) - s * np.linalg.norm(u)) < 1e-9


def test_transpose_consistency():
    rng = np.random.default_rng(3)
    cfg = _config(N=32)
    op = TorusOperator(cfg, 4.0)
    for _ in range(5):
        x = rng.standard_normal(op.nreal)
        y = rng.standard_normal(op.nreal)
        lhs = float(np.dot(op.matvec(x), y))
        rhs = float(np.dot(x, op.rmatvec(y)))
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1.0)


def test_real_linearity():
    rng = np.random.default_rng(4)
    cfg = _config(N=32)
    op = TorusOperator(cfg, 4.0)
    x = rng.standard_normal(op.nreal)
    y = rng.standard_normal(op.nreal)
    add = op.matvec(x + y) - op.matvec(x) - op.matvec(y)
    hom = op.matvec(2.5 * x) - 2.5 * op.matvec(x)
    scale = np.max(np.abs(op.matvec(x)))
    assert np.max(np.abs(add)) < 1e-12 * scale
    assert np.max(np.abs(hom)) < 1e-12 * scale


def test_constant_w_energy_splitting():
    # ||D_s u||^2 = ||D_0 u||^2 + s^2 ||u||^2 for constant w (the discrete
    # cross term cancels by antisymmetry of the difference stencils)
    rng = np.random.default_rng(5)
    cfg = _config(N=32, preset="constant(1)")
    s = 6.0
    op_s = TorusOperator(cfg, s)
    op_0 = TorusOperator(cfg, 0.0)
    for _ in range(5):
        x = rng.standard_normal(op_s.nreal)
        lhs = np.dot(op_s.matvec(x), op_s.matvec(x))
        rhs = (np.dot(op_0.matvec(x), op_0.matvec(x))
               + s * s * np.dot(x, x))
        assert abs(lhs - rhs) < 1e-10 * lhs


# -- bitwise identity with the shifted-copy stencil ----------------------------
# The kernels take differences of slices in place; these are the formulas
# they replaced, on np.roll copies.  Reports depend on every bit of the
# matvec (the solver path follows it), so the comparison is exact.


def _roll_deriv4(u, axis, h):
    return (8.0 * (np.roll(u, -1, axis) - np.roll(u, 1, axis))
            - (np.roll(u, -2, axis) - np.roll(u, 2, axis))) / (12.0 * h)


def _roll_ds(u, w, s, h):
    return _roll_deriv4(u, 0, h) + 1j * _roll_deriv4(u, 1, h) - s * np.conj(w * u)


def _roll_dst(v, w, s, h):
    return -(_roll_deriv4(v, 0, h) - 1j * _roll_deriv4(v, 1, h)) - s * np.conj(w * v)


def _same_bits(a, b):
    # float64 views compare the values, uint64 views also the signs of zeros
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.float64), b.view(np.float64))
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def _random_grid(rng, N):
    return rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))


@pytest.mark.parametrize("N", [16, 17, 64])
def test_stencil_matches_roll_formulas_bitwise(N):
    rng = np.random.default_rng(N)
    h = TWO_PI / N
    for _ in range(3):
        u, w = _random_grid(rng, N), _random_grid(rng, N)
        s = float(rng.uniform(0.0, 64.0))
        work = (np.empty_like(u), np.empty_like(u))
        for new, old in ((kernels.ds_apply, _roll_ds),
                         (kernels.dst_apply, _roll_dst)):
            expected = old(u, w, s, h)
            assert _same_bits(new(u, w, s, h), expected)
            out = np.empty_like(u)
            assert new(u, w, s, h, out=out, work=work) is out
            assert _same_bits(out, expected)
        # the pair through one set of buffers, as normal_matvec runs it
        mid = kernels.ds_apply(u, w, s, h, out=np.empty_like(u), work=work)
        assert _same_bits(kernels.dst_apply(mid, w, s, h, work=work),
                          _roll_dst(_roll_ds(u, w, s, h), w, s, h))


@pytest.mark.parametrize("N", [16, 64])  # configs allow powers of two only
def test_normal_matvec_matches_roll_formulas_bitwise(N):
    rng = np.random.default_rng(100 + N)
    cfg = _config(N=N)
    op = TorusOperator(cfg, float(rng.uniform(0.0, 64.0)))
    op.w = _random_grid(rng, N)
    x = rng.standard_normal(op.nreal)
    u = flat_to_complex(x, N)
    expected = _roll_dst(_roll_ds(u, op.w, op.s, op.h), op.w, op.s, op.h)
    assert _same_bits(flat_to_complex(op.normal_matvec(x), N), expected)
    assert _same_bits(op.apply_plus(u), _roll_ds(u, op.w, op.s, op.h))
    assert _same_bits(op.apply_minus(u), _roll_dst(u, op.w, op.s, op.h))


def test_preconditioner_matches_fft2_formula_bitwise():
    rng = np.random.default_rng(11)
    for N in (16, 64):
        op = TorusOperator(_config(N=N), 4.0)
        precond = fourier_preconditioner(op)
        # the multiplier as the eigensolve docstring defines it
        m = np.fft.fftfreq(N, d=1.0 / N)
        sym_sq = ((8.0 * np.sin(m * op.h) - np.sin(2.0 * m * op.h)) / (6.0 * op.h)) ** 2
        w_sq = np.abs(op.w) ** 2
        shift = max(float(op.s ** 2 * (np.mean(w_sq) - np.min(w_sq))), 1e-2)
        mult = 1.0 / (sym_sq[:, None] + sym_sq[None, :] + shift)
        for _ in range(3):
            x = rng.standard_normal(op.nreal)
            f = np.fft.fft2(flat_to_complex(x, N))
            f *= mult
            expected = complex_to_flat(np.fft.ifft2(f))
            assert np.array_equal(precond(x).view(np.uint64),
                                  expected.view(np.uint64))


def test_normal_matvec_and_preconditioner_return_fresh_arrays():
    rng = np.random.default_rng(7)
    cfg = _config(N=16)
    op = TorusOperator(cfg, 4.0)
    precond = fourier_preconditioner(op)
    x, y = rng.standard_normal(op.nreal), rng.standard_normal(op.nreal)
    for f in (op.normal_matvec, precond):
        first = f(x)
        kept = first.copy()
        second = f(y)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert np.array_equal(f(x), kept)


def test_reassigned_w_takes_effect():
    rng = np.random.default_rng(8)
    cfg = _config(N=16)
    op = TorusOperator(cfg, 4.0)
    x = rng.standard_normal(op.nreal)
    before = op.normal_matvec(x)
    op.w = _random_grid(rng, 16)
    u = flat_to_complex(x, 16)
    expected = _roll_dst(_roll_ds(u, op.w, op.s, op.h), op.w, op.s, op.h)
    after = flat_to_complex(op.normal_matvec(x), 16)
    assert not np.array_equal(complex_to_flat(after), before)
    assert _same_bits(after, expected)


# -- eigensolver ---------------------------------------------------------------


@pytest.mark.parametrize("order", ["C", "F"])
def test_blockwise_matches_linear_operator_bitwise(order):
    rng = np.random.default_rng(9)
    cfg = _config(N=16)
    op = TorusOperator(cfg, 4.0)
    X = np.asarray(rng.standard_normal((op.nreal, 6)), order=order)
    for f in (op.normal_matvec, fourier_preconditioner(op)):
        expected = LinearOperator((op.nreal, op.nreal), matvec=f,
                                  dtype=float).matmat(X)
        got = blockwise(f)(X)
        assert got.flags.c_contiguous
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_residual_norms_match_the_column_loop():
    rng = np.random.default_rng(10)
    cfg = _config(N=16)
    op = TorusOperator(cfg, 4.0)
    block = np.linalg.qr(rng.standard_normal((op.nreal, 7)))[0]
    vectors = block[:, :4]  # a strided view, as the solver passes it
    values = rng.uniform(0.0, 10.0, size=4)
    expected = np.array([
        np.linalg.norm(op.normal_matvec(vectors[:, j]) - values[j] * vectors[:, j])
        for j in range(4)])
    got = residual_norms(blockwise(op.normal_matvec), values, vectors)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_grid_layers_are_called_once_per_column(monkeypatch):
    # perfbench counts calls of these four functions as its per-layer work
    # measures; they stay meaningful only if the block path makes exactly
    # one call per column
    calls = dict.fromkeys(["ds", "dst", "normal", "precond"], 0)
    columns = {"A": 0, "M": 0, "runs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "ds_apply", counted("ds", kernels.ds_apply))
    monkeypatch.setattr(kernels, "dst_apply", counted("dst", kernels.dst_apply))
    monkeypatch.setattr(TorusOperator, "normal_matvec",
                        counted("normal", TorusOperator.normal_matvec))
    factory = eigensolve.fourier_preconditioner
    monkeypatch.setattr(eigensolve, "fourier_preconditioner",
                        lambda op: counted("precond", factory(op)))
    solver = eigensolve.lobpcg

    def lobpcg(A, X, M=None, **kwargs):
        columns["runs"] += 1

        def block_counter(key, f):
            def apply(block):
                columns[key] += block.shape[1]
                return f(block)
            return apply
        return solver(block_counter("A", A), X, M=block_counter("M", M), **kwargs)

    monkeypatch.setattr(eigensolve, "lobpcg", lobpcg)
    cfg = _config(N=16, preset="sin_zeros", eig_count=3, eig_tol=1e-8)
    op = TorusOperator(cfg, 4.0)
    res = normal_eigenpairs(op, cfg)
    assert res.all_converged and columns["runs"] >= 1
    residual_columns = cfg.eig_count * columns["runs"]
    assert calls["normal"] == columns["A"] + residual_columns
    assert calls["ds"] == calls["dst"] == calls["normal"]
    assert calls["precond"] == columns["M"] > 0


# -- eigensolver runs ------------------------------------------------------------

def test_kernel_of_undeformed_operator():
    # w = 0: constants span the kernel, so the smallest eigenvalue is 0
    cfg = _config(N=16, preset="constant(1)", eig_count=1, eig_tol=1e-8,
                  seed=2, max_iterations=400)
    op = TorusOperator(cfg, 0.0)
    op.w = np.zeros_like(op.w)
    res = normal_eigenpairs(op, cfg)
    assert res.values[0] < 1e-8 * op.sigma_max_bound() ** 2


def test_constant_preset_eigenvalue_oracle():
    # w = 1: lambda_min(DtD) = s^2; cross-checked against a dense solve
    cfg = _config(N=16, preset="constant(1)", s=(4.0,), eig_count=2,
                  eig_tol=1e-9)
    s = 4.0
    op = TorusOperator(cfg, s)
    res = normal_eigenpairs(op, cfg)
    assert res.all_converged
    assert abs(res.values[0] - s * s) < 0.01 * s * s
    dense = np.linalg.eigvalsh(op.dense().T @ op.dense())
    assert abs(dense[0] - s * s) < 1e-9 * s * s
    assert abs(res.values[0] - dense[0]) < 1e-6 * s * s
    assert abs(dense_sigma_min(op) - s) < 1e-9 * s


def test_warm_start_matches_cold_solve():
    # a solve started from the Ritz block of a nearby s finds the same
    # eigenvalues as a solve from a random block; ten pairs reach past the
    # 8-dimensional kernel to nonzero eigenvalues
    cfg = _config(N=16, preset="sin_zeros", s=(4.0, 8.0), eig_count=10,
                  eig_tol=1e-9)
    previous = normal_eigenpairs(TorusOperator(cfg, 4.0), cfg)
    op = TorusOperator(cfg, 8.0)
    cold = normal_eigenpairs(op, cfg)
    warm = normal_eigenpairs(op, cfg, start=previous.block)
    assert cold.all_converged and warm.all_converged
    bound = cfg.eig_tol * warm.opnorm_estimate
    assert np.max(np.abs(warm.values - cold.values)) <= bound


def test_eigenvector_orthonormality():
    cfg = _config(N=16, preset="sin_zeros", s=(4.0,), eig_count=4, eig_tol=1e-8)
    op = TorusOperator(cfg, 4.0)
    res = normal_eigenpairs(op, cfg)
    gram = (op.h ** 2) * (res.vectors.T @ res.vectors)
    assert np.max(np.abs(gram - np.eye(cfg.eig_count))) < 1e-8


def test_stalled_solve_restarts_and_reports_non_convergence(monkeypatch):
    # one iteration per LOBPCG run cannot reach 1e-9: the solve runs all
    # three attempts, sums their residual histories and reports the failure
    runs = []
    solver = eigensolve.lobpcg

    def lobpcg(*args, **kwargs):
        result = solver(*args, **kwargs)
        runs.append(len(result[2]))
        return result

    monkeypatch.setattr(eigensolve, "lobpcg", lobpcg)
    cfg = _config(N=16, preset="sin_zeros", s=(4.0, 8.0), eig_count=3,
                  eig_tol=1e-9, max_iterations=1)
    res = normal_eigenpairs(TorusOperator(cfg, 4.0), cfg)
    assert len(runs) == 3
    assert res.iterations == sum(runs) == 12
    assert not np.any(res.converged)
    report = run_sweep(cfg)
    assert check_sweep(report, cfg) == ["solver did not converge at s = [4.0, 8.0]"]
    assert row_counts(report, cfg) == {"pass": 0, "fail": 2}


def test_start_block_must_fit_the_operator():
    cfg = _config(N=16, eig_count=3)
    op = TorusOperator(cfg, 4.0)
    with pytest.raises(ValueError, match="start block"):
        normal_eigenpairs(op, cfg, start=np.ones((op.nreal - 2, 5)))


# -- outside mass --------------------------------------------------------------

def _unit(u):
    return u / (TWO_PI / u.shape[0] * np.linalg.norm(u))


def test_outside_mass_uniform_field():
    cfg = _config(N=64)
    mass = outside_mass(_unit(np.full((64, 64), 1.0 + 0j)), cfg)
    assert abs(mass - (1.0 - cfg.delta ** 2 / math.pi)) < 0.01


def test_outside_mass_supported_inside_disk():
    cfg = _config(N=64)
    u = np.zeros((64, 64), complex)
    u[0:2, 0:2] = 1.0  # inside the delta-disk at the origin
    assert outside_mass(_unit(u), cfg) == 0.0


def test_outside_mass_empty_singular_set():
    cfg = _config(N=32, preset="constant(1)")
    u = _unit(np.random.default_rng(0).standard_normal((32, 32)) + 0j)
    assert outside_mass(u, cfg) == 1.0


def test_outside_mass_requires_normalization():
    cfg = _config(N=32)
    with pytest.raises(ValueError, match="norm"):
        outside_mass(np.full((32, 32), 1.0 + 0j), cfg)


# -- sweep ----------------------------------------------------------------------

def test_run_sweep_concentration_small():
    cfg = SimConfig(N=32, s_values=(4.0, 8.0, 16.0), phi_preset="sin_zeros",
                    delta=0.5, eig_count=4, eig_tol=1e-8, seed=3)
    report = run_sweep(cfg)
    assert report.all_converged
    masses = [r.outside_mass for r in report.rows]
    assert all(b < a for a, b in zip(masses, masses[1:]))
    bound = report.rows[0].s * masses[0]
    assert all(r.s * r.outside_mass <= bound * (1 + 1e-9) for r in report.rows)
    body = report.to_dict()
    assert body["schema_version"] == 1
    assert len(body["results"]) == 3
    assert body["fit"] is not None and body["fit"]["slope"] < 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_constant_preset_converges_in_few_iterations(seed):
    # the shifted preconditioner is the shift-invert of D_s^T D_s for
    # constant w, and each s starts from the previous Ritz block
    cfg = dataclasses.replace(load_config(preset_path("constant.cfg")), seed=seed)
    report = run_sweep(cfg)
    assert report.all_converged
    assert max(r.iterations for r in report.rows) <= 10
    assert all(abs(r.sigma_min - r.s) <= 0.01 * r.s for r in report.rows)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_sin_zeros_preset_concentrates_for_each_seed(seed):
    cfg = dataclasses.replace(load_config(preset_path("sin_zeros.cfg")), seed=seed)
    report = run_sweep(cfg)
    assert report.all_converged
    masses = [r.outside_mass for r in report.rows]
    assert all(b < a for a, b in zip(masses, masses[1:]))
    bound = report.rows[0].s * masses[0]
    assert all(r.s * r.outside_mass <= bound * (1 + 1e-9) for r in report.rows)


def test_run_sweep_reproducible():
    cfg = SimConfig(N=16, s_values=(4.0,), phi_preset="sin_zeros",
                    delta=0.5, eig_count=2, eig_tol=1e-7, seed=5)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a.rows[0].eigenvalues == b.rows[0].eigenvalues
    assert a.rows[0].outside_mass == b.rows[0].outside_mass


def test_sweep_fields_do_not_keep_the_solver_block():
    cfg = SimConfig(N=16, s_values=(4.0, 8.0), phi_preset="sin_zeros",
                    delta=0.5, eig_count=2, eig_tol=1e-7, seed=5)
    for u in run_sweep(cfg).fields:
        root = u
        while root.base is not None:
            root = root.base
        assert u.shape == (16, 16) and root.nbytes == u.nbytes


def test_csv_and_heatmap_outputs(tmp_path):
    cfg = SimConfig(N=16, s_values=(4.0, 8.0), phi_preset="sin_zeros",
                    delta=0.5, eig_count=2, eig_tol=1e-7, seed=5)
    report = run_sweep(cfg)
    csv_path = tmp_path / "table.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "s,eig_1,eig_2,outside_mass,sigma_min"
    assert len(lines) == 3
    svg_path = tmp_path / "map.svg"
    zeta = lowest_field(TorusOperator(cfg, 4.0), normal_eigenpairs(TorusOperator(cfg, 4.0), cfg))
    assert zeta.shape == (16, 16) and zeta.dtype == complex
    assert abs(TWO_PI / 16 * np.linalg.norm(zeta) - 1.0) < 1e-9
    write_heatmap_svg(svg_path, np.abs(zeta) ** 2, report.zeros, cfg.delta,
                      title="test")
    text = svg_path.read_text()
    assert text.startswith("<svg") and 'width="512"' in text
    assert text.count("<circle") >= len(report.zeros)


def _scalar_color(t):
    t = min(max(t, 0.0), 1.0) * (len(_STOPS) - 1)
    k = min(int(t), len(_STOPS) - 2)
    f = t - k
    rgb = [(1 - f) * a + f * b for a, b in zip(_STOPS[k], _STOPS[k + 1])]
    return "#{:02x}{:02x}{:02x}".format(*(int(round(255 * c)) for c in rgb))


def test_vectorized_colors_match_scalar_formula():
    stops = np.linspace(0.0, 1.0, len(_STOPS))
    t = np.concatenate([
        np.random.default_rng(6).random(20000), stops,
        np.nextafter(stops, 2.0), np.nextafter(stops, -1.0), [-0.5, 1.5]])
    assert _colors(t).tolist() == [_scalar_color(float(v)) for v in t]
    grid = t[:400].reshape(20, 20)
    assert _colors(grid).tolist() == [[_scalar_color(float(v)) for v in row]
                                      for row in grid]


def test_fit_loglog():
    fit = fit_loglog([2.0, 4.0, 8.0], [1.0, 0.25, 0.0625])
    assert abs(fit["slope"] + 2.0) < 1e-12
    assert fit_loglog([2.0], [1.0]) is None
