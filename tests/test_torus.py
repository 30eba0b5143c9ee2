"""Torus simulator: config, kernels, operator oracles, eigensolver, sweep."""

import ast
import dataclasses
import functools
import inspect
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special
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
from cldirac.torus import eigensolve, kernels, sweep
from cldirac.torus.config import MAX_MODES, ConfigError, _lobpcg_fits, load_config
from cldirac.torus.eigensolve import residual_norms
from cldirac.torus.heatmap import SIZE, _STOPS, _color_codes
from cldirac.torus.operators import ds_matrix, fiber_maps, prolong
from cldirac.torus.sweep import (
    a_priori_band,
    band_tail,
    fit_loglog,
    lowest_cluster,
    lowest_density,
)

TWO_PI = 2.0 * math.pi


# -- configuration ------------------------------------------------------------

def _repeated_config(N):
    """A custom w that lists the mode (1, -1) twice."""
    return SimConfig(N=N, phi_preset="custom", fourier_coeffs=(
        (0, 0, 1 + 0j), (1, -1, 0.5j), (0, 1, -0.3 + 0j), (1, -1, 0.25 + 0j)))


def _custom_config(N, **kw):
    """w = sin x + i sin y + 0.1: the modes of sin_zeros and a constant, so
    min|w| = 0 on the torus but not on every grid."""
    return SimConfig(N=N, phi_preset="custom", fourier_coeffs=(
        (1, 0, -0.5j), (-1, 0, 0.5j), (0, 1, 0.5 + 0j), (0, -1, -0.5 + 0j),
        (0, 0, 0.1 + 0j)), **kw)


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
    ("N = 32\ndelta = 0.1\nphi_preset = custom\nfourier_coeffs = 1,0,0,-0.5; -1,0,0,0.5",
     "custom preset: delta = 0.1 must exceed the grid spacing"),
    ("delta = 0", "positive and below pi"),
    ("delta = -0.5", "positive and below pi"),
    ("delta = 3.2", "positive and below pi"),
    ("phi_preset = constant(0)", "nonzero"),
    ("N = 16\nphi_preset = custom\nfourier_coeffs = 0,0,1,0; 16,0,-1,0", "vanishes"),
    ("N = 16\nphi_preset = custom\nfourier_coeffs = 0,0,0.1,0; 0,0,0.2,0; 0,0,-0.3,0",
     "vanishes"),
    ("N = 16\nphi_preset = custom\nfourier_coeffs = 0,0,1,0; 3,0,1,0; 0,-8,1,0",
     r"max\(\|mx\|, \|my\|\) = 8; the grid needs max\(\|mx\|, \|my\|\) < N/2 = 8"),
    ("phi_preset = custom\nfourier_coeffs = "
     + "; ".join(f"{m},0,1,0" for m in range(MAX_MODES + 1)),
     "17 distinct Fourier modes, more than 16: .* 381 MB"),
    ("N = 16\neig_count = 45", r"2 \(2M\+1\)\^2 = 242"),
    ("eig_tol = 9e-16", "float64 rounding"),
    ("N = 2048", "<= 1024"),
    ("s_values = 1e77", "fourth root"),
    ("N = 16\nN = 16", "line 2: key 'N' repeats line 1"),
    ("phi_preset = bogus", "unknown phi preset"),
    ("phi_preset = custom(typo)\nfourier_coeffs = 1,0,1,0", "unknown phi preset"),
    ("phi_preset = constant(1)\nfourier_coeffs = 1,0,1,0", "read only by the custom"),
    ("bogus_key = 1", "unknown key"),
])
def test_config_validation(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


def _config_text(echo: dict) -> str:
    """A config file whose keys and values are an echo()."""
    def value(key, val):
        if key == "s_values":
            return ", ".join(map(repr, val))
        if key == "fourier_coeffs":
            return "; ".join(",".join(map(repr, entry)) for entry in val)
        return str(val)
    return "".join(f"{key} = {value(key, val)}\n" for key, val in echo.items())


@pytest.mark.parametrize("cfg", [
    SimConfig(),
    SimConfig(N=32, s_values=(0.1, 3.0), phi_preset="constant(0.3+0.4j)",
              delta=0.75, eig_count=2, eig_tol=1e-7, seed=4, max_iterations=9),
    _repeated_config(16),
])
def test_echo_parses_back_to_the_config(cfg):
    echo = cfg.echo()
    assert list(echo) == [f.name for f in dataclasses.fields(SimConfig)]
    assert parse_config_text(_config_text(echo)) == cfg


def test_bundled_presets_load():
    for name in ("sin_zeros.cfg", "constant.cfg"):
        cfg = load_config(preset_path(name))
        assert cfg.N == 64
        assert cfg.s_values == (8.0, 16.0, 32.0, 64.0)


@pytest.mark.parametrize("N", [16, 64])
def test_phi_field_is_the_sum_over_w_modes(N):
    x = np.arange(N) * (TWO_PI / N)
    for cfg in (SimConfig(N=N), SimConfig(N=N, phi_preset="constant(0.3+0.4j)"),
                _repeated_config(N)):
        direct = sum(c * np.exp(1j * (mx * x[:, None] + my * x[None, :]))
                     for mx, my, c in cfg.w_modes())
        assert np.max(np.abs(phi_field(cfg) - direct)) <= 1e-15


def test_sin_zeros_field_and_zeros():
    cfg = SimConfig(N=32, s_values=(4.0,), phi_preset="sin_zeros")
    w = phi_field(cfg)
    pi_idx = 16  # x = pi
    assert abs(w[0, 0]) < 1e-15 and abs(w[pi_idx, pi_idx]) < 1e-15
    zs = zero_locations(cfg)
    assert sorted(zs) == sorted(
        [(0.0, 0.0), (math.pi, 0.0), (0.0, math.pi), (math.pi, math.pi)])


def test_custom_w_without_a_zero_stops_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a sweep that has no check but convergence")
    monkeypatch.setattr("cldirac.torus.sweep.normal_eigenpairs", no_solve)
    cfg = SimConfig(N=16, s_values=(4.0,), phi_preset="custom",
                    fourier_coeffs=((0, 0, 1 + 0j), (1, 0, 0.25 + 0j)))
    with pytest.raises(ConfigError, match="no bracketed zero"):
        run_sweep(cfg)


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


def test_a_zero_line_is_not_reported_as_points():
    # w = sin x vanishes on the lines x = 0 and x = pi: each group of
    # bracketed cells is a whole line, whose circular mean is no zero, and
    # delta-disks around such means would not cover the lines
    cfg = SimConfig(N=32, s_values=(4.0, 8.0), phi_preset="custom",
                    fourier_coeffs=((1, 0, -0.5j), (-1, 0, 0.5j)))
    with pytest.raises(ConfigError, match="not isolated points"):
        zero_locations(cfg)


@pytest.mark.parametrize("N", [16, 32, 64, 128])
def test_a_custom_zero_at_the_seam_reads_zero(N):
    # the cells around x = 0 have centres -h/2 and h/2, whose circular mean
    # is a rounding below 0: it reads 0.0, not 2pi
    cfg = SimConfig(N=N, phi_preset="custom", fourier_coeffs=(
        (1, 0, -0.5j), (-1, 0, 0.5j), (0, 1, 0.5 + 0j), (0, -1, -0.5 + 0j)))
    coords = [c for zero in zero_locations(cfg) for c in zero]
    assert all(0.0 <= c < TWO_PI for c in coords)
    assert coords.count(0.0) == 4


# -- operator oracles ---------------------------------------------------------

def _config(N=32, preset="sin_zeros", s=(4.0,), **kw):
    return SimConfig(N=N, s_values=s, phi_preset=preset, delta=0.5, **kw)


def _random_band(rng, K):
    return rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))


def _random_grid(rng, N):
    return rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))


def _apply(op, kernel, x):
    """An FFT reference kernel, with w on the (N, N) grid, on a flat real
    vector, as a flat real vector."""
    return complex_to_flat(kernel(flat_to_complex(x, op.K), phi_field(op.config),
                                  op.s, op.config.spacing))


def _unit_mode(K, mx, my):
    """The band basis field of mode (mx, my): one coefficient 1."""
    c = np.zeros((K, K), complex)
    c[mx % K, my % K] = 1.0
    return c


def test_d0_is_the_band_multiplier():
    # s = 0: D_0 e_m = (i mx - my) e_m exactly, with no doubler at any m,
    # in the sparse operator and in the FFT reference
    cfg = _config(N=64)
    op = TorusOperator(cfg, 0.0)
    w = phi_field(cfg)
    M = cfg.band_limit
    for (mx, my) in [(0, 0), (1, 0), (0, 1), (2, -1), (-3, 2), (M, -M), (-M, M)]:
        e = _unit_mode(op.K, mx, my)
        x = complex_to_flat(e)
        assert np.array_equal(flat_to_complex(op.D @ x, op.K), (1j * mx - my) * e)
        assert np.array_equal(flat_to_complex(op.D.T @ x, op.K), (-1j * mx - my) * e)
        assert np.array_equal(kernels.ds_apply(e, w, 0.0, op.config.spacing), (1j * mx - my) * e)
        assert np.array_equal(kernels.dst_apply(e, w, 0.0, op.config.spacing), (-1j * mx - my) * e)


def test_flat_views_share_memory():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    x = complex_to_flat(u)
    assert np.shares_memory(x, u)
    assert x[0] == u[0, 0].real and x[1] == u[0, 0].imag
    back = flat_to_complex(x, 16)
    assert np.shares_memory(back, u) and np.array_equal(back, u)
    # a (k, side, side) stack is the (nreal, k) block of its bands' vectors,
    # as a view, and back; a C-ordered block, as the solver returns, comes
    # back as one copy
    stack = rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16))
    block = complex_to_flat(stack)
    assert block.shape == (512, 3) and np.shares_memory(block, stack)
    for j in range(3):
        assert np.array_equal(block[:, j], complex_to_flat(stack[j]))
    back = flat_to_complex(block, 16)
    assert np.shares_memory(back, stack) and np.array_equal(back, stack)
    solver = np.ascontiguousarray(block)
    back = flat_to_complex(solver, 16)
    assert not np.shares_memory(back, solver) and np.array_equal(back, stack)


def test_constant_field_action():
    cfg = _config(N=32, preset="constant(1)")
    s = 5.0
    op = TorusOperator(cfg, s)
    c = _unit_mode(op.K, 0, 0) * (2.0 + 1.0j)  # a constant field
    v = flat_to_complex(op.D @ complex_to_flat(c), op.K)
    assert np.max(np.abs(v - (-s * np.conj(c)))) < 1e-12
    assert abs(np.linalg.norm(v) - s * np.linalg.norm(c)) < 1e-9


def test_transpose_consistency():
    # <D x, y> = <x, D^T y> in the real inner product of flat vectors
    rng = np.random.default_rng(3)
    cfg = _config(N=32)
    op = TorusOperator(cfg, 4.0)
    for _ in range(5):
        x = rng.standard_normal(op.nreal)
        y = rng.standard_normal(op.nreal)
        lhs = float(np.dot(_apply(op, kernels.ds_apply, x), y))
        rhs = float(np.dot(x, _apply(op, kernels.dst_apply, y)))
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1.0)


def test_potential_is_its_own_transpose():
    # A is real-symmetric for any w on the grid, band-limited or not
    rng = np.random.default_rng(12)
    for N, K in ((16, 11), (64, 43), (64, 64)):
        w = _random_grid(rng, N)
        for _ in range(3):
            c, d = _random_band(rng, K), _random_band(rng, K)
            lhs = np.vdot(kernels.potential(c, w), d).real
            rhs = np.vdot(c, kernels.potential(d, w)).real
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs))


def test_real_linearity():
    rng = np.random.default_rng(4)
    cfg = _config(N=32)
    op = TorusOperator(cfg, 4.0)
    x = rng.standard_normal(op.nreal)
    y = rng.standard_normal(op.nreal)

    def apply(v):
        return _apply(op, kernels.ds_apply, v)
    add = apply(x + y) - apply(x) - apply(y)
    hom = apply(2.5 * x) - 2.5 * apply(x)
    scale = np.max(np.abs(apply(x)))
    assert np.max(np.abs(add)) < 1e-12 * scale
    assert np.max(np.abs(hom)) < 1e-12 * scale


def test_constant_w_energy_splitting():
    # ||D_s u||^2 = ||D_0 u||^2 + s^2 ||u||^2 for constant w: the cross
    # term (i mx - my) c conj(c_-m) + its transpose cancels mode by mode
    rng = np.random.default_rng(5)
    cfg = _config(N=32, preset="constant(1)")
    s = 6.0
    op_s = TorusOperator(cfg, s)
    op_0 = TorusOperator(cfg, 0.0)
    for _ in range(5):
        x = rng.standard_normal(op_s.nreal)
        d_s, d_0 = op_s.D @ x, op_0.D @ x
        lhs = np.dot(d_s, d_s)
        rhs = np.dot(d_0, d_0) + s * s * np.dot(x, x)
        assert abs(lhs - rhs) < 1e-12 * lhs


# -- the band formulas, written the plain way -----------------------------------
# The formulas the kernels implement, with the band's indices m mod N taken
# from fftfreq here rather than from kernels.band_modes and kernels.embed.

def _modes(K):
    return np.fft.fftfreq(K, 1.0 / K).astype(int)


def _plain_potential(c, w):
    N, K = w.shape[0], c.shape[0]
    at = np.ix_(_modes(K) % N, _modes(K) % N)
    grid = np.zeros((N, N), complex)
    grid[at] = c
    return np.fft.fft2(np.conj(w * np.fft.ifft2(grid)))[at]


def _plain_ds(c, w, s):
    m = _modes(c.shape[0])
    return (1j * m[:, None] - m[None, :]) * c - s * _plain_potential(c, w)


def _plain_dst(c, w, s):
    m = _modes(c.shape[0])
    return (-1j * m[:, None] - m[None, :]) * c - s * _plain_potential(c, w)


@pytest.mark.parametrize("N,K", [(16, 11), (64, 43), (64, 64), (256, 171)])
def test_kernels_match_the_plain_fft2_formulas(N, K):
    # K = N is the (N, N) grid shape that the kernels also accept
    rng = np.random.default_rng(N + K)
    h = TWO_PI / N
    c, w = _random_band(rng, K), _random_grid(rng, N)
    s = float(rng.uniform(0.0, 64.0))
    for new, old in ((kernels.ds_apply, _plain_ds), (kernels.dst_apply, _plain_dst)):
        expected = old(c, w, s)
        got = new(c, w, s, h)
        assert got.shape == (K, K) and got.dtype == complex
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _edge_config(N, rng):
    """A custom w with random modes out to the band edge,
    max(|mx|, |my|) = M, so that for each of those modes the source -n-k
    of about half the band's rows lies outside the band.  The (N, N) grid
    still resolves the FFT reference: 2M + M + 1 <= N."""
    b = N // 3
    modes = [(b, -b), (-b, 1), (0, b), (0, 0)] + [
        tuple(int(v) for v in rng.integers(-b, b + 1, size=2)) for _ in range(4)]
    coeffs = tuple((mx, my, complex(*rng.standard_normal(2))) for mx, my in modes)
    return SimConfig(N=N, phi_preset="custom", fourier_coeffs=coeffs)


def _even_mode_config(N):
    """A custom w with the even modes (2, 0) and (0, -2): for an even mode k
    the source -n-k of row n = -k/2 is n itself, so D_0 and A land on the
    same entries of that row."""
    return SimConfig(N=N, phi_preset="custom", fourier_coeffs=(
        (2, 0, 0.7 - 0.4j), (0, -2, 0.3j), (1, 1, -0.5 + 0j)))


def _reference_configs(N, rng):
    return (SimConfig(N=N), SimConfig(N=N, phi_preset="constant(0.3+0.4j)"),
            _repeated_config(N), _edge_config(N, rng), _even_mode_config(N))


def test_w_modes_merge_a_repeated_mode():
    cfg = _repeated_config(16)
    assert cfg.w_modes() == ((0, 0, 1 + 0j), (1, -1, 0.25 + 0.5j), (0, 1, -0.3 + 0j))
    assert SimConfig(N=16, phi_preset="constant(2j)").w_modes() == ((0, 0, 2j),)
    assert len(SimConfig(N=16).w_modes()) == 4


def test_the_operator_takes_its_maps_from_the_fiber_code():
    # c(dx) 1 = thb1, c(dy) 1 = i thb1 and A 1 = -thb1 at n = r = 1, exactly;
    # ds_matrix places these and spells neither D_0 nor A's sign itself
    maps = fiber_maps()
    assert maps == (1 + 0j, 1j, -1 + 0j)
    assert all(type(c) is complex for c in maps)
    source = ast.unparse(ast.parse(inspect.getsource(ds_matrix)).body[0].body[1:])
    assert "fiber_maps()" in source
    assert "d0_multiplier" not in source and "-s" not in source


@pytest.mark.parametrize("N", [16, 32, 64])
def test_sparse_operator_is_the_fft_reference(N):
    # D and D^T equal the FFT pair with w on the (N, N) grid, which folds
    # no product mode onto the band for these w, on the band and on a
    # smaller band; D stores no zero and has int32 indices
    rng = np.random.default_rng(N)
    for cfg in _reference_configs(N, rng):
        w = phi_field(cfg)
        for M in (cfg.band_limit, cfg.band_limit // 2):
            op = TorusOperator(cfg, 4.0, M)
            assert op.D.indices.dtype == np.int32
            assert np.count_nonzero(op.D.data) == op.D.nnz
            for _ in range(3):
                x = rng.standard_normal(op.nreal)
                c = flat_to_complex(x, op.K)
                for got, kernel in ((op.D @ x, kernels.ds_apply),
                                    (op.D.T @ x, kernels.dst_apply)):
                    expected = complex_to_flat(kernel(c, w, op.s, op.config.spacing))
                    assert np.max(np.abs(got - expected)) <= 4e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("N", [16, 32, 64])
def test_a_grid_below_the_product_grid_aliases(N):
    # the control for the FFT reference: on a grid of side 2M + b, product
    # mode M + b folds onto -M, the band's edge, so the reference misses
    # the sparse potential, which sums the modes exactly
    rng = np.random.default_rng(N + 1)
    for cfg in (SimConfig(N=N), _edge_config(N, rng)):
        op = TorusOperator(cfg, 1.0)
        b = max(max(abs(mx), abs(my)) for mx, my, _c in cfg.w_modes())
        c = _random_band(rng, op.K)
        # A c = D_0 c - D_1 c
        exact = kernels.d0_multiplier(op.K) * c - flat_to_complex(
            op.D @ complex_to_flat(c), op.K)
        on_display = kernels.potential(c, phi_field(cfg))
        assert np.max(np.abs(on_display - exact)) <= 1e-13 * np.max(np.abs(exact))
        got = kernels.potential(c, phi_field(cfg, 2 * cfg.band_limit + b))
        assert np.max(np.abs(got - exact)) > 1e-3 * np.max(np.abs(exact))


@pytest.mark.parametrize("N", [32, 64])
def test_half_band_operator_is_the_band_operator_restricted(N):
    # a smaller band M_c < M is a subspace of the band M and A is the exact
    # projection on both, so D_s on the smaller band is the Galerkin
    # compression of D_s on the band, and prolong embeds it (mode m at
    # index m mod K), which restrict undoes: a sweep starts each band's
    # solve from the prolonged Ritz block of a smaller one
    rng = np.random.default_rng(N + 2)
    for cfg in _reference_configs(N, rng):
        fine = TorusOperator(cfg, 4.0)
        coarse = TorusOperator(cfg, 4.0, cfg.band_limit // 2)
        m = _modes(coarse.K) % fine.K
        block = rng.standard_normal((coarse.nreal, 3))
        big = prolong(block, fine.K)
        assert big.shape == (fine.nreal, 3)
        assert np.allclose(np.linalg.norm(big, axis=0), np.linalg.norm(block, axis=0),
                           rtol=1e-14, atol=0.0)
        bands = block.T.copy().view(complex).reshape(3, coarse.K, coarse.K)
        assert np.array_equal(kernels.restrict(big.T.copy().view(complex).reshape(
            3, fine.K, fine.K), coarse.K), bands)
        for coarse_D, fine_D in ((coarse.D, fine.D), (coarse.D.T, fine.D.T)):
            expected, got = coarse_D @ block, fine_D @ big
            for j in range(3):
                c = flat_to_complex(block[:, j], coarse.K)
                assert np.array_equal(flat_to_complex(big[:, j], fine.K)[np.ix_(m, m)], c)
                want = flat_to_complex(expected[:, j], coarse.K)
                have = flat_to_complex(got[:, j], fine.K)[np.ix_(m, m)]
                assert np.max(np.abs(have - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("N", [16, 32])
def test_sigma_max_bound_bounds_the_largest_singular_value(N):
    # sqrt2 M + s w_bound bounds sigma_max(D_s); w_bound is sqrt2 for
    # sin_zeros, |c| for constant(c) and sum |c| for custom
    for cfg, w_bound in ((SimConfig(N=N), math.sqrt(2.0)),
                         (SimConfig(N=N, phi_preset="constant(0.3+0.4j)"), 0.5),
                         (_repeated_config(N), 1.0 + abs(0.25 + 0.5j) + 0.3)):
        assert abs(cfg.w_bound - w_bound) <= 1e-15 * w_bound
        for s in (0.5, 4.0, 64.0):
            op = TorusOperator(cfg, s)
            sigma_max = np.linalg.svd(op.D.toarray(), compute_uv=False)[0]
            assert sigma_max <= op.sigma_max_bound()


def test_field_on_the_grid():
    # a unit band vector is a field of unit h^2-weighted norm, and the
    # field of e_m is exp(i(mx x + my y)) / 2pi
    rng = np.random.default_rng(13)
    cfg = _config(N=32)
    op = TorusOperator(cfg, 4.0)
    x = rng.standard_normal(op.nreal)
    x /= np.linalg.norm(x)
    u = kernels.to_grid(flat_to_complex(x, op.K), 32)
    assert u.shape == (32, 32)
    h = cfg.spacing
    assert abs(h * np.linalg.norm(u) - 1.0) < 1e-12
    xs = np.arange(32) * h
    for (mx, my) in [(0, 0), (3, -2), (-cfg.band_limit, 1)]:
        u = kernels.to_grid(_unit_mode(op.K, mx, my), 32)
        wave = np.exp(1j * (mx * xs[:, None] + my * xs[None, :])) / TWO_PI
        assert np.max(np.abs(u - wave)) < 1e-14
    # restrict undoes embed, on a band inside the grid and on the whole
    # even-sided grid, where the band's mode -N/2 is its index N/2
    for K in (op.K, 32):
        c = _random_band(rng, K)
        assert np.array_equal(kernels.restrict(kernels.embed(c, 32), K), c)
    assert np.array_equal(kernels.embed(c, 32), c)


def test_preconditioner_is_the_shifted_diagonal():
    rng = np.random.default_rng(11)
    for N, preset in ((16, "sin_zeros"), (64, "sin_zeros"), (64, "constant(1)"),
                      (64, "constant(0.3+0.4j)"), (16, "custom")):
        cfg = _custom_config(N) if preset == "custom" else _config(N=N, preset=preset)
        op = TorusOperator(cfg, 4.0)
        precond = fourier_preconditioner(op)
        # the diagonal as the eigensolve docstring defines it: mean|w|^2 by
        # Parseval over the modes, min|w|^2 = |c|^2 for constant(c), else 0
        m = _modes(op.K)
        m_sq = m[:, None] ** 2 + m[None, :] ** 2
        mean_sq = sum(abs(c) ** 2 for _mx, _my, c in cfg.w_modes())
        min_sq = abs(cfg.constant_value) ** 2 if preset.startswith("constant") else 0.0
        shift = max(op.s ** 2 * (mean_sq - min_sq), 1e-2)
        if preset != "custom":
            # on the presets it is the shift of mean|w|^2 - min|w|^2 over
            # the (N, N) grid, to the bit
            w_sq = np.abs(phi_field(cfg)) ** 2
            assert shift == max(float(op.s ** 2 * (np.mean(w_sq) - np.min(w_sq))), 1e-2)
        for _ in range(3):
            x = rng.standard_normal(op.nreal)
            expected = complex_to_flat(flat_to_complex(x, op.K) / (m_sq + shift))
            assert np.max(np.abs(precond(x) - expected)) <= 1e-15 * np.max(np.abs(expected))
        # the start block is made of its eigenvectors of largest eigenvalue
        block = eigensolve.lowest_modes(op, 6)
        assert np.array_equal(block.T @ block, np.eye(6))
        gains = [precond(block[:, j]) @ block[:, j] for j in range(6)]
        assert gains == [1.0 / shift] * 2 + [1.0 / (1.0 + shift)] * 4


@pytest.mark.parametrize("order", ["C", "F"])
def test_preconditioner_block_is_the_column_loop_bitwise(order):
    rng = np.random.default_rng(12)
    op = TorusOperator(_config(N=16), 4.0)
    precond = fourier_preconditioner(op)
    X = np.asarray(rng.standard_normal((op.nreal, 6)), order=order)
    expected = np.stack([precond(X[:, j]) for j in range(6)], axis=1)
    got = precond(X)
    assert got.shape == X.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("M", [21, 32])
def test_transpose_is_held_once_as_a_view(M):
    op = TorusOperator(_config(N=128), 8.0, band_limit=M)
    assert np.shares_memory(op.DT.data, op.D.data)
    X = np.random.default_rng(M).standard_normal((op.nreal, 8))
    assert np.array_equal(op.normal_matvec(X), op.D.T @ (op.D @ X))


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


# -- eigensolver ---------------------------------------------------------------


@pytest.mark.parametrize("order", ["C", "F"])
def test_block_apply_matches_linear_operator_bitwise(order):
    # LOBPCG hands whole blocks to the operator and the preconditioner: each
    # column of a block apply has the bits of the apply to that column
    rng = np.random.default_rng(9)
    cfg = _config(N=16)
    op = TorusOperator(cfg, 4.0)
    X = np.asarray(rng.standard_normal((op.nreal, 6)), order=order)
    for f in (op.normal_matvec, fourier_preconditioner(op)):
        expected = LinearOperator((op.nreal, op.nreal), matvec=f,
                                  dtype=float).matmat(X)
        got = f(X)
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
    got = residual_norms(op.normal_matvec, values, vectors)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_solver_layers_are_called_once_per_block(monkeypatch):
    # perfbench counts calls of normal_matvec and of the preconditioner as
    # per-layer work measures: LOBPCG makes one call of each per block, the
    # residual check one normal_matvec per run, and the FFT reference
    # kernels are not on the solver's path
    calls = dict.fromkeys(["ds", "dst", "normal", "precond"], 0)
    columns = {"A": 0, "M": 0}
    blocks = {"A": 0, "M": 0, "runs": 0}

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
        blocks["runs"] += 1

        def block_counter(key, f):
            def apply(block):
                columns[key] += block.shape[1]
                blocks[key] += 1
                return f(block)
            return apply
        return solver(block_counter("A", A), X, M=block_counter("M", M), **kwargs)

    monkeypatch.setattr(eigensolve, "lobpcg", lobpcg)
    cfg = _config(N=16, preset="sin_zeros", eig_count=3, eig_tol=1e-8)
    op = TorusOperator(cfg, 4.0)
    res = normal_eigenpairs(op, cfg)
    assert res.all_converged and blocks["runs"] >= 1
    assert calls["normal"] == blocks["A"] + blocks["runs"]
    assert calls["precond"] == blocks["M"] > 0
    assert columns["A"] > blocks["A"] and columns["M"] > blocks["M"]
    assert calls["ds"] == calls["dst"] == 0


# -- eigensolver runs ------------------------------------------------------------

def test_kernel_of_undeformed_operator():
    # s = 0: constants span the kernel of D_0, so the smallest eigenvalue is 0
    cfg = _config(N=16, preset="constant(1)", eig_count=1, eig_tol=1e-8,
                  seed=2, max_iterations=400)
    op = TorusOperator(cfg, 0.0)
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
    dense = np.linalg.eigvalsh(op.D.toarray().T @ op.D.toarray())
    assert abs(dense[0] - s * s) < 1e-9 * s * s
    assert abs(res.values[0] - dense[0]) < 1e-6 * s * s
    assert abs(dense_sigma_min(op) - s) < 1e-9 * s


def test_warm_start_matches_cold_solve():
    # a solve started from the Ritz block of a nearby s finds the same
    # eigenvalues as a solve from the lowest band modes; ten pairs reach
    # past the 2-dimensional kernel through the 8-fold level near 2s
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
    gram = res.vectors.T @ res.vectors
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
    assert report.to_dict()["assertions"]["problems"] == [
        "solver did not converge at s = [4.0, 8.0]"]
    assert report.verdicts() == [False, False]


def test_start_block_must_fit_the_operator():
    cfg = _config(N=16, eig_count=3)
    op = TorusOperator(cfg, 4.0)
    with pytest.raises(ValueError, match="start block"):
        normal_eigenpairs(op, cfg, start=np.ones((op.nreal - 2, 5)))


def test_the_solve_does_not_read_the_display_grid():
    # a solve reads w's modes, s and the band M only: on one band, three
    # grids give the same bits, also for a w whose minimum over the grid
    # depends on N
    for make in (lambda N: _config(N=N), _custom_config):
        solves = []
        for N in (32, 64, 128):
            cfg = make(N)
            op = TorusOperator(cfg, 8.0, 10)
            precond = fourier_preconditioner(op)(np.ones(op.nreal))
            solves.append((normal_eigenpairs(op, cfg), precond))
        (first, first_precond), *rest = solves
        assert first.all_converged
        for res, precond in rest:
            assert res.iterations == first.iterations
            for got, want in ((res.values, first.values), (res.vectors, first.vectors),
                              (precond, first_precond)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_only_operators_knows_how_a_band_sits_in_the_reals():
    # the interleaved real layout of a band is spelled in operators alone,
    # and the solve does not sample w on a grid
    layout = (".view(np.complex128)", ".view(np.float64)", "np.repeat(", "isqrt(")
    torus = Path(eigensolve.__file__).parent
    for path in sorted(torus.glob("*.py")):
        if path.name != "operators.py":
            text = path.read_text(encoding="utf-8")
            assert [s for s in layout if s in text] == [], path.name
    tree = ast.parse((torus / "eigensolve.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {a.name.split(".")[-1] for node in imports for a in node.names}
    names |= {node.module.split(".")[-1] for node in imports
              if isinstance(node, ast.ImportFrom) and node.module}
    assert not names & {"phi_field", "kernels"}


def test_the_band_operator_holds_no_display_grid():
    # the band operator and its solve read neither the grid side N nor its
    # spacing: the display grid is the sweep's
    torus = Path(eigensolve.__file__).parent
    for name in ("operators.py", "eigensolve.py"):
        tree = ast.parse((torus / name).read_text(encoding="utf-8"))
        grid = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("N", "spacing")}
        assert grid == set(), name
    assert not hasattr(TorusOperator(_config(N=16), 4.0), "N")
    assert not hasattr(TorusOperator, "field")


# -- outside mass --------------------------------------------------------------

def _unit_band(c):
    """The band c scaled to unit norm, as a stack of one."""
    return (c / np.linalg.norm(c))[None]


def test_outside_mass_uniform_field():
    # a band holding only m = 0 is the uniform density 1/4pi^2: each of
    # the Z disks holds pi delta^2 / 4pi^2 of it
    for N, delta in ((64, 0.5), (32, 1.2), (16, 0.05)):
        cfg = SimConfig(N=N, s_values=(4.0,), delta=delta)
        zeros = zero_locations(cfg)
        for K in (1, 3, 9):
            c = np.zeros((K, K), complex)
            c[0, 0] = 1.0
            mass, floor = outside_mass(_unit_band(c), cfg, zeros)
            want = 1.0 - len(zeros) * delta ** 2 / (4.0 * math.pi)
            assert abs(mass - want) <= 4 * np.finfo(float).eps
            assert 0.0 < floor <= 1e-15


def test_outside_mass_supported_inside_disk():
    # a Gaussian density |u|^2 of width sigma per axis, centred on the zero
    # at the origin, keeps exp(-delta^2 / 2 sigma^2) outside its disk; its
    # band c_m ~ exp(-sigma^2 |m|^2) is cut where that is exp(-36)
    cfg = _config(N=64)
    zeros = zero_locations(cfg)
    for sigma, M in ((0.2, 30), (0.1, 60)):
        m = kernels.band_modes(2 * M + 1)
        c = np.exp(-sigma ** 2 * (m[:, None] ** 2 + m[None, :] ** 2)) + 0j
        mass, floor = outside_mass(_unit_band(c), cfg, zeros)
        want = math.exp(-cfg.delta ** 2 / (2 * sigma ** 2))
        assert abs(mass - want) <= 1e-9 * want
        assert floor < 1e-6 * mass
    # at sigma = 0.05 the true mass, 2e-22, is below the rounding of
    # 1 - (inside): the mass is noise of the size of the floor
    m = kernels.band_modes(2 * 100 + 1)
    c = np.exp(-0.05 ** 2 * (m[:, None] ** 2 + m[None, :] ** 2)) + 0j
    mass, floor = outside_mass(_unit_band(c), cfg, zeros)
    assert abs(mass) <= 10 * floor < 1e-13


def test_outside_mass_empty_singular_set():
    cfg = _config(N=32, preset="constant(1)")
    c = _random_band(np.random.default_rng(0), 11)
    assert outside_mass(_unit_band(c), cfg, zero_locations(cfg)) == (1.0, 0.0)


def test_outside_mass_requires_normalization():
    cfg = _config(N=32)
    with pytest.raises(ValueError, match="norm"):
        outside_mass(np.ones((1, 11, 11), complex), cfg, zero_locations(cfg))


def test_outside_mass_is_a_finite_sum_in_mode_space():
    # a random band's mass is the mode sum: the same as a brute-force
    # sum of rhohat_k e^{ik.z} D(|k|) over the autocorrelation of c, with
    # D from scipy's J_1, and it does not move with the display N
    rng = np.random.default_rng(5)
    K = 7
    bands = np.stack([_random_band(rng, K) for _ in range(3)])
    bands /= math.sqrt(np.sum(np.abs(bands) ** 2) / 3)
    m = kernels.band_modes(K)
    rho = {}
    for c in bands:
        for ax, bx in itertools.product(range(K), repeat=2):
            for ay, by in itertools.product(range(K), repeat=2):
                key = (m[ax] - m[bx], m[ay] - m[by])
                rho[key] = rho.get(key, 0) + c[ax, ay] * np.conj(c[bx, by]) / 3
    masses = set()
    for N in (16, 64):
        cfg = SimConfig(N=N, s_values=(4.0,), delta=0.7)
        inside = 0.0
        for (zx, zy) in zero_locations(cfg):
            for (kx, ky), r in rho.items():
                k = math.hypot(kx, ky)
                disk = (math.pi * 0.49 if k == 0
                        else 2 * math.pi * 0.7 * special.j1(0.7 * k) / k)
                inside += (r * np.exp(1j * (kx * zx + ky * zy)) * disk).real
        mass, floor = outside_mass(bands, cfg, zero_locations(cfg))
        assert abs(mass - (1.0 - inside / (4 * math.pi ** 2))) <= 1e-13
        masses.add(mass)
    assert len(masses) == 1


@pytest.mark.parametrize("delta", [0.1, 0.5, 1.5])
def test_numpy_j1_is_scipy_j1(delta):
    # every |k| of the widest alias-free grid, L = 2K - 1 = 341 at N = 1024,
    # and the disk transform built from it
    L = 341
    m = kernels.band_modes(L)
    k = np.hypot(m[:, None], m[None, :])
    x = delta * np.unique(k)
    assert np.max(np.abs(sweep._bessel_j1(x) - special.j1(x))) <= 1e-14
    disk = sweep.disk_transform(L, delta)
    assert not disk.flags.writeable and sweep.disk_transform(L, delta) is disk
    want = np.where(k > 0, 2 * math.pi * delta * special.j1(delta * k)
                    / np.where(k > 0, k, 1.0), math.pi * delta ** 2)
    assert np.max(np.abs(disk - want)) <= 1e-14 * 2 * math.pi * delta


def test_the_outside_mass_reads_no_display_grid():
    # no pixel mask: the mass and its disk transform read neither the grid
    # side N nor its spacing
    assert not hasattr(sweep, "_inside")
    for fn in (sweep.outside_mass, sweep.disk_transform, sweep._bessel_j1):
        tree = ast.parse(inspect.getsource(inspect.unwrap(fn)).strip())
        grid = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("N", "spacing")}
        assert grid == set(), fn.__name__


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
    assert body["discretization"]["scheme"] == "fourier-galerkin-band"
    assert body["discretization"]["band_limit"] == 10
    assert "backend" not in body
    assert len(body["results"]) == 3
    assert body["fit"] is not None and body["fit"]["slope"] < 0


def test_run_sweep_refuses_overlapping_disks_before_any_solve(monkeypatch):
    # the zeros of sin_zeros lie pi apart: delta = pi/2 makes two disks
    # touch, and the mode sum would count their common part twice
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the disks")
    monkeypatch.setattr("cldirac.torus.sweep.normal_eigenpairs", no_solve)
    for delta in (math.pi / 2, 2.0, 3.0):
        cfg = SimConfig(N=16, s_values=(4.0, 8.0), delta=delta, eig_count=2)
        with pytest.raises(ConfigError, match="overlap: they lie 3.1416 apart"):
            run_sweep(cfg)
    cfg = SimConfig(N=16, s_values=(4.0, 8.0), delta=1.5, eig_count=2)
    with pytest.raises(AssertionError, match="solved before"):
        run_sweep(cfg)


def test_a_mass_below_its_rounding_floor_is_noted(monkeypatch):
    # a row whose mass is below the floor of 1 - (inside) gets a note, and
    # no verdict changes
    def floored(bands, config, zeros):
        mass, _floor = outside_mass(bands, config, zeros)
        return mass, 2 * mass if mass < 0.1 else 0.0
    monkeypatch.setattr("cldirac.torus.sweep.outside_mass", floored)
    cfg = SimConfig(N=32, s_values=(4.0, 8.0, 16.0), phi_preset="sin_zeros",
                    delta=0.5, eig_count=4, eig_tol=1e-8, seed=3)
    report = run_sweep(cfg)
    floored_rows = [r.s for r in report.rows if r.outside_mass < 0.1]
    assert floored_rows and len(floored_rows) < len(report.rows)
    assert [note.split(":")[0] for note in report.notes
            if "rounding floor" in note] == [f"s = {s:g}" for s in floored_rows]
    assert report.verdicts() == [True] * 3


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


def test_a_restarting_sweep_agrees_across_solver_seeds(monkeypatch):
    # the seed draws only the guard columns of a restart, so a sweep whose
    # solve restarts reads the same for every seed, to the solve's
    # tolerance; the restart is asserted first, so the test is not vacuous
    runs = []
    solver = eigensolve.lobpcg

    def lobpcg(*args, **kwargs):
        runs.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "lobpcg", lobpcg)
    reports = []
    for seed in (1, 2, 3, 4):
        runs.clear()
        cfg = _custom_config(32, s_values=(4.0, 8.0), eig_count=4, eig_tol=1e-8,
                             seed=seed)
        reports.append(run_sweep(cfg))
        assert len(runs) > len(reports[-1].rows)
    first = reports[0]
    assert first.all_converged
    rel = math.sqrt(cfg.eig_tol)
    for report in reports[1:]:
        assert report.verdicts() == first.verdicts()
        assert report.to_dict()["assertions"] == first.to_dict()["assertions"]
        assert report.notes == first.notes
        assert len(report.rows) == len(first.rows)
        for r, r0 in zip(report.rows, first.rows):
            assert (r.cluster_dim, r.band_limit, r.converged) == (
                r0.cluster_dim, r0.band_limit, r0.converged)
            for got, want in ((r.outside_mass, r0.outside_mass),
                              (r.band_tail, r0.band_tail)):
                assert abs(got - want) <= rel * max(abs(got), abs(want))
            # sigma_floor^2 = eig_tol * opnorm: below it a value is not
            # resolved from 0
            floor = r0.sigma_floor ** 2
            for got, want in zip(r.eigenvalues, r0.eigenvalues):
                if max(got, want) > floor:
                    assert abs(got - want) <= floor


# -- the continuum's spectrum on the band (no lattice doublers) -----------------

S_VALUES = (8.0, 16.0, 32.0, 64.0)


@pytest.mark.parametrize("N", [64, 128])
def test_constant_spectrum_has_no_doublers(N):
    # w = 1: D_s^T D_s = |m|^2 + s^2, so s^2 is 2-fold (the real and
    # imaginary constant) and s^2 + 1 comes next
    cfg = SimConfig(N=N, s_values=S_VALUES, phi_preset="constant(1)",
                    delta=0.5, eig_count=4, eig_tol=1e-9)
    report = run_sweep(cfg)
    assert report.all_converged
    for r in report.rows:
        want = [r.s ** 2] * 2 + [r.s ** 2 + 1.0] * 2
        assert np.allclose(r.eigenvalues, want, rtol=1e-9, atol=0.0)


@functools.lru_cache(maxsize=None)
def _continuum_mass(s, delta=0.5):
    """Outside mass of the sin_zeros kernel in the continuum, from
    scipy.integrate.  The kernel is span_R{u1, u2}, u1 = exp(s(cos y -
    cos x)) and u2 = i exp(s(cos x - cos y)); u2's density mirrors u1's,
    which factors as f(x - pi) f(y) with f(a) = exp(2s cos a), peaked at
    the zero (pi, 0).  Outside that disk is |a| > delta, or |a| <= delta
    and |y| > sqrt(delta^2 - a^2): a sum of positive tail integrals, with
    no cancellation.  The mass in the other three disks, of order
    exp(-4s), is dropped."""
    def f(a):  # exp(2s cos a), scaled by exp(-2s)
        return math.exp(2.0 * s * (math.cos(a) - 1.0))

    def tail(b):  # integral of f over b < |a| < pi
        return 2.0 * integrate.quad(f, b, math.pi, epsabs=0.0, epsrel=1e-11,
                                    limit=200)[0]
    total = 2.0 * math.pi * special.ive(0, 2.0 * s)  # integral of f
    outside = tail(delta) * total + integrate.quad(
        lambda a: f(a) * tail(math.sqrt(delta * delta - a * a)), -delta, delta,
        epsabs=0.0, epsrel=1e-11, limit=200)[0]
    return outside / total ** 2


def _closed_form_mass(cfg, s):
    """Outside mass of the sin_zeros kernel at cfg's delta: the continuum
    value, which no display grid enters."""
    return _continuum_mass(s, cfg.delta)


def test_the_continuum_masses():
    # the oracle itself, against the values it gives to 7 digits
    for s, want in ((8.0, 0.1441982), (16.0, 0.02012435), (32.0, 3.922812e-4),
                    (64.0, 1.491955e-7), (128.0, 2.163887e-14)):
        assert abs(_continuum_mass(s) - want) <= 5e-7 * want


def test_resolved_rows_read_the_continuum_mass():
    # rows solved on the band M = 42, which resolves s <= 64, read the
    # continuum mass to 1e-6 relative
    cfg = SimConfig(N=128, s_values=(8.0, 16.0, 32.0), phi_preset="sin_zeros",
                    delta=0.5, eig_count=3, eig_tol=1e-8)
    zeros = zero_locations(cfg)
    start = None
    for s in cfg.s_values:
        op = TorusOperator(cfg, s, 42)
        result = normal_eigenpairs(op, cfg, start=start)
        start = result.block
        assert result.all_converged
        size = lowest_cluster(op, result)
        assert size == 2
        mass, floor = outside_mass(flat_to_complex(result.vectors[:, :size], op.K),
                                   cfg, zeros)
        want = _continuum_mass(s)
        assert abs(mass - want) <= 1e-6 * want
        assert floor < 1e-9 * mass


def test_the_mass_does_not_depend_on_the_display_grid():
    # the same solves at N = 64 and N = 128 land on the same bands, and
    # their masses are the same bits: the mass reads no grid
    reports = [run_sweep(SimConfig(N=N, s_values=(4.0, 8.0), phi_preset="sin_zeros",
                                   delta=0.5, eig_count=3, eig_tol=1e-8))
               for N in (64, 128)]
    a, b = ([(r.band_limit, r.eigenvalues, r.outside_mass) for r in rep.rows]
            for rep in reports)
    assert [band for band, _v, _m in a] == [12, 16]
    assert a == b


@functools.lru_cache(maxsize=2)
def _sin_zeros_sweep(N):
    cfg = SimConfig(N=N, s_values=S_VALUES, phi_preset="sin_zeros",
                    delta=0.5, eig_count=3, eig_tol=1e-8)
    return cfg, run_sweep(cfg)


@pytest.mark.parametrize("N", [64, 128])
def test_sin_zeros_kernel_is_the_continuum_kernel(N):
    # the kernel is span_R{exp(s(cos y - cos x)), i exp(s(cos x - cos y))}:
    # 2-dimensional, with the next level near 2s, and every unit element
    # has the closed-form outside mass; N = 64 does not resolve s = 64
    cfg, report = _sin_zeros_sweep(N)
    assert report.all_converged
    for r in report.rows:
        floor = cfg.eig_tol * TorusOperator(cfg, r.s).sigma_max_bound() ** 2
        assert max(r.eigenvalues[:2]) <= floor < r.eigenvalues[2]
        if r.s >= 16:
            assert abs(r.eigenvalues[2] / r.s - 2.0) <= 0.05 * 2.0
        if N == 128 or r.s <= 32:
            closed = _closed_form_mass(cfg, r.s)
            assert abs(r.outside_mass - closed) <= 0.01 * closed


@pytest.mark.parametrize("N,noted", [(64, [32.0, 64.0]), (128, [])])
def test_band_tail_notes_the_unresolved_row(N, noted):
    # a row whose band_tail exceeds eig_tol on the widest band, and only
    # such a row, gets a note, and the verdicts stay those of the checks
    cfg, report = _sin_zeros_sweep(N)
    tails = [r.band_tail for r in report.rows]
    assert [r.s for r in report.rows if r.band_tail > cfg.eig_tol] == noted
    assert all(r.band_limit == cfg.band_limit for r in report.rows if r.s in noted)
    assert len(report.notes) == len(noted)
    assert all(f"s = {s:g}: band_tail" in note for s, note in zip(noted, report.notes))
    assert [line for line in report.lines() if line.startswith("[note]")] == [
        f"[note] {note}" for note in report.notes]
    assert report.verdicts() == [True] * 4
    assert [r["band_tail"] for r in report.to_dict()["results"]] == tails


def test_a_capped_row_with_a_small_mass_is_noted():
    # at s = 128 the widest band N // 3 = 42 leaves a band_tail of 5.1e-7,
    # and an outside mass about 4e6 times the closed form: a fixed tail
    # threshold of 1e-5 let it pass unnoted
    cfg = dataclasses.replace(load_config(preset_path("sin_zeros.cfg")), N=128,
                              s_values=(32.0, 64.0, 128.0))
    report = run_sweep(cfg)
    assert [r.band_limit for r in report.rows] == [32, 42, 42]
    assert len(report.notes) == 1 and report.notes[0].startswith("s = 128: band_tail")
    assert report.rows[2].outside_mass > 1e3 * _closed_form_mass(cfg, 128.0)
    assert report.verdicts() == [True] * 3


@pytest.mark.parametrize("N,bands", [(64, [16, 21, 21, 21]), (128, [16, 23, 32, 42])])
def test_each_row_is_solved_on_its_own_band(N, bands):
    # the band is ceil(sqrt(32 s)) for sin_zeros (g = 1), capped at N // 3;
    # it never decreases, and a row below the cap resolves its modes
    cfg, report = _sin_zeros_sweep(N)
    assert [a_priori_band(cfg, s) for s in S_VALUES] == [
        math.ceil(math.sqrt(32 * s)) for s in S_VALUES]
    assert [r.band_limit for r in report.rows] == bands
    for r, line in zip(report.rows, report.lines()):
        assert r.band_tail <= cfg.eig_tol or r.band_limit == cfg.band_limit
        assert f"({r.iterations} iterations on M = {r.band_limit}, " in line
        opnorm = TorusOperator(cfg, r.s, r.band_limit).sigma_max_bound() ** 2
        assert r.cluster_dim == 2
        assert r.sigma_floor == math.sqrt(cfg.eig_tol * opnorm)
    results = report.to_dict()["results"]
    for key in ("band_limit", "cluster_dim", "sigma_floor"):
        assert [row[key] for row in results] == [getattr(r, key) for r in report.rows]
    assert not any(key.startswith("coarse") for row in results for key in row)


@pytest.mark.parametrize("eig_count,band", [(4, 2), (7, 3)])
def test_constant_rows_run_on_the_smallest_band(eig_count, band):
    # constant w: the band's lowest modes are exact, so every row runs on
    # the smallest band that meets LOBPCG's size rule, and the start block
    # has converged already
    cfg = dataclasses.replace(load_config(preset_path("constant.cfg")),
                              eig_count=eig_count)
    assert _lobpcg_fits(eig_count, band) and not _lobpcg_fits(eig_count, band - 1)
    report = run_sweep(cfg)
    assert report.all_converged and report.verdicts() == [True] * 4
    assert [r.band_limit for r in report.rows] == [band] * 4
    assert [r.iterations for r in report.rows] == [2] * 4
    assert all(abs(r.sigma_min - r.s) <= 0.01 * r.s for r in report.rows)


def _matches_the_full_band(cfg, rows):
    """Each row agrees with a solve on the band N // 3 that starts from the
    previous row's solve there, or from the lowest modes."""
    zeros = zero_locations(cfg)
    start = None
    for r in rows:
        op = TorusOperator(cfg, r.s)
        ref = normal_eigenpairs(op, cfg, start=start)
        start = ref.block
        assert ref.all_converged
        values = np.array(r.eigenvalues)
        big = ref.values > 1e-6
        assert np.array_equal(values > 1e-6, big) and np.sum(big) >= 1
        assert np.all(np.abs(values[big] - ref.values[big]) <= 1e-12 * ref.values[big])
        size = lowest_cluster(op, ref)
        mass, _floor = outside_mass(flat_to_complex(ref.vectors[:, :size], op.K),
                                    cfg, zeros)
        assert r.cluster_dim == size
        assert abs(r.outside_mass - mass) <= 1e-6 * mass


def test_a_prolonged_start_finds_the_warm_started_solution():
    # each row below the cap, two of them started from the previous row's
    # block prolonged onto a wider band, agrees with the band N // 3
    cfg, report = _sin_zeros_sweep(128)
    rows = [r for r in report.rows if r.band_limit < cfg.band_limit]
    assert [r.band_limit for r in rows] == [16, 23, 32]
    _matches_the_full_band(cfg, rows)


def test_a_row_the_a_priori_band_does_not_resolve_widens(monkeypatch):
    # with the a-priori band forced to 2, each row doubles its band until
    # band_tail <= eig_tol, the last step capped at N // 3 = 21, and
    # agrees with the band N // 3
    tried = []

    def recording(config, s, band_limit=None):
        tried.append(band_limit)
        return TorusOperator(config, s, band_limit)
    monkeypatch.setattr("cldirac.torus.sweep.a_priori_band", lambda config, s: 2)
    monkeypatch.setattr("cldirac.torus.sweep.TorusOperator", recording)
    cfg = SimConfig(N=64, s_values=(8.0, 16.0), phi_preset="sin_zeros",
                    delta=0.5, eig_count=3, eig_tol=1e-8)
    report = run_sweep(cfg)
    assert tried == [2, 4, 8, 16, 16, 21]
    assert [r.band_limit for r in report.rows] == [16, 21]
    assert all(r.band_tail <= cfg.eig_tol for r in report.rows)
    assert report.notes == [] and report.verdicts() == [True, True]
    _matches_the_full_band(cfg, report.rows)


def test_the_benchmark_scale_sweep_resolves_every_row():
    # sin_zeros at N = 256, s = 8, 32: each row on its own band, well below
    # the cap 85, with the closed-form mass on the 256^2 mask
    cfg = dataclasses.replace(load_config(preset_path("sin_zeros.cfg")), N=256,
                              s_values=(8.0, 32.0))
    report = run_sweep(cfg)
    assert [r.band_limit for r in report.rows] == [16, 32]
    assert [r.cluster_dim for r in report.rows] == [2, 2]
    assert report.notes == [] and report.verdicts() == [True, True]
    for r in report.rows:
        closed = _closed_form_mass(cfg, r.s)
        assert abs(r.outside_mass - closed) <= 0.01 * closed


def test_run_sweep_reproducible():
    cfg = SimConfig(N=16, s_values=(4.0, 8.0), phi_preset="sin_zeros",
                    delta=0.5, eig_count=2, eig_tol=1e-7, seed=5)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.eigenvalues == rb.eigenvalues
        assert ra.outside_mass == rb.outside_mass


def test_lowest_density_does_not_depend_on_the_cluster_basis():
    # sin_zeros has a 2-dimensional kernel: any orthogonal rotation of the
    # solver's two kernel vectors is an equally valid answer, and the
    # measurement must read the same from each
    cfg = SimConfig(N=32, s_values=(8.0,), phi_preset="sin_zeros",
                    delta=0.5, eig_count=3, eig_tol=1e-8, seed=3)
    op = TorusOperator(cfg, 8.0)
    result = normal_eigenpairs(op, cfg)
    floor = cfg.eig_tol * result.opnorm_estimate
    assert result.values[1] <= result.values[0] + floor < result.values[2]
    size = lowest_cluster(op, result)
    assert size == 2
    density = lowest_density(op, result, size)
    mass, _floor = outside_mass(flat_to_complex(result.vectors[:, :size], op.K),
                                cfg, zero_locations(cfg))
    angle = np.random.default_rng(11).uniform(0.0, TWO_PI)
    rotation = np.array([[math.cos(angle), -math.sin(angle)],
                         [math.sin(angle), math.cos(angle)]])
    vectors = result.vectors.copy()
    vectors[:, :2] = vectors[:, :2] @ rotation
    rotated_result = dataclasses.replace(result, vectors=vectors)
    rotated = lowest_density(op, rotated_result, size)
    assert np.max(np.abs(rotated - density)) <= 1e-12 * np.max(density)
    tail = band_tail(op, result, size)
    assert abs(band_tail(op, rotated_result, size) - tail) <= 1e-12 * tail
    rotated_mass, _floor = outside_mass(flat_to_complex(vectors[:, :size], op.K),
                                        cfg, zero_locations(cfg))
    assert abs(rotated_mass - mass) <= 1e-12 * mass
    # the first vector alone, which a single-field measurement would read,
    # does not agree with its rotated copy
    single = [np.abs(kernels.to_grid(flat_to_complex(v[:, 0], op.K), cfg.N)) ** 2
              for v in (result.vectors, vectors)]
    assert np.max(np.abs(single[0] - single[1])) > 1e-3 * np.max(density)


@pytest.mark.parametrize("N,M", [(32, 10), (256, 16)])
def test_lowest_density_is_the_loop_over_the_cluster_bitwise(N, M):
    # one batched read-out of the cluster's (k, N, N) stack gives the bits
    # of reading out one field at a time and summing
    cfg = SimConfig(N=N, s_values=(8.0, 16.0), phi_preset="sin_zeros",
                    delta=0.5, eig_count=3, eig_tol=1e-8, seed=3)
    op = TorusOperator(cfg, 8.0, M)
    result = normal_eigenpairs(op, cfg)
    for size in (1, 2, 3):
        loop = np.zeros((N, N))
        for j in range(size):
            u = kernels.to_grid(flat_to_complex(result.vectors[:, j], op.K), N)
            loop += u.real ** 2 + u.imag ** 2
        assert np.array_equal(lowest_density(op, result, size), loop / size)


def test_run_sweep_locates_the_zeros_once(monkeypatch):
    calls = []

    def counting(config):
        calls.append(config)
        return zero_locations(config)
    monkeypatch.setattr("cldirac.torus.sweep.zero_locations", counting)
    for preset in ("sin_zeros", "constant(1)"):
        cfg = SimConfig(N=16, s_values=(4.0, 8.0), phi_preset=preset,
                        delta=0.5, eig_count=2, eig_tol=1e-7, seed=5)
        calls.clear()
        run_sweep(cfg)
        assert calls == [cfg]
    cfg = _custom_config(16, s_values=(4.0, 8.0), eig_count=2, eig_tol=1e-7)
    calls.clear()
    run_sweep(cfg)
    assert calls == [cfg]


def test_sweep_fields_do_not_keep_the_solver_block():
    cfg = SimConfig(N=16, s_values=(4.0, 8.0), phi_preset="sin_zeros",
                    delta=0.5, eig_count=2, eig_tol=1e-7, seed=5)
    for density in run_sweep(cfg).fields:
        root = density
        while root.base is not None:
            root = root.base
        assert density.shape == (16, 16) and root.nbytes == density.nbytes


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
    op = TorusOperator(cfg, 4.0)
    result = normal_eigenpairs(op, cfg)
    density = lowest_density(op, result, lowest_cluster(op, result))
    assert density.shape == (16, 16) and density.dtype == float
    assert abs((TWO_PI / 16) ** 2 * np.sum(density) - 1.0) < 1e-9
    write_heatmap_svg(svg_path, density, report.zeros, cfg.delta, title="test")
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
    assert ["#%06x" % c for c in _color_codes(t).tolist()] == [
        _scalar_color(float(v)) for v in t]
    grid = t[:400].reshape(20, 20)
    assert [["#%06x" % c for c in row] for row in _color_codes(grid).tolist()] == [
        [_scalar_color(float(v)) for v in row] for row in grid]


_RECT = re.compile(r'<rect x="([^"]*)" y="([^"]*)" width="([^"]*)" '
                   r'height="([^"]*)" fill="([^"]*)"/>')


def _heatmap_frame(zeros, delta, title):
    """The header, title, circles and closing tag of a heatmap, by the
    formulas of the one-rect-per-cell writer."""
    scale = SIZE / TWO_PI
    radius = delta * scale
    circles = [
        f'<circle cx="{zx * scale + ox:.2f}" cy="{zy * scale + oy:.2f}" '
        f'r="{radius:.2f}" fill="none" stroke="#ff5050" stroke-width="2"/>'
        for (zx, zy) in zeros for ox in (-SIZE, 0, SIZE) for oy in (-SIZE, 0, SIZE)
        if -radius <= zx * scale + ox <= SIZE + radius
        and -radius <= zy * scale + oy <= SIZE + radius]
    return ([f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
             f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
             f"<title>{title}</title>"] + circles + ["</svg>"])


def _heatmap_densities(n):
    x = np.arange(n) * (TWO_PI / n)
    return {
        "random": np.random.default_rng(n).random((n, n)),
        "smooth": np.exp(8 * (np.cos(x)[:, None] - np.cos(x)[None, :])),
        "zero": np.zeros((n, n)),
        "constant": np.full((n, n), 0.37),
    }


@pytest.mark.parametrize("n", [16, 48, 64, 256])
def test_heatmap_paints_every_cell_its_color(tmp_path, n):
    # Cells are drawn column-major, y inner, each overhanging its right and
    # lower neighbours by 0.5 px, which the neighbour drawn later covers.  A
    # rect per vertical run of one colour, as tall as the run plus 0.5 px,
    # covers the same area and leaves the same overhangs: the picture is the
    # one-rect-per-cell picture, cell for cell.
    cell = SIZE / n
    coords = [f"{i * cell:.2f}" for i in range(n)]
    index = {c: i for i, c in enumerate(coords)}
    zeros, delta = [(0.0, math.pi), (math.pi, 0.0), (0.1, 6.2)], 0.5
    for name, density in _heatmap_densities(n).items():
        path = tmp_path / f"{name}.svg"
        write_heatmap_svg(path, density, zeros, delta, title=f"{name} {n}")
        lines = path.read_text(encoding="utf-8").split("\n")
        assert [ln for ln in lines if not ln.startswith("<rect ")] == \
            _heatmap_frame(zeros, delta, f"{name} {n}")
        rects = [_RECT.fullmatch(ln) for ln in lines if ln.startswith("<rect ")]
        assert all(rects)
        runs = [(index[m[1]], index[m[2]], m[3], m[4], m[5]) for m in rects]
        t = np.sqrt(density / (float(density.max()) or 1.0))
        cells = []
        for j, (ix, iy, width, height, fill) in enumerate(runs):
            nxt = runs[j + 1] if j + 1 < len(runs) else None
            end = nxt[1] if nxt is not None and nxt[0] == ix else n
            assert width == f"{cell + 0.5:.2f}"
            assert height == f"{(end - iy) * cell + 0.5:.2f}"
            assert {_scalar_color(float(v)) for v in t[ix, iy:end]} == {fill}
            if end < n:  # the run is maximal
                assert nxt[4] != fill
            cells.extend((ix, y) for y in range(iy, end))
        assert cells == [(ix, iy) for ix in range(n) for iy in range(n)]
        if name in ("zero", "constant"):
            assert len(runs) == n


def test_heatmap_write_holds_no_per_cell_strings(tmp_path):
    # the one-rect-per-cell writer peaked at 22 MB traced on this input
    density = np.random.default_rng(11).random((256, 256))
    tracemalloc.start()
    try:
        write_heatmap_svg(tmp_path / "m.svg", density, [(0.0, math.pi)], 0.5,
                          title="memory")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_fit_loglog():
    fit = fit_loglog([2.0, 4.0, 8.0], [1.0, 0.25, 0.0625])
    assert abs(fit["slope"] + 2.0) < 1e-12
    assert fit_loglog([2.0], [1.0]) is None
