"""Flat-torus spectral simulator for the deformed operator D_s = D + s A."""

from .config import ConfigError, SimConfig, load_config, parse_config_text, phi_field, preset_path, zero_locations
from .eigensolve import EigenResult, dense_sigma_min, fourier_preconditioner, normal_eigenpairs
from .operators import TorusOperator, complex_to_flat, flat_to_complex
from .sweep import SpectralReport, SweepRow, fit_loglog, outside_mass, run_sweep
from .heatmap import write_heatmap_svg

__all__ = [
    "ConfigError",
    "EigenResult",
    "SimConfig",
    "SpectralReport",
    "SweepRow",
    "TorusOperator",
    "complex_to_flat",
    "dense_sigma_min",
    "fit_loglog",
    "flat_to_complex",
    "fourier_preconditioner",
    "load_config",
    "normal_eigenpairs",
    "outside_mass",
    "parse_config_text",
    "phi_field",
    "preset_path",
    "run_sweep",
    "write_heatmap_svg",
    "zero_locations",
]
