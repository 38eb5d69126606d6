"""Smooth molecular surfaces from high-order spectral PDE filtering.

The pipeline: parse a structure file into atoms, rasterize an initial
scalar field on a regular grid, evolve it under an arbitrarily high even
order diffusion-like transform solved exactly in the frequency domain of
a Clifford-Fourier transform, then extract triangle isosurfaces.

The exported names load lazily (PEP 562): a submodule is imported when
one of its names is first read, so `python -m cliffsurf` imports only the
modules the pipeline runs, and not the Clifford algebra layer (ga, cft).
"""

import importlib

_MODULE_EXPORTS = {
    "cft": (
        "MultivectorField2",
        "MultivectorField3",
        "cft2_forward",
        "cft2_inverse",
        "cft3_forward",
        "cft3_inverse",
        "pack_channels",
        "spectral_gradient2_split",
        "spectral_gradient3",
        "spectral_laplacian3",
        "unpack_channels",
    ),
    "cli": ("RunConfig", "execute", "sweep"),
    "ga": (
        "Multivector2",
        "Multivector3",
        "commutes_with_pseudoscalar",
        "exp_pseudoscalar",
        "geometric_product",
        "pseudoscalar_square",
        "vector_dot",
        "wedge",
    ),
    "grids": ("GridSpec", "GridSpec2", "ScalarField3"),
    "molecule": (
        "Molecule",
        "ParseError",
        "parse_auto",
        "parse_pdb",
        "parse_pqr",
        "parse_xyzr",
        "serialize_pqr",
    ),
    "pdefilter": (
        "FilterParams",
        "ModeDecomposition",
        "SpectralBand",
        "default_coefficients",
        "field_from_spectrum",
        "filter_gain",
        "forward_spectrum",
        "frequency_response",
        "highband_energy",
        "lowpass_apply",
        "mode_decompose",
        "spectral_energy",
    ),
    "surface": (
        "TriangleMesh",
        "marching_cubes",
        "mesh_metrics",
        "write_mesh",
        "write_obj",
        "write_off",
    ),
    "volumetrics": ("make_grid", "rasterize", "write_volume"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
