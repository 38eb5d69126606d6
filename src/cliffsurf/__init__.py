"""Smooth molecular surfaces from high-order spectral PDE filtering.

The pipeline: parse a structure file into atoms, rasterize an initial
scalar field on a regular grid, evolve it under an arbitrarily high even
order diffusion-like transform solved exactly in the frequency domain of
a Clifford-Fourier transform, then extract triangle isosurfaces.
"""

from .cft import (
    MultivectorField2,
    MultivectorField3,
    cft2_forward,
    cft2_inverse,
    cft3_forward,
    cft3_inverse,
    pack_channels,
    spectral_gradient2_split,
    spectral_gradient3,
    spectral_laplacian3,
    unpack_channels,
)
from .cli import RunConfig, execute, sweep
from .ga import (
    Multivector2,
    Multivector3,
    commutes_with_pseudoscalar,
    exp_pseudoscalar,
    geometric_product,
    pseudoscalar_square,
    vector_dot,
    wedge,
)
from .grids import GridSpec, GridSpec2, ScalarField3, SpectralGrid
from .molecule import (
    Atom,
    Molecule,
    ParseError,
    parse_auto,
    parse_pdb,
    parse_pqr,
    parse_xyzr,
    serialize_pqr,
)
from .pdefilter import (
    FilterParams,
    ModeDecomposition,
    SpectralBand,
    default_coefficients,
    field_from_spectrum,
    filter_gain,
    forward_spectrum,
    frequency_response,
    highband_energy,
    lowpass_apply,
    mode_decompose,
    spectral_energy,
)
from .surface import TriangleMesh, marching_cubes, mesh_metrics, write_obj, write_off
from .volumetrics import (
    export_opendx,
    export_raw,
    make_grid,
    rasterize_gaussian,
    rasterize_piecewise,
    rasterize_piecewise_swapped,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "FilterParams",
    "GridSpec",
    "GridSpec2",
    "ModeDecomposition",
    "Molecule",
    "Multivector2",
    "Multivector3",
    "MultivectorField2",
    "MultivectorField3",
    "ParseError",
    "RunConfig",
    "ScalarField3",
    "SpectralBand",
    "SpectralGrid",
    "TriangleMesh",
    "cft2_forward",
    "cft2_inverse",
    "cft3_forward",
    "cft3_inverse",
    "commutes_with_pseudoscalar",
    "default_coefficients",
    "execute",
    "exp_pseudoscalar",
    "export_opendx",
    "export_raw",
    "field_from_spectrum",
    "filter_gain",
    "forward_spectrum",
    "frequency_response",
    "geometric_product",
    "highband_energy",
    "lowpass_apply",
    "make_grid",
    "marching_cubes",
    "mesh_metrics",
    "mode_decompose",
    "pack_channels",
    "parse_auto",
    "parse_pdb",
    "parse_pqr",
    "parse_xyzr",
    "pseudoscalar_square",
    "rasterize_gaussian",
    "rasterize_piecewise",
    "rasterize_piecewise_swapped",
    "serialize_pqr",
    "spectral_energy",
    "spectral_gradient2_split",
    "spectral_gradient3",
    "spectral_laplacian3",
    "sweep",
    "unpack_channels",
    "vector_dot",
    "wedge",
    "write_obj",
    "write_off",
]
