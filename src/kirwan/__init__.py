"""Exact intersection pairings and reduction-map kernels for Hamiltonian
circle actions with isolated fixed points.

Everything runs on combinatorial fixed-point data (moment values, isotropy
weights, restriction tables) in exact rational arithmetic.  The kernel of the
Kirwan map is computed both from residue pairings and from the vanishing
conditions above/below the cut, and the two descriptions are cross-checked;
kernel classes can be split constructively into their two vanishing pieces.

This module re-exports the names the README documents; everything else is
imported from its own module (`kirwan.exactmath`, `kirwan.momentdata`,
`kirwan.cohomology`, `kirwan.kernels`, `kirwan.generators`, `kirwan.errors`).
"""

from .cohomology import EquivariantClass, make_class, validate_alpha_basis
from .errors import KirwanError
from .generators import gen_cpn, gen_sphere_product
from .kernels import (
    Sweep,
    b_matrix,
    decompose,
    kernel_residue,
    kernel_tw,
    kernels_equal,
    pairing_matrix,
)
from .momentdata import (
    CutLevel,
    FixedPoint,
    ManifoldData,
    load_manifold,
    manifold_to_json,
)

__version__ = "0.20.0"
