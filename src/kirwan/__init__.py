"""Exact intersection pairings and reduction-map kernels for Hamiltonian
circle actions with isolated fixed points.

Everything runs on combinatorial fixed-point data (moment values, isotropy
weights, restriction tables) in exact rational arithmetic.  The kernel of the
Kirwan map is computed both from residue pairings and from the vanishing
conditions above/below the cut, and the two descriptions are cross-checked;
kernel classes can be split constructively into their two vanishing pieces.
"""

from __future__ import annotations

from .cohomology import (
    EquivariantClass,
    Subspace,
    ValidationReport,
    add_classes,
    basis_points,
    class_to_dict,
    degree_basis,
    linear_combination,
    make_class,
    restrict,
    scale_class,
    subspace_classes,
    subspace_contains,
    subspace_from_rows,
    subspace_intersection_dim,
    subspace_scalar_rows,
    subspace_sum,
    unit_class,
    validate_alpha_basis,
    weighted_gram,
    zero_class,
)
from .errors import (
    InternalContradiction,
    KirwanError,
    MissingAlphaPlus,
    NotInImage,
    NotInKernel,
    NotRegularValue,
    NotTriangular,
    ParseError,
    SchemaError,
    SingularDiagonal,
    SpecError,
    UnknownFixedPoint,
    ValidationError,
)
from .exactmath import (
    MatrixQ,
    nullspace,
    rat,
    rat_str,
    rref,
    solve_upper_triangular,
)
from .generators import CPnSpec, SphereProductSpec, gen_cpn, gen_sphere_product
from .kernels import (
    BMatrixReport,
    DecompositionCertificate,
    KernelReport,
    PairingMatrix,
    b_matrix,
    certificate_to_dict,
    decompose,
    kernel_residue,
    kernel_tw,
    kernels_equal,
    pairing,
    pairing_matrix,
    report_to_dict,
)
from .momentdata import (
    CutLevel,
    FixedPoint,
    ManifoldData,
    euler_class,
    index_census,
    is_regular,
    load_manifold,
    make_manifold,
    manifold_to_dict,
    manifold_to_json,
    morse_index,
    negative_euler_scalar,
    positive_euler_scalar,
    split_fixed_points,
)

__version__ = "0.2.0"
