"""Exact integral-lattice toolkit for Enriques involutions on supersingular K3 surfaces."""

from .arith import (
    arth,
    find_d,
    frobenius_bounds_enriques,
    legendre,
    newton_slopes,
    polygon_lies_above,
    verify_norm_bound,
)
from .checker import (
    CaseCertificate,
    Verdict,
    build_case,
    decide_enriques,
    gamma2_in_k3,
    survey,
    verify_certificate,
)
from .embeddings import (
    GlueData,
    LatticeEmbedding,
    extends_to,
    glue_data,
    is_primitive,
    orthogonal_complement,
    overlattice,
)
from .enumeration import ShortVectorReport, count_norm, short_vectors
from .intmat import Matrix, det, hnf, intmat, kernel_basis, snf
from .lattice import (
    DiscriminantGroup,
    IntegralLattice,
    builtin,
    diag_lattice,
    direct_sum,
    discriminant,
    discriminant_group,
    fixture_path,
    is_even,
    load_lattice,
    save_lattice,
    signature,
    twist,
)

__all__ = [name for name in dir() if not name.startswith("_")]
