"""Realizability of pairs of finite groups, skew braces, and audits.

A pair (G, N) of equal-order finite groups is realizable when G occurs as
a regular subgroup of the holomorph Hol(N) = N x| Aut(N).  This package
decides realizability by two independent engines (bijective crossed
homomorphisms and direct holomorph search), constructs the skew braces a
regular subgroup induces, evaluates the dihedral structure-count formula,
and machine-checks the classification statements over exhaustive
small-order catalogs.
"""

from .brace import (
    SkewBrace,
    additive_group,
    brace_from_regular,
    lambda_circ_in_hol,
    multiplicative_group,
    trivial_brace,
    verify_brace,
)
from .counting import (
    CountReport,
    byott_aggregate,
    chi,
    count_hgs_dihedral,
    direct_normalized_count,
    euler_phi,
    factorize,
    formula_count_dihedral,
    is_burnside_number,
    radical,
)
from .errors import HopfGaloisError
from .factory import (
    Alternating4,
    CatalogEntry,
    Cyclic,
    Dihedral,
    DirectProduct,
    GroupSpec,
    Holomorph,
    SemidirectCC,
    SemidirectZ2,
    automorphism_group,
    automorphism_order,
    build,
    catalog,
    class_index,
    decompose_burnside,
    holomorph,
    shape_check_semidirect_z2,
    z2_twists,
)
from .groups import (
    Homomorphism,
    PermGroup,
    all_subgroups,
    are_isomorphic,
    characteristic_subgroups,
    closure,
    homomorphisms,
    is_almost_sylow_cyclic,
    is_c_group,
    is_cyclic,
    is_regular,
    is_solvable,
    regular_representation,
    unique_odd_part,
)
from .audit import AuditReport, run_audit
from .realize import (
    CrossedHom,
    RegularSubgroupRecord,
    count_crossed_pairs,
    crossed_homomorphisms,
    realizable_via_cocycles,
    realizable_via_search,
    regular_subgroups,
    subgroup_from_cocycle,
    transport_characteristic,
)
from .specparse import canonical_text, parse_group_spec

__version__ = "0.1.0"
