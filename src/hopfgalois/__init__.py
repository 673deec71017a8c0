"""Realizability of pairs of finite groups, skew braces, and audits.

A pair (G, N) of equal-order finite groups is realizable when G occurs as
a regular subgroup of the holomorph Hol(N) = N x| Aut(N).  This package
decides realizability by two independent engines (bijective crossed
homomorphisms and direct holomorph search), constructs the skew braces a
regular subgroup induces, evaluates the dihedral structure-count formula,
and machine-checks the classification statements over exhaustive
small-order catalogs.

Importing the package loads the engines (``errors``, ``perm``, ``groups``,
``factory``, ``realize``, ``brace``); the command layer (``audit``,
``counting``, ``specparse``) is loaded on the first read of one of its
names, through the module ``__getattr__`` below (PEP 562).  The engines
stay eager: deferring ``realize`` or ``brace`` would only move their
compile into a first query, and perfbench's tracer wraps only the
modules loaded before it is installed.
"""

import importlib

from .brace import (
    SkewBrace,
    additive_group,
    brace_from_regular,
    lambda_circ_in_hol,
    multiplicative_group,
    trivial_brace,
    verify_brace,
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
    factorize,
    homomorphisms,
    is_almost_sylow_cyclic,
    is_c_group,
    is_cyclic,
    is_regular,
    is_solvable,
    regular_representation,
    unique_odd_part,
)
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

__version__ = "0.1.0"

# Name -> module of the command layer, loaded on first use.
_LAZY = {
    "AuditReport": "audit",
    "run_audit": "audit",
    "CountReport": "counting",
    "byott_aggregate": "counting",
    "chi": "counting",
    "count_hgs_dihedral": "counting",
    "direct_normalized_count": "counting",
    "euler_phi": "counting",
    "formula_count_dihedral": "counting",
    "is_burnside_number": "counting",
    "radical": "counting",
    "canonical_text": "specparse",
    "parse_group_spec": "specparse",
}


def __getattr__(name):
    """A command-layer name, read from its module on every access (so it is
    always that module's own object), importing the module the first time."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
