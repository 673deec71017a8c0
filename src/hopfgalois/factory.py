"""Group families, automorphism groups, holomorphs, and the order catalog.

GroupSpec is the abstract recipe; ``build`` turns a recipe into a faithful
PermGroup acting on its natural carrier.  ``catalog`` enumerates one group
per isomorphism class for squarefree orders (complete by Burnside: such
groups are exactly semidirect products of coprime cyclic groups) plus a
hard-coded exception table for a few non-squarefree orders the audits and
cross-checks need.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

from . import perm
from .errors import (
    PreconditionError,
    SpecSemanticError,
    UnsupportedOrderError,
)
from .groups import (
    PermGroup,
    TABLE_LIMIT,
    are_isomorphic,
    closure,
    extend_images,
    factorize,
    generator_frame,
    is_cyclic,
    is_c_group,
    is_normal,
    all_subgroups,
    left_translation,
    unique_odd_part,
)

# Group specs.


@dataclass(frozen=True)
class Cyclic:
    n: int

    def text(self):
        return f"C{self.n}"

    def order(self):
        return self.n


@dataclass(frozen=True)
class Dihedral:
    """Dihedral group of total order 2n (the ``order`` field)."""

    order2n: int

    def text(self):
        return f"D{self.order2n}"

    def order(self):
        return self.order2n


@dataclass(frozen=True)
class SemidirectCC:
    """Z_k x| Z_l with the Z_l generator acting as x -> t*x mod k."""

    k: int
    l: int
    t: int

    def text(self):
        return f"SD({self.k},{self.l};{self.t})"

    def order(self):
        return self.k * self.l


@dataclass(frozen=True)
class SemidirectZ2:
    """Z_n x| Z_2 with the involution acting as x -> s*x mod n."""

    n: int
    s: int

    def text(self):
        return f"SDZ2({self.n};{self.s})"

    def order(self):
        return 2 * self.n


@dataclass(frozen=True)
class DirectProduct:
    left: "GroupSpec"
    right: "GroupSpec"

    def text(self):
        return f"{self.left.text()}x{self.right.text()}"

    def order(self):
        return self.left.order() * self.right.order()


@dataclass(frozen=True)
class Holomorph:
    inner: "GroupSpec"

    def text(self):
        return f"Hol({self.inner.text()})"

    def order(self):
        raise PreconditionError("holomorph order depends on Aut; build it")


@dataclass(frozen=True)
class Alternating4:
    def text(self):
        return "A4"

    def order(self):
        return 12


GroupSpec = (
    Cyclic | Dihedral | SemidirectCC | SemidirectZ2 | DirectProduct | Holomorph | Alternating4
)


def validate_spec(spec: GroupSpec):
    """Raise SpecSemanticError when a recipe carries invalid parameters."""
    if isinstance(spec, Cyclic):
        if spec.n < 1:
            raise SpecSemanticError(f"C{spec.n}: order must be positive")
    elif isinstance(spec, Dihedral):
        if spec.order2n < 2 or spec.order2n % 2:
            raise SpecSemanticError(f"D{spec.order2n}: order must be even and >= 2")
    elif isinstance(spec, SemidirectCC):
        k, l, t = spec.k, spec.l, spec.t
        if k < 1 or l < 1:
            raise SpecSemanticError(f"{spec.text()}: factors must be positive")
        if gcd(k, l) != 1:
            raise SpecSemanticError(f"{spec.text()}: gcd({k},{l}) != 1")
        if t < 1 or t > k or gcd(t % k if k > 1 else 1, k) != 1:
            raise SpecSemanticError(f"{spec.text()}: twist {t} is not a unit mod {k}")
        if pow(t, l, k) != 1 % k:
            raise SpecSemanticError(
                f"{spec.text()}: twist order does not divide {l} ({t}^{l} != 1 mod {k})"
            )
    elif isinstance(spec, SemidirectZ2):
        n, s = spec.n, spec.s
        if n < 1:
            raise SpecSemanticError(f"{spec.text()}: n must be positive")
        if s < 1 or s > n or gcd(s % n if n > 1 else 1, n) != 1:
            raise SpecSemanticError(f"{spec.text()}: twist {s} is not a unit mod {n}")
        if (s * s) % n != 1 % n:
            raise SpecSemanticError(f"{spec.text()}: {s}^2 != 1 mod {n}")
    elif isinstance(spec, DirectProduct):
        validate_spec(spec.left)
        validate_spec(spec.right)
    elif isinstance(spec, Holomorph):
        validate_spec(spec.inner)
    elif isinstance(spec, Alternating4):
        pass
    else:
        raise SpecSemanticError(f"unknown spec {spec!r}")


def z2_twists(n: int) -> list[int]:
    """All valid SemidirectZ2 twists for Z_n: units s with s^2 = 1 mod n."""
    return [
        s
        for s in range(1, n + 1)
        if gcd(s % n if n > 1 else 1, n) == 1 and (s * s) % n == 1 % n
    ]


@functools.cache
def build(spec: GroupSpec) -> PermGroup:
    """Materialize a recipe as a faithful permutation group, once per recipe."""
    validate_spec(spec)
    return _build(spec)


def _build(spec: GroupSpec) -> PermGroup:
    if isinstance(spec, Cyclic):
        n = spec.n
        gen = tuple((x + 1) % n for x in range(n))
        return closure([gen], cap=n, label=spec)
    if isinstance(spec, Dihedral):
        n = spec.order2n // 2
        return _semidirect_pair(n, 2, (n - 1) % n if n > 1 else 1, spec)
    if isinstance(spec, SemidirectCC):
        return _semidirect_pair(spec.k, spec.l, spec.t, spec)
    if isinstance(spec, SemidirectZ2):
        return _semidirect_pair(spec.n, 2, spec.s, spec)
    if isinstance(spec, DirectProduct):
        A, B = build(spec.left), build(spec.right)
        da, db = A.degree, B.degree
        gens = [
            tuple(p[i // db] * db + i % db for i in range(da * db))
            for p in A.generators
        ] + [
            tuple((i // db) * db + q[i % db] for i in range(da * db))
            for q in B.generators
        ]
        if not gens:
            gens = [perm.identity(da * db)]
        return closure(gens, cap=len(A) * len(B), label=spec)
    if isinstance(spec, Holomorph):
        return holomorph(build(spec.inner)).group
    if isinstance(spec, Alternating4):
        return closure([(1, 2, 0, 3), (1, 0, 3, 2)], cap=12, label=spec)
    raise SpecSemanticError(f"unknown spec {spec!r}")  # pragma: no cover


def _semidirect_pair(k: int, l: int, t: int, spec) -> PermGroup:
    """Left regular action of Z_k x| Z_l on its kl-point carrier.

    Point (c, d) is index c*l + d; element (a, b) sends it to
    (a + t^b * c, b + d).
    """
    size = k * l
    gens = []
    if k > 1:
        gens.append(tuple(((c + 1) % k) * l + d for c in range(k) for d in range(l)))
    if l > 1:
        gens.append(
            tuple(((t * c) % k) * l + (d + 1) % l for c in range(k) for d in range(l))
        )
    if not gens:
        gens = [perm.identity(size)]
    return closure(gens, cap=size, label=spec)


# Automorphism groups and holomorphs.


@functools.cache
def automorphism_group(N: PermGroup) -> PermGroup:
    """All automorphisms of N, as permutations of N's element indices,
    computed once per group object.

    Generator-image search over order-matched candidates; every candidate
    map is verified multiplicative and bijective, so the returned list is
    the complete automorphism group.
    """
    return PermGroup(len(N), _automorphism_perms(N))


def _automorphism_perms(N: PermGroup):
    frame = generator_frame(N)
    if len(N) <= TABLE_LIMIT:
        N.table()
    cands = [
        [j for j in range(len(N)) if N.order_of(j) == N.order_of(gi)]
        for gi in frame[0]
    ]
    return list(extend_images(N, N, frame, cands, injective=True))


@dataclass(eq=False)
class HolomorphGroup:
    """Hol(N) on N's element indices, with tagged embeddings.

    ``lam[t]`` is the left translation by element t, ``iota[a]`` the
    automorphism with index a, and ``tags`` recovers the (translation,
    automorphism) pair of any holomorph element: h = lam[t] * iota[a].
    In these coordinates the product is
    (t1, a1)(t2, a2) = (t1 * iota[a1](t2), a1 * a2), three table lookups;
    ``realize`` searches regular subgroups this way.  Hashed by identity,
    so it can key a memo.
    """

    group: PermGroup
    n_group: PermGroup
    aut: PermGroup
    lam: tuple
    iota: tuple
    tags: dict


@functools.cache
def holomorph(N: PermGroup) -> HolomorphGroup:
    """The permutations of N generated by translations and automorphisms,
    built once per group object."""
    aut = automorphism_group(N)
    lam = tuple(left_translation(N, t) for t in range(len(N)))
    iota = tuple(aut.elements)
    tags = {}
    for t, lam_t in enumerate(lam):
        for a, alpha in enumerate(iota):
            h = perm.compose(lam_t, alpha)
            if h in tags:
                raise PreconditionError("holomorph pair collision")  # pragma: no cover
            tags[h] = (t, a)
    gens = [lam[N.index_of(g)] for g in N.generators] + list(aut.generators)
    label = Holomorph(N.label) if N.label is not None else None
    group = PermGroup(len(N), tags, generators=gens, label=label)
    return HolomorphGroup(group, N, aut, lam, iota, tags)


# The small-order catalog.


@dataclass(frozen=True)
class CatalogEntry:
    spec: GroupSpec
    group: PermGroup


_EXCEPTION_ORDERS = {
    4: (Cyclic(4), DirectProduct(Cyclic(2), Cyclic(2))),
    12: (
        Cyclic(12),
        DirectProduct(Cyclic(2), Cyclic(6)),
        Dihedral(12),
        SemidirectCC(3, 4, 2),
        Alternating4(),
    ),
}


def is_squarefree(n: int) -> bool:
    return all(a == 1 for _, a in factorize(n).pairs)


def catalog(order: int) -> list[CatalogEntry]:
    """One entry per isomorphism class of groups of the given order.

    Complete for squarefree orders and for the hard-coded exception
    orders; anything else raises UnsupportedOrderError.  The list is the
    caller's own; the entries are shared.
    """
    return list(_catalog(order))


@functools.cache
def _catalog(order: int) -> tuple[CatalogEntry, ...]:
    if order < 1:
        raise UnsupportedOrderError(f"order {order} is not positive")
    if order in _EXCEPTION_ORDERS:
        return tuple(CatalogEntry(s, build(s)) for s in _EXCEPTION_ORDERS[order])
    if not is_squarefree(order):
        raise UnsupportedOrderError(
            f"order {order} is not squarefree and has no exception entry"
        )
    classes: list[tuple[GroupSpec, PermGroup]] = []
    for k in sorted(d for d in range(1, order + 1) if order % d == 0):
        l = order // k
        if gcd(k, l) != 1:
            continue
        for t in range(1, k + 1):
            if gcd(t % k if k > 1 else 1, k) != 1 or pow(t, l, k) != 1 % k:
                continue
            spec = SemidirectCC(k, l, t)
            G = build(spec)
            placed = False
            for i, (espec, EG) in enumerate(classes):
                if are_isomorphic(EG, G) is not None:
                    if G.elements < EG.elements:
                        classes[i] = (spec, G)
                    placed = True
                    break
            if not placed:
                classes.append((spec, G))
    classes.sort(key=lambda sg: sg[1].elements)
    entries = []
    for s, G in classes:
        pretty = _prettify(s)
        entries.append(CatalogEntry(pretty, _relabel(G, pretty)))
    return tuple(entries)


def _prettify(spec: GroupSpec) -> GroupSpec:
    """Friendlier tags for recognized families; the group is unchanged."""
    if isinstance(spec, SemidirectCC):
        k, l, t = spec.k, spec.l, spec.t
        if k == 1:
            return Cyclic(l)
        if l == 1:
            return Cyclic(k)
        if t == 1:
            return Cyclic(k * l)
        if l == 2 and t == k - 1:
            return Dihedral(2 * k)
    return spec


def _relabel(G: PermGroup, spec: GroupSpec) -> PermGroup:
    if G.label == spec:
        return G
    H = PermGroup(G.degree, G.elements, generators=G.generators, label=spec)
    return H


def class_index(G: PermGroup, entries: list[CatalogEntry]) -> int:
    """Index of the catalog class isomorphic to G; raises if none matches."""
    for i, entry in enumerate(entries):
        if are_isomorphic(entry.group, G) is not None:
            return i
    raise PreconditionError(
        f"group of order {len(G)} matches no catalog class"
    )


# Structure recognition.


def decompose_burnside(G: PermGroup):
    """Coprime cyclic semidirect parameters (k, l, t) for a C-group.

    Returns None when some Sylow subgroup is non-cyclic.  Cyclic groups
    canonically decompose as (|G|, 1, 1); otherwise the decomposition with
    the largest normal cyclic factor k (then least twist) is returned.
    """
    if len(G) == 1:
        return (1, 1, 1)
    if not is_c_group(G):
        return None
    if is_cyclic(G):
        return (len(G), 1, 1)
    subs = all_subgroups(G)
    n = len(G)
    candidates = []
    for K in subs:
        k = len(K)
        if k == 1 or n % k or gcd(k, n // k) != 1 or not is_cyclic(K):
            continue
        if not is_normal(G, K):
            continue
        k_idxs = frozenset(G.index_of(p) for p in K.elements)
        l = n // k
        for L in subs:
            if len(L) != l or not is_cyclic(L):
                continue
            l_idxs = frozenset(G.index_of(p) for p in L.elements)
            if len(k_idxs & l_idxs) != 1:
                continue
            t = _conjugation_exponent(G, k_idxs, l_idxs, k, l)
            candidates.append((k, l, t))
            break
    if not candidates:
        return None  # pragma: no cover (C-groups always decompose)
    candidates.sort(key=lambda c: (-c[0], c[2]))
    return candidates[0]


def _conjugation_exponent(G, k_idxs, l_idxs, k, l):
    """The exponent t with v u v^-1 = u^t for generators u of K, v of L."""
    u = min(i for i in k_idxs if G.order_of(i) == k)
    if l == 1:
        return 1
    v = min(i for i in l_idxs if G.order_of(i) == l)
    w = G.mul(G.mul(v, u), G.inv(v))
    power = u
    t = 1
    while power != w:
        power = G.mul(power, u)
        t += 1
        if t > k:
            raise PreconditionError("conjugate left the cyclic factor")  # pragma: no cover
    return t


@dataclass(frozen=True)
class ShapeWitness:
    """Witness that a group of order 2n splits as (Z_k x| Z_l) x| Z_2."""

    k: int
    l: int
    t: int
    odd_part: PermGroup


def shape_check_semidirect_z2(N: PermGroup):
    """Decomposition witness (k, l, t) when N's odd part is a C-group.

    For |N| = 2n with n odd, the order-n subgroup is unique, so N splits
    over it by any involution; the shape holds exactly when that subgroup
    decomposes as a coprime cyclic semidirect product.
    """
    if len(N) % 2 or (len(N) // 2) % 2 == 0:
        raise PreconditionError(f"order {len(N)} is not twice an odd number")
    H = unique_odd_part(N)
    if not is_c_group(H):
        return None
    k, l, t = decompose_burnside(H)
    return ShapeWitness(k, l, t, H)
