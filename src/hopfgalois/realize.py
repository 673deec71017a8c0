"""Deciding pair realizability by two independent routes.

Route one enumerates bijective crossed homomorphisms: for f a homomorphism
G -> Aut(N), a map g: G -> N with g(ab) = g(a) f(a)(g(b)) that is bijective
pins down a regular subgroup {x -> g(a) * f(a)(x)} of Hol(N) isomorphic
to G, and every such subgroup arises this way.

Route two searches Hol(N) for regular subgroups directly, by closing
pairs of semiregular elements (|N| capped), and tags each one with its
isomorphism class.  The two routes must agree; tests hold them against
each other.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import perm
from .errors import BoundExceededError, CountingBugError, PreconditionError
from .factory import (
    HolomorphGroup,
    automorphism_group,
    catalog,
    class_index,
    holomorph,
)
from .groups import (
    Homomorphism,
    PermGroup,
    extend_images,
    generator_frame,
    homomorphisms,
    is_regular,
    are_isomorphic,
)

PAIR_SEARCH_MAX = 30   # max |N| for the direct Hol(N) search


@dataclass(frozen=True)
class CrossedHom:
    """A pair (f, g): f in Hom(G, Aut(N)), g a crossed homomorphism.

    ``g`` maps G element indices to N element indices; ``f.codomain`` is
    the automorphism group acting on N's element indices.
    """

    f: Homomorphism
    g: tuple
    n_group: PermGroup
    bijective: bool

    @property
    def domain(self) -> PermGroup:
        return self.f.domain

    def verify_law(self) -> bool:
        """Check g(ab) = g(a) f(a)(g(b)) on every pair of G elements."""
        G, N = self.domain, self.n_group
        g = self.g
        f_perms = [self.f.image_perm(a) for a in range(len(G))]
        mul_g, mul_n = G.mul, N.mul
        return all(
            g[mul_g(a, b)] == mul_n(g[a], f_perms[a][g[b]])
            for a in range(len(G))
            for b in range(len(G))
        )


@dataclass(frozen=True)
class RegularSubgroupRecord:
    subgroup: PermGroup
    iso_index: int
    iso_text: str
    witness: "CrossedHom | None"
    strategy: str


def crossed_homomorphisms(f: Homomorphism, G: PermGroup, N: PermGroup, limit=None):
    """All bijective crossed homomorphisms G -> N with respect to f.

    Candidate generator images are filtered by consistency along each
    generator's cyclic subgroup, extended over a fixed breadth-first
    factorization of G, and kept only when the cocycle law holds on every
    (element, generator) product, which forces it on all pairs.  The empty
    list is a valid result.  ``limit`` stops the scan early once that many
    witnesses exist.
    """
    if len(G) != len(N):
        raise PreconditionError("crossed homomorphisms need |G| = |N|")
    frame = generator_frame(G)
    N.table()
    f_perms = [f.image_perm(a) for a in range(len(G))]
    cands = [_cyclic_consistent_images(G, N, f_perms, gi) for gi in frame[0]]
    found = extend_images(G, N, frame, cands, twist=f_perms, injective=True)
    return [CrossedHom(f, g, N, True) for g in sorted(itertools.islice(found, limit))]


def _cyclic_consistent_images(G, N, f_perms, gen_idx):
    """Images x = g(a) whose forced orbit along <a> returns to the identity.

    The cocycle law determines g on powers of a from g(a) alone:
    g(a^(j+1)) = g(a) * f(a)(g(a^j)).  The orbit must be injective and
    close up at a's order, so everything else is pruned before the
    product scan.
    """
    r = G.order_of(gen_idx)
    fa = f_perms[gen_idx]
    mul_n = N.mul
    e_n = N.identity_index
    good = []
    for x in range(len(N)):
        v = e_n
        seen = set()
        ok = True
        for _ in range(r):
            v = mul_n(x, fa[v])
            if v in seen:
                ok = False
                break
            seen.add(v)
        if ok and v == e_n:
            good.append(x)
    return good


def subgroup_from_cocycle(c: CrossedHom, hol: HolomorphGroup) -> RegularSubgroupRecord:
    """The subset {x -> g(a) * f(a)(x) : a in G} of Hol(N), as a subgroup.

    The construction is guaranteed to be a regular subgroup isomorphic to
    the domain; the postconditions are asserted, so a failure here means
    an implementation bug.
    """
    G = c.domain
    if not c.bijective:
        raise PreconditionError("cocycle witness must be bijective")
    perms = set()
    for a in range(len(G)):
        h = perm.compose(hol.lam[c.g[a]], hol.iota[c.f.images[a]])
        perms.add(h)
    if len(perms) != len(G):
        raise CountingBugError("cocycle image has repeated holomorph elements")
    for p, q in itertools.product(perms, repeat=2):
        if perm.compose(p, q) not in perms:
            raise CountingBugError("cocycle image is not closed")
    sub = PermGroup(hol.group.degree, perms)
    if not is_regular(sub):
        raise CountingBugError("cocycle image is not regular")
    if are_isomorphic(sub, G) is None:
        raise CountingBugError("cocycle image is not isomorphic to the domain")
    entries = catalog(len(G))
    idx = class_index(sub, entries)
    return RegularSubgroupRecord(sub, idx, entries[idx].spec.text(), c, "cocycle")


def hom_orbits(G: PermGroup, aut: PermGroup, homs):
    """Aut(N)-conjugacy orbits of Hom(G, Aut N), one (f, orbit) per orbit.

    ``homs`` is the list from ``homomorphisms(G, aut)``; representatives
    come in its order, each the first member of its orbit.  An f is keyed
    by its images of G's frame generators, which determine it, and its
    orbit is the set of keys of the conjugates b * f * b^-1, read from
    ``aut.table()``.  Every orbit must lie inside ``homs``, and once the
    scan is complete the orbit sizes must sum to ``len(homs)``; either
    failure raises CountingBugError.
    """
    gens = generator_frame(G)[0]
    atab = aut.table()
    pairs = [(atab[b], aut.inv(b)) for b in range(len(aut))]
    keyed = [(tuple(f.images[g] for g in gens), f) for f in homs]
    keys = {key for key, _ in keyed}
    seen = set()
    covered = 0
    for key, f in keyed:
        if key in seen:
            continue
        orbit = {tuple(atab[row[x]][ib] for x in key) for row, ib in pairs}
        if not orbit <= keys:
            raise CountingBugError("Aut(N)-orbit leaves Hom(G, Aut N)")
        seen |= orbit
        covered += len(orbit)
        yield f, orbit
    if covered != len(homs):
        raise CountingBugError(
            f"Aut(N)-orbit sizes sum to {covered}, |Hom(G, Aut N)| = {len(homs)}"
        )


def realizable_via_cocycles(G: PermGroup, N: PermGroup):
    """A witness (f, g) if G embeds as a regular subgroup of Hol(N).

    Iterates f over Hom(G, Aut(N)) in canonical order and returns the
    first bijective crossed homomorphism, or None.  An f conjugate under
    Aut(N) to an f already scanned empty has none either, since
    (f, g) -> (b f b^-1, b g) is a bijection of the pairs; so only orbit
    representatives are scanned, and the witness is the one the full scan
    would find.
    """
    if len(G) != len(N):
        raise PreconditionError("realizability needs |G| = |N|")
    aut = automorphism_group(N)
    reps = (f for f, _ in hom_orbits(G, aut, homomorphisms(G, aut)))

    def probe(f):
        found = crossed_homomorphisms(f, G, N, limit=1)
        return found[0] if found else None

    return next(filter(None, map(probe, reps)), None)


def count_crossed_pairs(G: PermGroup, N: PermGroup) -> int:
    """Total number of (f, g) pairs over every f in Hom(G, Aut(N)).

    The count for f is constant on its Aut(N)-conjugacy orbit, because
    (f, g) -> (b f b^-1, b g) is a bijection of the pairs for each b in
    Aut(N).  So each orbit representative is scanned once and its count
    weighted by the orbit size.
    """
    aut = automorphism_group(N)
    return sum(
        len(orbit) * len(crossed_homomorphisms(f, G, N))
        for f, orbit in hom_orbits(G, aut, homomorphisms(G, aut))
    )


# Direct search for regular subgroups.


def _semiregular_elements(H: PermGroup):
    ident = perm.identity(H.degree)
    return [p for p in H.elements if p != ident and perm.is_semiregular(p)]


def _pair_search(hol: HolomorphGroup):
    """All regular subgroups of Hol(N) closed from <= 2 semiregular elements.

    Works in (translation, automorphism) coordinates: lam[t] * iota[a] is
    the pair (t, a), and (t1, a1)(t2, a2) = (t1 * iota[a1](t2), a1 * a2).
    The t-part of an element is the image of N's identity, so a subgroup
    is regular exactly when it has |N| elements with distinct t-parts.  A
    closure therefore stops at the first repeated t-part (which also caps
    it at |N| elements), and one that finishes with |N| elements is
    regular.  Non-identity elements of a regular subgroup are
    semiregular, so only those are tried as generators, and a closure
    also stops at the first element outside that pool.  Every pair of
    pool elements is tried unless both lie in one subgroup already found,
    so the search is complete when every regular subgroup of order |N| is
    generated by at most two elements.  Every catalog class is: squarefree
    orders give metacyclic groups, the classes at orders 4 and 12 are
    small, and the tests check each class.
    """
    N, aut, G = hol.n_group, hol.aut, hol.group
    m, size = len(N), len(aut)
    ntab, atab, iota = N.table(), aut.table(), hol.iota
    e_t, e_a = N.identity_index, aut.identity_index
    semis = sorted((-G.order_of(G.index_of(p)), p) for p in _semiregular_elements(G))
    orders = [-k for k, _ in semis]
    gens = [hol.tags[p] for _, p in semis]
    codes = [t * size + a for t, a in gens]
    in_pool = bytearray(m * size)
    for c in codes:
        in_pool[c] = 1
    found: dict = {}  # subgroup as parts (see close) -> subgroup id
    member: dict = {}  # element code -> ids of the subgroups holding it

    def close(pair):
        # parts[t] is the a-part of the element with t-part t, or -1.
        parts = [-1] * m
        parts[e_t] = e_a
        frontier = [(e_t, e_a)]
        count = 1
        while frontier:
            nxt = []
            for tx, ax in frontier:
                trow, alpha, arow = ntab[tx], iota[ax], atab[ax]
                for tg, ag in pair:
                    ty = trow[alpha[tg]]
                    ay = arow[ag]
                    seen = parts[ty]
                    if seen != ay:
                        if seen >= 0 or not in_pool[ty * size + ay]:
                            return None
                        parts[ty] = ay
                        nxt.append((ty, ay))
            count += len(nxt)
            frontier = nxt
        return tuple(parts) if count == m else None

    def record(parts):
        if parts in found:
            return
        gid = found[parts] = len(found)
        for t, a in enumerate(parts):
            if t != e_t:
                member.setdefault(t * size + a, set()).add(gid)

    # The trivial group is generated by no element, a cyclic one by one.
    for pair in [()] + [(g,) for i, g in enumerate(gens) if orders[i] == m]:
        parts = close(pair)
        if parts is not None:
            record(parts)
    # A pair lying inside a known regular subgroup closes to that subgroup
    # or to a proper (hence non-regular) piece of it, so it is skipped.
    # The skip index grows after every hit; the result does not depend on
    # the scan order, because skips only drop pairs that rediscover a
    # known subgroup.
    for i, x in enumerate(gens):
        cx = codes[i]
        for j in range(i + 1, len(gens)):
            groups_x = member.get(cx)
            if groups_x:
                groups_y = member.get(codes[j])
                if groups_y and not groups_x.isdisjoint(groups_y):
                    continue
            parts = close((x, gens[j]))
            if parts is not None:
                record(parts)
    lam = hol.lam
    return [
        frozenset(perm.compose(lam[t], iota[a]) for t, a in enumerate(parts))
        for parts in found
    ]


@functools.cache
def regular_subgroups(hol: HolomorphGroup) -> tuple[RegularSubgroupRecord, ...]:
    """Every regular subgroup of Hol(N), tagged with its catalog class.

    Runs the generator-pair search, for |N| up to ``PAIR_SEARCH_MAX``,
    once per ``hol``.
    """
    m = len(hol.n_group)
    if m > PAIR_SEARCH_MAX:
        raise BoundExceededError(
            f"|N| = {m} exceeds the Hol(N) search bound {PAIR_SEARCH_MAX}"
        )
    entries = catalog(m)
    records = []
    for S in sorted(_pair_search(hol), key=lambda s: tuple(sorted(s))):
        sub = PermGroup(hol.group.degree, S)
        idx = class_index(sub, entries)
        records.append(
            RegularSubgroupRecord(
                sub, idx, entries[idx].spec.text(), None, "generator-pairs"
            )
        )
    return tuple(records)


def realizable_via_search(G: PermGroup, N: PermGroup) -> bool:
    """True iff the direct Hol(N) search finds a regular subgroup iso to G."""
    if len(G) != len(N):
        raise PreconditionError("realizability needs |G| = |N|")
    records = regular_subgroups(holomorph(N))
    target = class_index(G, catalog(len(N)))
    return any(r.iso_index == target for r in records)


# Characteristic-subgroup transport.


def transport_characteristic(c: CrossedHom, M: PermGroup):
    """Pull a characteristic subgroup M of N back through a witness.

    H = g^-1(M) is asserted to be a subgroup of G of order |M|, and the
    pair (H, M) is asserted realizable; a failure is reported as a bug or
    a genuine discrepancy, never passed silently.
    """
    G, N = c.domain, c.n_group
    m_idxs = {N.index_of(p) for p in M.elements}
    h_idxs = [a for a in range(len(G)) if c.g[a] in m_idxs]
    if len(h_idxs) != len(M):
        raise CountingBugError(
            f"preimage has {len(h_idxs)} elements, expected {len(M)}"
        )
    h_set = set(h_idxs)
    for a in h_idxs:
        for b in h_idxs:
            if G.mul(a, b) not in h_set:
                raise CountingBugError("preimage of a characteristic subgroup is not closed")
    H = G.subgroup_from_indices(h_idxs)
    witness = realizable_via_cocycles(H, M)
    if witness is None:
        raise CountingBugError(
            "transported pair is not realizable; paper discrepancy or bug"
        )
    return H, witness
