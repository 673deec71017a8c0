"""Deciding pair realizability by two independent routes.

Route one enumerates bijective crossed homomorphisms: for f a homomorphism
G -> Aut(N), a map g: G -> N with g(ab) = g(a) f(a)(g(b)) that is bijective
pins down a regular subgroup {x -> g(a) * f(a)(x)} of Hol(N) isomorphic
to G, and every such subgroup arises this way.  Aut(N) acts freely on
the pairs (f, g) by (f, g) -> (b f b^-1, b o g) (Byott, Comm. Algebra 24,
1996), so only one pair per orbit is built: one f per Aut(N)-conjugacy
orbit of Hom(G, Aut(N)), and for it one g per orbit of its centralizer
C(f), both found by one level-by-level orbit walk (``_orbit_walk``).
The number of pairs found is e(G, N) = #pairs / |Aut N|.

Route two searches Hol(N) for regular subgroups directly (|N| capped),
up to Hol(N)-conjugacy.  It closes pairs of semiregular elements whose
first member is one representative per conjugacy class, and expands each
subgroup found to its conjugacy orbit.  That misses nothing: conjugating
any 2-generated regular subgroup <x, y>, x from the earlier class, so
that x becomes its class representative gives a subgroup the search
closes, in the same orbit.  Two cuts drop only what cannot be regular.
Classes are walked only from codes with no fixed point: (t, a) fixes x
exactly when t = x * alpha_a(x)^-1, conjugation keeps fixed points, and
a non-identity semiregular element has none.  And a second member y
whose t-part is that of a power x^j of the first is never closed: x^-j y
fixes N's identity, so in a regular <x, y> it is 1 and <x, y> = <x>,
which is regular only if x has order |N|, and then is closed already.
Conjugate subgroups are isomorphic, so one
subgroup per orbit is tagged with its isomorphism class.  The two routes
must agree; tests hold them against each other.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from . import perm
from .errors import BoundExceededError, CountingBugError, PreconditionError, Record
from .factory import (
    HolomorphGroup,
    automorphism_group,
    automorphism_order,
    catalog,
    class_index,
    holomorph,
)
from .groups import (
    Homomorphism,
    PermGroup,
    _generating_set,
    _reach,
    check_table,
    derived,
    extend_images,
    generator_frame,
    generator_shifts,
    greedy_frame,
    hom_candidates,
    is_regular,
    are_isomorphic,
    respects_law,
)

PAIR_SEARCH_MAX = 30   # max |N| for the direct Hol(N) search


class CrossedHom(Record):
    """A pair (f, g): f in Hom(G, Aut(N)), g a crossed homomorphism.

    ``g`` maps G element indices to N element indices; ``f.codomain`` is
    the automorphism group acting on N's element indices.
    """

    f: Homomorphism
    g: tuple
    n_group: PermGroup
    bijective: bool

    def __init__(self, f, g, n_group, bijective):
        self.__dict__.update(f=f, g=g, n_group=n_group, bijective=bijective)

    @property
    def domain(self) -> PermGroup:
        return self.f.domain

    def verify_law(self) -> bool:
        """Whether g is a bijection fixing the identity with g(ab) =
        g(a) f(a)(g(b)) for every a, b in G: ``crossed_twist`` reads from
        g the only f for which that can hold, and f must be it at every a.
        For a bijective g this is the law on all |G|^2 pairs, read with no
        Python step per pair and no Aut(N) table."""
        G = self.domain
        return crossed_twist(G, self.n_group, self.g) == list(map(self.f.image_perm, range(len(G))))


def crossed_twist(G: PermGroup, N: PermGroup, g):
    """The twist f: G -> Aut(N) for which g, a tuple of N's indices by
    G's, is a crossed homomorphism, read from g alone: f(a) as a
    permutation of N's indices for each a, or None if there is none.

    g must be a bijection.  Then a -> g L_a g^-1, L_a the left
    translation, is G's regular action carried to N, and it is
    lam(g(a)) alpha_a with alpha_a(m) = g(a)^-1 g(a g^-1(m)).  Once
    alpha_x is an automorphism for each generator x of
    ``generator_frame(G)``, by ``respects_law`` on N's frame generators,
    g(e) = e, since alpha_x(e) = e gives g(x g^-1(e)) = g(x); and the
    action lies in Hol(N) on generators and so everywhere, and
    splitting it there gives g(ab) = g(a) alpha_a(g(b)) and alpha_ab =
    alpha_a alpha_b: alpha is the twist, composed along the frame's
    steps.  Any f for which the law holds is alpha: put b = g^-1(m).
    (Childs, Taming Wild Extensions, 2000, ch. 2; Greither and Pareigis,
    J. Algebra 106, 1987.)  So the cost is |S_G| |N| (1 + |S_N|) reads
    and |G| compositions, each one C call, and no Aut(N) is read.
    """
    if not len(G) == len(g) == len(N) or not perm.is_perm(g):
        return None
    rows_g, rows_n, inv_n, shifts = G.rows(), N.rows(), N.inverses(), generator_shifts(N)
    pre = perm.composer(perm.inverse(g))  # t -> (m -> t[g^-1(m)])
    gens, steps, _ = generator_frame(G)
    # alpha_x = m -> g(x)^-1 g(x g^-1(m)), composed right to left
    alphas = [perm.composer(perm.composer(pre(rows_g[x]))(g))(rows_n[inv_n[g[x]]]) for x in gens]
    if not all(respects_law(alpha, rows_n, shifts) for alpha in alphas):
        return None
    moves, twist = list(map(perm.composer, alphas)), [perm.identity(len(N))] * len(G)
    for i, prev, pos in steps:  # alpha_i = alpha_prev alpha_gens[pos]
        twist[i] = moves[pos](twist[prev])
    return twist


class RegularSubgroupRecord(Record):
    subgroup: PermGroup
    iso_index: int
    iso_text: str
    witness: "CrossedHom | None"
    strategy: str

    def __init__(self, subgroup, iso_index, iso_text, witness, strategy):
        self.__dict__.update(
            subgroup=subgroup, iso_index=iso_index, iso_text=iso_text,
            witness=witness, strategy=strategy,
        )


def crossed_homomorphisms(f: Homomorphism, G: PermGroup, N: PermGroup, limit=None):
    """All bijective crossed homomorphisms G -> N with respect to f.

    The plain scan: ``_crossed_hom_reps`` with the trivial group acting,
    so every g is its own orbit, in ``itertools.product`` order of the
    generator images; the result is sorted.  The empty list is a valid
    result.  ``limit`` stops the scan early once that many witnesses
    exist.  f's domain must have G's element list, and f must send each
    generator of G to an automorphism of N, which ``respects_law`` checks
    on N's frame generators; otherwise PreconditionError is raised.
    """
    if len(G) != len(N):
        raise PreconditionError("crossed homomorphisms need |G| = |N|")
    if f.domain.elements != G.elements:
        raise PreconditionError("f's domain is not G")
    frame = generator_frame(G)
    for p in {f.image_perm(a) for a in frame[0]}:
        if len(p) != len(N) or not respects_law(p, N.rows(), generator_shifts(N)):
            raise PreconditionError("f sends a generator of G outside Aut(N)")
    found = _crossed_hom_reps(f, [f.codomain.identity_index], N, frame)
    return [CrossedHom(f, g, N, True) for g in sorted(itertools.islice(found, limit))]


def _cyclic_consistent_images(N, fa, r):
    """Images x = g(a) whose forced orbit along <a> returns to the identity,
    for a generator a of order r with f(a) = fa, a permutation of N's
    indices.

    The cocycle law determines g on powers of a from g(a) alone:
    g(a^(j+1)) = g(a) * f(a)(g(a^j)).  That step is a permutation of N,
    so the values g(a^j) run round a cycle through the identity, and
    they are distinct and close up at a's order exactly when that cycle
    has a's order as its length.  Everything else is pruned before the
    product scan.

    x and fa(x) stand or fall together.  Write s_x(v) = x * fa(v), so
    the walk from x is the orbit of the identity under s_x.  fa is an
    automorphism, so fa s_x fa^-1 = s_fa(x), and fa fixes the identity:
    fa maps the orbit of the identity under s_x onto the one under
    s_fa(x), and both have the same length.  So x is a candidate exactly
    when fa(x) is, and the scan, in ascending order, walks only the x
    with fa(x) >= x; any other x takes the verdict of fa(x), decided
    before it.  Every cycle of fa longer than one descends somewhere, so
    it skips at least one walk; an involution's 2-cycles are walked once
    each.  The list is ascending.

    An identity fa makes the step v -> x * v, so the walk from x runs
    through x's powers and returns to the identity first at ord x: the
    candidates are then the elements of order r, read off N's order
    table with no walk.
    """
    if fa == perm.identity(len(N)):
        return [x for x, k in enumerate(N.orders()) if k == r]
    e_n = N.identity_index
    kept, good = bytearray(len(N)), []
    steps = range(r - 1)
    for x, row in enumerate(N.rows()):
        y = fa[x]
        if y < x:  # decided already: x is a candidate exactly when y is
            if kept[y]:
                kept[x] = 1
                good.append(x)
            continue
        v = x  # g(a); each step is one more power of a
        for _ in steps:
            if v == e_n:
                break
            v = row[fa[v]]
        else:
            if v == e_n:
                kept[x] = 1
                good.append(x)
    return good


# the crossed-hom scan's candidate images, computed once per (N, f(a),
# ord a) and kept in N's memo; callers must not change the list
_cyclic_candidates = derived(_cyclic_consistent_images)


def subgroup_from_cocycle(c: CrossedHom, hol: HolomorphGroup) -> RegularSubgroupRecord:
    """The subset {x -> g(a) * f(a)(x) : a in G} of Hol(N), as a subgroup.

    The construction is guaranteed to be a regular subgroup isomorphic to
    the domain; the postconditions are asserted, so a failure here means
    an implementation bug.
    """
    G = c.domain
    if not c.bijective:
        raise PreconditionError("cocycle witness must be bijective")
    perms = {perm.compose(hol.lam[c.g[a]], hol.iota[c.f.images[a]]) for a in range(len(G))}
    if len(perms) != len(G):
        raise CountingBugError("cocycle image has repeated holomorph elements")
    for p, q in itertools.product(perms, repeat=2):
        if perm.compose(p, q) not in perms:
            raise CountingBugError("cocycle image is not closed")
    sub = PermGroup(len(hol.n_group), perms)
    if not is_regular(sub):
        raise CountingBugError("cocycle image is not regular")
    if are_isomorphic(sub, G) is None:
        raise CountingBugError("cocycle image is not isomorphic to the domain")
    entries = catalog(len(G))
    idx = class_index(sub, entries)
    return RegularSubgroupRecord(sub, idx, entries[idx].spec.text(), c, "cocycle")


def _orbits(S, cands, act):
    """Orbits of S (a sequence of Aut(N) indices) on ``cands``.

    ``act(x)`` lists the images b.x for b in S, in S's order.  Returns one
    (y, S_y) per orbit, y its first member in ``cands`` and S_y its
    stabilizer in S as a tuple; the orbit has |S| / |S_y| members.
    ``_orbit_split`` keeps each result for every later walk, so the
    stabilizers are immutable.
    """
    seen = set()
    out = []
    for x in cands:
        if x in seen:
            continue
        images = act(x)
        seen.update(images)
        out.append((x, tuple(itertools.compress(S, map(x.__eq__, images)))))
    return out


def _conjugation(aut, S):
    """The ``act`` of ``_orbits`` for S on Aut(N) by conjugation: x -> b x b^-1."""
    rows, inv = aut.rows(), aut.inverses()
    pairs = [(rows[b], inv[b]) for b in S]
    return lambda x: [rows[row[x]][ib] for row, ib in pairs]


def _evaluation(aut, S):
    """The ``act`` of ``_orbits`` for S on N's element indices: x -> b(x)."""
    perms = [aut.elements[b] for b in S]
    return lambda x: [p[x] for p in perms]


def _orbit_walk(G, H, frame, cands, S, aut, action, twist=None, injective=False):
    """Image tuples m: G -> H, one per orbit of the group S, with stabilizers.

    The level-by-level search for ``extend_images`` solutions up to the
    action of S (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005): the first generator's image ranges over orbit
    representatives of S, each later one over orbit representatives of
    the stabilizer of the images chosen so far, and one ``extend_images``
    call per choice of the earlier images, over the last generator's
    representatives, keeps the solutions.  Each representative is the
    first member of its orbit in ``cands[level]``.  Yields (m, stabilizer
    of all of m's generator images) in ``itertools.product`` order of the
    representatives; with ascending candidates that is increasing order
    of the generator images, and each m has the least generator images of
    its S-orbit, level by level.  S is a subgroup of ``aut``, listed by
    Aut(N) index, and ``action(aut, T)``, ``_conjugation`` or
    ``_evaluation``, is the ``act`` of ``_orbits`` for a subset T of S.

    S must map each ``cands[level]`` onto itself, as ``_orbit_split``
    checks; it keeps each split in Aut(N)'s memo, since every G swept
    against one N splits the same orbits of Aut(N).  A one-element T
    must be the identity, or CountingBugError is raised, and it splits
    with no memo entry: every candidate is its own orbit, with
    stabilizer T, as ``_orbits`` would give.  That is every level of the
    plain scan, and every level below a trivial stabilizer.
    """
    gens = frame[0]

    def orbits(T, level):
        T = tuple(T)
        if len(T) == 1:
            if T[0] != aut.identity_index:
                raise CountingBugError(f"a one-element acting group holds {T[0]}, not the identity")
            return [(y, T) for y in cands[level]]
        return _orbit_split(aut, action, T, tuple(cands[level]))

    # (images of the generators chosen so far, their stabilizer in S)
    partial = [((), S)]
    for level in range(len(gens) - 1):
        partial = [
            (chosen + (y,), C) for chosen, T in partial for y, C in orbits(T, level)
        ]
    for chosen, T in partial:
        last = dict(orbits(T, len(gens) - 1))
        singles = [[y] for y in chosen]
        for m in extend_images(
            G, H, frame, singles + [list(last)], twist=twist, injective=injective
        ):
            yield m, last[m[gens[-1]]]


@derived
def _orbit_split(aut, action, T, cands):
    """``_orbits`` of T on ``cands`` under ``action(aut, T)``, kept in
    ``aut``'s memo by (action, T, candidates), not by level.

    T must map ``cands`` onto itself, so the orbit sizes |T| / |T_y| must
    be whole numbers that sum to the number of candidates; that is
    checked once per split, and otherwise CountingBugError is raised.  A
    group's stabilizers hold its identity, so an empty one, from an
    acting set that is not a group or a broken action, raises it too.
    """
    reps = _orbits(T, cands, action(aut, T))
    if not all(C for _, C in reps):
        raise CountingBugError("an orbit representative has an empty stabilizer")
    sizes = [divmod(len(T), len(C)) for _, C in reps]
    if any(r for _, r in sizes) or sum(q for q, _ in sizes) != len(cands):
        raise CountingBugError(f"orbits do not cover the {len(cands)} candidate images")
    return reps


def _hom_orbit_reps(G: PermGroup, aut: PermGroup):
    """Yields one (f, orbit size, centralizer) per Aut(N)-conjugacy orbit
    of Hom(G, Aut N), each f the least member of its orbit in
    ``homomorphisms`` order, orbits in the order of those members, each
    as the walk finds it: a caller that stops early walks no further.

    ``_orbit_walk`` runs Aut(N) by conjugation over the ``hom_candidates``
    of ``greedy_frame(G)``, read through ``_hom_candidates``; the rest of
    Hom is never built.  That frame's generators are index-greedy, so
    every element index below generator k + 1 lies in the span of
    generators 0..k, and f's images there are fixed by its images of
    those generators: two homomorphisms' image tuples compare as their
    generator images do, level by level.  The walk takes the least candidate of each stabilizer orbit at every level, so
    each f it finds is the least member of its orbit, the f's come in
    increasing order, and the final stabilizer is f's centralizer, handed
    on as a tuple of Aut(N) indices; the orbit size is |Aut N| over it.

    Conjugation preserves element orders, so each generator's candidates
    are a union of orbits, as the walk requires.  A final stabilizer that
    moves a chosen image, or an f that does not come after the one before
    it, raises CountingBugError when that f is reached.
    """
    frame = greedy_frame(G)
    gens = frame[0]
    rows = aut.rows()
    previous = None
    g_orders = G.orders()
    cands = _hom_candidates(aut, tuple([g_orders[g] for g in gens]))
    for m, C in _orbit_walk(G, aut, frame, cands, range(len(aut)), aut, _conjugation):
        _require_commute(rows, C, m, gens, "a stabilizer moves a chosen image")
        if previous is not None and m <= previous:
            raise CountingBugError("orbit representatives are not strictly increasing")
        previous = m
        yield Homomorphism(G, aut, m), len(aut) // len(C), C


@derived
def _hom_candidates(aut, orders):
    """``hom_candidates`` for generators of these orders, as tuples: for
    each, the elements of ``aut`` whose order divides it.  Kept in
    Aut(N)'s memo by the tuple of orders, so every G swept against one N
    whose generators have those orders shares one scan of Aut(N)'s order
    table per generator."""
    aut_orders = aut.orders()
    return tuple(tuple(j for j, k in enumerate(aut_orders) if r % k == 0) for r in orders)


def _require_commute(rows, C, images, gens, message):
    """The postcondition of both cocycle walks: every b in C commutes with
    the image y = images[g] of every generator g, b y = y b, read from
    Aut(N)'s ``rows``; otherwise CountingBugError(message) is raised."""
    for g in gens:
        y, row = images[g], rows[images[g]]
        if [rows[b][y] for b in C] != [row[b] for b in C]:
            raise CountingBugError(message)


def _crossed_hom_reps(f: Homomorphism, C, N: PermGroup, frame):
    """The bijective crossed homomorphisms for f, one per C-orbit.

    ``frame`` is ``generator_frame`` of G, f's domain, and C lists the
    indices of a subgroup of f's centralizer in Aut(N), f's codomain.  C
    acts on the crossed homomorphisms for f by g -> b o g, and preserves
    each generator's ``_cyclic_consistent_images``, since b commutes with
    every f(a); those are read through ``_cyclic_candidates``, once per
    (f(a), ord a) for each N.
    ``_orbit_walk`` runs it over those candidates, and ``extend_images``
    keeps the bijective crossed homomorphisms, extended over a fixed
    breadth-first factorization of G and checked on every (element,
    generator) product, which forces the law on all pairs.  A
    representative is the first member of its orbit in candidate order.
    So the first g yielded is the first of the full scan: at each level
    the least image that has an extension is the first of its orbit, or
    b o g would be an earlier witness.  With C = {1} this is the full
    scan, in ``itertools.product`` order of the generator images.

    b o g = g forces b = 1 for a bijective g, so C acts freely: every g
    found must have a trivial final stabilizer, and an element of C that
    does not commute with f's generator images breaks the action.
    Either failure raises CountingBugError.
    """
    G, aut = f.domain, f.codomain
    gens = frame[0]
    _require_commute(aut.rows(), C, f.images, gens, "a centralizer element does not commute with f")
    # one C call; itemgetter of a single index returns the item itself
    f_perms = itemgetter(*f.images)(aut.elements) if len(G) > 1 else (f.image_perm(0),)
    cands = [_cyclic_candidates(N, f_perms[a], G.order_of(a)) for a in gens]
    walk = _orbit_walk(G, N, frame, cands, C, aut, _evaluation, f_perms, injective=True)
    for g, stabilizer in walk:
        if len(stabilizer) != 1:
            raise CountingBugError(
                f"{len(stabilizer)} automorphisms fix a bijective crossed homomorphism"
            )
        yield g


def _pair_orbit_reps(G: PermGroup, aut: PermGroup, N: PermGroup):
    """One (f, g) per Aut(N)-orbit of the bijective pairs, in scan order.

    Aut(N) acts on the pairs by (f, g) -> (b f b^-1, b o g), freely,
    since b o g = g forces b = 1.  So the pairs over an orbit of f are
    the orbit of f times those over f, and those split into free orbits
    of f's centralizer C(f): one g per C(f)-orbit, for one f per
    conjugacy orbit, is one pair per Aut(N)-orbit, and there are
    #pairs / |Aut N| of them.  Each f comes with its centralizer, which
    must have |Aut N| / (orbit size) elements, or CountingBugError is
    raised.
    """
    frame = generator_frame(G)
    for f, size, C in _hom_orbit_reps(G, aut):
        if len(C) * size != len(aut):
            raise CountingBugError(
                f"a centralizer of {len(C)} for an orbit of {size} in |Aut N| = {len(aut)}"
            )
        for g in _crossed_hom_reps(f, C, N, frame):
            yield f, g


def _check_tables(N: PermGroup):
    """The cocycle engine's one bound, checked before any search: N and
    Aut(N) must each have a table (``TABLE_LIMIT``); Aut(N) is counted,
    not listed.  The engine reads every product from ``rows()``, which
    exist at every order, so its reach is decided here alone."""
    check_table(len(N))
    check_table(automorphism_order(N))


def realizable_via_cocycles(G: PermGroup, N: PermGroup):
    """A witness (f, g) if G embeds as a regular subgroup of Hol(N).

    Returns the first bijective crossed homomorphism of a scan of f over
    Hom(G, Aut(N)) in canonical order, or None.  An f conjugate under
    Aut(N) to an f with none has none either, since
    (f, g) -> (b f b^-1, b g) is a bijection of the pairs; so only the
    least member of each orbit is scanned, orbits in the order of those
    members, and for it only one g per orbit of its centralizer.  The
    witness is the one the full scan would find.
    """
    if len(G) != len(N):
        raise PreconditionError("realizability needs |G| = |N|")
    _check_tables(N)
    pairs = _pair_orbit_reps(G, automorphism_group(N), N)
    return next((CrossedHom(f, g, N, True) for f, g in pairs), None)


def count_crossed_pairs(G: PermGroup, N: PermGroup) -> int:
    """Total number of (f, g) pairs over every f in Hom(G, Aut(N)).

    Aut(N) acts freely on the pairs (``_pair_orbit_reps``), so the count
    is |Aut N| times the number of orbit representatives, and that number
    is e(G, N) = #pairs / |Aut N|, the number of Hopf-Galois structures
    of type N on a Galois extension with group G (Byott, Comm. Algebra
    24, 1996).

    For a non-abelian N that number is even, or CountingBugError is
    raised: the opposite map, g -> (x -> g(x)^-1) with f twisted to
    match, commutes with Aut(N), and it fixes an orbit only if inversion
    is an automorphism of N, so it pairs the orbits off (the opposite
    skew brace; Koch and Truman, J. Algebra 546, 2020).  A scan that
    loses one orbit breaks the parity.  For an abelian N the check has
    no power, and none is made.

    Aut(G) acts freely on the pairs too, by (f, g) -> (f o a, g o a),
    since g is injective; so |Aut G| divides the count, or
    CountingBugError is raised.  Aut(G) is counted, not listed.
    """
    if len(G) != len(N):
        raise PreconditionError("counting crossed pairs needs |G| = |N|")
    _check_tables(N)
    aut = automorphism_group(N)
    orbits = sum(1 for _ in _pair_orbit_reps(G, aut, N))
    # N is abelian exactly when inversion is an automorphism of N
    if orbits % 2 and not respects_law(N.inverses(), N.rows(), generator_shifts(N)):
        raise CountingBugError(f"an odd number of orbits, {orbits}, for a non-abelian N")
    pairs, aut_g = len(aut) * orbits, automorphism_order(G)
    if pairs % aut_g:
        raise CountingBugError(f"{pairs} pairs, not a multiple of |Aut G| = {aut_g}")
    return pairs


# Direct search for regular subgroups.


def _conjugators(hol: HolomorphGroup):
    """Conjugation c -> h * c * h^-1 by each h of a generating set of Hol(N),
    as code tables.

    The code of lam[t] * iota[a] is t * |Aut N| + a, the pair (t, a) of
    ``_pair_search``, and each table maps every code to the code of its
    conjugate.  The entries are read from ``rows()``, so Hol(N) is never
    multiplied: by lam_s, (t, a) -> (s * t * alpha_a(s^-1), a); by
    iota_b, (t, a) -> (beta_b(t), b * a * b^-1).  The s and b come from
    greedy generating sets of N's and Aut(N)'s rows, each of at most
    log2 of the order; ``aut.generators`` would be every automorphism.
    """
    N, aut = hol.n_group, hol.aut
    nrows, arows, iota = N.rows(), aut.rows(), hol.iota
    ts, size = range(len(N)), len(aut)
    tables = []
    for s in _generating_set(nrows, N.identity_index):
        row, s_inv = nrows[s], N.inv(s)
        moved = [alpha[s_inv] for alpha in iota]
        tables.append([nrows[row[t]][u] * size + a for t in ts for a, u in enumerate(moved)])
    for b in _generating_set(arows, aut.identity_index):
        beta, row, b_inv = iota[b], arows[b], aut.inv(b)
        moved = [arows[row[a]][b_inv] for a in range(size)]
        tables.append([beta[t] * size + a for t in ts for a in moved])
    return tables


def _semiregular_classes(hol: HolomorphGroup):
    """The pool of ``_pair_search``, split into Hol(N)-conjugacy classes.

    The pool is the non-identity semiregular elements of Hol(N), as codes
    t * |Aut N| + a of their (t, a) pairs.  Returns (classes, conj,
    in_pool, element): one (order, codes) per class, its orbit walked
    once by ``groups._reach`` under the tables conj of ``_conjugators``;
    in_pool[c] is 1 for the codes in the pool; element(c) is the
    permutation of code c, one ``perm.composer`` call.

    (t, a) fixes x exactly when t = x * alpha_a(x)^-1, so one pass over
    the pairs (a, x) marks every code with a fixed point.  A non-identity
    semiregular element has none, and conjugation maps fixed points to
    fixed points, so only orbits of unmarked codes are walked.  Those
    codes are walked in ascending order and orbits are disjoint, so each
    class starts at its least code, and classes come by descending order,
    then least code.  Conjugation preserves semiregularity, so each orbit
    is tested once, on its greatest code, and only that code is made a
    permutation.  An orbit walked from an unmarked code that reaches a
    marked one, or a conj table that is not a bijection of the codes,
    raises CountingBugError.
    """
    N = hol.n_group
    m, size = len(N), len(hol.aut)
    lam, composers = hol.lam, [perm.composer(alpha) for alpha in hol.iota]
    conj = _conjugators(hol)
    codes = list(range(m * size))
    if any(sorted(image) != codes for image in conj):
        raise CountingBugError("a conjugation table is not a bijection, so semiregular classes mix")

    def images(x):
        return [image[x] for image in conj]

    def element(c):
        return composers[c % size](lam[c // size])

    seen = bytearray(m * size)  # the marked codes, then every code walked
    nrows, n_inv = N.rows(), N.inverses()
    for a, alpha in enumerate(hol.iota):
        for x, row in enumerate(nrows):
            seen[row[n_inv[alpha[x]]] * size + a] = 1
    classes = []
    for c in codes:
        if not seen[c]:
            orbit = _reach(images, (c,), range(len(conj)))[0]
            if any(map(seen.__getitem__, orbit)):
                raise CountingBugError("a semiregular class holds an element fixing a point")
            for d in orbit:
                seen[d] = 1
            k = perm.semiregular_order(element(max(orbit)))
            if k > 1:
                classes.append((k, orbit))
    classes.sort(key=lambda kc: -kc[0])  # stable: ties keep least-code order
    in_pool = bytearray(m * size)
    for c in itertools.chain.from_iterable(orbit for _, orbit in classes):
        in_pool[c] = 1
    return classes, conj, in_pool, element


def _pair_search(hol: HolomorphGroup):
    """The regular subgroups of Hol(N) closed from <= 2 semiregular
    elements, as lists of frozensets, one list per Hol(N)-conjugacy orbit.

    Works in (translation, automorphism) coordinates: lam[t] * iota[a] is
    the pair (t, a), and (t1, a1)(t2, a2) = (t1 * iota[a1](t2), a1 * a2).
    The t-part of an element is the image of N's identity, so a subgroup
    is regular exactly when it has |N| elements with distinct t-parts.  A
    closure therefore stops at the first repeated t-part (which also caps
    it at |N| elements), and one that finishes with |N| elements is
    regular.  Non-identity elements of a regular subgroup are
    semiregular, so only those (the pool) are tried as generators, and a
    closure also stops at the first element outside the pool.

    Hol(N) acts by conjugation on the pool and on the regular subgroups.
    So the first generator x is only the representative of each pool
    class (``_semiregular_classes``: its least code), and the second y
    ranges over x's class and the classes after it; every subgroup found
    is expanded at once to its orbit, walked by ``groups._reach``.  That
    is complete for any class order and any representative: take
    R = <x', y'> with the class of x' not after that of y', and h that
    conjugates x' to its representative x; then hRh^-1 = <x, hy'h^-1> is
    closed from a pair the search tries, and R lies in its orbit.  A y
    whose t-part is that of some x^j is skipped before it is closed:
    x^-j y fixes N's identity, so in a regular <x, y> it is 1 and
    <x, y> = <x>, which is regular only if x has order |N|, and then
    the cyclic pass has closed it already.  The
    pair closure is its own walk, since it stops at the first repeated
    t-part or element outside the pool.  So the search finds every
    regular subgroup generated by at most two elements, which every
    catalog class is: squarefree orders give metacyclic groups, the
    classes at orders 4 and 12 are small, and the tests check each class.
    A conjugate subgroup without |N| distinct t-parts raises
    CountingBugError.
    """
    N, aut = hol.n_group, hol.aut
    m, size = len(N), len(aut)
    nrows, arows, iota = N.rows(), aut.rows(), hol.iota
    e_t, e_a = N.identity_index, aut.identity_index
    classes, conj, in_pool, element = _semiregular_classes(hol)
    found: dict = {}  # subgroup as a frozenset of element codes -> subgroup id
    member: dict = {}  # element code -> ids of the subgroups holding it
    orbits = []

    def close(pair):
        # parts[t] is the a-part of the element with t-part t, or -1.
        parts = [-1] * m
        parts[e_t] = e_a
        frontier = [(e_t, e_a)]
        count = 1
        while frontier:
            nxt = []
            for tx, ax in frontier:
                trow, alpha, arow = nrows[tx], iota[ax], arows[ax]
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
        if count < m:
            return None
        return frozenset(t * size + a for t, a in enumerate(parts))

    def conjugates(sub):
        images = [frozenset(image[c] for c in sub) for image in conj]
        if any(len({c // size for c in moved}) < m for moved in images):
            raise CountingBugError("a conjugate subgroup repeats a t-part")
        return images

    def record(sub):
        # A new subgroup brings its whole orbit into the skip index.
        if sub in found:
            return
        orbit = _reach(conjugates, (sub,), range(len(conj)))[0]
        for conjugate in orbit:
            found[conjugate] = len(found)
            for c in conjugate:
                member.setdefault(c, set()).add(found[conjugate])
        orbits.append(orbit)

    # The trivial group is generated by no element, a cyclic one by one.
    cyclic = [(divmod(codes[0], size),) for k, codes in classes if k == m]
    for pair in [()] + cyclic:
        sub = close(pair)
        if sub is not None:
            record(sub)
    # A pair lying inside a known regular subgroup closes to that subgroup
    # or to a proper (hence non-regular) piece of it, so it is skipped.
    # The skip index grows after every hit; the result does not depend on
    # the scan order, because skips only drop pairs that rediscover a
    # known subgroup.
    for i, (k, codes) in enumerate(classes):
        cx = codes[0]
        x = tx, ax = divmod(cx, size)
        # the t-parts of x, x^2, ..., x^k = 1: a y with one of them gives
        # a regular <x, y> only if y is in <x>
        on_orbit = bytearray(m)
        t, a = tx, ax
        for _ in range(k):
            on_orbit[t] = 1
            t, a = nrows[t][iota[a][tx]], arows[a][ax]
        for cy in itertools.chain.from_iterable(codes for _, codes in classes[i:]):
            if on_orbit[cy // size]:
                continue
            groups_x = member.get(cx)
            if groups_x:
                groups_y = member.get(cy)
                if groups_y and not groups_x.isdisjoint(groups_y):
                    continue
            sub = close((x, divmod(cy, size)))
            if sub is not None:
                record(sub)
    return [[frozenset(map(element, sub)) for sub in orbit] for orbit in orbits]


def _check_search_bound(m: int):
    if m > PAIR_SEARCH_MAX:
        raise BoundExceededError(
            f"|N| = {m} exceeds the Hol(N) search bound {PAIR_SEARCH_MAX}"
        )


def search_holomorph(N: PermGroup) -> HolomorphGroup:
    """Hol(N) for the direct search, checking the bound before building it."""
    _check_search_bound(len(N))
    return holomorph(N)


@derived
def regular_subgroups(hol: HolomorphGroup) -> tuple[RegularSubgroupRecord, ...]:
    """Every regular subgroup of Hol(N), tagged with its catalog class.

    Runs the generator-pair search, for |N| up to ``PAIR_SEARCH_MAX``,
    once per ``hol``.  Conjugate subgroups are isomorphic, so
    ``class_index`` runs once per conjugacy orbit; records are sorted by
    their elements.
    """
    m = len(hol.n_group)
    _check_search_bound(m)
    entries = catalog(m)
    records = []
    for orbit in _pair_search(hol):
        subs = [PermGroup(m, S) for S in orbit]
        idx = class_index(subs[0], entries)
        text = entries[idx].spec.text()
        records += [
            RegularSubgroupRecord(sub, idx, text, None, "generator-pairs") for sub in subs
        ]
    records.sort(key=lambda r: r.subgroup.elements)
    return tuple(records)


def realizable_via_search(G: PermGroup, N: PermGroup) -> bool:
    """True iff the direct Hol(N) search finds a regular subgroup iso to G."""
    if len(G) != len(N):
        raise PreconditionError("realizability needs |G| = |N|")
    records = regular_subgroups(search_holomorph(N))
    target = class_index(G, catalog(len(N)))
    return any(r.iso_index == target for r in records)


# Characteristic-subgroup transport.


def transport_characteristic(c: CrossedHom, M: PermGroup):
    """Pull a characteristic subgroup M of N back through a witness.

    H = g^-1(M) is asserted to be a subgroup of G of order |M|, and g
    restricted to H a witness for (H, M).  H is proved closed on
    generators: ``_reach`` walks G's rows from the identity, each
    element of H not reached yet becoming one more generator, and must
    stay inside H; it then reaches all of H, |M| elements, in about
    |H| log|H| steps in place of |H|^2.  M is characteristic, so each
    f(a) maps M onto M and g|_H is a bijective crossed homomorphism
    H -> M for the twist a -> f(a)|_M.  ``crossed_twist`` checks from
    g|_H alone that it is one for some twist, which is all realizability
    asks, so no engine search runs on (H, M) and no Aut(M) is built.
    Returns (H, g|_H), g|_H a tuple of M's indices by H's.  A failure is
    reported as a bug or a genuine discrepancy, never passed silently;
    an M whose elements are not all N's raises PreconditionError.
    """
    G, N = c.domain, c.n_group
    if not all(p in N for p in M.elements):
        raise PreconditionError("M is not a subgroup of N")
    m_idxs = {N.index_of(p) for p in M.elements}
    h_idxs = [a for a in range(len(G)) if c.g[a] in m_idxs]
    if len(h_idxs) != len(M):
        raise CountingBugError(
            f"preimage has {len(h_idxs)} elements, expected {len(M)}"
        )
    h_set, step = set(h_idxs), G.rows().__getitem__
    reached, gens = {G.identity_index}, []
    for a in h_idxs:  # each element of H not reached yet is one more generator
        if a not in reached:
            gens.append(a)
            reached = set(_reach(step, reached, gens)[0])
            if not reached <= h_set:
                raise CountingBugError("preimage of a characteristic subgroup is not closed")
    H = G.subgroup_from_indices(h_idxs)
    g_H = tuple(M.index_of(N.elements[c.g[a]]) for a in h_idxs)
    if crossed_twist(H, M, g_H) is None:
        raise CountingBugError(
            "transported pair is not realizable; paper discrepancy or bug"
        )
    return H, g_H
