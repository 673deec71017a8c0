"""Group families, automorphism groups, holomorphs, and the order catalog.

GroupSpec is the abstract recipe; ``build`` turns a recipe into a faithful
PermGroup acting on its natural carrier.  ``catalog`` builds one group
per isomorphism class for squarefree orders, keyed by Hölder's
classification (1895): such a group is Z_m x| Z_(n/m) with m = |G'|, fixed
by m and the subgroup of (Z/m)^x that the action generates.  A hard-coded
exception table covers a few non-squarefree orders the audits and
cross-checks need.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd

from . import perm
from .errors import (
    CountingBugError,
    PreconditionError,
    Record,
    SpecSemanticError,
    UnsupportedOrderError,
)
from .groups import (
    PermGroup,
    _generating_set,
    _reach,
    are_isomorphic,
    check_size,
    closure,
    derived,
    extend_images,
    factorize,
    generator_frame,
    generator_shifts,
    iso_candidates,
    respects_law,
    unique_odd_part,
)

# Group specs.


class Cyclic(Record):
    n: int

    def text(self):
        return f"C{self.n}"


class Dihedral(Record):
    """Dihedral group of total order 2n (the ``order2n`` field)."""

    order2n: int

    def text(self):
        return f"D{self.order2n}"


class SemidirectCC(Record):
    """Z_k x| Z_l with the Z_l generator acting as x -> t*x mod k."""

    k: int
    l: int
    t: int

    def text(self):
        return f"SD({self.k},{self.l};{self.t})"


class SemidirectZ2(Record):
    """Z_n x| Z_2 with the involution acting as x -> s*x mod n."""

    n: int
    s: int

    def text(self):
        return f"SDZ2({self.n};{self.s})"


class DirectProduct(Record):
    left: "GroupSpec"
    right: "GroupSpec"

    def text(self):
        return f"{self.left.text()}x{self.right.text()}"


class Holomorph(Record):
    inner: "GroupSpec"

    def text(self):
        return f"Hol({self.inner.text()})"


class Alternating4(Record):
    def text(self):
        return "A4"


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
        if t < 1 or t > k or gcd(t, k) != 1:
            raise SpecSemanticError(f"{spec.text()}: twist {t} is not a unit mod {k}")
        if pow(t, l, k) != 1 % k:
            raise SpecSemanticError(
                f"{spec.text()}: twist order does not divide {l} ({t}^{l} != 1 mod {k})"
            )
    elif isinstance(spec, SemidirectZ2):
        n, s = spec.n, spec.s
        if n < 1:
            raise SpecSemanticError(f"{spec.text()}: n must be positive")
        if s < 1 or s > n or gcd(s, n) != 1:
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


def _twists(k: int, l: int) -> list[int]:
    """The units t in 1..k with t^l = 1 mod k: every Z_k x| Z_l twist."""
    return [t for t in range(1, k + 1) if gcd(t, k) == 1 and pow(t, l, k) == 1 % k]


def z2_twists(n: int) -> list[int]:
    """All valid SemidirectZ2 twists for Z_n: units s with s^2 = 1 mod n."""
    return _twists(n, 2)


@functools.cache
def build(spec: GroupSpec) -> PermGroup:
    """Materialize a recipe as a faithful permutation group, once per recipe."""
    validate_spec(spec)
    return _build(spec)


def _build(spec: GroupSpec) -> PermGroup:
    if isinstance(spec, DirectProduct):
        _order_degree(spec)  # refuses before a factor is built
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
    return _semidirect_pair(*_pair(spec), spec)


def _pair(spec: GroupSpec):
    """(k, l, t) of a cyclic, dihedral or semidirect recipe: the group
    Z_k x|_t Z_l that ``_semidirect_pair`` builds on k*l points."""
    if isinstance(spec, Cyclic):
        return 1, spec.n, 1
    if isinstance(spec, Dihedral):
        n = spec.order2n // 2
        return n, 2, (n - 1) % n if n > 1 else 1
    if isinstance(spec, SemidirectCC):
        return spec.k, spec.l, spec.t
    return spec.n, 2, spec.s


def _order_degree(spec: GroupSpec):
    """(order, degree) of ``build(spec)``, read off the recipe.  Each size
    is checked as ``build`` would check it, factors first, so a product
    past the bound is refused before any factor is built; a Hol(...)
    factor is |N|·|Aut N| elements of degree |N|, read off ``holomorph``
    without listing them."""
    if isinstance(spec, DirectProduct):
        (a, da), (b, db) = _order_degree(spec.left), _order_degree(spec.right)
        check_size(a * b, da * db)
        return a * b, da * db
    if isinstance(spec, Holomorph):
        hol = holomorph(build(spec.inner))
        return len(hol.n_group) * len(hol.aut), len(hol.n_group)
    if isinstance(spec, Alternating4):
        return 12, 4
    k, l, _ = _pair(spec)
    check_size(k * l, k * l)
    return k * l, k * l


def _semidirect_pair(k: int, l: int, t: int, spec) -> PermGroup:
    """Left regular action of Z_k x| Z_l on its kl-point carrier.

    Point (c, d) is index c*l + d; element (a, b) sends it to
    (a + t^b * c, b + d).  The size bound is checked before any generator
    is made.  The elements are listed in normal form, x^a·y^b for
    x = (1, 0) and y = (0, 1), with no closure walk: the powers of x and
    y are elements themselves, and every other element is one
    composition.  That list is the group <x, y> exactly when its
    elements are distinct, which ``PermGroup`` checks, and the relations
    x^k = y^l = 1 and y x y^-1 = x^t hold, which are checked here; a
    relation that fails raises CountingBugError.  The group is regular,
    so x^a·y^b, which sends point 0 to a*l + b, has index a*l + b, and
    the group keeps (k, l, t) as its ``pair``.
    """
    size = k * l
    check_size(size, size)
    x = tuple(((c + 1) % k) * l + d for c in range(k) for d in range(l))
    y = tuple(((t * c) % k) * l + (d + 1) % l for c in range(k) for d in range(l))
    xs, ys = _powers(x, k), _powers(y, l)
    e = xs[0]
    # composer(q)(p) is p·q, so the last test is y·x = x^t·y
    if xs[k] != e or ys[l] != e or perm.composer(x)(y) != perm.composer(y)(xs[t % k]):
        raise CountingBugError(f"{k}, {l}, {t}: x^k = y^l = 1, y x y^-1 = x^t fails")
    elements = xs[:k] + ys[1:l]
    for step in map(perm.composer, ys[1:l]):
        elements += map(step, xs[1:k])  # x^a·y^b
    gens = [g for g, n in ((x, k), (y, l)) if n > 1] or [e]
    return PermGroup(size, elements, generators=gens, label=spec, pair=(k, l, t))


def _powers(p, n: int) -> list:
    """[p^0, p, p^2, ..., p^n] for n >= 1, by one composition each."""
    step = perm.composer(p)
    out = [perm.identity(len(p)), p]
    for _ in range(n - 1):
        out.append(step(out[-1]))
    return out


# Automorphism groups and holomorphs.


def _coprime_pair(N: PermGroup):
    """N's ``pair`` (k, l, t) when gcd(k, l) = 1, else None."""
    pair = N.pair
    return pair if pair is not None and gcd(pair[0], pair[1]) == 1 else None


def _triples(k: int, l: int, t: int):
    """Aut(Z_k x|_t Z_l) for gcd(k, l) = 1 in closed form (Golasiński and
    Gonçalves, Manuscripta Math. 128, 2009): the maps (i, j, w),
    x -> x^i and y -> x^j·y^w, with i a unit mod k, w a unit mod l with
    t^w = t mod k, and j·(1 + t + ... + t^(l-1)) = 0 mod k, that is j a
    multiple of j0.  Returns (the i's, the w's, j0, sums), sums[b] being
    1 + t + ... + t^(b-1) mod k, so that (i, j, w) sends x^a·y^b to
    x^(i·a + j·sums[b])·y^(w·b)."""
    sums = [x % k for x in itertools.accumulate((pow(t, b, k) for b in range(l)), initial=0)]
    units = [i for i in range(k) if gcd(i, k) == 1]
    ws = [w for w in range(l) if gcd(w, l) == 1 and pow(t, w, k) == t % k]
    return units, ws, k // gcd(k, sums[l]), sums


def _closed_form_automorphisms(N: PermGroup, k: int, l: int, t: int) -> list:
    """Every (1, j, w)∘(i, 0, 1) of ``_triples`` as a permutation of N's
    indices, x^a·y^b at index a·l + b, one ``perm.composer`` call each.

    Only generating maps are computed by arithmetic: (1, j0, 1), whose
    powers are the (1, j, 1), and greedy generators of the i's and of
    the w's, each r not reached by the ones before it; every other
    (i, 0, 1) or (1, 0, w) is one composition, made as ``_reach``, the
    orbit walk, first reaches its residue by r.  A generating map that is
    not a permutation, or fails ``respects_law`` on N's frame generators,
    raises CountingBugError.  With
    (1, j, w) = (1, 0, w)∘(1, j, 1) and every list in ascending order,
    the automorphisms come sorted by image tuple: index 1 is y, sent to
    x^j·y^w at j·l + w, and index l is x, sent to x^i at i·l.
    """
    units, ws, j0, sums = _triples(k, l, t)
    rows, shifts, e = N.rows(), generator_shifts(N), perm.identity(len(N))

    def generator(i, j, w):
        cols = [(j * sums[b] % k, w * b % l) for b in range(l)]
        g = tuple([(i * a + c) % k * l + d for a in range(k) for c, d in cols])
        if not (perm.is_perm(g) and respects_law(g, rows, shifts)):
            raise CountingBugError(f"{(i, j, w)} is not an automorphism of {N.label}")
        return g

    def unit_maps(group, m, make):
        maps = {1 % m: e}
        for r in group:
            if r not in maps:
                step = perm.composer(make(r))
                order, parent = _reach(lambda x: (x * r % m,), maps, (0,))
                for y in order[len(maps):]:
                    maps[y] = step(maps[parent[y][0]])
        return [maps[r] for r in sorted(maps)]

    vs = _powers(generator(1, j0, 1), k // j0)[:-1] if j0 < k else [e]
    w_maps = unit_maps(ws, l, lambda w: generator(1, 0, w))
    if len(w_maps) > 1:
        vs = [j(w) for j in map(perm.composer, vs) for w in w_maps]
    us = unit_maps(units, k, lambda i: generator(i, 0, 1))
    if len(vs) == 1:  # every automorphism is an (i, 0, 1)
        return us
    steps = list(map(perm.composer, us))
    return [u(v) for v in vs for u in steps]


@derived
def _aut_chain(N: PermGroup):
    """Aut(N) as a two-level stabilizer chain (transversal, stabilizer),
    built once per group object: the search for every N without a closed
    form (A4, direct products, ``Hol(...)``, recipes Z_k x| Z_l with
    gcd(k, l) > 1, and groups built from element lists), and the oracle
    the tests and CI hold the closed form equal to.

    a is the first generator of ``generator_frame(N)``, and every
    generator may go to any element of its order (``iso_candidates``).
    The stabilizer lists the automorphisms fixing a: the ``extend_images``
    solutions with a -> a.  The transversal maps each point c of a's
    orbit to one automorphism t_c with t_c(a) = c.  The orbit is grown by
    ``_reach`` from the points it holds under the stabilizer and the
    movers found so far, and t_y = g o t_x is read off the parent link
    (x, g) of each new point y = g(x); a candidate the walk has not
    reached gets one scan with a -> c, whose first solution is a new
    mover, and a scan with no solution proves c outside the orbit.  So
    |Aut N| = |orbit| x |stabilizer|, and Aut(N) = {t_c o s} (Sims 1970;
    Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
    ch. 4).
    """
    frame = generator_frame(N)
    cands = iso_candidates(N, N, frame[0])
    a = frame[0][0]

    def scan(c):
        return extend_images(N, N, frame, [[c], *cands[1:]], injective=True)

    stabilizer = tuple(scan(a))
    walkers = list(stabilizer)
    transversal = {a: perm.identity(len(N))}

    def images(x):
        return [g[x] for g in walkers]

    for c in cands[0]:
        if c not in transversal:
            mover = next(scan(c), None)
            if mover is not None:
                transversal[c] = mover
                walkers.append(mover)
                order, parent = _reach(images, transversal, range(len(walkers)))
                for y in order[len(transversal):]:
                    x, pos = parent[y]
                    transversal[y] = tuple(map(walkers[pos].__getitem__, transversal[x]))
    return transversal, stabilizer


@derived
def automorphism_order(N: PermGroup) -> int:
    """|Aut N| without listing Aut(N), once per group object: for a coprime
    ``pair`` the count of ``_triples``, φ(k)·#w·(k / j0); for a product
    recipe A x B (N's label) with gcd(|A|, |B|) = 1 the product of the
    factors' orders, as Aut(A x B) = Aut A x Aut B; else read off
    ``_aut_chain``."""
    pair = _coprime_pair(N)
    if pair is not None:
        units, ws, j0, _ = _triples(*pair)
        return len(units) * len(ws) * (pair[0] // j0)
    if isinstance(N.label, DirectProduct):
        A, B = build(N.label.left), build(N.label.right)
        if gcd(len(A), len(B)) == 1:
            return automorphism_order(A) * automorphism_order(B)
    transversal, stabilizer = _aut_chain(N)
    return len(transversal) * len(stabilizer)


@derived
def automorphism_group(N: PermGroup) -> PermGroup:
    """All automorphisms of N, as permutations of N's element indices,
    computed once per group object.

    For a coprime ``pair`` they are ``_closed_form_automorphisms``, with
    no search.  Every other N takes t_c o s over the transversal and
    stabilizer of ``_aut_chain``, and each must map the chain's point a
    to c, or CountingBugError is raised.  Either way the count must be
    ``automorphism_order(N)``, the closed form's count or, for a product
    of coprime factor orders, the factors' product, or CountingBugError
    is raised; a repeated automorphism fails in PermGroup.  The group's
    base is N's frame generators (``generator_frame(N)[0]``): an
    automorphism is fixed by its images of a generating set, so no greedy
    ``_base`` scan runs over Aut(N), and ``PermGroup`` still refuses a
    base that does not tell the elements apart.
    """
    pair = _coprime_pair(N)
    if pair is not None:
        elements = _closed_form_automorphisms(N, *pair)
    else:
        transversal, stabilizer = _aut_chain(N)
        a = next(iter(transversal))
        composers = [perm.composer(s) for s in stabilizer]
        elements = []
        for c, t in transversal.items():
            for compose_s in composers:
                alpha = compose_s(t)
                if alpha[a] != c:
                    raise CountingBugError("a transversal element misses its orbit point")
                elements.append(alpha)
    if len(elements) != automorphism_order(N):
        raise CountingBugError(f"{len(elements)} automorphisms, not |Aut N| = {automorphism_order(N)}")
    return PermGroup(len(N), elements, base=tuple(map(N.index_of, N.minimal_generating_set())))


class HolomorphGroup:
    """Hol(N) on N's element indices, in coordinates.

    ``lam[t]`` is the left translation by element t and ``iota[a]`` the
    automorphism with index a; h = lam[t] * iota[a] is the pair (t, a).
    In these coordinates the product is
    (t1, a1)(t2, a2) = (t1 * iota[a1](t2), a1 * a2), three table lookups;
    ``realize`` searches regular subgroups this way.  Only these four
    are kept: the constructor's ``group`` and ``tags`` are taken and
    dropped.  Compared and hashed by identity; ``group`` and
    ``regular_subgroups`` are kept in its ``_memo``.
    """

    def __init__(self, group, n_group, aut, lam, iota, tags):
        self.n_group, self.aut, self.lam, self.iota = n_group, aut, lam, iota

    @property
    @derived
    def group(self) -> PermGroup:
        """Hol(N) as a PermGroup, the |N|·|Aut N| elements lam[t] * iota[a],
        listed on first read."""
        N, aut, lam, iota = self.n_group, self.aut, self.lam, self.iota
        perms = [perm.compose(lam[t], alpha) for t in range(len(N)) for alpha in iota]
        gens = [lam[N.index_of(g)] for g in N.generators]
        gens += [iota[b] for b in _generating_set(aut.rows(), aut.identity_index)]
        label = Holomorph(N.label) if N.label is not None else None
        # PermGroup refuses a repeated element
        return PermGroup(len(N), perms, generators=gens, label=label)


@derived
def holomorph(N: PermGroup) -> HolomorphGroup:
    """Hol(N) in coordinates, built once per group object; ``group`` waits
    for its first read.  Raises BoundExceededError before
    Aut(N) is listed when the |N|·|Aut N| permutations would pass
    ``SIZE_LIMIT``; ``automorphism_order`` gives |Aut N|.  It first
    refuses on |N| alone, before Aut(N) is searched, when even 3|N| of
    them would pass: a group of order above 6 has at least 3
    automorphisms, and below that the check cannot fail.  So every N
    above ``TABLE_LIMIT`` is refused at once.  The generators of
    ``group`` are the translations by N's generators and a greedy
    generating set of Aut(N), at most log2 |Aut N| automorphisms.
    """
    check_size(3 * len(N), len(N))
    check_size(len(N) * automorphism_order(N), len(N))
    aut = automorphism_group(N)
    lam = tuple(map(tuple, N.rows()))  # below TABLE_LIMIT the table's own rows
    return HolomorphGroup(None, N, aut, lam, aut.elements, None)


# The small-order catalog.


class CatalogEntry(Record):
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
    orders; any other positive order raises UnsupportedOrderError, an
    order past the size bound BoundExceededError, and an order below 1
    PreconditionError.  The list is the caller's own; the entries are
    shared.
    """
    return list(_catalog(order))


@functools.cache
def _catalog(order: int) -> tuple[CatalogEntry, ...]:
    if order < 1:
        raise PreconditionError(f"order {order} is not positive")
    if order in _EXCEPTION_ORDERS:
        return tuple(CatalogEntry(s, build(s)) for s in _EXCEPTION_ORDERS[order])
    if not is_squarefree(order):
        raise UnsupportedOrderError(
            f"order {order} is not squarefree and has no exception entry"
        )
    check_size(order, order)
    # One twist per Hölder class, built outside the ``build`` memo: the first
    # of each key with k descending, and (order/p, p, 1) for the cyclic class,
    # p the least prime.  This picks each class's least element list (the
    # tests check it against an isomorphism search).
    p = min((q for q, _ in factorize(order).pairs), default=1)
    picks = {_holder_key(1, 1, 1): (order // p, p, 1)}
    for k in sorted((d for d in range(1, order + 1) if order % d == 0), reverse=True):
        l = order // k
        for t in _twists(k, l):
            picks.setdefault(_holder_key(k, l, t), (k, l, t))
    classes = [
        _semidirect_pair(k, l, t, _prettify(SemidirectCC(k, l, t)))
        for k, l, t in picks.values()
    ]
    classes.sort(key=lambda G: G.elements)
    return tuple(CatalogEntry(G.label, G) for G in classes)


def _holder_key(k: int, l: int, t: int):
    """Isomorphism invariant of Z_k x|_t Z_l at squarefree order kl: m = |G'|,
    the product of the primes of k that t moves, and the subgroup <t> of
    (Z/m)^x.  Complete by Hölder's classification: G = Z_m x| Z_(kl/m), and
    twists generating one subgroup differ by a change of generator."""
    m = 1
    for p, _ in factorize(k).pairs:
        if (t - 1) % p:
            m *= p
    return m, frozenset(pow(t, j, m) for j in range(l))


def _prettify(spec: GroupSpec) -> GroupSpec:
    """Friendlier tags for recognized families; the group is unchanged."""
    if isinstance(spec, SemidirectCC):
        k, l, t = spec.k, spec.l, spec.t
        if t == 1:
            return Cyclic(k * l)
        if l == 2 and t == k - 1:
            return Dihedral(2 * k)
    return spec


def class_index(G: PermGroup, entries: list[CatalogEntry]) -> int:
    """Index of the catalog class isomorphic to G; raises if none matches."""
    for i, entry in enumerate(entries):
        if are_isomorphic(entry.group, G) is not None:
            return i
    raise PreconditionError(f"group of order {len(G)} matches no catalog class")


# Structure recognition.


def decompose_burnside(G: PermGroup):
    """Coprime cyclic semidirect parameters (k, l, t) of a C-group, read
    off element orders; None when some Sylow subgroup is non-cyclic.

    k runs down the divisors of |G| coprime to l = |G|/k.  The elements
    whose order divides k form a normal cyclic Hall subgroup K exactly
    when there are k of them and one has order k: a normal Hall subgroup
    holds every element whose order divides its order, and a set defined
    by orders is characteristic.  The first such k for which G also has an
    element of order l is the answer, and G = K x| L for a cyclic L of
    order l.  Such a split makes every Sylow subgroup cyclic, and every
    C-group has one (Hölder, Burnside, Zassenhaus), so no such k means
    None; a cyclic group gives (|G|, 1, 1).

    t is fixed by tie-breaks, not minimized: L is the cyclic subgroup of
    order l with the least sorted index tuple, u is the least-index
    element of order k, v the least-index element of order l in L, and t
    is the least t >= 1 with v u v^-1 = u^t.  A smaller twist may
    decompose G too: the odd part of SD(11,10;2) gives (11, 5, 4) though
    t = 3 also fits, and SD(7,3;2)xC5 gives (35, 3, 16), not 11.
    """
    n = len(G)
    orders = [G.order_of(i) for i in range(n)]
    present = set(orders)
    halls = [1]
    for p, a in factorize(n).pairs:
        halls += [h * p**a for h in halls]
    for k in sorted(halls, reverse=True):
        l = n // k
        if k in present and l in present and sum(k % o == 0 for o in orders) == k:
            break
    else:
        return None
    rows, e = G.rows(), G.identity_index
    step, seen, cyclic = rows.__getitem__, set(), []
    for x in range(n):
        if orders[x] == l and x not in seen:
            S = tuple(sorted(_reach(step, (e,), (x,))[0]))
            seen.update(S)
            cyclic.append(S)
    u = orders.index(k)
    v = next(i for i in min(cyclic) if orders[i] == l)
    w = rows[rows[v][u]][G.inv(v)]
    powers = _reach(step, (u,), (u,))[0]  # u, u^2, ..., u^k = e
    if w not in powers:
        raise PreconditionError("conjugate left the cyclic factor")  # pragma: no cover
    return k, l, powers.index(w) + 1


class ShapeWitness(Record):
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
    H = unique_odd_part(N)
    shape = decompose_burnside(H)
    return None if shape is None else ShapeWitness(*shape, H)
