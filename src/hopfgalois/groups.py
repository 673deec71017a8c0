"""Materialized finite permutation groups and generic group predicates.

Every group in this library is a PermGroup: a full, canonically ordered
list of image tuples.  Orders stay small (a few thousand at most), so
elements are enumerated explicitly instead of held as stabilizer chains;
only two ideas are borrowed from those: a multiplication table looks
each product up by its images of a base, a few points that tell every
element apart, instead of by a composed tuple of ``degree`` points; and
Aut(N) is first found as a two-level chain (``factory._aut_chain``), so
its order is known before its elements are listed.
Every product is read from ``PermGroup.rows()``, the power walk behind
the order and inverse tables included.  Every orbit is walked by the one
breadth-first walk ``_reach``: spans in a group table, the greedy
generating set, the orbit of Aut(N)'s chain and realize's Hol(N)
classes and subgroup orbits.  Only three kinds of walk are written
apart: ``closure``, which stops at its cap; the subgroup queue of
``_subgroup_sets``; and the pair closures of realize's search and of
counting's direct count, which stop at the first element outside the
pool.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from math import gcd

from . import perm
from .errors import (
    BoundExceededError,
    CapExceededError,
    DegreeMismatchError,
    PreconditionError,
    Record,
)

SUBGROUP_BOUND = 400   # |G| cap for the subgroup lattice walk
TABLE_LIMIT = 1200     # larger groups have no table; their products compose
SIZE_LIMIT = 4_000_000  # |G| x degree cap on one group's list of image tuples


class PermGroup:
    """A finite permutation group with a canonically ordered element list.

    Elements are sorted lexicographically by image tuple, so two
    generating sets of the same subgroup produce identical lists and the
    identity always sits at index 0.  The element list is fixed at
    construction, and a repeated element raises PreconditionError.  Every
    product is read from ``rows``: the multiplication table, filled in on
    the first product, or above ``TABLE_LIMIT`` rows that compose.  The
    inverse and order tables (one ``_power_walk`` along the rows, so it
    builds the table if none is built yet), the generating set,
    the extension plans of ``generator_frame`` and ``greedy_frame`` and
    the subgroup list fill in on first use, and ``_cyclic_images`` holds
    the crossed-hom scan's candidate images when this group is N, keyed
    by (f(a), ord a) and filled by ``realize._cyclic_candidates``.  No
    other module sets attributes on an instance; automorphism groups,
    holomorphs and regular subgroups are memoized by ``functools.cache``
    with the group as key.
    """

    def __init__(self, degree, elements, generators=None, label=None):
        self.degree = degree
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators) if generators else self._default_generators()
        self.label = label
        self._index = {p: i for i, p in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PreconditionError("group elements are not distinct")
        self._mul_table = None
        self._inverse_table = None
        self._order_table = None
        self._min_gens = None
        self._frame = None
        self._greedy_frame = None
        self._cyclic_images = {}
        self._subgroups = None

    def _default_generators(self):
        e = perm.identity(self.degree)
        return tuple(p for p in self.elements if p != e)

    # Basic protocol.

    def __len__(self):
        return len(self.elements)

    def __contains__(self, p):
        return p in self._index

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        tag = f" label={self.label}" if self.label is not None else ""
        return f"PermGroup(order={len(self)}, degree={self.degree}{tag})"

    def index_of(self, p) -> int:
        return self._index[p]

    @property
    def identity_index(self) -> int:
        return self._index[perm.identity(self.degree)]

    # Index arithmetic.

    def mul(self, i: int, j: int) -> int:
        """Index of compose(elements[i], elements[j]), for one-off products."""
        return self.rows()[i][j]

    def rows(self):
        """Rows whose entry [i][j] is the index of compose(elements[i],
        elements[j]): the one way a product is taken.  They are the table
        up to ``TABLE_LIMIT`` elements; above it each entry composes."""
        if self._mul_table is not None:
            return self._mul_table
        if len(self) > TABLE_LIMIT:
            return [_Row(self, i) for i in range(len(self))]
        return self.table()

    def table(self):
        """The whole of ``rows``, the only place a table is built.

        Above ``TABLE_LIMIT`` elements it raises BoundExceededError, so a
        caller that needs every row, or must fail before doing work, calls
        it first.  An element is fixed by its images of a base
        (``_base``), so entry [i][j] is looked up by
        ``p_i[p_j[b]] for b in base`` instead of a composed tuple of
        ``degree`` points.  One ``itemgetter`` over the base images of
        every column gives all of a row's keys in one C call; with a
        one-point base the key is a list indexed by the point, otherwise a
        dict of tuples.  A one-element group has an empty base.
        """
        if self._mul_table is None:
            check_table(len(self))
            els = self.elements
            base = _base(els, self.degree)
            key = {tuple(p[b] for b in base): i for i, p in enumerate(els)}
            if len(key) != len(els):
                raise PreconditionError(
                    f"base {base} does not tell {len(els)} elements apart"
                )
            if not base:
                self._mul_table = [(0,)]
                return self._mul_table
            row_keys = operator.itemgetter(*(q[b] for q in els for b in base))
            if len(base) == 1:
                point_key = [None] * self.degree
                for (point,), i in key.items():
                    point_key[point] = i
                lookup, keys_of = point_key.__getitem__, row_keys
            else:
                width = len(base)
                lookup = key.__getitem__

                def keys_of(p):
                    return zip(*[iter(row_keys(p))] * width)

            self._mul_table = [tuple(map(lookup, keys_of(p))) for p in els]
        return self._mul_table

    def inv(self, i: int) -> int:
        return self.inverses()[i]

    def order_of(self, i: int) -> int:
        return self.orders()[i]

    def inverses(self):
        """Index of each element's inverse, by index, from ``_power_walk``."""
        if self._inverse_table is None:
            self._power_walk()
        return self._inverse_table

    def orders(self):
        """Order of each element, by index, from ``_power_walk``."""
        if self._order_table is None:
            self._power_walk()
        return self._order_table

    def _power_walk(self):
        """Fill the order and inverse tables in one walk.

        From each element x not reached yet it steps along x's row of
        ``rows`` through x, x^2, ... to the identity, which gives
        k = ord x; then x^i has order k / gcd(i, k) and inverse x^(k - i).
        Up to ``TABLE_LIMIT`` the row is the table's, built on first read.
        """
        n, e = len(self), self.identity_index
        orders, inverses = [0] * n, [0] * n
        orders[e], inverses[e] = 1, e
        rows = self.rows()
        for x in range(n):
            if orders[x]:
                continue
            row, y, powers = rows[x], x, [x]
            while y != e:
                y = row[y]
                powers.append(y)
            k = len(powers)
            for j, y in enumerate(powers, 1):
                orders[y] = k // gcd(j, k)
                inverses[y] = powers[k - j - 1]
        self._order_table, self._inverse_table = tuple(orders), tuple(inverses)

    def order_profile(self):
        """Sorted multiset of element orders; cheap isomorphism invariant."""
        return tuple(sorted(self.orders()))

    def subgroup_from_indices(self, idxs) -> "PermGroup":
        return PermGroup(self.degree, [self.elements[i] for i in sorted(idxs)])

    def minimal_generating_set(self):
        """A smallest generating set: the first of size 1, then 2, then 3
        in ``itertools.combinations`` order of the elements sorted by
        descending order, then index.

        Combinations grow one member at a time.  A candidate in the span
        of the members before it, or in the span an earlier candidate for
        the same place reached with them, is skipped with every
        combination it starts: those span no more than combinations
        already tried, none of which generate.  So the set found is the
        one a scan of every combination finds, and no combination with a
        member in another's cyclic subgroup is closed.
        """
        if self._min_gens is not None:
            return self._min_gens
        n, orders = len(self), self.orders()
        by_order = sorted(range(n), key=lambda i: (-orders[i], i))
        if orders[by_order[0]] == n:  # cyclic, or trivial
            self._min_gens = (self.elements[by_order[0]],)
            return self._min_gens
        start, step = (self.identity_index,), self.rows().__getitem__

        def first(prefix, span, pos, size):
            # the first generating combination of ``size`` that extends
            # ``prefix`` (which spans ``span``) by members after by_order[pos]
            spanned = [span]
            for q in range(pos + 1, n):
                y = by_order[q]
                if any(y in S for S in spanned):
                    continue
                combo = prefix + (y,)
                reached = _reach(step, start, combo)[0]
                if len(combo) == size:
                    if len(reached) == n:
                        return combo
                else:
                    found = first(combo, set(reached), q, size)
                    if found:
                        return found
                spanned.append(set(reached))
            return None

        for size in (2, 3):
            combo = first((), set(start), -1, size)
            if combo:
                self._min_gens = tuple(self.elements[i] for i in combo)
                return self._min_gens
        raise BoundExceededError(f"no generating set of size <= 3 for order {n}")


class _Row:
    """Row i of a group above ``TABLE_LIMIT``, which has no table: entry j
    maps p_j through p_i with one ``itemgetter`` of p_j's images (a
    degree above 1, since the order is) and looks the image tuple up."""

    def __init__(self, G: PermGroup, i: int):
        self.G, self.p = G, G.elements[i]

    def __getitem__(self, j: int) -> int:
        return self.G._index[operator.itemgetter(*self.G.elements[j])(self.p)]


def _base(elements, degree):
    """A base for the group with these elements: points whose images tell
    every element apart (Sims 1970; Seress 2003, ch. 4).

    Chosen greedily: each round takes the point whose images split the
    classes of elements that agree on the base so far into the most
    classes, until every class is a singleton.  A round stops scanning
    points at the first one that separates all elements, which is point 0
    for a regular group.  A one-element group has the empty base.
    """
    n = len(elements)
    base = []
    classes = [0] * n
    count = 1
    while count < n:
        best, best_count = None, count
        for b in range(degree):
            split = len(set(zip(classes, map(operator.itemgetter(b), elements))))
            if split > best_count:
                best, best_count = b, split
                if split == n:
                    break
        if best is None:
            raise PreconditionError("elements are not distinct permutations")
        ids = {}
        classes = [
            ids.setdefault((c, p[best]), len(ids)) for c, p in zip(classes, elements)
        ]
        base.append(best)
        count = best_count
    return base


def closure(generators, cap=20000, label=None) -> PermGroup:
    """Close a generator list under composition into a PermGroup.

    Raises CapExceededError if the generated group would exceed ``cap``;
    that signals a mis-sized search rather than a bug.  A ``cap`` whose
    elements would hold more than ``SIZE_LIMIT`` image entries raises
    BoundExceededError before any element is made.
    """
    if not generators:
        raise PreconditionError("closure needs at least one generator")
    degree = len(generators[0])
    for g in generators:
        if len(g) != degree:
            raise DegreeMismatchError(f"degree {len(g)} vs {degree}")
        if not perm.is_perm(g):
            raise PreconditionError(f"not a permutation: {g}")
    check_size(cap, degree)
    order = [perm.identity(degree)]
    seen = set(order)
    for p in order:  # breadth first, as in ``_reach``
        for g in generators:
            q = perm.compose(p, g)
            if q not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(f"closure exceeded cap {cap}")
                seen.add(q)
                order.append(q)
    return PermGroup(degree, seen, generators=tuple(generators), label=label)


def check_size(order: int, degree: int):
    """Raise BoundExceededError when ``order`` permutations of ``degree``
    points would hold more than ``SIZE_LIMIT`` image entries."""
    if order * degree > SIZE_LIMIT:
        raise BoundExceededError(
            f"{order} permutations of degree {degree} exceed the size bound "
            f"{SIZE_LIMIT} (elements x degree)"
        )


def check_table(order: int):
    """Raise BoundExceededError when a group of ``order`` elements is past
    ``TABLE_LIMIT`` and so can have no multiplication table."""
    if order > TABLE_LIMIT:
        raise BoundExceededError(f"no table above {TABLE_LIMIT} elements")


def check_lattice(order: int):
    """Raise BoundExceededError when a group of ``order`` elements is past
    ``SUBGROUP_BOUND`` and so has no subgroup lattice walk."""
    if order > SUBGROUP_BOUND:
        raise BoundExceededError(
            f"subgroup enumeration bound {SUBGROUP_BOUND} exceeded by order {order}"
        )


def is_regular(H: PermGroup) -> bool:
    """True iff H acts regularly: transitive with order equal to degree."""
    if len(H) != H.degree:
        return False
    return len({p[0] for p in H.elements}) == H.degree


def _generating_set(table, e):
    """Elements whose left-to-right products reach every element of a loop.

    Greedy: an element not reached yet joins the set, and ``_reach`` then
    closes the reached elements under right multiplication by the set.
    They hold e, so that is the closure of {e}, which a walk restarted
    from e would reach too.  ``table`` must hold entries in range(n) and
    have two-sided identity ``e``; it need not be associative, since
    ``brace`` runs this before Light's test.  For a group this takes at
    most log2(n) elements.
    """
    gens, reached, step = [], (e,), table.__getitem__
    for x in range(len(table)):
        if x not in reached:
            gens.append(x)
            reached = _reach(step, reached, gens)[1]
    return gens


def _reach(step, start, gens):
    """(order, parent) of the breadth-first walk from ``start`` by the
    generators at ``gens``: ``order`` lists ``start``, then each point as
    first reached, at y = step(x)[gens[pos]] with parent[y] = (x, pos),
    None on ``start``.

    The one orbit walk (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, ch. 4).  On a group table ``step`` is
    ``rows.__getitem__``, and from a subset of <gens> the walk reaches
    <gens>; ``factory._aut_chain`` and ``realize`` walk orbits of N's
    indices, of Hol(N) codes and of subgroups, where step(x) lists x's
    images by each generator and ``gens`` is their range.  Other walks
    stay apart: ``closure`` stops at its cap, before it stores more
    permutations; ``_subgroup_sets`` queues subgroups, each closed here;
    and the pair closures of ``realize._pair_search`` and of the direct
    count in ``counting`` stop at the first element outside the pool.
    """
    order = list(start)
    parent = dict.fromkeys(order)
    moves = tuple(enumerate(gens))
    for x in order:  # a FIFO queue: the loop also visits what it appends
        row = step(x)
        for pos, g in moves:
            y = row[g]
            if y not in parent:
                parent[y] = (x, pos)
                order.append(y)
    return order, parent


def _subgroup_sets(G):
    """All subgroup index sets, by cyclic extension.

    Grows subgroups by adjoining one element of prime-power order at a
    time; every subgroup is reached through a chain of proper extensions.
    Above ``SUBGROUP_BOUND`` elements it raises BoundExceededError.
    """
    check_lattice(len(G))
    e = G.identity_index
    atoms = [i for i, k in enumerate(G.orders()) if i != e and _is_prime_power(k)]
    step = G.rows().__getitem__
    trivial = frozenset({e})
    found = {trivial: ()}
    work = deque([trivial])
    while work:
        S = work.popleft()
        gens = found[S]
        for a in atoms:
            if a in S:
                continue
            T = frozenset(_reach(step, S, gens + (a,))[0])
            if T not in found:
                found[T] = gens + (a,)
                work.append(T)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


class Factorization(Record):
    """Prime factorization as (prime, exponent) pairs sorted by prime."""

    pairs: tuple


_TRIAL_END = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the 13 bases above is deterministic below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017), itself a strong pseudoprime
# to all of them.
MR_LIMIT = 3_317_044_064_679_887_385_961_981
RHO_BUDGET = 1 << 18  # Pollard-Brent steps per cofactor split


def factorize(n: int) -> Factorization:
    """Trial division below 1000, then Miller-Rabin and Pollard-Brent rho
    on the cofactor left.

    Never guesses: a cofactor that Miller-Rabin cannot certify (at or above
    ``MR_LIMIT``) or that rho cannot split within ``RHO_BUDGET`` steps
    raises BoundExceededError.
    """
    if n < 1:
        raise PreconditionError(f"cannot factor {n}")
    counts = {}
    for p in range(2, _TRIAL_END):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
    # every prime factor of what is left is at least _TRIAL_END
    work = [n] if n > 1 else []
    while work:
        c = work.pop()
        if c < _TRIAL_END**2 or _probable_prime(c):
            if c >= MR_LIMIT:
                raise BoundExceededError(f"cannot certify {c} prime below {MR_LIMIT}")
            counts[c] = counts.get(c, 0) + 1
        else:
            d = _rho_divisor(c)
            work += [d, c // d]
    return Factorization(tuple(sorted(counts.items())))


def _probable_prime(n: int) -> bool:
    """Strong-probable-prime test of an odd n > 41 to every base in
    ``_MR_BASES``; False proves n composite."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n: Pollard's rho on x -> x^2 + c
    with Brent's cycle finding, c = 1, 2, ... until a split; raises
    BoundExceededError after ``RHO_BUDGET`` steps."""
    steps = 0
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            steps += r
            if steps > RHO_BUDGET:
                raise BoundExceededError(f"no factor of {n} in {RHO_BUDGET} rho steps")
            r *= 2
        if g != n:
            return g


def _is_prime_power(n: int) -> bool:
    return len(factorize(n).pairs) == 1


def all_subgroups(G: PermGroup) -> list[PermGroup]:
    """Every subgroup of G exactly once, ascending by order then element list.

    The one lattice walk; memoized on G, and above ``SUBGROUP_BOUND``
    elements it raises BoundExceededError.
    """
    if G._subgroups is None:
        G._subgroups = [G.subgroup_from_indices(s) for s in _subgroup_sets(G)]
    return list(G._subgroups)


def subgroups_of_order(G: PermGroup, order: int) -> list[PermGroup]:
    """The subgroups of one order, in ``all_subgroups`` order."""
    return [S for S in all_subgroups(G) if len(S) == order]


class Homomorphism(Record):
    """A group homomorphism recorded as an index map domain -> codomain."""

    domain: PermGroup
    codomain: PermGroup
    images: tuple

    def __init__(self, domain, codomain, images):
        # written out, as on every hot constructor: one dict update
        self.__dict__.update(domain=domain, codomain=codomain, images=images)

    def image_perm(self, i: int):
        """The codomain permutation assigned to domain element i."""
        return self.codomain.elements[self.images[i]]

    def verify(self) -> bool:
        rows_d, rows_c = self.domain.rows(), self.codomain.rows()
        n = len(self.domain)
        im = self.images
        return all(
            im[rows_d[a][b]] == rows_c[im[a]][im[b]]
            for a in range(n)
            for b in range(n)
        )


def bfs_order(G: PermGroup, gen_idxs):
    """Breadth-first element order with one fixed factorization per element.

    Returns (order, parent) where order lists element indices starting at
    the identity and parent[i] = (previous index, generator position) with
    elements[i] = elements[prev] * gens[pos].
    """
    order, parent = _reach(G.rows().__getitem__, (G.identity_index,), gen_idxs)
    if len(order) != len(G):
        raise PreconditionError("generators do not generate the group")
    return order, parent


def generator_frame(G: PermGroup):
    """A smallest generating set of G with its twist-free extension plan,
    built once per group object by ``_extension_plan``.

    The isomorphism search, Aut(N)'s chain, ``homomorphisms`` and the
    crossed-homomorphism scan run over it.  Returns (gen_idxs, steps,
    checks) as ``_extension_plan`` does; minimal_generating_set raises
    BoundExceededError when G needs more than three generators.
    """
    if G._frame is None:
        gens = tuple(map(G.index_of, G.minimal_generating_set()))
        G._frame = _extension_plan(G, gens)
    return G._frame


def greedy_frame(G: PermGroup):
    """The index-greedy generating set of G with its extension plan, built
    once per group object by ``_extension_plan``.

    Each generator is the least element index outside the span of the
    ones before it (``_generating_set``), so every index below generator
    k + 1 lies in the span of generators 0..k.  Image tuples of maps
    determined by their generator images then compare index by index as
    their generator images compare level by level; ``_hom_orbit_reps``
    walks Hom(G, Aut N) over this frame.  A one-element group's frame is
    its identity, as ``minimal_generating_set`` gives.
    """
    if G._greedy_frame is None:
        e = G.identity_index
        gens = tuple(_generating_set(G.rows(), e)) or (e,)
        G._greedy_frame = _extension_plan(G, gens)
    return G._greedy_frame


def _extension_plan(G: PermGroup, gen_idxs):
    """(gen_idxs, steps, checks) for ``extend_images``, each plan a tuple
    of columns.

    gen_idxs index a generating set of G.  steps = (i, prev, pos) follow
    ``bfs_order`` past the identity, with elements[i] = elements[prev] *
    gens[pos]; checks = (x, xs, pos) cover every element x and generator
    position, with xs the index of x * gens[pos].
    """
    order, parent = bfs_order(G, gen_idxs)
    links = [parent[i] for i in order[1:]]
    steps = (tuple(order[1:]), tuple(x for x, _ in links), tuple(pos for _, pos in links))
    rows, span = G.rows(), range(len(gen_idxs))
    checks = (
        tuple(x for x in range(len(G)) for _ in span),
        tuple(rows[x][s] for x in range(len(G)) for s in gen_idxs),
        tuple(pos for _ in range(len(G)) for pos in span),
    )
    return gen_idxs, steps, checks


def extend_images(
    G: PermGroup, H: PermGroup, frame, cands, twist=None, injective=False
):
    """Every image tuple m: G -> H with m(x*s) = m(x) * twist[x](m(s)).

    ``frame`` comes from generator_frame and ``cands[pos]`` lists the
    allowed images of generator ``pos``.  Choices are scanned in
    ``itertools.product`` order; each is extended along the fixed
    breadth-first factorization and yielded when the law holds on every
    (element, generator) product, which forces it on all pairs.
    ``twist[x]`` is a permutation of H's indices (an automorphism for
    crossed homomorphisms); ``None`` means the identity, so the law is the
    plain homomorphism law.  With ``injective``, a choice is dropped as
    soon as an image repeats.  The frame's plan is twist-free, so a call
    only zips each step and check with its twist, in C.
    """
    _, (step_i, step_prev, step_pos), (check_x, check_xs, check_pos) = frame
    n = len(G)
    if twist is None:
        twist = (tuple(range(len(H))),) * n
    twist_of = twist.__getitem__
    steps = list(zip(step_i, step_prev, map(twist_of, step_prev), step_pos))
    checks = list(zip(check_x, check_xs, map(twist_of, check_x), check_pos))
    rows_h = H.rows()
    e_g, e_h = G.identity_index, H.identity_index
    for choice in itertools.product(*cands):
        m = [None] * n
        m[e_g] = e_h
        used = None
        if injective:
            used = bytearray(len(H))
            used[e_h] = 1
        for i, prev, tw, pos in steps:
            v = rows_h[m[prev]][tw[choice[pos]]]
            if used is not None:
                if used[v]:
                    break
                used[v] = 1
            m[i] = v
        else:
            for x, xs, tw, pos in checks:
                if m[xs] != rows_h[m[x]][tw[choice[pos]]]:
                    break
            else:
                yield tuple(m)


def hom_candidates(G: PermGroup, H: PermGroup, gen_idxs):
    """For each generator of G, the elements of H whose order divides its
    order: the images a homomorphism G -> H may give it."""
    g_orders, h_orders = G.orders(), H.orders()
    return [
        [j for j, k in enumerate(h_orders) if g_orders[gi] % k == 0]
        for gi in gen_idxs
    ]


def iso_candidates(G: PermGroup, H: PermGroup, gen_idxs):
    """For each generator of G, the elements of H of its order: the images
    an isomorphism G -> H may give it."""
    g_orders, h_orders = G.orders(), H.orders()
    return [
        [j for j, k in enumerate(h_orders) if k == g_orders[gi]]
        for gi in gen_idxs
    ]


def homomorphisms(G: PermGroup, H: PermGroup):
    """All homomorphisms G -> H, in canonical order of their image tables.

    Generator images are filtered by ``hom_candidates`` and searched with
    extend_images.
    """
    frame = generator_frame(G)
    H.table()
    cands = hom_candidates(G, H, frame[0])
    return [Homomorphism(G, H, m) for m in sorted(extend_images(G, H, frame, cands))]


def isomorphisms(G: PermGroup, H: PermGroup):
    """Every isomorphism G -> H as an image tuple, in ``itertools.product``
    order of the generator images: the search behind ``are_isomorphic``.

    Each generator of a smallest generating set of G may go to any element
    of H of its order (``iso_candidates``); extend_images keeps the
    injective homomorphisms, which between groups of one order are the
    isomorphisms.  Aut(N) does not list ``isomorphisms(N, N)``:
    ``factory._aut_chain`` runs the same scan one image of the first
    generator at a time, and the tests hold the two equal.
    """
    if len(G) != len(H):
        return
    frame = generator_frame(G)
    cands = iso_candidates(G, H, frame[0])
    yield from extend_images(G, H, frame, cands, injective=True)


def are_isomorphic(G: PermGroup, H: PermGroup):
    """An explicit isomorphism G -> H if one exists, else None: the first
    of ``isomorphisms``, after the order-profile check."""
    if len(G) != len(H) or G.order_profile() != H.order_profile():
        return None
    m = next(isomorphisms(G, H), None)
    return None if m is None else Homomorphism(G, H, m)


def derived_subgroup(G: PermGroup) -> PermGroup:
    rows, inv, n = G.rows(), G.inverses(), range(len(G))
    comms = {rows[rows[rows[inv[a]][inv[b]]][a]][b] for a in n for b in n}
    order, _ = _reach(rows.__getitem__, (G.identity_index,), sorted(comms))
    return G.subgroup_from_indices(order)


def is_solvable(G: PermGroup) -> bool:
    """True iff the derived series reaches the trivial group."""
    current = G
    while len(current) > 1:
        nxt = derived_subgroup(current)
        if len(nxt) == len(current):
            return False
        current = nxt
    return True


def is_cyclic(G: PermGroup) -> bool:
    return len(G) in G.orders()


def is_c_group(G: PermGroup) -> bool:
    """True iff every Sylow subgroup is cyclic.

    The Sylow p-subgroups are conjugate, so they are cyclic iff some
    element has order p^a, the full power of p dividing |G|.
    """
    orders = set(G.orders())
    return all(p**a in orders for p, a in factorize(len(G)).pairs)


def is_almost_sylow_cyclic(G: PermGroup) -> bool:
    """Odd Sylows cyclic; Sylow-2 trivial or with a cyclic index-2 subgroup.

    Read from element orders as in ``is_c_group``: a Sylow 2-subgroup of
    order 2^a has a cyclic subgroup of index 2 iff some element has order
    2^(a-1).
    """
    orders = set(G.orders())
    return all(
        (p ** (a - 1) if p == 2 else p**a) in orders
        for p, a in factorize(len(G)).pairs
    )


def is_normal(G: PermGroup, sub: PermGroup) -> bool:
    """True iff the subgroup is stable under conjugation by G's generators."""
    idxs, rows = frozenset(map(G.index_of, sub.elements)), G.rows()
    gens = map(G.index_of, G.minimal_generating_set())
    return all(rows[rows[g][x]][G.inv(g)] in idxs for g in gens for x in idxs)


def left_translation(G: PermGroup, a: int):
    """The permutation of element indices given by left multiplication by a."""
    return tuple(map(G.rows()[a].__getitem__, range(len(G))))


def regular_representation(G: PermGroup) -> PermGroup:
    """G acting on its own element indices by left translation."""
    perms = [left_translation(G, a) for a in range(len(G))]
    return PermGroup(len(G), perms)


def unique_odd_part(G: PermGroup) -> PermGroup:
    """The unique index-2 subgroup of a group of order 2n, n odd.

    Computed as the kernel of the sign of the left regular action, a
    homomorphism, so it is read off the signs of the generators along one
    breadth-first walk; the result is asserted to have order n and to be
    exactly the elements of odd order.  An order-n subgroup has only
    elements of odd order, so it lies in that set and, being as large, is
    the kernel: the check proves uniqueness at every order in one pass
    over the element orders.
    """
    size = len(G)
    n, r = divmod(size, 2)
    if r != 0 or n % 2 == 0:
        raise PreconditionError(f"order {size} is not twice an odd number")
    gens = [G.index_of(g) for g in G.generators]
    gen_signs = [perm.sign(left_translation(G, g)) for g in gens]
    walk, parent = bfs_order(G, gens)
    signs = {walk[0]: 1}
    for y in walk[1:]:
        x, pos = parent[y]
        signs[y] = signs[x] * gen_signs[pos]
    kernel = sorted(a for a, s in signs.items() if s == 1)
    if len(kernel) != n:
        raise PreconditionError(
            f"sign kernel has order {len(kernel)}, expected {n}"
        )  # pragma: no cover
    if [a for a, k in enumerate(G.orders()) if k % 2] != kernel:
        raise PreconditionError("order-n subgroup is not unique")  # pragma: no cover
    return G.subgroup_from_indices(kernel)


def characteristic_subgroups(N: PermGroup, autN: PermGroup):
    """Subgroups of N mapped to themselves by every automorphism.

    ``autN`` must act on N's element indices (degree |N|).
    """
    if autN.degree != len(N):
        raise PreconditionError("automorphism group must act on element indices")
    out = []
    for S in all_subgroups(N):
        idxs = frozenset(N.index_of(p) for p in S.elements)
        if all(
            frozenset(alpha[i] for i in idxs) == idxs for alpha in autN.elements
        ):
            out.append(S)
    return out
