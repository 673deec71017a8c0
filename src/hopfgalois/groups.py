"""Materialized finite permutation groups and generic group predicates.

Every group in this library is a PermGroup: a full, canonically ordered
list of image tuples.  Orders stay small (a few thousand at most), so
elements are enumerated explicitly instead of held as stabilizer chains;
only two ideas are borrowed from those: every product is looked up by
its images of a base, a few points that tell every element apart,
instead of by a composed tuple of ``degree`` points; and Aut(N), where
no closed form gives it, is first found as a two-level chain
(``factory._aut_chain``), so its order is known before its elements are
listed.
Every product is read from ``PermGroup.rows()``, the power walk behind
the order and inverse tables included: the multiplication table up to
``TABLE_LIMIT`` elements, a regular group's own element list, and above
it rows that look each entry up from the same base and key.  Group order
alone picks a table's row form: ``bytes`` up to ``BYTE_LIMIT`` (256)
elements, so that the row walk composes each row by one
``bytes.translate``, and tuples above, where an index no longer fits a
byte and CPython 3.11 specializes a tuple's subscript, which it does not
for bytes.
Everything derived from a group, these rows and tables included, is
kept on it by the one memo ``derived``; no group or holomorph keeps
lazy state of its own.  Every orbit is walked
by the one breadth-first walk ``_reach``: spans in a group table, the greedy
generating set, the orbit of Aut(N)'s chain and realize's Hol(N)
classes and subgroup orbits; only an orbit of the listed Aut(N) on N's
indices is read off its elements.  Only four kinds of walk are written
apart: ``closure``, which stops at its cap; the join walk
``_subgroup_sets``, whose queue of subgroups gives the lattice and the
characteristic subgroups alike, each join closed by ``_reach``; the
pair closures of realize's search and of counting's direct count,
which stop at the first element outside the pool; and the row walk of
``PermGroup.table``, which composes each row as it reaches the element,
where ``_reach`` steps along rows that exist.  Whether a given map is a
homomorphism, an automorphism included, is tested by one generator
check, ``respects_law``.
"""

from __future__ import annotations

import functools
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
TABLE_LIMIT = 1200     # larger groups have no table; their rows look entries up
BYTE_LIMIT = 256       # tables up to this order keep bytes rows, for bytes.translate
SIZE_LIMIT = 4_000_000  # |G| x degree cap on one group's list of image tuples


def derived(fn):
    """``fn(x, *args)``, computed once per x and args and kept in x's own
    ``_memo`` dict, keyed by (fn, args), so what is derived from a group
    lives and dies with that group.  The one memo on objects, a
    PermGroup's tables and Hol(N)'s listing included; the only module
    caches are keyed by value.  Callers must not change what it returns,
    and an exception is not kept."""

    @functools.wraps(fn)
    def memoized(x, *args):
        # set as an attribute: on CPython 3.11, reading ``x.__dict__``
        # makes every later attribute read of x over twice as slow
        try:
            memo = x._memo
        except AttributeError:
            memo = x._memo = {}
        key = fn, args
        value = memo.get(key, memo)  # one hash of the key on a hit
        if value is memo:
            value = memo[key] = fn(x, *args)
        return value

    return memoized


class PermGroup:
    """A finite permutation group with a canonically ordered element list.

    Elements are sorted lexicographically by image tuple, so two
    generating sets of the same subgroup produce identical lists and the
    identity always sits at index 0.  The element list is fixed at
    construction, and a repeated element raises PreconditionError.  Every
    product is read from ``rows``: the multiplication table, built on the
    first product, or above ``TABLE_LIMIT`` a list of rows that look each
    entry up by base images, as the table's generator rows do.  ``base``,
    if given, is the base both use, points whose images tell the elements
    apart; without it the greedy ``_base`` is taken.  ``pair`` is the
    (k, l, t) of a group that ``factory._semidirect_pair`` lists as
    Z_k x|_t Z_l, element x^a·y^b at index a·l + b, and None on every
    other group, a copy of one included; ``factory.automorphism_group``
    reads Aut(N) off it in closed form when gcd(k, l) = 1.  Whatever is
    derived from the group is kept by ``derived`` in its ``_memo``, computed on
    first use: the table or rows, the identity's index (so a read builds
    no identity tuple), the order and inverse tables of one
    ``_power_walk`` along the rows, the generating set, the frames, the
    subgroup list, the characteristic subgroups, and elsewhere Aut(N)
    and its chain, Hol(N) and its listing, the crossed-hom scan's
    candidate images and, on Aut(N), the Hom walk's candidate images and
    the orbit splits of the cocycle walks.  So it is freed with the
    group; the constructor sets nothing else.
    """

    def __init__(self, degree, elements, generators=None, label=None, base=None, pair=None):
        self.degree = degree
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators) if generators else self._default_generators()
        self.label = label
        self._index = {p: i for i, p in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PreconditionError("group elements are not distinct")
        self._base_points = base
        self.pair = pair

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
    @derived
    def identity_index(self) -> int:
        """The identity's index, 0 in a group, looked up on first read;
        an element list without the identity raises PreconditionError."""
        e = self._index.get(perm.identity(self.degree))
        if e is None:
            raise PreconditionError("group elements are not closed: no identity")
        return e

    # Index arithmetic.

    @derived
    def rows(self):
        """Rows whose entry [i][j] is the index of compose(elements[i],
        elements[j]): the one way a product is taken.  They are the table
        up to ``TABLE_LIMIT`` elements, a regular group's rows its own
        elements and other rows ``bytes`` up to ``BYTE_LIMIT`` elements,
        tuples above (see ``table``); above ``TABLE_LIMIT`` one list of
        ``_Row``s looks each entry up by base images as the table's
        generator rows do.  Every form is read by index or through an
        ``itemgetter``, alike on each."""
        if len(self) <= TABLE_LIMIT:
            return self.table()
        base, lookup = self._base_lookup()
        cols = [operator.itemgetter(*(q[b] for b in base)) for q in self.elements]
        return [_Row(p, cols, lookup) for p in self.elements]

    @derived
    def table(self):
        """The whole of ``rows``, the only place a table is built.

        Above ``TABLE_LIMIT`` elements it raises BoundExceededError.  Only
        ``rows`` calls it; a caller that must refuse before doing work
        calls ``check_table``.  A regular group, of order its degree with
        elements[j][0] == j for every j (sorted elements with distinct
        images of 0 are so exactly when the group is transitive), is its
        own table: p_i * p_j is the element sending 0 to
        p_i(p_j(0)) = p_i(j), so row i is p_i, as a base lookup on the
        one-point base {0} would find it.  Every other group's rows are
        built by a walk over a greedy generating set, as
        ``_generating_set`` picks it: the identity's row is range(n);
        scanning indices in ascending order, each one not reached yet
        becomes a generator g, whose row is looked up by base
        images (``_base_lookup``), entry j by p_g's images of p_j's base
        images; then every reached x is stepped by every generator, and a
        new y = rows[x][g] gets row(x) composed with row(g), since
        (x * g) * p_j = x * (g * p_j), one C call per row.  Up to
        ``BYTE_LIMIT`` elements the rows are ``bytes`` and that call is
        row(g).translate with row(x), padded to 256 bytes, as its table:
        about 1 ns an entry, where an ``itemgetter`` takes about 10.
        Above it an index does not fit a byte, and the rows are tuples
        composed by ``perm.composer``, not a wider array: CPython 3.11
        specializes a tuple's subscript and not a bytes or array one
        (about 22 against 30 ns a read in a loop), which is also why
        ``extend_images``' plain scan reads rows with no identity twist.
        A generator row that is not a permutation of the indices, or a
        missing identity, means the elements are not closed under
        composition and raises PreconditionError; every other row is
        composed from checked rows.
        """
        check_table(len(self))
        els, n = self.elements, len(self)
        self.identity_index  # raises without the identity, which else sorts first
        if n == self.degree and all(p[0] == j for j, p in enumerate(els)):
            return list(els)
        base, lookup = self._base_lookup()
        # row(x) read at row(g)'s entries: a translate by row(x) padded to
        # 256 bytes, or an itemgetter, for which the pad () changes nothing
        small = n <= BYTE_LIMIT
        pad = bytes(BYTE_LIMIT - n) if small else ()
        rows = [bytes(range(n)) if small else perm.identity(n)] + [None] * (n - 1)
        if n > 1:
            keys_of = row_keys = operator.itemgetter(*(q[b] for q in els for b in base))
            if len(base) > 1:

                def keys_of(p):
                    return zip(*[iter(row_keys(p))] * len(base))

            every, order, moves = set(rows[0]), [0], []
            for x in range(1, n):
                if rows[x] is not None:
                    continue
                try:
                    looked_up = tuple(map(lookup, keys_of(els[x])))
                except KeyError:
                    looked_up = ()
                if set(looked_up) != every:
                    raise PreconditionError("group elements are not closed under composition")
                times_g = bytes(looked_up).translate if small else perm.composer(looked_up)
                moves.append((x, times_g))
                for z in order:  # a FIFO queue: the loop also visits what it appends
                    row = rows[z]
                    for g, times_g in moves:
                        y = row[g]
                        if rows[y] is None:
                            rows[y] = times_g(row + pad)
                            order.append(y)
        return rows

    def _base_lookup(self):
        """(base, lookup) for ``table`` and ``rows``: an element is fixed by
        its images of a base, and ``lookup`` maps those images to its
        index.  The base is the one given to the constructor, as
        ``factory.automorphism_group`` gives N's frame generators, else
        the greedy ``_base``; either way a base that does not tell the
        elements apart raises PreconditionError.  With a one-point base
        the images are one point and ``lookup`` indexes a list by it,
        otherwise a dict of tuples.  A one-element group has an empty
        greedy base."""
        els = self.elements
        base = _base(els, self.degree) if self._base_points is None else self._base_points
        key = {tuple(p[b] for b in base): i for i, p in enumerate(els)}
        if len(key) != len(els):
            raise PreconditionError(f"base {base} does not tell {len(els)} elements apart")
        if len(base) != 1:
            return base, key.__getitem__
        point_key = [None] * self.degree
        for (point,), i in key.items():
            point_key[point] = i
        return base, point_key.__getitem__

    def inv(self, i: int) -> int:
        return self.inverses()[i]

    def order_of(self, i: int) -> int:
        return self.orders()[i]

    def inverses(self):
        """Index of each element's inverse, by index, from ``_power_walk``."""
        return self._power_walk()[1]

    def orders(self):
        """Order of each element, by index, from ``_power_walk``."""
        return self._power_walk()[0]

    @derived
    def _power_walk(self):
        """The order and inverse tables, (orders, inverses), in one walk.

        From each element x not reached yet it steps along x's row of
        ``rows`` through x, x^2, ... to the identity, which gives
        k = ord x; then x^i has order k / gcd(i, k) and inverse x^(k - i).
        Up to ``TABLE_LIMIT`` the row is the table's, built on first read;
        above it a ``_Row``, one base-image lookup per step.  A row that
        has not reached the identity after |G| steps is not a group
        element's, and raises PreconditionError naming the element.
        """
        n, e = len(self), self.identity_index
        orders, inverses = [0] * n, [0] * n
        orders[e], inverses[e] = 1, e
        rows = self.rows()
        for x in range(n):
            if orders[x]:
                continue
            row, y, powers = rows[x], x, [x]
            for _ in range(n):
                y = row[y]
                powers.append(y)
                if y == e:
                    break
            else:
                raise PreconditionError(
                    f"the powers of {self.elements[x]} do not reach the identity in {n} steps"
                )
            k = len(powers)
            for j, y in enumerate(powers, 1):
                orders[y] = k // gcd(j, k)
                inverses[y] = powers[k - j - 1]
        return tuple(orders), tuple(inverses)

    def order_profile(self):
        """Sorted multiset of element orders; cheap isomorphism invariant."""
        return tuple(sorted(self.orders()))

    def subgroup_from_indices(self, idxs) -> "PermGroup":
        return PermGroup(self.degree, [self.elements[i] for i in sorted(idxs)])

    @derived
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
        n, orders = len(self), self.orders()
        by_order = sorted(range(n), key=lambda i: (-orders[i], i))
        if orders[by_order[0]] == n:  # cyclic, or trivial
            return (self.elements[by_order[0]],)
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
                return tuple(self.elements[i] for i in combo)
        raise BoundExceededError(f"no generating set of size <= 3 for order {n}")


class _Row:
    """Row i of a group above ``TABLE_LIMIT``, which has no table: entry j
    is looked up by p_i's images of p_j's base images, which column j's
    ``itemgetter`` reads, as for a generator row of ``table``.  ``tuple(row)`` lists the
    entries in order: iteration stops where ``cols[j]`` raises IndexError."""

    def __init__(self, p, cols, lookup):
        self.p, self.cols, self.lookup = p, cols, lookup

    def __getitem__(self, j: int) -> int:
        return self.lookup(self.cols[j](self.p))


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

    A breadth-first walk that composes through one ``perm.composer`` per
    generator.  Raises CapExceededError if the generated group would
    exceed ``cap``; that signals a mis-sized search rather than a bug.  A
    ``cap`` whose elements would hold more than ``SIZE_LIMIT`` image
    entries raises BoundExceededError before any element is made.  The
    catalog's classes are not built here but listed in normal form by
    ``factory._semidirect_pair``.
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
    steps = [perm.composer(g) for g in generators]
    for p in order:  # breadth first, as in ``_reach``
        for step in steps:
            q = step(p)
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
    images by each generator and ``gens`` is their range, and Aut(N)'s
    closed form walks units mod k by one residue at a time.  Other walks
    stay apart: ``closure`` stops at its cap, before it stores more
    permutations; ``_subgroup_sets`` queues subgroups, each join closed here;
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


def _subgroup_sets(G, atoms):
    """The index sets of every join of ``atoms``, tuples of G's indices:
    the one join walk, ascending by order then indices.

    From the trivial subgroup, each subgroup found is joined with each
    atom in turn; every element of the atom not reached yet becomes one
    more generator of ``_reach``, so a generator tuple holds no element
    of the span of those before it.  Every join is reached through a
    chain of proper joins with one atom.  ``all_subgroups`` passes the
    elements of prime-power order, one to an atom, and
    ``characteristic_subgroups`` the Aut(N)-orbits.  Either way each
    atom is an orbit of a group of automorphisms of G, which maps every
    join onto itself, so a join holds each atom whole or not at all: an
    atom with one element in S lies in S.
    """
    step = G.rows().__getitem__
    trivial = frozenset({G.identity_index})
    found = {trivial: ()}
    work = deque([trivial])
    while work:
        S = work.popleft()
        for atom in atoms:
            if atom[0] in S:
                continue
            T, gens = S, found[S]
            for a in atom:
                if a not in T:
                    gens += (a,)
                    T = frozenset(_reach(step, T, gens)[0])
            if T not in found:
                found[T] = gens
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


@derived
def all_subgroups(G: PermGroup) -> tuple[PermGroup, ...]:
    """Every subgroup of G exactly once, ascending by order then element list.

    The lattice walk: the joins of the elements of prime-power order,
    since every subgroup is generated by those it holds.  Memoized on G,
    and above ``SUBGROUP_BOUND`` elements it raises BoundExceededError.
    """
    check_lattice(len(G))
    e = G.identity_index
    atoms = [(i,) for i, k in enumerate(G.orders()) if i != e and _is_prime_power(k)]
    return tuple(G.subgroup_from_indices(s) for s in _subgroup_sets(G, atoms))


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
        """Whether the images keep the product, m(ab) = m(a) m(b): by
        ``respects_law`` on the domain's frame generators, which decides
        it for every pair; a domain past three generators has no frame,
        and raises BoundExceededError."""
        return respects_law(self.images, self.codomain.rows(), generator_shifts(self.domain))


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


@derived
def generator_frame(G: PermGroup):
    """A smallest generating set of G with its twist-free extension plan,
    built once per group object by ``_extension_plan``.

    The isomorphism search, Aut(N)'s chain, ``homomorphisms`` and the
    crossed-homomorphism scan run over it.  Returns (gen_idxs, steps,
    checks) as ``_extension_plan`` does; minimal_generating_set raises
    BoundExceededError when G needs more than three generators.
    """
    return _extension_plan(G, tuple(map(G.index_of, G.minimal_generating_set())))


def respects_law(p, lines, shifts):
    """Whether p, a tuple of indices by a group D's, keeps the product on
    a generating set S of D: the one test that a map is a homomorphism,
    and so, for a permutation of one group's indices, an automorphism.

    ``lines`` are the target group's table rows, lines[y][x] = y x, or
    its columns, lines[y][x] = x y, and ``shifts`` pairs each s in S with
    ``perm.composer`` of D's line of s on the same side, which sends p
    to x -> p(s x) (or p(x s)).  The test is p(s x) = p(s) p(x) for every
    x, read as two whole tuples per s.  The s that pass it are closed
    under the product, since p(e) = e follows from any one of them, so
    passing on S proves it on the whole of D.  ``generator_shifts`` gives
    the shifts of a group's rows on its frame generators; ``brace`` passes
    a table's columns.
    """
    at = perm.composer(p)
    for s, shift in shifts:
        if shift(p) != at(lines[p[s]]):
            return False
    return True


@derived
def generator_shifts(G: PermGroup):
    """The ``shifts`` of ``respects_law`` for G's rows on the generators
    of ``generator_frame(G)``, built once per group object.  They are
    read off ``minimal_generating_set``, so no extension plan is built."""
    rows = G.rows()
    return tuple((s, perm.composer(rows[s])) for s in map(G.index_of, G.minimal_generating_set()))


@derived
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
    e = G.identity_index
    return _extension_plan(G, tuple(_generating_set(G.rows(), e)) or (e,))


def _extension_plan(G: PermGroup, gen_idxs):
    """(gen_idxs, steps, checks) for ``extend_images``, each plan a tuple
    of triples.

    gen_idxs index a generating set of G.  steps = (i, prev, pos) follow
    ``bfs_order`` past the identity, with elements[i] = elements[prev] *
    gens[pos]; checks = (x, xs, pos), with xs the index of x * gens[pos],
    cover every element x and generator position but the n - 1 edges of
    the breadth-first tree, where xs = i and (x, pos) = (prev, pos) for
    a step: the step has just assigned the value such a check would
    test.  So n·k - (n - 1) checks remain for k generators.
    """
    order, parent = bfs_order(G, gen_idxs)
    steps = tuple((i, *parent[i]) for i in order[1:])
    rows, span = G.rows(), tuple(enumerate(gen_idxs))
    checks = tuple(
        (x, xs, pos)
        for x in range(len(G))
        for pos, s in span
        if parent[xs := rows[x][s]] != (x, pos)
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
    (element, generator) product, which forces it on all pairs; the
    products along the factorization hold by construction, so the plan
    checks the others only.  ``twist[x]`` is a permutation of H's indices
    (an automorphism for crossed homomorphisms); ``None`` means the
    identity, so the law is the plain homomorphism law.  With
    ``injective``, a choice is dropped as soon as an image repeats; a
    twist without it raises PreconditionError, since only bijective
    crossed homomorphisms are scanned.  The frame's plan is twist-free
    and a call reads ``twist[prev]`` and ``twist[x]`` in place, so it
    builds nothing per step or check.  The plain scan, the Hom walk's
    fill over Aut(N), reads no twist at all: two reads fewer per step
    and check make up for the slower subscript of Aut(N)'s bytes rows
    (see ``PermGroup.table``).

    One image list serves the whole call: each step writes m[i] before
    any later step or check reads it, so what a dropped choice left there
    is overwritten before it matters, and each solution is yielded as a
    tuple copy.  The injective scan likewise keeps one stamp per element
    of H and gives each choice a fresh mark, so an image repeats exactly
    when its stamp already carries the current mark.
    """
    _, steps, checks = frame
    n, size = len(G), len(H)
    rows_h, e_h = H.rows(), H.identity_index
    m = [e_h] * n
    if not injective:
        if twist is not None:
            raise PreconditionError("a twisted scan must be injective")
        for choice in itertools.product(*cands):
            for i, prev, pos in steps:
                m[i] = rows_h[m[prev]][choice[pos]]
            for x, xs, pos in checks:
                if m[xs] != rows_h[m[x]][choice[pos]]:
                    break
            else:
                yield tuple(m)
        return
    if twist is None:
        twist = (tuple(range(size)),) * n
    stamp = [0] * size
    for mark, choice in enumerate(itertools.product(*cands), 1):
        stamp[e_h] = mark
        for i, prev, pos in steps:
            v = rows_h[m[prev]][twist[prev][choice[pos]]]
            if stamp[v] == mark:
                break
            stamp[v] = mark
            m[i] = v
        else:
            for x, xs, pos in checks:
                if m[xs] != rows_h[m[x]][twist[x][choice[pos]]]:
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
    extend_images.  An H past ``TABLE_LIMIT`` is refused first.
    """
    frame = generator_frame(G)
    check_table(len(H))
    cands = hom_candidates(G, H, frame[0])
    return [Homomorphism(G, H, m) for m in sorted(extend_images(G, H, frame, cands))]


def isomorphisms(G: PermGroup, H: PermGroup):
    """Every isomorphism G -> H as an image tuple, in ``itertools.product``
    order of the generator images: the search behind ``are_isomorphic``.

    Each generator of a smallest generating set of G may go to any element
    of H of its order (``iso_candidates``); extend_images keeps the
    injective homomorphisms, which between groups of one order are the
    isomorphisms.  Aut(N) does not list ``isomorphisms(N, N)``: a coprime
    Z_k x| Z_l is read off in closed form, and ``factory._aut_chain`` runs
    the same scan one image of the first generator at a time for the rest;
    the tests hold both equal to it.
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


@derived
def characteristic_subgroups(N: PermGroup, autN: PermGroup) -> tuple[PermGroup, ...]:
    """Subgroups of N mapped to themselves by every automorphism, in
    ``all_subgroups`` order; memoized on N.

    A subgroup is characteristic iff it is a union of Aut(N)-orbits, so
    these are the joins of the orbits (``_subgroup_sets``), and no
    lattice is walked.  The orbit of x is read off the listed
    automorphisms as their images of x.  ``autN`` must act on N's element
    indices (degree |N|).
    """
    if autN.degree != len(N):
        raise PreconditionError("automorphism group must act on element indices")
    seen, orbits = {N.identity_index}, []
    for x in range(len(N)):
        if x not in seen:
            orbit = set(map(operator.itemgetter(x), autN.elements))
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return tuple(N.subgroup_from_indices(s) for s in _subgroup_sets(N, orbits))
