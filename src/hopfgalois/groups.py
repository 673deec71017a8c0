"""Materialized finite permutation groups and generic group predicates.

Every group in this library is a PermGroup: a full, canonically ordered
list of image tuples.  Orders stay small (a few thousand at most), so
explicit enumeration is used throughout instead of stabilizer chains.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from math import lcm

from . import perm
from .errors import (
    BoundExceededError,
    CapExceededError,
    DegreeMismatchError,
    PreconditionError,
)

SUBGROUP_BOUND = 400   # default |G| cap for full subgroup enumeration
TABLE_LIMIT = 1200     # build a full index multiplication table below this


class PermGroup:
    """A finite permutation group with a canonically ordered element list.

    Elements are sorted lexicographically by image tuple, so two
    generating sets of the same subgroup produce identical lists and the
    identity always sits at index 0.  The element list is fixed at
    construction; the multiplication, inverse and order tables, the
    generating set and the subgroup list fill in lazily on first use.  No
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
        self._mul_table = None
        self._inverse_table = None
        self._order_table = None
        self._min_gens = None
        self._is_abelian = None
        self._subgroups = None

    def _default_generators(self):
        return tuple(p for p in self.elements if p != perm.identity(self.degree))

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
        if self._mul_table is not None:
            return self._mul_table[i][j]
        return self._index[perm.compose(self.elements[i], self.elements[j])]

    def table(self):
        """Full index multiplication table; built lazily for small groups.

        Entry [i][j] is the index of compose(elements[i], elements[j]).
        Composing with q is ``itemgetter(*q)``, one C call per entry, so a
        row is one lookup per column.  Below degree 2 the group is trivial,
        and ``itemgetter`` of one index would return a scalar, so that case
        is written out.
        """
        if self._mul_table is None:
            if len(self) > TABLE_LIMIT:
                raise BoundExceededError(f"no table above {TABLE_LIMIT} elements")
            els = self.elements
            idx = self._index
            if self.degree < 2:
                self._mul_table = [(0,)]
            else:
                cols = [operator.itemgetter(*q) for q in els]
                self._mul_table = [tuple(idx[col(p)] for col in cols) for p in els]
        return self._mul_table

    def inv(self, i: int) -> int:
        if self._inverse_table is None:
            self._inverse_table = tuple(
                self._index[perm.inverse(p)] for p in self.elements
            )
        return self._inverse_table[i]

    def order_of(self, i: int) -> int:
        if self._order_table is None:
            self._order_table = tuple(
                lcm(*(len(c) for c in perm.cycles(p))) for p in self.elements
            )
        return self._order_table[i]

    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            gens = self.minimal_generating_set()
            g = [self._index[p] for p in gens]
            self._is_abelian = all(
                self.mul(a, b) == self.mul(b, a) for a in g for b in g
            )
        return self._is_abelian

    def order_profile(self):
        """Sorted multiset of element orders; cheap isomorphism invariant."""
        return tuple(sorted(self.order_of(i) for i in range(len(self))))

    def subgroup_from_indices(self, idxs) -> "PermGroup":
        return PermGroup(self.degree, [self.elements[i] for i in sorted(idxs)])

    def minimal_generating_set(self):
        """A smallest generating set, found by size-1, then 2, then 3 search."""
        if self._min_gens is not None:
            return self._min_gens
        n = len(self)
        if n == 1:
            self._min_gens = (perm.identity(self.degree),)
            return self._min_gens
        by_order = sorted(range(n), key=lambda i: (-self.order_of(i), i))
        for i in by_order:
            if self.order_of(i) == n:
                self._min_gens = (self.elements[i],)
                return self._min_gens
        for size in (2, 3):
            for combo in itertools.combinations(by_order, size):
                if _generates(self, combo):
                    self._min_gens = tuple(self.elements[i] for i in combo)
                    return self._min_gens
        raise BoundExceededError(f"no generating set of size <= 3 for order {n}")


def _generates(G, idxs) -> bool:
    seen = {G.identity_index}
    frontier = [G.identity_index]
    while frontier:
        nxt = []
        for x in frontier:
            for g in idxs:
                y = G.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == len(G)


def closure(generators, cap=20000, label=None) -> PermGroup:
    """Close a generator list under composition into a PermGroup.

    Raises CapExceededError if the generated group would exceed ``cap``;
    that signals a mis-sized search rather than a bug.
    """
    if not generators:
        raise PreconditionError("closure needs at least one generator")
    degree = len(generators[0])
    for g in generators:
        if len(g) != degree:
            raise DegreeMismatchError(f"degree {len(g)} vs {degree}")
        if not perm.is_perm(g):
            raise PreconditionError(f"not a permutation: {g}")
    ident = perm.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = perm.compose(p, g)
                if q not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(f"closure exceeded cap {cap}")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return PermGroup(degree, seen, generators=tuple(generators), label=label)


def element_order(G: PermGroup, a) -> int:
    """Least k >= 1 with a^k = identity; ``a`` is an index or image tuple."""
    if isinstance(a, int):
        return G.order_of(a)
    return G.order_of(G.index_of(a))


def is_regular(H: PermGroup) -> bool:
    """True iff H acts regularly: transitive with order equal to degree."""
    if len(H) != H.degree:
        return False
    return len({p[0] for p in H.elements}) == H.degree


def _closure_idx(G, seed, gen_idxs, cap):
    """Index-level closure of ``seed`` (a subgroup) extended by ``gen_idxs``.

    Returns a frozenset, or None once the closure passes ``cap``.
    """
    elems = set(seed)
    elems.update(gen_idxs)
    if len(elems) > cap:
        return None
    frontier = list(elems)
    mul = G.mul
    while frontier:
        nxt = []
        for x in frontier:
            for g in gen_idxs:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    if len(elems) > cap:
                        return None
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


def _subgroup_sets(G, bound, max_order):
    """All subgroup index sets of order <= max_order, by cyclic extension.

    Grows subgroups by adjoining one element of prime-power order at a
    time; every subgroup is reached through a chain of proper extensions,
    so capping the order still yields every subgroup below the cap.
    """
    if len(G) > bound:
        raise BoundExceededError(
            f"subgroup enumeration bound {bound} exceeded by order {len(G)}"
        )
    cap = len(G) if max_order is None else max_order
    G.table()
    e = G.identity_index
    atoms = [
        i
        for i in range(len(G))
        if i != e and _is_prime_power(G.order_of(i))
    ]
    trivial = frozenset({e})
    found = {trivial: ()}
    work = deque([trivial])
    while work:
        S = work.popleft()
        gens = found[S]
        for a in atoms:
            if a in S:
                continue
            T = _closure_idx(G, S, gens + (a,), cap)
            if T is not None and T not in found:
                found[T] = gens + (a,)
                work.append(T)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs sorted by prime."""

    pairs: tuple

    def value(self) -> int:
        out = 1
        for p, a in self.pairs:
            out *= p**a
        return out


def factorize(n: int) -> Factorization:
    if n < 1:
        raise PreconditionError(f"cannot factor {n}")
    pairs = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            pairs.append((p, a))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return Factorization(tuple(pairs))


def _is_prime_power(n: int) -> bool:
    return len(factorize(n).pairs) == 1


def all_subgroups(G: PermGroup) -> list[PermGroup]:
    """Every subgroup of G exactly once, ascending by order then element list."""
    if G._subgroups is None:
        sets = _subgroup_sets(G, SUBGROUP_BOUND, None)
        G._subgroups = [G.subgroup_from_indices(s) for s in sets]
    return list(G._subgroups)


def subgroups_of_order(G: PermGroup, order: int, bound=SUBGROUP_BOUND):
    """Subgroups of one fixed order, via the capped lattice walk."""
    sets = _subgroup_sets(G, bound, order)
    return [G.subgroup_from_indices(s) for s in sets if len(s) == order]


@dataclass(frozen=True)
class Homomorphism:
    """A group homomorphism recorded as an index map domain -> codomain."""

    domain: PermGroup
    codomain: PermGroup
    images: tuple

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_bijective(self) -> bool:
        return len(set(self.images)) == len(self.codomain)

    def image_perm(self, i: int):
        """The codomain permutation assigned to domain element i."""
        return self.codomain.elements[self.images[i]]

    def verify(self) -> bool:
        mul_d, mul_c = self.domain.mul, self.codomain.mul
        n = len(self.domain)
        im = self.images
        return all(
            im[mul_d(a, b)] == mul_c(im[a], im[b])
            for a in range(n)
            for b in range(n)
        )


def bfs_order(G: PermGroup, gen_idxs):
    """Breadth-first element order with one fixed factorization per element.

    Returns (order, parent) where order lists element indices starting at
    the identity and parent[i] = (previous index, generator position) with
    elements[i] = elements[prev] * gens[pos].
    """
    e = G.identity_index
    order = [e]
    parent = {e: None}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for pos, g in enumerate(gen_idxs):
                y = G.mul(x, g)
                if y not in parent:
                    parent[y] = (x, pos)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    if len(order) != len(G):
        raise PreconditionError("generators do not generate the group")
    return order, parent


def generator_frame(G: PermGroup):
    """Generator indices of a smallest generating set, with its bfs_order.

    Returns (gen_idxs, order, parent); minimal_generating_set raises
    BoundExceededError when G needs more than three generators.
    """
    gen_idxs = [G.index_of(g) for g in G.minimal_generating_set()]
    return (gen_idxs,) + bfs_order(G, gen_idxs)


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
    soon as an image repeats.
    """
    gen_idxs, order, parent = frame
    n = len(G)
    if twist is None:
        twist = (tuple(range(len(H))),) * n
    mul_g, mul_h = G.mul, H.mul
    steps = []
    for i in order[1:]:
        prev, pos = parent[i]
        steps.append((i, prev, twist[prev], pos))
    checks = [
        (x, mul_g(x, s), twist[x], pos)
        for x in range(n)
        for pos, s in enumerate(gen_idxs)
    ]
    e_g, e_h = G.identity_index, H.identity_index
    for choice in itertools.product(*cands):
        m = [None] * n
        m[e_g] = e_h
        used = None
        if injective:
            used = bytearray(len(H))
            used[e_h] = 1
        for i, prev, tw, pos in steps:
            v = mul_h(m[prev], tw[choice[pos]])
            if used is not None:
                if used[v]:
                    break
                used[v] = 1
            m[i] = v
        else:
            for x, xs, tw, pos in checks:
                if m[xs] != mul_h(m[x], tw[choice[pos]]):
                    break
            else:
                yield tuple(m)


def homomorphisms(G: PermGroup, H: PermGroup):
    """All homomorphisms G -> H, in canonical order of their image tables.

    Generator images are filtered by order divisibility and searched with
    extend_images.
    """
    frame = generator_frame(G)
    H.table()
    cands = [
        [j for j in range(len(H)) if G.order_of(gi) % H.order_of(j) == 0]
        for gi in frame[0]
    ]
    return [Homomorphism(G, H, m) for m in sorted(extend_images(G, H, frame, cands))]


def are_isomorphic(G: PermGroup, H: PermGroup):
    """An explicit isomorphism G -> H if one exists, else None.

    Generator-image search pruned by order profile and abelianness.
    """
    if len(G) != len(H):
        return None
    if G.order_profile() != H.order_profile():
        return None
    if G.is_abelian() != H.is_abelian():
        return None
    frame = generator_frame(G)
    if len(H) <= TABLE_LIMIT:
        H.table()
    cands = [
        [j for j in range(len(H)) if H.order_of(j) == G.order_of(gi)]
        for gi in frame[0]
    ]
    m = next(extend_images(G, H, frame, cands, injective=True), None)
    return None if m is None else Homomorphism(G, H, m)


def derived_subgroup(G: PermGroup) -> PermGroup:
    n = len(G)
    comms = set()
    for a in range(n):
        ia = G.inv(a)
        for b in range(n):
            comms.add(G.mul(G.mul(G.mul(ia, G.inv(b)), a), b))
    S = _closure_idx(G, {G.identity_index}, tuple(sorted(comms)), n)
    return G.subgroup_from_indices(S)


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
    n = len(G)
    return any(G.order_of(i) == n for i in range(n))


def sylow_subgroup(G: PermGroup, p: int) -> PermGroup:
    """One maximal p-subgroup, taken from the full subgroup list."""
    n = len(G)
    if n % p != 0:
        raise PreconditionError(f"{p} does not divide group order {n}")
    target = 1
    while n % p == 0:
        target *= p
        n //= p
    for S in all_subgroups(G):
        if len(S) == target:
            return S
    raise PreconditionError(f"no subgroup of order {target} found")  # pragma: no cover


def _prime_divisors(n: int):
    return [p for p, _ in factorize(n).pairs]


def is_c_group(G: PermGroup) -> bool:
    """True iff every Sylow subgroup is cyclic."""
    return all(is_cyclic(sylow_subgroup(G, p)) for p in _prime_divisors(len(G)))


def is_almost_sylow_cyclic(G: PermGroup) -> bool:
    """Odd Sylows cyclic; Sylow-2 trivial or with a cyclic index-2 subgroup."""
    for p in _prime_divisors(len(G)):
        S = sylow_subgroup(G, p)
        if p != 2:
            if not is_cyclic(S):
                return False
        else:
            half = len(S) // 2
            if not any(
                len(T) == half and is_cyclic(T) for T in all_subgroups(S)
            ):
                return False
    return True


def is_normal(G: PermGroup, sub: PermGroup) -> bool:
    """True iff the subgroup is stable under conjugation by G's generators."""
    idxs = frozenset(G.index_of(p) for p in sub.elements)
    gens = [G.index_of(g) for g in G.minimal_generating_set()]
    for g in gens:
        ig = G.inv(g)
        for x in idxs:
            if G.mul(G.mul(g, x), ig) not in idxs:
                return False
    return True


def left_translation(G: PermGroup, a: int):
    """The permutation of element indices given by left multiplication by a."""
    return tuple(G.mul(a, x) for x in range(len(G)))


def regular_representation(G: PermGroup) -> PermGroup:
    """G acting on its own element indices by left translation."""
    if len(G) <= TABLE_LIMIT:
        G.table()
    perms = [left_translation(G, a) for a in range(len(G))]
    return PermGroup(len(G), perms)


def unique_odd_part(G: PermGroup) -> PermGroup:
    """The unique index-2 subgroup of a group of order 2n, n odd.

    Computed as the kernel of the sign of the left regular action; the
    result is asserted to have order n, and (within enumeration bounds) a
    full subgroup scan double-checks that no other order-n subgroup exists.
    """
    size = len(G)
    n, r = divmod(size, 2)
    if r != 0 or n % 2 == 0:
        raise PreconditionError(f"order {size} is not twice an odd number")
    kernel = [
        a for a in range(size) if perm.sign(left_translation(G, a)) == 1
    ]
    if len(kernel) != n:
        raise PreconditionError(
            f"sign kernel has order {len(kernel)}, expected {n}"
        )  # pragma: no cover
    H = G.subgroup_from_indices(kernel)
    if size <= SUBGROUP_BOUND:
        others = [S for S in all_subgroups(G) if len(S) == n]
        if len(others) != 1 or others[0].elements != H.elements:
            raise PreconditionError("order-n subgroup is not unique")  # pragma: no cover
    return H


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
