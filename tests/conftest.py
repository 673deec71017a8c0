"""Shared builders and independent brute-force oracles.

The oracles here deliberately avoid the library's generator-word
machinery: homomorphisms are found by backtracking over full element
image tables, automorphisms by filtering all bijections, and crossed
homomorphisms by filtering all identity-fixing bijections, group
tables, the brace law and holomorph membership by scanning all n^3
triples, subgroups (with the Sylow predicates read off them) by
adjoining one element at a time under ``G.rows()``, factorizations by trial
division, and catalogs by testing every twist against the classes found
so far, coprime cyclic splittings by testing every pair of subgroups
from ``all_subgroups``, and characteristic subgroups by testing every
subgroup from it against every automorphism; element orders are read off cycle lengths and
inverses off ``perm.inverse``, multiplication tables by looking every
entry up by base images, row by row, the least conjugate of a homomorphism
by scanning all of Aut(N), a smallest generating set by closing every
combination of elements in turn, a greedy generating set by a walk
restarted from the identity, compositions by a generator expression,
random loops by backtracking, and Hol(N) and its semiregular classes by
listing and testing every element.  They exist so the fast engines can be
checked against something slow and obviously correct.  Six are not
independent: ``canonical_first_witness`` runs the library's own plain
scan, every f of ``homomorphisms`` in turn, which the orbit engine's
first witness must equal, ``hom_orbits`` conjugates every f of
``homomorphisms``, ``per_element_semiregular_classes`` walks
the library's own conjugation tables, ``unpruned_pair_search`` is the
Hol(N) search on those tables without its two cuts, ``lookup_table`` takes the
library's greedy ``_base``, whatever base the group was given, and
``full_check_extend_images`` runs the generator-image scan over the
library's ``bfs_order``, with every (element, generator) check kept.

The last part holds the check bodies that a Tier-1 test runs at its
orders and ``tests/ci_checks.py`` runs at larger ones, and the two CLI
batteries, audit and refusal, which ``cli_battery`` runs in one capped
child for Tier-1 and CI and ``tests/record_audit_battery.py`` re-records.
Run as a script, this file is that child.
"""

import contextlib
import hashlib
import io
import itertools
import json
import operator
import os
import resource
import subprocess
import sys
import time
import traceback
from math import gcd, lcm
from pathlib import Path

import pytest

import hopfgalois
from hopfgalois import (
    Cyclic,
    Dihedral,
    DirectProduct,
    SemidirectCC,
    are_isomorphic,
    automorphism_group,
    brace_from_regular,
    build,
    characteristic_subgroups,
    count_crossed_pairs,
    crossed_homomorphisms,
    decompose_burnside,
    holomorph,
    homomorphisms,
    lambda_circ_in_hol,
    perm,
    realizable_via_cocycles,
    regular_subgroups,
    verify_brace,
)
from hopfgalois import audit, brace, cli, factory, groups, realize
from hopfgalois.audit import THEOREM_IDS
from hopfgalois.brace import SkewBrace, group_table_identity
from hopfgalois.errors import (
    CountingBugError,
    DegreeMismatchError,
    PreconditionError,
    UnsupportedOrderError,
)
from hopfgalois.factory import (
    Holomorph,
    _prettify,
    _twists,
    automorphism_order,
    catalog,
    is_squarefree,
)
from hopfgalois.groups import (
    TABLE_LIMIT,
    PermGroup,
    _base,
    _generating_set,
    _reach,
    all_subgroups,
    bfs_order,
    closure,
    generator_frame,
    is_c_group,
    is_cyclic,
    is_normal,
    isomorphisms,
    unique_odd_part,
)


def C(n):
    return build(Cyclic(n))


def D(order):
    return build(Dihedral(order))


@pytest.fixture(scope="session")
def s3():
    return build(SemidirectCC(3, 2, 2))


@pytest.fixture(scope="session")
def z3xz3():
    return build(DirectProduct(Cyclic(3), Cyclic(3)))


def brute_force_homomorphisms(G, H):
    """Backtracking over full element-image tables, no generator theory."""
    n, rows_g, rows_h = len(G), G.rows(), H.rows()
    found = []

    def extend(images):
        i = len(images)
        if i == n:
            found.append(tuple(images))
            return
        for h in range(len(H)):
            images.append(h)
            ok = True
            for a in range(i + 1):
                for b in range(i + 1):
                    c = rows_g[a][b]
                    if c <= i and images[c] != rows_h[images[a]][images[b]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                extend(images)
            images.pop()

    extend([])
    return sorted(found)


def brute_force_automorphisms(N):
    """Filter every bijection of the element list for multiplicativity."""
    n, rows = len(N), N.rows()
    out = []
    for images in itertools.permutations(range(n)):
        if images[N.identity_index] != N.identity_index:
            continue
        if all(
            images[rows[a][b]] == rows[images[a]][images[b]]
            for a in range(n)
            for b in range(n)
        ):
            out.append(tuple(images))
    return sorted(out)


def brute_force_bijective_crossed_homs(f, G, N):
    """Filter every identity-fixing bijection G -> N against the law."""
    n, rows_g, rows_n = len(G), G.rows(), N.rows()
    e_g, e_n = G.identity_index, N.identity_index
    others = [i for i in range(n) if i != e_g]
    values = [i for i in range(n) if i != e_n]
    out = []
    for perm_vals in itertools.permutations(values):
        g = [None] * n
        g[e_g] = e_n
        for slot, val in zip(others, perm_vals):
            g[slot] = val
        if all(
            g[rows_g[a][b]] == rows_n[g[a]][f.image_perm(a)[g[b]]]
            for a in range(n)
            for b in range(n)
        ):
            out.append(tuple(g))
    return sorted(out)


def brute_force_is_group_table(table):
    """Latin square with identity, associativity checked on all n^3 triples."""
    n = len(table)
    full = tuple(range(n))
    for row in table:
        if tuple(sorted(row)) != full:
            return False
    for col in range(n):
        if tuple(sorted(table[r][col] for r in range(n))) != full:
            return False
    if group_table_identity(table) is None:
        return False
    for a in range(n):
        ta = table[a]
        for b in range(n):
            tab = ta[b]
            tb = table[b]
            for c in range(n):
                if table[tab][c] != ta[tb[c]]:
                    return False
    return True


def _brute_force_negatives(add, e):
    n = len(add)
    neg = [None] * n
    for a in range(n):
        for x in range(n):
            if add[a][x] == e:
                neg[a] = x
                break
    return neg


def brute_force_verify_brace(B):
    """Both tables groups, shared identity, the law on all n^3 triples.

    Expects both tables to have ``B.size`` rows of ``B.size`` entries.
    """
    add, mul = B.add_table, B.mul_table
    n = B.size
    if not brute_force_is_group_table(add) or not brute_force_is_group_table(mul):
        return False
    e = group_table_identity(add)
    if group_table_identity(mul) != e:
        return False
    neg = _brute_force_negatives(add, e)
    for a in range(n):
        ma = mul[a]
        na = neg[a]
        for b in range(n):
            row_ab = add[ma[b]]
            for c in range(n):
                if ma[add[b][c]] != add[row_ab[na]][ma[c]]:
                    return False
    return True


def brute_force_lambda_circ_in_hol(B):
    """Every row x -> a o x is a translation after an additive bijection,
    with additivity checked on all n^2 pairs of every row.

    Expects a group addition table with ``B.size`` rows of ``B.size``
    entries and a multiplicative table with ``B.size`` rows.
    """
    add, mul = B.add_table, B.mul_table
    n = B.size
    e = group_table_identity(add)
    full = tuple(range(n))
    neg = _brute_force_negatives(add, e)
    for a in range(n):
        row = mul[a]
        if tuple(sorted(row)) != full:
            return False
        shift = neg[row[e]]
        alpha = tuple(add[shift][row[x]] for x in range(n))
        if tuple(sorted(alpha)) != full:
            return False
        for x in range(n):
            ax = alpha[x]
            for y in range(n):
                if alpha[add[x][y]] != add[ax][alpha[y]]:
                    return False
    return True


def _closure_within(G, gens, cap):
    """Index set generated by ``gens`` under G's products, or None once it
    passes ``cap`` elements."""
    e, rows = G.identity_index, G.rows()
    elems = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = rows[x][g]
                if y not in elems:
                    if len(elems) == cap:
                        return None
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


def brute_force_subgroups(G, max_order):
    """Every subgroup of G of order <= max_order, as index frozensets sorted
    by (order, sorted indices).

    Starts from the trivial group and adjoins every element to every
    subgroup found, closing under ``G.rows()``.  A subgroup H is reached along
    a chain of proper extensions by elements of H, each of order <= |H|,
    so dropping closures past ``max_order`` loses none below it.
    """
    trivial = frozenset({G.identity_index})
    found = {trivial: ()}
    work = [trivial]
    while work:
        S = work.pop()
        for a in range(len(G)):
            if a in S:
                continue
            gens = found[S] + (a,)
            T = _closure_within(G, gens, max_order)
            if T is not None and T not in found:
                found[T] = gens
                work.append(T)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _prime_power_parts(n):
    """(p, p^a) for each prime p dividing n, p^a the full power of p."""
    out = []
    p = 2
    while n > 1:
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            out.append((p, q))
        p += 1
    return out


def _is_cyclic_set(G, S):
    return any(_closure_within(G, (x,), len(S)) == S for x in S)


def lattice_is_c_group(G):
    """Every Sylow subgroup cyclic: one Sylow p-subgroup per prime, taken
    from the brute-force subgroup list and checked for a generator."""
    for _, q in _prime_power_parts(len(G)):
        sylow = next(S for S in brute_force_subgroups(G, q) if len(S) == q)
        if not _is_cyclic_set(G, sylow):
            return False
    return True


def lattice_is_almost_sylow_cyclic(G):
    """Odd Sylows cyclic, and a Sylow 2-subgroup holding a cyclic subgroup
    of index 2, read off the brute-force subgroup list."""
    for p, q in _prime_power_parts(len(G)):
        subs = brute_force_subgroups(G, q)
        sylow = next(S for S in subs if len(S) == q)
        if p != 2:
            ok = _is_cyclic_set(G, sylow)
        else:
            ok = any(
                len(T) == q // 2 and T <= sylow and _is_cyclic_set(G, T)
                for T in subs
            )
        if not ok:
            return False
    return True


def lattice_characteristic_subgroups(N, autN):
    """The subgroups of ``all_subgroups(N)`` that every automorphism in
    ``autN`` maps onto themselves, in lattice order."""
    out = []
    for S in all_subgroups(N):
        idxs = frozenset(map(N.index_of, S.elements))
        if all(frozenset(alpha[i] for i in idxs) == idxs for alpha in autN.elements):
            out.append(S)
    return out


def cycle_orders(G):
    """Each element's order, by index, as the lcm of its cycle lengths."""
    return tuple(lcm(*(len(c) for c in perm.cycles(p))) for p in G.elements)


def inverse_lookup(G):
    """Each element's inverse, by index, looked up from ``perm.inverse``."""
    return tuple(G.index_of(perm.inverse(p)) for p in G.elements)


def lookup_table(G):
    """G's multiplication table with every entry looked up: entry [i][j]
    is the index whose images of a greedy base (``groups._base``) are
    p_i's images of p_j's base images, one ``itemgetter`` over every
    column's base images per row.  No row is composed from another."""
    els = G.elements
    base = _base(els, G.degree)
    if not base:
        return [(0,)]
    key = {tuple(p[b] for b in base): i for i, p in enumerate(els)}
    row_keys = operator.itemgetter(*(q[b] for q in els for b in base))
    return [tuple(map(key.__getitem__, zip(*[iter(row_keys(p))] * len(base)))) for p in els]


def least_conjugate(atab, inv, m, stab_size):
    """The least image tuple b * m * b^-1 over b in Aut(N), and its
    centralizer, from the table ``atab`` of Aut(N) and its inverses.

    Found image by image: over the b kept so far, keep only those that
    reach the least image.  The b giving one conjugate form a coset of
    m's stabilizer, so the kept b are a union of cosets, and once
    ``stab_size`` of them remain they are the coset b0 * C(m) that gives
    the least conjugate, whose centralizer is then kept * b0^-1.  If that
    never happens, ``stab_size`` is not the stabilizer's order and
    CountingBugError is raised.
    """
    kept = range(len(atab))
    for x in m:
        images = [atab[atab[b][x]][inv[b]] for b in kept]
        low = min(images)
        kept = [b for b, y in zip(kept, images) if y == low]
        if len(kept) == stab_size:
            row, ib = atab[kept[0]], inv[kept[0]]
            return tuple(atab[row[x]][ib] for x in m), [atab[b][ib] for b in kept]
    raise CountingBugError(
        f"{len(kept)} automorphisms fix a homomorphism, its stabilizer has {stab_size}"
    )


def hom_orbits(G, aut):
    """Aut(N)-conjugacy orbits of Hom(G, Aut N), one (f, orbit) per orbit.

    The oracle for ``realize._hom_orbit_reps``: it builds all of
    ``homomorphisms(G, aut)``; representatives come in its order, each the
    first member of its orbit.  An f is keyed by its images of G's frame
    generators, which determine it, and its orbit is the set of keys of
    the conjugates b * f * b^-1, read from ``aut.table()``.  Every orbit
    must lie inside Hom, and once the scan is complete the orbit sizes
    must sum to |Hom|; either failure raises CountingBugError.
    """
    homs = homomorphisms(G, aut)
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


def every_combination_generating_set(G):
    """The first generating set of size 1, then 2, then 3 in
    ``itertools.combinations`` order of the elements sorted by descending
    order, then index, with every combination closed in turn."""
    n, orders = len(G), G.orders()
    by_order = sorted(range(n), key=lambda i: (-orders[i], i))
    if orders[by_order[0]] == n:  # cyclic, or trivial
        return (G.elements[by_order[0]],)
    start, step = (G.identity_index,), G.rows().__getitem__
    for size in (2, 3):
        for combo in itertools.combinations(by_order, size):
            if len(_reach(step, start, combo)[0]) == n:
                return tuple(G.elements[i] for i in combo)
    return None


def restart_generating_set(table, e):
    """``groups._generating_set`` as a restart walk: each element not
    reached yet joins the set, and the reached set is rebuilt from {e}
    alone by a stack walk under right multiplication by the whole set.
    Any table with entries in range(n) and two-sided identity e will do;
    it need not be associative."""
    gens = []
    reached = {e}
    for x in range(len(table)):
        if x in reached:
            continue
        gens.append(x)
        reached = {e}
        stack = [e]
        while stack:
            row = table[stack.pop()]
            for s in gens:
                y = row[s]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    return gens


def random_loop(rng, n):
    """(table, e): a Latin square of order n with two-sided identity e,
    filled cell by cell by backtracking over symbols in ``rng``'s order.
    From order 5 on many such loops are not groups."""
    e = rng.randrange(n)
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        table[e][x] = table[x][e] = x
    cells = [(i, j) for i in range(n) for j in range(n) if e not in (i, j)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i]) | {row[j] for row in table}
        for y in rng.sample(range(n), n):
            if y not in used:
                table[i][j] = y
                if fill(k + 1):
                    return True
        table[i][j] = None
        return False

    assert fill(0)
    return [tuple(row) for row in table], e


def column_plan(G, gen_idxs):
    """(gen_idxs, steps, checks) for ``full_check_extend_images``, each a
    tuple of columns: steps (i, prev, pos) along ``bfs_order`` past the
    identity, and checks (x, xs, pos) on every element x and generator
    position, the breadth-first tree's edges included."""
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


def full_check_extend_images(G, H, frame, cands, twist=None, injective=False):
    """``groups.extend_images`` with the ``column_plan`` of frame[0], built
    on every call, and all n·k checks: each step and check is zipped with
    its twist per call, and a choice is yielded when every (element,
    generator) product holds, tree edges included.  The same tuples in
    the same order, so it can stand in for the kernel anywhere."""
    _, (step_i, step_prev, step_pos), (check_x, check_xs, check_pos) = column_plan(
        G, frame[0]
    )
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


def per_x_cyclic_images(N, fa, r):
    """``realize._cyclic_consistent_images`` walked from every x on its
    own, with no verdict shared along a cycle of fa: the images x = g(a)
    for which g(a^(j+1)) = x * fa(g(a^j)) first returns to the identity
    at j = r, ascending."""
    e_n = N.identity_index
    good = []
    for x, row in enumerate(N.rows()):
        v, j = x, 1  # v = g(a^j)
        while v != e_n and j < r:
            v = row[fa[v]]
            j += 1
        if v == e_n and j == r:
            good.append(x)
    return good


def canonical_first_witness(G, N):
    """(f images, g) of the first bijective crossed homomorphism of the
    plain scan, over every f of ``homomorphisms`` in order, or None."""
    aut = automorphism_group(N)
    for f in homomorphisms(G, aut):
        found = crossed_homomorphisms(f, G, N, limit=1)
        if found:
            return f.images, found[0].g
    return None


def trial_division_pairs(n):
    """(prime, exponent) pairs of n >= 1 by dividing by every p with p^2 <= n."""
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
    return tuple(pairs)


def closure_pair(k, l, t, label=None):
    """Z_k x|_t Z_l as the closure of its two generators on k*l points,
    x = (1, 0) and y = (0, 1), point (c, d) being index c*l + d: the
    oracle of ``factory._semidirect_pair``, which lists the same group in
    normal form without a closure walk."""
    x = tuple(((c + 1) % k) * l + d for c in range(k) for d in range(l))
    y = tuple(((t * c) % k) * l + (d + 1) % l for c in range(k) for d in range(l))
    return closure([x, y], cap=k * l, label=label)


def iso_catalog(order):
    """(spec, elements) per class at a squarefree order: every twist
    Z_k x|_t Z_l is built by ``closure_pair`` and kept unless isomorphic
    to a class found so far, each class keeping its least element list."""
    assert is_squarefree(order)
    classes = []
    for k in (d for d in range(1, order + 1) if order % d == 0):
        l = order // k
        for t in _twists(k, l):
            G = closure_pair(k, l, t, _prettify(SemidirectCC(k, l, t)))
            i = next(
                (i for i, H in enumerate(classes) if are_isomorphic(H, G) is not None),
                None,
            )
            if i is None:
                classes.append(G)
            elif G.elements < classes[i].elements:
                classes[i] = G
    return [(G.label, G.elements) for G in sorted(classes, key=lambda G: G.elements)]


def lattice_decompose_burnside(G):
    """(k, l, t) of a C-group from its subgroup lattice, None otherwise:
    every normal cyclic Hall subgroup K, with the first cyclic L of the
    complementary order, gives a candidate, and the largest k wins.  t is
    the least t >= 1 with v u v^-1 = u^t, for u and v the least-index
    generators of K and L.  Stops at ``SUBGROUP_BOUND``."""
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
            candidates.append((k, l, _conjugation_exponent(G, k_idxs, l_idxs, k, l)))
            break
    candidates.sort(key=lambda c: (-c[0], c[2]))
    return candidates[0] if candidates else None


def _conjugation_exponent(G, k_idxs, l_idxs, k, l):
    """The exponent t with v u v^-1 = u^t for generators u of K, v of L."""
    u = min(i for i in k_idxs if G.order_of(i) == k)
    if l == 1:
        return 1
    v = min(i for i in l_idxs if G.order_of(i) == l)
    rows = G.rows()
    w = rows[rows[v][u]][G.inv(v)]
    power = u
    t = 1
    while power != w:
        power = rows[power][u]
        t += 1
        if t > k:
            raise PreconditionError("conjugate left the cyclic factor")
    return t


def generator_compose(p, q):
    """x -> p(q(x)) by a generator expression over q."""
    if len(p) != len(q):
        raise DegreeMismatchError(f"degree {len(p)} vs {len(q)}")
    return tuple(p[x] for x in q)


def eager_holomorph(hol):
    """(group, tags) of Hol(N) from ``hol.lam`` and ``hol.iota``, every
    element lam[t] * iota[a] listed by ``generator_compose``: the
    permutation group, generated by the translations by N's generators
    and a greedy generating set of Aut(N), and the (t, a) pair of each
    element."""
    N, aut = hol.n_group, hol.aut
    tags = {}
    for t, lam_t in enumerate(hol.lam):
        for a, alpha in enumerate(hol.iota):
            h = generator_compose(lam_t, alpha)
            assert h not in tags
            tags[h] = (t, a)
    gens = [hol.lam[N.index_of(g)] for g in N.generators] + [
        hol.iota[b] for b in _generating_set(aut.rows(), aut.identity_index)
    ]
    label = Holomorph(N.label) if N.label is not None else None
    return PermGroup(len(N), tags, generators=gens, label=label), tags


def per_element_semiregular_classes(hol):
    """(classes, conj, in_pool, element) as ``realize._semiregular_classes``
    gives them, with every element of ``eager_holomorph`` tested: the pool
    is each non-identity semiregular element, as the code t * |Aut N| + a,
    sorted by descending order, then code, and each class is the orbit of
    its first pool member, walked first in, first out by a loop of its own
    under the tables of ``realize._conjugators``; element(c) is
    ``generator_compose`` of the code's pair.  A conjugate of a pool
    element outside the pool raises CountingBugError."""
    m, size = len(hol.n_group), len(hol.aut)
    pool = []
    for p, (t, a) in eager_holomorph(hol)[1].items():
        k = perm.semiregular_order(p)
        if k > 1:
            pool.append((-k, t * size + a))
    pool.sort()
    in_pool = bytearray(m * size)
    for _, c in pool:
        in_pool[c] = 1
    conj = realize._conjugators(hol)
    if not all(in_pool[image[c]] for image in conj for _, c in pool):
        raise CountingBugError("a conjugate of a semiregular element is not one")
    classes = []
    seen = set()
    for k, c in pool:
        if c not in seen:
            codes = [c]
            seen.add(c)
            for x in codes:  # first in, first out: visits what it appends
                for image in conj:
                    if image[x] not in seen:
                        seen.add(image[x])
                        codes.append(image[x])
            classes.append((-k, codes))

    def element(c):
        return generator_compose(hol.lam[c // size], hol.iota[c % size])

    return classes, conj, in_pool, element


def unpruned_pair_search(hol):
    """``realize._pair_search`` without its two cuts, the oracle of both:
    an orbit is walked from every code not walked yet, fixed points or
    not, and kept if its greatest code is semiregular; the second
    generator runs over x's class and the later ones, x itself left out,
    with no skip for a y whose t-part is that of a power of x.  Orbits
    are walked by ``groups._reach`` under the tables of
    ``realize._conjugators``, and a pair inside a known regular subgroup
    is skipped as the search skips it."""
    N, aut = hol.n_group, hol.aut
    m, size = len(N), len(aut)
    nrows, arows, iota = N.rows(), aut.rows(), hol.iota
    conj = realize._conjugators(hol)

    def element(c):
        return perm.compose(hol.lam[c // size], iota[c % size])

    def walk(start, step):
        return _reach(step, (start,), range(len(conj)))[0]

    seen, classes = set(), []
    for c in range(m * size):
        if c not in seen:
            orbit = walk(c, lambda x: [image[x] for image in conj])
            seen.update(orbit)
            k = perm.semiregular_order(element(max(orbit)))
            if k > 1:
                classes.append((k, orbit))
    classes.sort(key=lambda kc: -kc[0])
    in_pool = {c for _, orbit in classes for c in orbit}

    def close(pair):
        parts = {N.identity_index: aut.identity_index}
        frontier = list(parts.items())
        while frontier:
            nxt = []
            for tx, ax in frontier:
                for tg, ag in pair:
                    ty, ay = nrows[tx][iota[ax][tg]], arows[ax][ag]
                    if ty in parts:
                        if parts[ty] != ay:
                            return None
                    elif ty * size + ay in in_pool:
                        parts[ty] = ay
                        nxt.append((ty, ay))
                    else:
                        return None
            frontier = nxt
        return frozenset(t * size + a for t, a in parts.items()) if len(parts) == m else None

    found, orbits = {}, []

    def record(sub):
        if sub is not None and sub not in found:
            orbit = walk(sub, lambda S: [frozenset(image[c] for c in S) for image in conj])
            found.update((S, len(orbits)) for S in orbit)
            orbits.append(orbit)

    for pair in [()] + [(divmod(codes[0], size),) for k, codes in classes if k == m]:
        record(close(pair))
    for i, (_, codes) in enumerate(classes):
        cx = codes[0]
        for cy in (cy for _, later in classes[i:] for cy in later if cy != cx):
            if not any(cx in S and cy in S for S in found):
                record(close((divmod(cx, size), divmod(cy, size))))
    return [[frozenset(map(element, sub)) for sub in orbit] for orbit in orbits]


# Check bodies: each compares a kernel with the oracles above and is run
# by a Tier-1 test at its orders and by ``tests/ci_checks.py`` at larger
# ones.  A case is a tuple (name, *args), and ``differs(*args)`` is true
# where kernel and oracle disagree.


def tally(cases, differs):
    """(number of cases, names of the cases that differ)."""
    count, bad = 0, []
    for name, *args in cases:
        count += 1
        if differs(*args):
            bad.append(name)
    return count, bad


def fresh_copy(G):
    """A new group object on G's elements, whose ``table()`` builds anew."""
    return PermGroup(G.degree, G.elements)


def memo_of(x, fn):
    """What ``groups.derived`` keeps of ``fn`` on x: {args: value}."""
    memo = getattr(x, "_memo", {})
    return {args: value for (f, args), value in memo.items() if f is fn.__wrapped__}


def catalog_cases(orders):
    """(name, group) for every catalog group at each of ``orders``."""
    for order in orders:
        try:
            entries = catalog(order)
        except UnsupportedOrderError:
            continue
        for e in entries:
            yield e.spec.text(), e.group


def pair_cases(orders):
    """("(G, N)", G, N) for every catalog pair at each of ``orders``, N outer."""
    for order in orders:
        cases = list(catalog_cases([order]))
        yield from ((f"({g}, {n})", G, N) for n, N in cases for g, G in cases)


def decompose_cases(top):
    """(name, group) for every catalog group of order <= top, and for the
    odd part of each one of twice-odd order."""
    for name, G in catalog_cases(range(1, top + 1)):
        yield name, G
        if len(G) % 4 == 2:
            yield f"{name} odd part", unique_odd_part(G)


def catalog_differs(order):
    """The catalog's specs and element lists are not ``iso_catalog``'s."""
    return [(e.spec, e.group.elements) for e in catalog(order)] != iso_catalog(order)


def decompose_differs(G):
    return decompose_burnside(G) != lattice_decompose_burnside(G)


def characteristic_cases(orders):
    """(name, N) for every catalog N at ``orders`` whose Aut(N) has a
    table, the N that t002 reaches."""
    for name, N in catalog_cases(orders):
        if automorphism_order(N) <= TABLE_LIMIT:
            yield name, N


def characteristic_differs(N):
    """The join walk's characteristic subgroups of N are not those of
    ``lattice_characteristic_subgroups``, element list for element list,
    in the same order."""
    aut = automorphism_group(N)
    found = characteristic_subgroups(N, aut)
    return [S.elements for S in found] != [S.elements for S in lattice_characteristic_subgroups(N, aut)]


def orders_differ(G, *copies):
    """The power walk's orders and inverses on G, or on a copy of G, are not
    the cycle-length and ``perm.inverse`` oracles'."""
    oracle = cycle_orders(G), inverse_lookup(G)
    return any((H.orders(), H.inverses()) != oracle for H in (G, *copies))


def generating_set_differs(G):
    return G.minimal_generating_set() != every_combination_generating_set(G)


def walk_differs(table, e):
    return _generating_set(table, e) != restart_generating_set(table, e)


def aut_differs(N):
    """Aut(N) is not the sorted isomorphisms N -> N, or not of ``automorphism_order``."""
    aut = automorphism_group(N)
    return aut.elements != tuple(sorted(isomorphisms(N, N))) or automorphism_order(N) != len(aut)


def table_differs(G):
    return G.table() != lookup_table(G)


def table_cases(orders, aut_orders):
    """(name, group with no table yet): a fresh copy of every catalog
    group at ``orders``, then Aut(N), built anew with N's frame base, for
    each catalog N at ``aut_orders`` whose Aut(N) has a table."""
    for name, G in catalog_cases(orders):
        yield name, fresh_copy(G)
    for name, N in catalog_cases(aut_orders):
        if automorphism_order(N) <= TABLE_LIMIT:
            yield f"Aut({name})", automorphism_group.__wrapped__(N)


def hom_orbit_reps_differ(G, N):
    """The Hom(G, Aut N) walk's images and orbit sizes are not those of
    ``hom_orbits``, or a centralizer C is not |Aut N| / size distinct
    automorphisms commuting with f's images, or f is not its least
    conjugate by a scan of all of Aut(N) with C that conjugate's
    centralizer, as a set (``least_conjugate``)."""
    aut = automorphism_group(N)
    atab, inv = aut.table(), inverse_lookup(aut)
    reps = list(realize._hom_orbit_reps(G, aut))

    def differs(f, size, C):
        least, centralizer = least_conjugate(atab, inv, f.images, len(aut) // size)
        return (
            not len(set(C)) == len(C) == len(aut) // size
            or any(atab[b][x] != atab[x][b] for b in C for x in set(f.images))
            or (least, set(centralizer)) != (f.images, set(C))
        )

    oracle = [(f.images, len(o)) for f, o in hom_orbits(G, aut)]
    return [(f.images, size) for f, size, _ in reps] != oracle or any(differs(*r) for r in reps)


def lifted_check_tables(N):
    """``realize._check_tables`` with Aut(N)'s bound lifted to what its
    listing needs (ROADMAP item 3): N must still have a table, and Aut(N)
    need only fit ``SIZE_LIMIT``; the engine reads it by rows."""
    groups.check_table(len(N))
    groups.check_size(automorphism_order(N), len(N))


def first_witness(G, N):
    """(f images, g) of the cocycle engine's witness for (G, N), or None."""
    w = realizable_via_cocycles(G, N)
    return None if w is None else (w.f.images, w.g)


def brace_mismatches(entries, rng=None, cold=False):
    """(braces, relabellings refused, names that differ) over the brace B
    of every regular subgroup of Hol(N), for each (name, N) of ``entries``:
    B must pass both O(n^3) oracles, and ``verify_brace`` and
    ``lambda_circ_in_hol`` must equal them on B and, with ``rng``, right
    after it on two mutants: two entries of one multiplicative row
    exchanged, refused although its additive table was just accepted, and
    the multiplicative table relabelled by a random bijection fixing the
    identity, a group table that only the law can refuse.  With ``cold``,
    the brace module's structure memo is emptied before every check, so
    each verdict is computed from nothing."""

    def check(fn, *args):
        if cold:
            brace._structure_of.cache_clear()
        return fn(*args)

    checked, refused, bad = 0, 0, []
    for name, N in entries:
        for rec in regular_subgroups(holomorph(N)):
            B = check(brace_from_regular, rec.subgroup, N)
            cases = [B]
            if rng is not None and B.size > 1:
                rows = [list(r) for r in B.mul_table]
                row = rows[rng.randrange(B.size)]
                x, y = rng.sample(range(B.size), 2)
                row[x], row[y] = row[y], row[x]
                cases.append(SkewBrace(B.size, B.add_table, tuple(map(tuple, rows))))
                zero = N.identity_index
                rest = [x for x in range(B.size) if x != zero]
                images = {zero: zero, **dict(zip(rest, rng.sample(rest, len(rest))))}
                inv = {y: x for x, y in images.items()}
                mul = tuple(
                    tuple(images[B.mul_table[inv[a]][inv[b]]] for b in range(B.size))
                    for a in range(B.size)
                )
                cases.append(SkewBrace(B.size, B.add_table, mul))
                refused += not check(verify_brace, cases[-1])
            for C in cases:
                oracle = brute_force_verify_brace(C), brute_force_lambda_circ_in_hol(C)
                if (check(verify_brace, C), check(lambda_circ_in_hol, C)) != oracle or (
                    C is B and oracle != (True, True)
                ):
                    bad.append(name)
            checked += 1
    return checked, refused, sorted(set(bad))


def dihedral_terms(n):
    """divmod(#pairs(D_2n, N), |Aut N|) for each N in catalog(2n); the
    quotients sum to the Hopf-Galois structures on a D_2n-extension."""
    G = build(Dihedral(2 * n))
    return [
        divmod(count_crossed_pairs(G, e.group), len(automorphism_group(e.group)))
        for e in catalog(2 * n)
    ]


def capped_python(args, timeout):
    """``python *args`` on this package's sources, with ``tests/`` on the
    path, in a child capped at 1 GiB of address space, so that a group
    built without the size bound ends in a MemoryError there; stdout and
    stderr as text.  ``PYTHONINTMAXSTRDIGITS`` is cleared, so the child
    keeps Python's default int-to-text limit, which one refusal names."""
    src, tests = Path(hopfgalois.__file__).parents[1], Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{tests}")
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)), timeout=timeout,
    )


def run_cli(argv):
    """``cli.main(argv)`` in this process: (exit code, stdout, stderr).  A
    ``SystemExit``, which argparse raises on a usage error, gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def clear_caches():
    """Empty every ``functools`` cache of the library, the value-keyed
    ``build``, ``_catalog`` and ``_structure_of``, so that what runs next
    starts from nothing, as a cold command does: what was derived from
    the groups they held goes with those groups."""
    for module in (audit, brace, factory, groups, realize):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# The CLI batteries: fixed commands, each kept in a golden as [exit code,
# sha256 of stdout, last stderr line].  The audit battery is every theorem
# at each of these n, with --format json.  Left out for time: n = 201, 385
# and 903, and c001 at 273 (its lattice walk at order 273 alone takes
# about 3 s in process).
AUDIT_BATTERY_NS = (
    0, 1, 2, 3, 5, 6, 7, 9, 10, 15, 21, 25, 33, 35, 39, 45, 51, 55, 63,
    101, 105, 123, 273, 601, 1995,
)
AUDIT_BATTERY = {
    f"{t} {n}": f"audit --theorem {t} --n {n} --format json".split()
    for t in THEOREM_IDS for n in AUDIT_BATTERY_NS if (t, n) != ("c001", 273)
}

# The refusal battery, in four slices that Tier-1 checks under names of
# their own.  A 19-digit prime order: listing its divisors or twists takes
# far longer than the size-bound check that must come first.  c001 and
# t004 factor it before the check, which Miller-Rabin makes quick.
BIG = "1000000000000000003"
# specs past the parser's own bounds
PARSER_REFUSALS = {
    "4301-digits": f"realizable --g C{'9' * 4301} --n C3",
    "hol-400-deep": f"realizable --g {'Hol(' * 400}C1{')' * 400} --n C3",
    "chain-400": f"realizable --g {'x'.join(['C1'] * 400)} --n C3",
}
# past a size, table, lattice or search bound, each refused before the
# work it bounds, which once ended in a MemoryError or took up to 46 s
BOUND_REFUSALS = [
    "realizable --g C20000 --n C20000 --method cocycle",
    "catalog --order 20003",
    "realizable --g C100000000 --n C3 --method cocycle",
    "realizable --g C2000xC2000 --n C3",
    f"catalog --order {BIG}",
    f"braces --order {BIG}",
    *(f"audit --theorem {t} --n {BIG}" for t in ("t001", "t002", "t003", "p003", "p004", "c001", "t004")),
    # refused on |N| before Aut(N) is searched over composing rows
    "realizable --g Hol(D1202) --n C3 --method cocycle",
    "realizable --g Hol(C2xC2xC2xC151) --n C3 --method cocycle",
    # audits refused on the order before their catalog, its Sylow tests or
    # an isomorphism search over composing rows
    "audit --theorem t004 --n 601",
    "audit --theorem p003 --n 1995",
    "audit --theorem p004 --n 1995",
    "audit --theorem t001 --n 903",
    "audit --theorem p005 --n 651",
    # c001 at a squarefree order past the lattice bound, before its catalog
    "audit --theorem c001 --n 1806",
    # every N at order 102 fits a table but Aut(D102) does not, which is
    # checked before the first row
    "audit --theorem t001 --n 51",
    # |Aut D102| = 1632 and |Aut C2xC2xC2xC11| = 1680 are above TABLE_LIMIT
    "realizable --g C102 --n D102 --method cocycle",
    "realizable --g C102 --n D102 --method both",
    "realizable --g C2xC2xC2xC11 --n C2xC2xC2xC11 --method cocycle",
    # at order 402, t002 on |Aut SD(201,2;133)| = 8844 before the first
    # row, and c001 on the lattice bound before its catalog
    "audit --theorem t002 --n 201",
    "audit --theorem c001 --n 402",
    # |N| past the Hol(N) search bound
    "regular-subgroups --hol-of C31",
    "braces --order 42",
    # e_formula past Python's default int-to-text limit of 4300 digits
    "count-dihedral --n 15001 --format json",
    "count-dihedral --n 15001 --format table",
]
# inputs outside what the toolkit takes
INPUT_REFUSALS = [
    "realizable --g C6 --n C10",
    "realizable --g C2xC2xC2xC2 --n C16",
    "catalog --order 18",
    "realizable --g C2xC2xC2 --n C2xC2xC2 --method search",
    "count-dihedral --n 4",
    "catalog --order -3000",
    "braces --order -3000",
]
# orders an audit does not take
BAD_AUDIT_ORDERS = [
    ("p001", "-3"), ("c001", "-6"), ("c001", "0"), ("ses_final", "-2"),
    ("p003", "-3"), ("p004", "-3001"),
]
REFUSAL_BATTERY = {
    command: command.split()
    for command in (
        *PARSER_REFUSALS.values(), *BOUND_REFUSALS, *INPUT_REFUSALS,
        *(f"audit --theorem {t} --n {n}" for t, n in BAD_AUDIT_ORDERS),
    )
}

# name: (commands, whether the caches are emptied before each command)
BATTERIES = {"audit": (AUDIT_BATTERY, False), "refusal": (REFUSAL_BATTERY, True)}
EMPTY_SHA = hashlib.sha256(b"").hexdigest()
ROW_SECONDS = 2


def battery_golden(name):
    return Path(__file__).parent / "golden" / f"{name}_battery.json"


def cli_battery(commands, clear_each):
    """Each command through ``run_cli``: {command: [exit code, sha256 of
    stdout, stderr, seconds]}.  With ``clear_each`` the library's caches
    are emptied before each command, so no memo left by an earlier one can
    hide a refusal.  An exception is kept as its traceback on stderr."""
    found = {}
    for key, argv in commands.items():
        if clear_each:
            clear_caches()
        started = time.perf_counter()
        try:
            code, out, err = run_cli(argv)
        except Exception:
            code, out, err = None, "", traceback.format_exc()
        seconds = time.perf_counter() - started
        found[key] = [code, hashlib.sha256(out.encode()).hexdigest(), err, seconds]
    return found


def capped_batteries(names):
    """The named batteries, run by ``cli_battery`` in one child capped as
    ``capped_python`` caps it: {name: {command: row}}."""
    proc = capped_python([__file__, *names], 300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def golden_line(row):
    code, digest, err, _ = row
    return [code, digest, (err.splitlines() or [""])[-1]]


def golden_text(rows):
    """A battery's golden file: one command to a line."""
    lines = (f"{json.dumps(key)}: {json.dumps(golden_line(row))}" for key, row in rows.items())
    return "{\n" + ",\n".join(lines) + "\n}\n"


def row_faults(row, golden):
    """What a battery row breaks: its golden line; on exit 1, the refusal
    contract of no stdout and one ``error:`` line on stderr, so no
    traceback; and the bound of ROW_SECONDS."""
    code, digest, err, seconds = row
    faults = [] if golden_line(row) == golden else [f"golden {golden}, ran {golden_line(row)}"]
    if code == 1 and (digest, err.count("\n"), err[:7]) != (EMPTY_SHA, 1, "error: "):
        faults.append(f"refusal contract: {err[:300]!r}")
    if seconds >= ROW_SECONDS:
        faults.append(f"{seconds:.2f} s")
    return faults


def battery_faults(name, rows):
    """{command: what its row breaks} for the named battery's ``rows``."""
    golden = json.loads(battery_golden(name).read_text())
    return {key: row_faults(row, golden.get(key)) for key, row in rows.items()}


@pytest.fixture(scope="module")
def battery_faults_found():
    """``battery_faults`` of both batteries, run once in one capped child."""
    return {name: battery_faults(name, rows) for name, rows in capped_batteries(BATTERIES).items()}


if __name__ == "__main__":  # the child of capped_batteries
    print(json.dumps({name: cli_battery(*BATTERIES[name]) for name in sys.argv[1:]}))
