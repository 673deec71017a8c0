"""Executable audits: quantify each classification statement over the
catalog, run the realizability engine, and check the asserted conclusion.

A pass means the implication held on every listed instance; it is
evidence at the audited orders, not a proof.  Reports carry their full
quantification domain so every verdict is reproducible, and bound
violations appear as explicit skipped instances rather than omissions.
"""

from __future__ import annotations

import functools

from .counting import is_burnside_number, radical
from .errors import CountingBugError, PreconditionError, Record, UnsupportedOrderError
from .factory import (
    Dihedral,
    SemidirectZ2,
    automorphism_group,
    build,
    catalog,
    class_index,
    is_squarefree,
    shape_check_semidirect_z2,
    z2_twists,
)
from .groups import (
    SUBGROUP_BOUND,
    PermGroup,
    characteristic_subgroups,
    check_lattice,
    check_size,
    check_table,
    is_c_group,
    is_cyclic,
    is_normal,
    is_solvable,
    is_almost_sylow_cyclic,
    subgroups_of_order,
    unique_odd_part,
)
from .realize import _check_tables, realizable_via_cocycles, transport_characteristic

AUDIT_ORDERS = (6, 10, 14, 22, 26, 30, 34, 38, 46, 58, 62)

SCOPE_NOTE = "pass means the implication held on every listed instance"


class AuditInstance(Record):
    subject: str
    hypothesis_held: bool
    conclusion_held: "bool | None"
    witness: str = ""
    note: str = ""

    def to_dict(self):
        return self._asdict()


class AuditReport(Record):
    theorem_id: str
    order: int
    domain: str
    instances: tuple
    verdict: str  # pass | fail | vacuous | unsupported
    flags: tuple = ()

    def to_dict(self):
        # the fields in field order, each instance as its own dict
        instances = tuple(i.to_dict() for i in self.instances)
        return {**self._asdict(), "instances": instances, "scope_note": SCOPE_NOTE}


def _verdict(instances) -> str:
    if any(i.hypothesis_held and i.conclusion_held is False for i in instances):
        return "fail"
    if not any(i.hypothesis_held for i in instances):
        return "vacuous"
    return "pass"


def _report(theorem_id, order, domain, instances, flags=()) -> AuditReport:
    """The one report builder: collects ``instances`` and computes the verdict."""
    instances = tuple(instances)
    return AuditReport(theorem_id, order, domain, instances, _verdict(instances), flags)


def _unsupported(theorem_id, order, flags=()) -> AuditReport:
    return AuditReport(
        theorem_id, order, f"order {order}", (), "unsupported",
        flags + (f"no complete catalog at order {order}",),
    )


@functools.cache
def cached_realizable(G: PermGroup, N: PermGroup):
    """Witness or None, shared across audits for each (G, N) pair of group
    objects."""
    return realizable_via_cocycles(G, N)


def _realizability_audit(theorem_id, order, domain, rows, conclude, flags=()):
    """Audit "if (G, N) is realizable then the conclusion holds".

    ``rows`` yields (subject, G, N); ``conclude(G, N)`` returns
    (held, witness text) or (held, witness text, note) and runs only
    where the hypothesis holds.
    """

    def instance(subject, G, N):
        if cached_realizable(G, N) is None:
            return AuditInstance(subject, False, None)
        return AuditInstance(subject, True, *conclude(G, N))

    return _report(theorem_id, order, domain, (instance(*row) for row in rows), flags)


def _odd_part_shape(name, H):
    """The t001/t003 conclusion on H: (held, "name odd part = SD(k,l;t)")."""
    shape = shape_check_semidirect_z2(H)
    if shape is None:
        return False, ""
    return True, f"{name} odd part = SD({shape.k},{shape.l};{shape.t})"


def _require_twice_odd(order: int):
    if order < 2 or order % 2 or (order // 2) % 2 == 0:
        raise PreconditionError(f"order {order} is not twice an odd number")


def _require_odd_squarefree(order: int):
    if order % 2 == 0:
        raise PreconditionError(f"odd order required, got {order}")
    check_size(order, order)
    if not is_squarefree(order):
        raise PreconditionError(f"odd squarefree order required, got {order}")
    # p003 and p004 run the cocycle engine on C_order, which needs a table:
    # refuse before the catalog is built
    check_table(order)


def _refuse_on_order(order, check):
    """Raise, before the catalog is built, the error its first row would
    end in: ``check`` is the bound that row meets.  Only a squarefree
    order has a catalog, and ``catalog`` checks its size first; any other
    order must reach ``catalog`` for its own outcome."""
    if is_squarefree(order):
        check_size(order, order)
        check(order)


def _refuse_on_aut(groups):
    """Raise, before the first row, the TABLE_LIMIT error the rows would
    end in: ``groups`` yields the rows' N in row order, every row runs the
    cocycle engine on its N, and no row stops the audit early, so the
    first N past the bound decides.  Each N is checked as the engine
    checks it, so the Aut(N) chains built here are the rows' own, and a
    repeated N reads its chain again."""
    for N in groups:
        _check_tables(N)


def _catalog_or_none(order):
    # No size check comes first: above the bound, an order that is not
    # squarefree still gets its "unsupported" report, which needs the
    # factorization.
    try:
        return catalog(order)
    except UnsupportedOrderError:
        return None


def _cyclic_class(order):
    """The catalog's own cyclic group of this order, so its tables and
    Aut group are the ones every other audit row already uses."""
    return next(e.group for e in catalog(order) if is_cyclic(e.group))


def audit_p001(max_2n: int) -> AuditReport:
    """Unconditional: every group of order 2n (n odd) has exactly one
    subgroup of order n, equal to the sign-of-translation kernel.

    Quantifies over the default audit orders up to ``max_2n``.
    """
    _require_twice_odd(max_2n)
    orders = [o for o in AUDIT_ORDERS if o <= max_2n]

    def instance(order, entry):
        n = order // 2
        G = entry.group
        H = unique_odd_part(G)
        count = len(subgroups_of_order(G, n))
        return AuditInstance(
            f"{entry.spec.text()} (order {order})",
            True,
            len(H) == n and count == 1,
            witness=f"order-{n} subgroups: {count}; sign kernel order {len(H)}",
        )

    instances = (instance(order, e) for order in orders for e in catalog(order))
    return _report("p001", max_2n, f"all catalog groups of orders {orders}", instances)


def audit_c001(order: int) -> AuditReport:
    """Groups with cyclic Sylow-2: unique subgroup of order 2^l * n_odd
    for every l up to the full 2-part.  Audited at twice-odd orders and
    the order-12 exception; a documented scope limitation."""
    if order > SUBGROUP_BOUND:
        # at a squarefree order every class has a cyclic Sylow-2, so the
        # first one walks the lattice
        _refuse_on_order(order, check_lattice)
    entries = _catalog_or_none(order)
    if entries is None:
        return _unsupported("c001", order)
    n_odd = order
    k = 0
    while n_odd % 2 == 0:
        n_odd //= 2
        k += 1

    def instance(entry):
        G = entry.group
        # The Sylow 2-subgroups are conjugate, so they are cyclic iff
        # some element has order 2^k (the identity, when k = 0).
        if not any(G.order_of(i) == 2**k for i in range(len(G))):
            return AuditInstance(entry.spec.text(), False, None, note="Sylow-2 not cyclic")
        counts = {t: len(subgroups_of_order(G, t)) for t in (2**l * n_odd for l in range(k + 1))}
        return AuditInstance(
            entry.spec.text(),
            True,
            all(c == 1 for c in counts.values()),
            witness="; ".join(f"order {t}: {c}" for t, c in counts.items()),
        )

    flags = ("audited only at twice-odd orders and the order-12 exception",)
    return _report("c001", order, f"catalog groups of order {order}", map(instance, entries), flags)


def audit_t001(n: int) -> AuditReport:
    """If (Z_n x| Z_2 twist, N) is realizable then N splits as
    (Z_k x| Z_l) x| Z_2 over its odd part."""
    _require_twice_odd(2 * n)
    # a group of order 2n has 2n points: the bound comes before the n-long
    # twist scan and the factorization in catalog
    check_size(2 * n, 2 * n)
    # every row runs the cocycle engine, which needs a table
    _refuse_on_order(2 * n, check_table)
    entries = catalog(2 * n)
    _refuse_on_aut(entry.group for entry in entries)
    rows = (
        (f"(SDZ2({n};{s}), {entry.spec.text()})", build(SemidirectZ2(n, s)), entry.group)
        for s in z2_twists(n)
        for entry in entries
    )
    domain = f"twists {z2_twists(n)} x catalog({2 * n})"
    return _realizability_audit(
        "t001", 2 * n, domain, rows, lambda G, N: _odd_part_shape("N", N)
    )


def audit_t003(n: int) -> AuditReport:
    """Mirror of t001: realizable partners G of Z_n x| Z_2 split the same
    way.  The stated conclusion's trailing factor is read as Z_2."""
    _require_twice_odd(2 * n)
    check_size(2 * n, 2 * n)
    _refuse_on_order(2 * n, check_table)
    entries = catalog(2 * n)
    _refuse_on_aut(build(SemidirectZ2(n, s)) for s in z2_twists(n))
    rows = (
        (f"({entry.spec.text()}, SDZ2({n};{s}))", entry.group, build(SemidirectZ2(n, s)))
        for entry in entries
        for s in z2_twists(n)
    )
    flags = ("conclusion audited as (Z_k x| Z_l) x| Z_2; the stated trailing Z_l is read as a typo for Z_2",)
    domain = f"catalog({2 * n}) x twists {z2_twists(n)}"
    return _realizability_audit(
        "t003", 2 * n, domain, rows, lambda G, N: _odd_part_shape("G", G), flags
    )


def audit_t004(n: int) -> AuditReport:
    """With radical(n) a Burnside number: among realizable pairs, G lies
    in the Z_n x| Z_2 family iff N does."""
    _require_twice_odd(2 * n)
    if not is_burnside_number(radical(n)):
        return AuditReport(
            "t004",
            2 * n,
            f"all catalog pairs of order {2 * n}",
            (),
            "vacuous",
            (
                f"hypothesis fails: radical({n}) = {radical(n)} is not a "
                "Burnside number (gcd with its totient exceeds 1)",
            ),
        )
    # the first pair runs the cocycle engine, which needs a table
    _refuse_on_order(2 * n, check_table)
    entries = catalog(2 * n)
    _refuse_on_aut(e.group for e in entries)
    family = {class_index(build(SemidirectZ2(n, s)), entries) for s in z2_twists(n)}

    def instance(gi, ni):
        ge, ne = entries[gi], entries[ni]
        hyp = cached_realizable(ge.group, ne.group) is not None
        return AuditInstance(
            f"({ge.spec.text()}, {ne.spec.text()})",
            hyp,
            ((gi in family) == (ni in family)) if hyp else None,
            witness=f"G in family: {gi in family}; N in family: {ni in family}",
        )

    pairs = range(len(entries))
    domain = f"catalog({2 * n}) x catalog({2 * n}), family = Z_{n} x| Z_2 twists"
    return _report("t004", 2 * n, domain, (instance(g, m) for g in pairs for m in pairs))


def audit_r002(n: int) -> AuditReport:
    """Positive existence: (D_2n, Z_n x| Z_2 twist) is realizable for every
    twist, with the cocycle law verified on all pairs."""
    _require_twice_odd(2 * n)
    G = build(Dihedral(2 * n))
    _refuse_on_aut(build(SemidirectZ2(n, s)) for s in z2_twists(n))

    def instance(s):
        witness = cached_realizable(G, build(SemidirectZ2(n, s)))
        ok = witness is not None and witness.verify_law()
        return AuditInstance(
            f"(D{2 * n}, SDZ2({n};{s}))",
            True,
            ok,
            witness="cocycle witness verified on all pairs" if ok else "no witness",
        )

    return _report("r002", 2 * n, f"twists {z2_twists(n)}", map(instance, z2_twists(n)))


def audit_p005(n: int) -> AuditReport:
    """Realizable partners of a dihedral group are solvable."""
    _require_twice_odd(2 * n)
    N = build(Dihedral(2 * n))
    _refuse_on_order(2 * n, check_table)
    entries = catalog(2 * n)
    _refuse_on_aut([N])
    rows = ((f"({e.spec.text()}, D{2 * n})", e.group, N) for e in entries)
    return _realizability_audit(
        "p005", 2 * n, f"catalog({2 * n}) against D{2 * n}", rows,
        lambda G, N: (is_solvable(G), ""),
    )


def audit_p003(order: int) -> AuditReport:
    """If (Z_m, N) is realizable for odd m then N is a C-group."""
    _require_odd_squarefree(order)
    entries = catalog(order)
    Z = _cyclic_class(order)
    note = ""
    if all(is_c_group(e.group) for e in entries):
        note = "conclusion cannot fail at this order: every class is a C-group"
    rows = ((f"(C{order}, {e.spec.text()})", Z, e.group) for e in entries)
    return _realizability_audit(
        "p003", order, f"catalog({order}) against C{order}", rows,
        lambda G, N: (is_c_group(N), "", note),
    )


def audit_p004(order: int) -> AuditReport:
    """If (G, Z_m) is realizable then G is solvable and almost Sylow-cyclic."""
    _require_odd_squarefree(order)
    Z = _cyclic_class(order)
    rows = ((f"({e.spec.text()}, C{order})", e.group, Z) for e in catalog(order))
    return _realizability_audit(
        "p004", order, f"catalog({order}) against C{order}", rows,
        lambda G, N: (is_solvable(G) and is_almost_sylow_cyclic(G), ""),
    )


def audit_t002(n: int) -> AuditReport:
    """Transport: a witness for (G, N) pulls every characteristic subgroup
    M of N back to a subgroup H of G with (H, M) realizable."""
    _require_twice_odd(2 * n)
    check_size(2 * n, 2 * n)
    _refuse_on_order(2 * n, check_table)
    entries = catalog(2 * n)
    if 2 * n > SUBGROUP_BOUND:
        # the first row pairs the first class with itself, which is
        # realizable, and would walk that class's lattice past the bound
        # after the engine runs: refuse as it would, before it runs
        _check_tables(entries[0].group)
        check_lattice(2 * n)
    _refuse_on_aut(e.group for e in entries)

    def instances(ge, ne):
        witness = cached_realizable(ge.group, ne.group)
        pair = f"({ge.spec.text()}, {ne.spec.text()})"
        if witness is None:
            yield AuditInstance(pair, False, None)
            return
        for M in characteristic_subgroups(ne.group, automorphism_group(ne.group)):
            subject = f"{pair}, |M| = {len(M)}"
            try:
                H, _ = transport_characteristic(witness, M)
            except CountingBugError as exc:
                yield AuditInstance(subject, True, False, note=str(exc))
            else:
                yield AuditInstance(
                    subject, True, True, witness=f"H of order {len(H)} realizable with M"
                )

    domain = f"realizable catalog pairs of order {2 * n} x characteristic subgroups"
    return _report(
        "t002", 2 * n, domain, (i for ge in entries for ne in entries for i in instances(ge, ne))
    )


def audit_ses_final(n: int) -> AuditReport:
    """For n = 2 mod 4: a realizable partner G of D_2n has a normal
    index-2 subgroup that is a coprime cyclic semidirect product.

    The subgroup has order n, so the coprime factorization is audited
    with kl = n (the stated kl = 2n does not fit an index-2 subgroup).
    """
    if n % 4 != 2:
        raise PreconditionError(f"n must be 2 mod 4, got {n}")
    flags = (
        "coprime product audited with kl = n; the stated kl = 2n cannot "
        "match an index-2 subgroup's order",
    )
    entries = _catalog_or_none(2 * n)
    if entries is None:
        return _unsupported("ses_final", 2 * n, flags)
    N = build(Dihedral(2 * n))
    _refuse_on_aut([N])
    rows = ((f"({e.spec.text()}, D{2 * n})", e.group, N) for e in entries)

    def conclude(G, N):
        kernels = [
            K for K in subgroups_of_order(G, n) if is_normal(G, K) and is_c_group(K)
        ]
        return bool(kernels), f"normal order-{n} coprime-metacyclic subgroups: {len(kernels)}"

    return _realizability_audit(
        "ses_final", 2 * n, f"catalog({2 * n}) against D{2 * n}", rows, conclude, flags
    )


AUDITS = {
    "p001": audit_p001,
    "c001": audit_c001,
    "t001": audit_t001,
    "t002": audit_t002,
    "t003": audit_t003,
    "t004": audit_t004,
    "p005": audit_p005,
    "ses_final": audit_ses_final,
    "r002": audit_r002,
    "p003": audit_p003,
    "p004": audit_p004,
}

THEOREM_IDS = tuple(AUDITS)


def run_audit(theorem_id: str, n: int) -> AuditReport:
    """Dispatch by theorem id; ``n`` is read per audit (README's audit table)."""
    if theorem_id not in AUDITS:
        raise PreconditionError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(sorted(AUDITS))}"
        )
    fn = AUDITS[theorem_id]
    if theorem_id == "p001":
        return fn(2 * n)
    return fn(n)
