"""Executable audits: quantify each classification statement over the
catalog, run the realizability engine, and check the asserted conclusion.

The nine audits that run the cocycle engine are rows of one runner,
``_pairs_audit``: each row pairs a G of one side with an N of the other,
and every N is checked against TABLE_LIMIT before the first row.

A pass means the implication held on every listed instance; it is
evidence at the audited orders, not a proof.  Reports carry their full
quantification domain so every verdict is reproducible, and bound
violations appear as explicit skipped instances rather than omissions.
"""

from __future__ import annotations

from .counting import _require_odd, is_burnside_number, radical
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
    derived,
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


@derived
def cached_realizable(G: PermGroup, N: PermGroup):
    """Witness or None, shared across audits for each (G, N) pair of group
    objects, and kept in G's memo."""
    return realizable_via_cocycles(G, N)


def _pairs_audit(theorem_id, order, domain, gs, ns, judge, flags=()):
    """The one runner of the engine audits: a row per (G, N) in ``gs`` x
    ``ns``, G outer, subject "(G text, N text)".

    Both sides yield (text, group) and are read once: ``gs`` as the rows
    reach it, ``ns`` before the first row.  Every row runs the cocycle
    engine on its N and no row stops the audit early, so every N is
    checked as the engine checks it as soon as it is read, before the
    first row: the first N past TABLE_LIMIT raises the error its row
    would, before a later N is built.  The checks read the rows' own
    group objects, so a passing audit builds no extra Aut(N) chain.
    ``judge(subject, G, N, witness)`` yields the row's instances, where
    ``witness`` is ``cached_realizable(G, N)``.
    """
    checked = []
    for text, N in ns:
        _check_tables(N)
        checked.append((text, N))
    instances = (
        instance
        for g_text, G in gs
        for n_text, N in checked
        for instance in judge(f"({g_text}, {n_text})", G, N, cached_realizable(G, N))
    )
    return _report(theorem_id, order, domain, instances, flags)


def _if_realizable(conclude):
    """The judge of "if (G, N) is realizable then the conclusion holds":
    ``conclude(G, N)`` returns (held, witness text) or (held, witness
    text, note) and runs only where the hypothesis holds."""

    def judge(subject, G, N, witness):
        if witness is None:
            yield AuditInstance(subject, False, None)
        else:
            yield AuditInstance(subject, True, *conclude(G, N))

    return judge


def _odd_part_shape(name, H):
    """The t001/t003 conclusion on H: (held, "name odd part = SD(k,l;t)")."""
    shape = shape_check_semidirect_z2(H)
    if shape is None:
        return False, ""
    return True, f"{name} odd part = SD({shape.k},{shape.l};{shape.t})"


def _refuse_on_order(order, check):
    """Raise, before the catalog is built, the error its first row would
    end in: ``check`` is the bound that row meets.  Only a squarefree
    order has a catalog, and ``catalog`` checks its size first; any other
    order must reach ``catalog`` for its own outcome."""
    if is_squarefree(order):
        check_size(order, order)
        check(order)


def _classes(order):
    """(text, group) for each catalog class of ``order``; every row of an
    engine audit runs the engine, which needs a table, so the order meets
    that bound before the catalog is built."""
    _refuse_on_order(order, check_table)
    return [(e.spec.text(), e.group) for e in catalog(order)]


def _twist_groups(n):
    """(text, group) for each Z_n x| Z_2 twist, each built as it is read."""
    return ((f"SDZ2({n};{s})", build(SemidirectZ2(n, s))) for s in z2_twists(n))


def _dihedral(n):
    return [(f"D{2 * n}", build(Dihedral(2 * n)))]


def _odd_squarefree_sides(order):
    """The classes of an odd squarefree order and its cyclic class, the
    sides of p003 and p004."""
    _require_odd(order)
    check_size(order, order)
    if not is_squarefree(order):
        raise PreconditionError(f"odd squarefree order required, got {order}")
    classes = _classes(order)
    return classes, [c for c in classes if is_cyclic(c[1])]


def _catalog_or_none(order):
    # No size check comes first: above the bound, an order that is not
    # squarefree still gets its "unsupported" report, which needs the
    # factorization.
    try:
        return catalog(order)
    except UnsupportedOrderError:
        return None


def audit_p001(n: int) -> AuditReport:
    """Unconditional: every group of order 2m (m odd) has exactly one
    subgroup of order m, equal to the sign-of-translation kernel.

    Quantifies over the default audit orders up to 2n.
    """
    _require_odd(n)
    orders = [o for o in AUDIT_ORDERS if o <= 2 * n]

    def instance(order, entry):
        m = order // 2
        G = entry.group
        H = unique_odd_part(G)
        count = len(subgroups_of_order(G, m))
        return AuditInstance(
            f"{entry.spec.text()} (order {order})",
            True,
            len(H) == m and count == 1,
            witness=f"order-{m} subgroups: {count}; sign kernel order {len(H)}",
        )

    instances = (instance(order, e) for order in orders for e in catalog(order))
    return _report("p001", 2 * n, f"all catalog groups of orders {orders}", instances)


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
    _require_odd(n)
    # a group of order 2n has 2n points: the bound comes before the n-long
    # twist scan and the factorization in catalog
    check_size(2 * n, 2 * n)
    domain = f"twists {z2_twists(n)} x catalog({2 * n})"
    judge = _if_realizable(lambda G, N: _odd_part_shape("N", N))
    return _pairs_audit("t001", 2 * n, domain, _twist_groups(n), _classes(2 * n), judge)


def audit_t003(n: int) -> AuditReport:
    """Mirror of t001: realizable partners G of Z_n x| Z_2 split the same
    way.  The stated conclusion's trailing factor is read as Z_2."""
    _require_odd(n)
    check_size(2 * n, 2 * n)
    flags = ("conclusion audited as (Z_k x| Z_l) x| Z_2; the stated trailing Z_l is read as a typo for Z_2",)
    domain = f"catalog({2 * n}) x twists {z2_twists(n)}"
    judge = _if_realizable(lambda G, N: _odd_part_shape("G", G))
    return _pairs_audit("t003", 2 * n, domain, _classes(2 * n), _twist_groups(n), judge, flags)


def audit_t004(n: int) -> AuditReport:
    """With radical(n) a Burnside number: among realizable pairs, G lies
    in the Z_n x| Z_2 family iff N does."""
    _require_odd(n)
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
    # one catalog read gives the rows and the family, so membership is
    # decided on the rows' own group objects
    _refuse_on_order(2 * n, check_table)
    entries = catalog(2 * n)
    family = {entries[class_index(G, entries)].group for _, G in _twist_groups(n)}
    classes = [(e.spec.text(), e.group) for e in entries]

    def judge(subject, G, N, witness):
        hyp = witness is not None
        yield AuditInstance(
            subject,
            hyp,
            ((G in family) == (N in family)) if hyp else None,
            witness=f"G in family: {G in family}; N in family: {N in family}",
        )

    domain = f"catalog({2 * n}) x catalog({2 * n}), family = Z_{n} x| Z_2 twists"
    return _pairs_audit("t004", 2 * n, domain, classes, classes, judge)


def audit_r002(n: int) -> AuditReport:
    """Positive existence: (D_2n, Z_n x| Z_2 twist) is realizable for every
    twist, with the cocycle law verified on all pairs."""
    _require_odd(n)
    # built first, so its size check comes before the n-long twist scan
    dihedral = _dihedral(n)

    def judge(subject, G, N, witness):
        ok = witness is not None and witness.verify_law()
        text = "cocycle witness verified on all pairs" if ok else "no witness"
        yield AuditInstance(subject, True, ok, witness=text)

    domain = f"twists {z2_twists(n)}"
    return _pairs_audit("r002", 2 * n, domain, dihedral, _twist_groups(n), judge)


def audit_p005(n: int) -> AuditReport:
    """Realizable partners of a dihedral group are solvable."""
    _require_odd(n)
    # built first, so its size check comes before the catalog's factorization
    dihedral = _dihedral(n)
    judge = _if_realizable(lambda G, N: (is_solvable(G), ""))
    domain = f"catalog({2 * n}) against D{2 * n}"
    return _pairs_audit("p005", 2 * n, domain, _classes(2 * n), dihedral, judge)


def audit_p003(order: int) -> AuditReport:
    """If (Z_m, N) is realizable for odd m then N is a C-group."""
    classes, cyclic = _odd_squarefree_sides(order)
    note = ""
    if all(is_c_group(N) for _, N in classes):
        note = "conclusion cannot fail at this order: every class is a C-group"
    judge = _if_realizable(lambda G, N: (is_c_group(N), "", note))
    return _pairs_audit("p003", order, f"catalog({order}) against C{order}", cyclic, classes, judge)


def audit_p004(order: int) -> AuditReport:
    """If (G, Z_m) is realizable then G is solvable and almost Sylow-cyclic."""
    classes, cyclic = _odd_squarefree_sides(order)
    judge = _if_realizable(lambda G, N: (is_solvable(G) and is_almost_sylow_cyclic(G), ""))
    return _pairs_audit("p004", order, f"catalog({order}) against C{order}", classes, cyclic, judge)


def audit_t002(n: int) -> AuditReport:
    """Transport: a witness for (G, N) pulls every characteristic subgroup
    M of N back to a subgroup H of G with (H, M) realizable."""
    _require_odd(n)
    check_size(2 * n, 2 * n)
    classes = _classes(2 * n)

    def judge(pair, G, N, witness):
        if witness is None:
            yield AuditInstance(pair, False, None)
            return
        for M in characteristic_subgroups(N, automorphism_group(N)):
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
    return _pairs_audit("t002", 2 * n, domain, classes, classes, judge)


def audit_ses_final(n: int) -> AuditReport:
    """For n = 2 mod 4: a realizable partner G of D_2n has a normal
    index-2 subgroup that is a coprime cyclic semidirect product.

    The subgroup has order n, so the coprime factorization is audited
    with kl = n (the stated kl = 2n does not fit an index-2 subgroup).
    """
    if n % 4 != 2:
        raise PreconditionError(f"n must be 2 mod 4, got {n}")
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    flags = (
        "coprime product audited with kl = n; the stated kl = 2n cannot "
        "match an index-2 subgroup's order",
    )
    entries = _catalog_or_none(2 * n)
    if entries is None:
        return _unsupported("ses_final", 2 * n, flags)
    classes = [(e.spec.text(), e.group) for e in entries]

    def conclude(G, N):
        kernels = [
            K for K in subgroups_of_order(G, n) if is_normal(G, K) and is_c_group(K)
        ]
        return bool(kernels), f"normal order-{n} coprime-metacyclic subgroups: {len(kernels)}"

    domain = f"catalog({2 * n}) against D{2 * n}"
    return _pairs_audit("ses_final", 2 * n, domain, classes, _dihedral(n), _if_realizable(conclude), flags)


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
    return AUDITS[theorem_id](n)
