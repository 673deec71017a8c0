"""Executable audits: quantify each classification statement over the
catalog, run the realizability engine, and check the asserted conclusion.

A pass means the implication held on every listed instance; it is
evidence at the audited orders, not a proof.  Reports carry their full
quantification domain so every verdict is reproducible, and bound
violations appear as explicit skipped instances rather than omissions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .counting import is_burnside_number, radical
from .errors import CountingBugError, PreconditionError, UnsupportedOrderError
from .factory import (
    Cyclic,
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
    PermGroup,
    all_subgroups,
    characteristic_subgroups,
    is_c_group,
    is_cyclic,
    is_normal,
    is_solvable,
    is_almost_sylow_cyclic,
    sylow_subgroup,
    unique_odd_part,
)
from .realize import realizable_via_cocycles, transport_characteristic

AUDIT_ORDERS = (6, 10, 14, 22, 26, 30, 34, 38, 46, 58, 62)

THEOREM_IDS = (
    "p001",
    "c001",
    "t001",
    "t002",
    "t003",
    "t004",
    "p005",
    "ses_final",
    "r002",
    "p003",
    "p004",
)

SCOPE_NOTE = "pass means the implication held on every listed instance"


@dataclass(frozen=True)
class AuditInstance:
    subject: str
    hypothesis_held: bool
    conclusion_held: "bool | None"
    witness: str = ""
    note: str = ""

    def to_dict(self):
        return {
            "subject": self.subject,
            "hypothesis_held": self.hypothesis_held,
            "conclusion_held": self.conclusion_held,
            "witness": self.witness,
            "note": self.note,
        }


@dataclass(frozen=True)
class AuditReport:
    theorem_id: str
    order: int
    domain: str
    instances: tuple
    verdict: str  # pass | fail | vacuous | unsupported
    flags: tuple = field(default=())

    def to_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "order": self.order,
            "domain": self.domain,
            "instances": [i.to_dict() for i in self.instances],
            "verdict": self.verdict,
            "flags": list(self.flags),
            "scope_note": SCOPE_NOTE,
        }


def _verdict(instances) -> str:
    if any(i.hypothesis_held and i.conclusion_held is False for i in instances):
        return "fail"
    if not any(i.hypothesis_held for i in instances):
        return "vacuous"
    return "pass"


@functools.cache
def cached_realizable(G: PermGroup, N: PermGroup):
    """Witness or None, shared across audits for each (G, N) pair of group
    objects."""
    return realizable_via_cocycles(G, N)


def _realizability_audit(theorem_id, order, domain, rows, conclude, flags=()):
    """Audit "if (G, N) is realizable then the conclusion holds".

    ``rows`` yields (subject, G, N); ``conclude(G, N)`` returns
    (held, witness text) and runs only where the hypothesis holds.
    """
    instances = []
    for subject, G, N in rows:
        if cached_realizable(G, N) is None:
            instances.append(AuditInstance(subject, False, None))
        else:
            held, text = conclude(G, N)
            instances.append(AuditInstance(subject, True, held, witness=text))
    return AuditReport(theorem_id, order, domain, tuple(instances), _verdict(instances), flags)


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
    if not is_squarefree(order):
        raise PreconditionError(f"odd squarefree order required, got {order}")


def _catalog_or_none(order):
    try:
        return catalog(order)
    except UnsupportedOrderError:
        return None


def audit_p001(max_2n: int) -> AuditReport:
    """Unconditional: every group of order 2n (n odd) has exactly one
    subgroup of order n, equal to the sign-of-translation kernel.

    Quantifies over the default audit orders up to ``max_2n``.
    """
    _require_twice_odd(max_2n)
    orders = [o for o in AUDIT_ORDERS if o <= max_2n]
    instances = []
    for order in orders:
        n = order // 2
        for entry in catalog(order):
            G = entry.group
            H = unique_odd_part(G)
            count = sum(1 for S in all_subgroups(G) if len(S) == n)
            sign_kernel_ok = len(H) == n
            instances.append(
                AuditInstance(
                    f"{entry.spec.text()} (order {order})",
                    True,
                    sign_kernel_ok and count == 1,
                    witness=f"order-{n} subgroups: {count}; sign kernel order {len(H)}",
                )
            )
    domain = f"all catalog groups of orders {orders}"
    return AuditReport("p001", max_2n, domain, tuple(instances), _verdict(instances))


def audit_c001(order: int) -> AuditReport:
    """Groups with cyclic Sylow-2: unique subgroup of order 2^l * n_odd
    for every l up to the full 2-part.  Audited at twice-odd orders and
    the order-12 exception; a documented scope limitation."""
    entries = _catalog_or_none(order)
    if entries is None:
        return AuditReport(
            "c001",
            order,
            f"order {order}",
            (),
            "unsupported",
            (f"no complete catalog at order {order}",),
        )
    n_odd = order
    k = 0
    while n_odd % 2 == 0:
        n_odd //= 2
        k += 1
    instances = []
    for entry in entries:
        G = entry.group
        hyp = k == 0 or is_cyclic(sylow_subgroup(G, 2))
        if not hyp:
            instances.append(
                AuditInstance(entry.spec.text(), False, None, note="Sylow-2 not cyclic")
            )
            continue
        counts = []
        ok = True
        for l in range(k + 1):
            target = (2**l) * n_odd
            cnt = sum(1 for S in all_subgroups(G) if len(S) == target)
            counts.append((target, cnt))
            if cnt != 1:
                ok = False
        instances.append(
            AuditInstance(
                entry.spec.text(),
                True,
                ok,
                witness="; ".join(f"order {t}: {c}" for t, c in counts),
            )
        )
    flags = ("audited only at twice-odd orders and the order-12 exception",)
    return AuditReport(
        "c001", order, f"catalog groups of order {order}", tuple(instances), _verdict(instances), flags
    )


def audit_t001(n: int) -> AuditReport:
    """If (Z_n x| Z_2 twist, N) is realizable then N splits as
    (Z_k x| Z_l) x| Z_2 over its odd part."""
    _require_twice_odd(2 * n)
    rows = (
        (f"(SDZ2({n};{s}), {entry.spec.text()})", build(SemidirectZ2(n, s)), entry.group)
        for s in z2_twists(n)
        for entry in catalog(2 * n)
    )
    domain = f"twists {z2_twists(n)} x catalog({2 * n})"
    return _realizability_audit(
        "t001", 2 * n, domain, rows, lambda G, N: _odd_part_shape("N", N)
    )


def audit_t003(n: int) -> AuditReport:
    """Mirror of t001: realizable partners G of Z_n x| Z_2 split the same
    way.  The stated conclusion's trailing factor is read as Z_2."""
    _require_twice_odd(2 * n)
    rows = (
        (f"({entry.spec.text()}, SDZ2({n};{s}))", entry.group, build(SemidirectZ2(n, s)))
        for entry in catalog(2 * n)
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
    entries = catalog(2 * n)
    family = set()
    for s in z2_twists(n):
        family.add(class_index(build(SemidirectZ2(n, s)), entries))
    instances = []
    for gi, ge in enumerate(entries):
        for ni, ne in enumerate(entries):
            witness = cached_realizable(ge.group, ne.group)
            hyp = witness is not None
            concl = None
            if hyp:
                concl = (gi in family) == (ni in family)
            instances.append(
                AuditInstance(
                    f"({ge.spec.text()}, {ne.spec.text()})",
                    hyp,
                    concl,
                    witness=f"G in family: {gi in family}; N in family: {ni in family}",
                )
            )
    domain = f"catalog({2 * n}) x catalog({2 * n}), family = Z_{n} x| Z_2 twists"
    return AuditReport("t004", 2 * n, domain, tuple(instances), _verdict(instances))


def audit_r002(n: int) -> AuditReport:
    """Positive existence: (D_2n, Z_n x| Z_2 twist) is realizable for every
    twist, with the cocycle law verified on all pairs."""
    _require_twice_odd(2 * n)
    G = build(Dihedral(2 * n))
    instances = []
    for s in z2_twists(n):
        N = build(SemidirectZ2(n, s))
        witness = cached_realizable(G, N)
        ok = witness is not None and witness.verify_law()
        instances.append(
            AuditInstance(
                f"(D{2 * n}, SDZ2({n};{s}))",
                True,
                ok,
                witness="cocycle witness verified on all pairs" if ok else "no witness",
            )
        )
    domain = f"twists {z2_twists(n)}"
    return AuditReport("r002", 2 * n, domain, tuple(instances), _verdict(instances))


def audit_p005(n: int) -> AuditReport:
    """Realizable partners of a dihedral group are solvable."""
    _require_twice_odd(2 * n)
    N = build(Dihedral(2 * n))
    rows = ((f"({e.spec.text()}, D{2 * n})", e.group, N) for e in catalog(2 * n))
    return _realizability_audit(
        "p005", 2 * n, f"catalog({2 * n}) against D{2 * n}", rows,
        lambda G, N: (is_solvable(G), ""),
    )


def audit_p003(order: int) -> AuditReport:
    """If (Z_m, N) is realizable for odd m then N is a C-group."""
    _require_odd_squarefree(order)
    Z = build(Cyclic(order))
    instances = []
    for entry in catalog(order):
        witness = cached_realizable(Z, entry.group)
        hyp = witness is not None
        concl = is_c_group(entry.group) if hyp else None
        note = ""
        if hyp and is_c_group(entry.group) and all(
            is_c_group(e.group) for e in catalog(order)
        ):
            note = "conclusion cannot fail at this order: every class is a C-group"
        instances.append(
            AuditInstance(f"(C{order}, {entry.spec.text()})", hyp, concl, note=note)
        )
    return AuditReport(
        "p003", order, f"catalog({order}) against C{order}", tuple(instances), _verdict(instances)
    )


def audit_p004(order: int) -> AuditReport:
    """If (G, Z_m) is realizable then G is solvable and almost Sylow-cyclic."""
    _require_odd_squarefree(order)
    Z = build(Cyclic(order))
    rows = ((f"({e.spec.text()}, C{order})", e.group, Z) for e in catalog(order))
    return _realizability_audit(
        "p004", order, f"catalog({order}) against C{order}", rows,
        lambda G, N: (is_solvable(G) and is_almost_sylow_cyclic(G), ""),
    )


def audit_t002(n: int) -> AuditReport:
    """Transport: a witness for (G, N) pulls every characteristic subgroup
    M of N back to a subgroup H of G with (H, M) realizable."""
    _require_twice_odd(2 * n)
    entries = catalog(2 * n)
    instances = []
    for ge in entries:
        for ne in entries:
            witness = cached_realizable(ge.group, ne.group)
            hyp = witness is not None
            pair = f"({ge.spec.text()}, {ne.spec.text()})"
            if not hyp:
                instances.append(AuditInstance(pair, False, None))
                continue
            aut = automorphism_group(ne.group)
            for M in characteristic_subgroups(ne.group, aut):
                try:
                    H, _ = transport_characteristic(witness, M)
                    instances.append(
                        AuditInstance(
                            f"{pair}, |M| = {len(M)}",
                            True,
                            True,
                            witness=f"H of order {len(H)} realizable with M",
                        )
                    )
                except CountingBugError as exc:
                    instances.append(
                        AuditInstance(f"{pair}, |M| = {len(M)}", True, False, note=str(exc))
                    )
    domain = f"realizable catalog pairs of order {2 * n} x characteristic subgroups"
    return AuditReport("t002", 2 * n, domain, tuple(instances), _verdict(instances))


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
        return AuditReport(
            "ses_final",
            2 * n,
            f"order {2 * n}",
            (),
            "unsupported",
            flags + (f"no complete catalog at order {2 * n}",),
        )
    N = build(Dihedral(2 * n))
    rows = ((f"({e.spec.text()}, D{2 * n})", e.group, N) for e in entries)

    def conclude(G, N):
        kernels = [
            K for K in all_subgroups(G) if len(K) == n and is_normal(G, K) and is_c_group(K)
        ]
        return bool(kernels), f"normal order-{n} coprime-metacyclic subgroups: {len(kernels)}"

    return _realizability_audit(
        "ses_final", 2 * n, f"catalog({2 * n}) against D{2 * n}", rows, conclude, flags
    )


AUDITS = {
    "p001": (audit_p001, "max odd n: audits every supported order 2n' <= 2n"),
    "c001": (audit_c001, "group order to audit (twice-odd or 12)"),
    "t001": (audit_t001, "odd n: twists of Z_n x| Z_2 against catalog(2n)"),
    "t002": (audit_t002, "odd n: transport over catalog pairs of order 2n"),
    "t003": (audit_t003, "odd n: catalog(2n) against twists of Z_n x| Z_2"),
    "t004": (audit_t004, "odd n: family equivalence over catalog pairs"),
    "p005": (audit_p005, "odd n: solvability of partners of D_2n"),
    "r002": (audit_r002, "odd n: existence for every twist"),
    "p003": (audit_p003, "odd squarefree order m against C_m"),
    "p004": (audit_p004, "odd squarefree order m against C_m"),
    "ses_final": (audit_ses_final, "n = 2 mod 4: index-2 kernel shape"),
}


def run_audit(theorem_id: str, n: int) -> AuditReport:
    """Dispatch by theorem id; ``n`` is interpreted per audit (see AUDITS)."""
    if theorem_id not in AUDITS:
        raise PreconditionError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(sorted(AUDITS))}"
        )
    fn = AUDITS[theorem_id][0]
    if theorem_id == "p001":
        return fn(2 * n)
    return fn(n)
