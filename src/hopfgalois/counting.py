"""Number-theoretic predicates and the dihedral structure-count formula.

Everything here is exact integer arithmetic; no floating point.  The
formula count e(D_2n) = sum over m of 2^m * chi(n - m), with chi(w) the
x^w coefficient of the product of (x + p^a) over the prime powers in n,
is summed once over chi's nonzero terms, as chi(w) * 2^(n - w), and
cross-checked against an independent exhaustive count at desk scale.
"""

from __future__ import annotations

import itertools
import sys
import time
from math import gcd, inf

from . import perm
from .errors import (
    BoundExceededError,
    BudgetExceededError,
    CountingBugError,
    PreconditionError,
    Record,
)
from .factory import Dihedral, automorphism_order, build, catalog, class_index
from .groups import PermGroup, factorize, left_translation
from .realize import regular_subgroups, search_holomorph


def euler_phi(n: int) -> int:
    out = 1
    for p, a in factorize(n).pairs:
        out *= p ** (a - 1) * (p - 1)
    return out


def radical(n: int) -> int:
    out = 1
    for p, _ in factorize(n).pairs:
        out *= p
    return out


def is_burnside_number(m: int) -> bool:
    """True iff gcd(m, phi(m)) = 1, forcing every group of order m cyclic."""
    if m < 1:
        raise PreconditionError(f"not a positive integer: {m}")
    return gcd(m, euler_phi(m)) == 1


def _require_odd(n):
    """Refuse an n, as the user typed it, unless it is odd and positive."""
    if n < 1 or n % 2 != 1:
        raise PreconditionError(f"n must be odd and positive, got {n}")


def chi(n: int) -> dict:
    """Coefficients of the product of (x + p^a) over the prime powers in n.

    Returned as {exponent: coefficient}; for n = 1 the empty product gives
    {0: 1}.
    """
    _require_odd(n)
    coeffs = [1]
    for p, a in factorize(n).pairs:
        q = p**a
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * q
            nxt[i + 1] += c
        coeffs = nxt
    return {w: c for w, c in enumerate(coeffs) if c}


class CountReport(Record):
    n: int
    chi_coefficients: dict
    e_formula: int
    e_direct: "int | None"
    direct_method: "str | None"
    agreement: str  # match | mismatch | direct-not-run
    warnings: tuple = ()

    def to_dict(self):
        return {
            "n": self.n,
            "chi": {str(w): c for w, c in sorted(self.chi_coefficients.items())},
            "e_formula": self.e_formula,
            "e_direct": self.e_direct,
            "direct_method": self.direct_method,
            "agreement": self.agreement,
            "warnings": list(self.warnings),
        }


def formula_count_dihedral(n: int) -> int:
    """The stated sum, as chi(w) * 2^(n - w) over chi's nonzero terms."""
    return sum(c << (n - w) for w, c in chi(n).items())


def count_hgs_dihedral(n: int, with_direct=False, budget_seconds=None) -> CountReport:
    """Structure count for a dihedral group of order 2n, n odd.

    ``with_direct`` also runs the exhaustive normalized-regular-subgroup
    count and records agreement; a formula/direct mismatch is reported as
    a finding, never raised.  An e_formula too long for Python to print
    (``sys.get_int_max_str_digits``) raises BoundExceededError first.
    """
    _require_odd(n)
    # e_formula, the sum of chi(w) * 2^(n - w), is at least 2^n, so past
    # 10^digits once n >= 4 * digits; below that, it is summed and compared
    digits = sys.get_int_max_str_digits()  # 0: no limit
    too_long = f"e_formula for n = {n} has more than {digits} digits"
    if digits and n >= 4 * digits:
        raise BoundExceededError(too_long)
    e_formula = formula_count_dihedral(n)
    if digits and e_formula >= 10**digits:
        raise BoundExceededError(too_long)
    warnings = []
    if not is_burnside_number(radical(n)):
        warnings.append(
            f"radical({n}) = {radical(n)} is not a Burnside number; "
            "the formula's hypothesis fails at this n"
        )
    if n == 1:
        warnings.append(
            "n = 1 uses the empty-product convention chi = {0: 1}; "
            "the value is convention-dependent"
        )
    table = chi(n)
    e_direct = None
    method = None
    agreement = "direct-not-run"
    if with_direct:
        G = build(Dihedral(2 * n))
        try:
            e_direct = direct_normalized_count(G, budget_seconds=budget_seconds)
            method = "normalized-regular-search"
            agreement = "match" if e_direct == e_formula else "mismatch"
        except (BudgetExceededError, PreconditionError) as exc:
            method = f"not-run: {exc}"
    return CountReport(
        n, table, e_formula, e_direct, method, agreement, tuple(warnings)
    )


def _semiregular_symmetric(m: int, check_budget):
    """(p, order of p) for every non-identity semiregular p in Sym(m)."""
    out = []
    for i, p in enumerate(itertools.permutations(range(m))):
        if i % 4096 == 0:
            check_budget()
        k = perm.semiregular_order(p)
        if k > 1:
            out.append((p, k))
    return out


def direct_normalized_count(G: PermGroup, budget_seconds=None) -> int:
    """Regular subgroups of Sym(G's carrier) normalized by left translation.

    Exhaustive generator-pair closure over semiregular permutations with
    set-level deduplication; this count equals the number of Hopf-Galois
    structures on a Galois extension with group G.  Orders above 6 need an
    explicit time budget and fail with BudgetExceededError when it runs
    out (reported, never returned as a count).  A budget must be a finite
    number of seconds >= 0; NaN would make the deadline unreachable.
    """
    m = len(G)
    if m > 6 and budget_seconds is None:
        raise PreconditionError(
            f"order {m} > 6 needs an explicit budget_seconds"
        )
    if budget_seconds is not None and not 0 <= budget_seconds < inf:
        raise PreconditionError(
            f"budget_seconds must be finite and >= 0, got {budget_seconds}"
        )
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    lam_gens = [
        left_translation(G, G.index_of(g)) for g in G.minimal_generating_set()
    ]
    lam_gen_invs = [perm.inverse(t) for t in lam_gens]
    ident = perm.identity(m)
    if m == 1:
        return 1

    def check_budget():
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError(
                f"direct count for order {m} ran past its budget"
            )

    orders = dict(_semiregular_symmetric(m, check_budget))
    semis = sorted(orders, key=lambda p: (-orders[p], p))
    pool = set(semis)
    pool.add(ident)
    times = {p: perm.composer(p) for p in semis}  # x -> x * p, as in groups.closure

    def close_pair(steps):
        elems = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for step in steps:
                    y = step(x)
                    if y not in elems:
                        if y not in pool or len(elems) >= m:
                            return None
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(elems) if len(elems) == m else None

    found = set()
    for a in semis:
        if orders[a] == m:
            S = close_pair((times[a],))
            if S is not None:
                found.add(S)
    for i, a in enumerate(semis):
        check_budget()
        oa = orders[a]
        for b in semis[i + 1 :]:
            if oa * orders[b] < m:
                continue
            S = close_pair((times[a], times[b]))
            if S is not None:
                found.add(S)
    count = 0
    for S in found:
        if len({p[0] for p in S}) != m:
            continue
        if _normalized_by(S, lam_gens, lam_gen_invs):
            count += 1
    return count


def _normalized_by(S, gens, gen_invs):
    for t, ti in zip(gens, gen_invs):
        right = perm.composer(ti)  # t r ti is t read at the entries of r ti
        for r in S:
            if tuple(map(t.__getitem__, right(r))) not in S:
                return False
    return True


def byott_aggregate(G: PermGroup) -> int:
    """Structure count assembled from holomorph-side regular subgroups.

    Sums |Aut(G)| / |Aut(N)| times the number of regular subgroups of
    Hol(N) isomorphic to G over the catalog classes N of G's order; each
    term must divide exactly (a non-integer term signals a counting bug).
    """
    entries = catalog(len(G))
    aut_g = automorphism_order(G)
    target = class_index(G, entries)
    total = 0
    for entry in entries:
        hol = search_holomorph(entry.group)
        records = regular_subgroups(hol)
        cnt = sum(1 for r in records if r.iso_index == target)
        num = aut_g * cnt
        aut_n = len(hol.aut)
        if num % aut_n:
            raise CountingBugError(
                f"non-integer term {aut_g}*{cnt}/{aut_n} for N = {entry.spec.text()}"
            )
        total += num // aut_n
    return total
