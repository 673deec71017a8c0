"""Skew braces: one carrier, two group tables, one compatibility law.

The law is a o (b + c) = (a o b) + (-a) + (a o c), with -a the additive
inverse.  A regular subgroup of Hol(N, +) induces a brace on N's carrier:
a o b = pi_a(b), where pi_a is the unique subgroup element sending the
additive identity to a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .groups import PermGroup, is_regular


@dataclass(frozen=True)
class SkewBrace:
    size: int
    add_table: tuple
    mul_table: tuple


def group_table_identity(table):
    """The two-sided identity of a finite table, or None if it has none."""
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def is_group_table(table) -> bool:
    """Latin square with identity and full associativity."""
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


def brace_from_regular(R: PermGroup, N: PermGroup) -> SkewBrace:
    """The brace induced on N's carrier by a regular subgroup of Hol(N).

    Addition is N's own table; a o b = pi_a(b) with pi_a the unique
    element of R taking the additive identity to a (well defined exactly
    because R is regular).  The result is verified before being returned.
    """
    n = len(N)
    if len(R) != n or R.degree != n or not is_regular(R):
        raise PreconditionError("R must act regularly on N's element indices")
    e = N.identity_index
    pi = [None] * n
    for p in R.elements:
        pi[p[e]] = p
    mul = tuple(pi[a] for a in range(n))
    brace = SkewBrace(n, tuple(N.table()), mul)
    if not verify_brace(brace):
        raise PreconditionError("induced tables violate the brace law")  # pragma: no cover
    return brace


def trivial_brace(N: PermGroup) -> SkewBrace:
    add = tuple(N.table())
    return SkewBrace(len(N), add, add)


def verify_brace(B: SkewBrace) -> bool:
    """Both tables groups, shared identity, law checked on all triples."""
    add, mul = B.add_table, B.mul_table
    n = B.size
    if not is_group_table(add) or not is_group_table(mul):
        return False
    e = group_table_identity(add)
    if group_table_identity(mul) != e:
        return False
    neg = [None] * n
    for a in range(n):
        for x in range(n):
            if add[a][x] == e:
                neg[a] = x
                break
    for a in range(n):
        ma = mul[a]
        na = neg[a]
        for b in range(n):
            ab = ma[b]
            row_ab = add[ab]
            for c in range(n):
                if ma[add[b][c]] != add[row_ab[na]][ma[c]]:
                    return False
    return True


def lambda_circ_in_hol(B: SkewBrace) -> bool:
    """True iff every row x -> a o x lies in Hol of the additive group.

    Membership is checked directly: split the row at the additive
    identity into a translation part and a remainder, and test the
    remainder for additivity.  No precomputed automorphism list is used,
    which keeps this independent of the brace law check.
    """
    add, mul = B.add_table, B.mul_table
    n = B.size
    if not is_group_table(add):
        raise PreconditionError("additive table is not a group table")
    e = group_table_identity(add)
    full = tuple(range(n))
    neg = [None] * n
    for a in range(n):
        for x in range(n):
            if add[a][x] == e:
                neg[a] = x
                break
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


def additive_group(B: SkewBrace) -> PermGroup:
    """The additive group materialized as its left translations."""
    return PermGroup(B.size, [tuple(row) for row in B.add_table])


def multiplicative_group(B: SkewBrace) -> PermGroup:
    """The multiplicative group materialized as its left translations."""
    return PermGroup(B.size, [tuple(row) for row in B.mul_table])
