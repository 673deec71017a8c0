"""Skew braces: one carrier, two group tables, one compatibility law.

The law is a o (b + c) = (a o b) + (-a) + (a o c), with -a the additive
inverse: lambda_a(x) = -a + a o x is additive.  The c at which that holds
are closed under +, and the a under o, so it is checked for c and a in
generating sets only.  A regular subgroup of Hol(N, +) induces a brace
on N's carrier: a o b = pi_a(b), where pi_a is the unique subgroup element
sending the additive identity to a.
"""

from __future__ import annotations

import functools
from operator import itemgetter

from .errors import PreconditionError, Record
# respects_law, the one automorphism-on-generators kernel, is read here on
# the addition table's columns, cols[y][x] = x + y: f(x + s) = f(x) + f(s)
from .groups import PermGroup, _generating_set, is_regular, respects_law as _is_additive
from .perm import composer


class SkewBrace(Record):
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


def _group_generators(table):
    """(e, S) for a group table, or None if ``table`` is not one.

    e is the identity and S a set whose left-to-right products reach every
    element.  Associativity is checked in O(n^2 |S|) by Light's test: the
    s with (a s) x = a (s x) for all a, x are closed under products, so
    checking every s in S proves it for all of them.
    """
    n = len(table)
    full = list(range(n))
    # Columns need no check: a finite associative table with identity
    # whose rows are bijections is a group, so its columns are too.
    if any(sorted(row) != full for row in table):
        return None
    e = group_table_identity(table)
    if e is None:
        return None
    rows = list(map(tuple, table))
    cols = list(zip(*rows))
    gens = _generating_set(rows, e)
    for s in gens:
        # a (s x) against (a s) x, as whole rows: one row per a
        if list(map(itemgetter(*rows[s]), rows)) != list(map(rows.__getitem__, cols[s])):
            return None
    return e, gens


def _structure(table):
    """(e, S, negatives, columns, shifts) of a group table, or None if it
    is not one.

    e and S are ``_group_generators``' identity and generating set;
    ``shifts`` pairs each s in S with the getter f -> (x -> f(x + s))
    that ``_is_additive`` applies.  This is structure of ``table`` alone,
    kept by value (rows as tuples, so list rows are accepted too) for the
    last two tables: a brace's additive and multiplicative ones.  Braces
    arrive grouped by their additive group, so one entry serves every
    brace of that N, and each brace's checks share its other one.
    """
    return _structure_of(tuple(map(tuple, table)))


@functools.lru_cache(maxsize=2)
def _structure_of(table):
    found = _group_generators(table)
    if found is None:
        return None
    e, gens = found
    cols = tuple(zip(*table))
    shifts = tuple((s, composer(cols[s])) for s in gens)
    return e, gens, tuple(row.index(e) for row in table), cols, shifts


def brace_from_regular(R: PermGroup, N: PermGroup) -> SkewBrace:
    """The brace induced on N's carrier by a regular subgroup of Hol(N).

    Addition is N's own table; a o b = pi_a(b) with pi_a the unique
    element of R taking the additive identity to a (well defined exactly
    because R is regular).  The result is verified before being returned:
    R must lie in Hol(N), and a regular R outside it is refused.
    """
    n = len(N)
    if len(R) != n or R.degree != n or not is_regular(R):
        raise PreconditionError("R must act regularly on N's element indices")
    e = N.identity_index
    pi = [None] * n
    for p in R.elements:
        pi[p[e]] = p
    mul = tuple(pi[a] for a in range(n))
    brace = SkewBrace(n, tuple(N.rows()), mul)
    if not verify_brace(brace):
        raise PreconditionError("induced tables violate the brace law")
    return brace


def trivial_brace(N: PermGroup) -> SkewBrace:
    add = tuple(N.rows())
    return SkewBrace(len(N), add, add)


def verify_brace(B: SkewBrace) -> bool:
    """Both tables groups of order ``size``, shared identity, brace law.

    The law a o (b + c) = (a o b) - a + (a o c) says exactly that
    lambda_a(x) = -a + a o x is additive for every a.  The c with
    lambda_a(b + c) = lambda_a(b) + lambda_a(c) for all b are closed under
    +, so c runs over a generating set S of (N, +).  Once lambda_a is
    additive, a o (b + y) = a o b + lambda_a(y), so lambda_{a o b} =
    lambda_a lambda_b: the a with additive lambda_a hold e and are closed
    under o (associative, identity e: both checked first), so a runs over
    a generating set T of (N, o).  O(n |S| |T|), not n^3, same verdict.

    Both tables' structures (identity, generating set, negatives,
    columns) come from the ``_structure`` memo, so the tables are tested
    once per value and every later check on equal tables reads them; the
    law itself is checked on every call.
    """
    add, mul = B.add_table, B.mul_table
    n = B.size
    if len(add) != n or len(mul) != n:
        return False
    found = _structure(add)
    mul_found = found and _structure(mul)
    if not mul_found or mul_found[0] != found[0]:
        return False
    neg, cols, shifts = found[2:]
    for a in mul_found[1]:
        # lambda_a as a tuple: x -> -a + a o x
        if not _is_additive(composer(mul[a])(add[neg[a]]), cols, shifts):
            return False
    return True


def lambda_circ_in_hol(B: SkewBrace) -> bool:
    """True iff every row x -> a o x lies in Hol of the additive group.

    Membership is checked directly: split the row at the additive
    identity into a translation part and a remainder, and test the
    remainder for additivity on a generating set of (N, +), which the
    closure argument of ``verify_brace`` makes exact.  When (N, o) is a
    group, row(a o b) = row(a) o row(b) and Hol(N, +) is a group, so the
    rows of a generating set T of (N, o) lying in Hol put every row
    there: only those rows are read.  Otherwise (a loop, a table whose
    rows alone are permutations, anything else) every row is.  No
    precomputed automorphism list is used.  Both structures come from
    the ``_structure`` memo, which holds the output of the
    ``_group_generators`` kernel and nothing else: this check shares that
    kernel with ``verify_brace``, never a verdict.  Raises
    ``PreconditionError`` unless the additive table is a group table of
    order ``size``; a multiplicative table of another size is not in the
    holomorph.
    """
    add, mul = B.add_table, B.mul_table
    n = B.size
    found = _structure(add) if len(add) == n else None
    if found is None:
        raise PreconditionError("additive table is not a group table of order size")
    if len(mul) != n:
        return False
    e, _, neg, cols, shifts = found
    mul_found = _structure(mul)
    full = list(range(n))
    for row in mul if mul_found is None else [mul[a] for a in mul_found[1]]:
        if sorted(row) != full:
            return False
        # the row after the translation by -(a o e): x -> -(a o e) + a o x
        if not _is_additive(composer(row)(add[neg[row[e]]]), cols, shifts):
            return False
    return True


def additive_group(B: SkewBrace) -> PermGroup:
    """The additive group materialized as its left translations."""
    return PermGroup(B.size, [tuple(row) for row in B.add_table])


def multiplicative_group(B: SkewBrace) -> PermGroup:
    """The multiplicative group materialized as its left translations."""
    return PermGroup(B.size, [tuple(row) for row in B.mul_table])
