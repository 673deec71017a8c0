"""Permutations as image tuples with 0-based points.

A permutation of degree d is a tuple of length d whose entry at x is the
image of point x.  Composition is function composition: ``compose(p, q)``
applies q first.
"""

from __future__ import annotations

import operator

from .errors import DegreeMismatchError

Perm = tuple

# Permutations.


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_perm(images) -> bool:
    return sorted(images) == list(range(len(images)))


def composer(q: Perm):
    """p -> compose(p, q) unchecked, in one C call: p read at q's
    entries, so p may be longer than q, as for a homomorphism from a
    smaller group.  Below two entries, where an itemgetter returns a
    scalar, a ``map`` reads them."""
    return operator.itemgetter(*q) if len(q) > 1 else lambda p: tuple(map(p.__getitem__, q))


def compose(p: Perm, q: Perm) -> Perm:
    """Return the permutation x -> p(q(x))."""
    if len(p) != len(q):
        raise DegreeMismatchError(f"degree {len(p)} vs {len(q)}")
    return composer(q)(p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points included, each cycle led by its
    smallest point, cycles sorted by leading point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        out.append(tuple(cyc))
    return out


def sign(p: Perm) -> int:
    """+1 for even permutations, -1 for odd."""
    return -1 if (len(p) - len(cycles(p))) % 2 else 1


def semiregular_order(p: Perm) -> int:
    """The order of p if all its cycles have one length, else 0.

    Equal cycle lengths mean <p> acts freely (p is semiregular), and the
    common length is then p's order.  Every non-identity element of a
    regular permutation group is semiregular, which makes this the cheap
    membership filter for regular-subgroup searches.  It stops with 0 at
    the first cycle whose length differs.
    """
    seen = bytearray(len(p))
    length = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        seen[start] = 1
        x, k = p[start], 1
        while x != start:
            seen[x] = 1
            x = p[x]
            k += 1
        if k != length and length:
            return 0
        length = k
    return length
