import functools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgalois import (
    Alternating4,
    Cyclic,
    Dihedral,
    DirectProduct,
    Holomorph,
    SemidirectCC,
    SemidirectZ2,
    canonical_text,
    catalog,
    parse_group_spec,
)
from hopfgalois.errors import SpecSemanticError, SpecSyntaxError
from hopfgalois.factory import build
from hopfgalois.specparse import MAX_DIGITS, MAX_FACTORS, MAX_NESTING


def chain(first, factors):
    return "x".join([first] + ["C1"] * (factors - 1))


def nested_hol(depth):
    return "Hol(" * depth + "C1" + ")" * depth


def test_atoms():
    assert parse_group_spec("D30") == Dihedral(30)
    assert parse_group_spec("C6") == Cyclic(6)
    assert parse_group_spec("SD(7,3;2)") == SemidirectCC(7, 3, 2)
    assert parse_group_spec("SDZ2(15;4)") == SemidirectZ2(15, 4)
    assert parse_group_spec("A4") == Alternating4()
    assert parse_group_spec("Hol(D6)") == Holomorph(Dihedral(6))


def test_products_left_associate():
    spec = parse_group_spec("C2xC3xC5")
    assert spec == DirectProduct(DirectProduct(Cyclic(2), Cyclic(3)), Cyclic(5))


def test_whitespace_insensitive():
    assert parse_group_spec(" SD( 7 , 3 ; 2 ) ") == SemidirectCC(7, 3, 2)
    assert parse_group_spec("C2 x C6") == DirectProduct(Cyclic(2), Cyclic(6))


def test_nested_holomorph():
    assert parse_group_spec("Hol(C2xC3)") == Holomorph(
        DirectProduct(Cyclic(2), Cyclic(3))
    )


SEMANTIC_ERRORS = {
    "SD(7,3;3)": "SD(7,3;3): twist order does not divide 3 (3^3 != 1 mod 7)",
    "C0": "C0: order must be positive",
    "D3": "D3: order must be even and >= 2",
    "SD(0,2;1)": "SD(0,2;1): factors must be positive",
    "SD(15,2;3)": "SD(15,2;3): twist 3 is not a unit mod 15",
    "SDZ2(0;1)": "SDZ2(0;1): n must be positive",
}


def test_semantic_error_distinct_from_syntax():
    for text, message in SEMANTIC_ERRORS.items():
        with pytest.raises(SpecSemanticError) as info:
            parse_group_spec(text)
        assert str(info.value) == message
    with pytest.raises(SpecSyntaxError):
        parse_group_spec("SD(7,3)")


def test_syntax_error_position_and_expected():
    with pytest.raises(SpecSyntaxError) as info:
        parse_group_spec("C6x")
    assert info.value.position == 3
    with pytest.raises(SpecSyntaxError) as info:
        parse_group_spec("Cx6")
    assert info.value.expected == "integer"
    assert info.value.position == 1
    with pytest.raises(SpecSyntaxError) as info:
        parse_group_spec("C6 D6")
    assert "end of input" in str(info.value)
    with pytest.raises(SpecSyntaxError):
        parse_group_spec("@")
    with pytest.raises(SpecSyntaxError):
        parse_group_spec("")


def test_round_trip_handwritten():
    for text in ("C6", "D30", "SD(7,3;2)", "SDZ2(15;4)", "A4", "Hol(D6)", "C2xC6"):
        spec = parse_group_spec(text)
        assert canonical_text(spec) == text
        assert parse_group_spec(canonical_text(spec)) == spec


@pytest.mark.parametrize("order", [1, 2, 4, 6, 10, 12, 14, 15, 21, 30])
def test_round_trip_catalog(order):
    for entry in catalog(order):
        text = canonical_text(entry.spec)
        assert parse_group_spec(text) == entry.spec


def test_parse_then_print_idempotent():
    # print(parse(s)) is a fixed point of parse/print
    for text in ("C2 x C3", "Hol( C6 )", "SD(5,4;2)"):
        spec = parse_group_spec(text)
        again = parse_group_spec(canonical_text(spec))
        assert canonical_text(again) == canonical_text(spec)


def test_bounds_admit_the_deepest_recipe():
    # a full chain at every nesting level: the deepest spec tree the bounds
    # admit still parses, prints and builds
    text = "C1"
    for _ in range(MAX_NESTING):
        text = "Hol(" + chain(text, MAX_FACTORS) + ")"
    spec = parse_group_spec(chain(text, MAX_FACTORS))
    assert parse_group_spec(canonical_text(spec)) == spec
    assert len(build(spec)) == 1
    assert parse_group_spec("C" + "9" * MAX_DIGITS) == Cyclic(10**MAX_DIGITS - 1)


@pytest.mark.parametrize(
    "text, position",
    [
        ("C" + "9" * 4301, 1),
        ("C" + "9" * (MAX_DIGITS + 1), 1),
        (nested_hol(400), 4 * MAX_NESTING),
        (nested_hol(MAX_NESTING + 1), 4 * MAX_NESTING),
        (chain("C1", 400), 3 * MAX_FACTORS - 1),
        (chain("C1", MAX_FACTORS + 1), 3 * MAX_FACTORS - 1),
        ("Hol(" + chain("C1", MAX_FACTORS + 1) + ")", 4 + 3 * MAX_FACTORS - 1),
    ],
    ids=[
        "4301-digits",
        "one-digit-over",
        "hol-400-deep",
        "hol-one-over",
        "chain-400",
        "chain-one-over",
        "chain-inside-hol",
    ],
)
def test_bounds_are_syntax_errors(text, position):
    with pytest.raises(SpecSyntaxError) as info:
        parse_group_spec(text)
    assert info.value.position == position


def _twists(k, l):
    # the units t in 1..k with t^l = 1 mod k
    return [t for t in range(1, k + 1) if gcd(t, k) == 1 and pow(t, l, k) == 1 % k]


@st.composite
def _semidirect_cc(draw):
    k = draw(st.integers(1, 60))
    l = draw(st.sampled_from([l for l in range(1, 61) if gcd(k, l) == 1]))
    return SemidirectCC(k, l, draw(st.sampled_from(_twists(k, l))))


@st.composite
def _semidirect_z2(draw):
    n = draw(st.integers(1, 200))
    return SemidirectZ2(n, draw(st.sampled_from(_twists(n, 2))))


def _atoms():
    big = 10**MAX_DIGITS - 1
    return st.one_of(
        st.integers(1, big).map(Cyclic),
        st.integers(1, big // 2).map(lambda n: Dihedral(2 * n)),
        _semidirect_cc(),
        _semidirect_z2(),
        st.just(Alternating4()),
    )


@st.composite
def _recipes(draw):
    """A valid recipe in canonical form: left-associated chains of at most
    MAX_FACTORS atoms, with Hol( nested up to MAX_NESTING deep."""
    spec = None
    for _ in range(draw(st.integers(0, MAX_NESTING)) + 1):
        if spec is None:
            factors = draw(st.lists(_atoms(), min_size=1, max_size=MAX_FACTORS))
        else:
            factors = draw(st.lists(_atoms(), max_size=MAX_FACTORS - 1))
            factors.insert(draw(st.integers(0, len(factors))), Holomorph(spec))
        spec = functools.reduce(DirectProduct, factors)
    return spec


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_recipes())
def test_round_trip_random_recipes(spec):
    # builds no group: only the parser and the printer run
    assert parse_group_spec(spec.text()) == spec
