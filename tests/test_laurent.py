import pytest
from hypothesis import given, strategies as st

from fockpath.laurent import (
    DivisibilityError,
    LaurentPolynomial,
    ONE,
    ZERO,
    exact_divide,
    quantum_factorial,
    quantum_integer,
)

V = LaurentPolynomial.variable()


def L(coeffs):
    return LaurentPolynomial(coeffs)


laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-30, 30), max_size=8
).map(LaurentPolynomial)


def test_zero_and_equality():
    assert L({}) == ZERO
    assert L({2: 0, 0: 0}) == ZERO
    assert L({0: 1}) == 1
    assert L({1: 1, -1: 1}) == L({-1: 1, 1: 1})


def test_bar_examples():
    assert V.bar() == L({-1: 1})
    assert L({-1: 1, 1: 1}).bar() == L({-1: 1, 1: 1})
    assert L({0: 3, 2: 2}).bar() == L({0: 3, -2: 2})


def test_quantum_integers():
    assert quantum_integer(1) == ONE
    assert quantum_integer(3) == L({-2: 1, 0: 1, 2: 1})
    assert quantum_factorial(2) == L({-1: 1, 1: 1})
    assert quantum_factorial(0) == ONE
    with pytest.raises(ValueError):
        quantum_integer(-1)


def test_exact_divide_examples():
    two = L({-1: 1, 1: 1})
    assert exact_divide(two, quantum_integer(2)) == ONE
    assert exact_divide(two * two, two) == two
    with pytest.raises(DivisibilityError):
        exact_divide(L({0: 1, 1: 1}), L({-1: 1, 1: 1}))


def test_symmetric_split_examples():
    beta, gamma = L({-1: 1, 1: 2}).symmetric_split()
    assert beta == L({-1: 1, 1: 1})
    assert gamma == V
    assert L({3: 1}).symmetric_split() == (ZERO, L({3: 1}))
    assert L({0: 5}).symmetric_split() == (L({0: 5}), ZERO)


def test_text_and_json_round_trip():
    p = L({-1: 1, 1: 1})
    assert str(p) == "v^-1 + v"
    assert p.to_json() == {"-1": 1, "1": 1}
    assert LaurentPolynomial.from_json(p.to_json()) == p
    assert str(ZERO) == "0"
    assert str(L({0: 3, 2: -2})) == "3 - 2v^2"
    assert str(L({0: -3})) == "-3"
    assert str(L({-2: -1, 1: 1})) == "-v^-2 + v"


def test_a_constant_hashes_like_the_int_it_equals():
    for c in range(-2, 3):
        assert L({0: c}) == c and hash(L({0: c})) == hash(c)
    assert ONE in {1}
    assert {0: "x"}.get(ZERO) == "x"
    assert hash(V) == hash(frozenset({(1, 1)}))


@pytest.mark.parametrize("data", [
    [1], {"2": 1.5}, {"2": 1.0}, {"2": True}, {"2": "1"}, {"02": 1}, {"+2": 1}, {"x": 1},
])
def test_from_json_reads_only_integers(data):
    with pytest.raises((TypeError, ValueError)):
        LaurentPolynomial.from_json(data)


@given(laurents)
def test_bar_is_an_involution(p):
    assert p.bar().bar() == p


@given(laurents, laurents)
def test_bar_is_a_ring_map(p, q):
    assert (p + q).bar() == p.bar() + q.bar()
    assert (p * q).bar() == p.bar() * q.bar()


@given(laurents)
def test_symmetric_split_recombines_and_is_unique(p):
    beta, gamma = p.symmetric_split()
    assert beta + gamma == p
    assert beta.bar() == beta
    assert gamma.is_zero or gamma.min_exponent >= 1
    # uniqueness: any other split with the same properties equals this one
    # since the difference would be bar-symmetric and supported in v*Z[v]


@given(laurents, laurents)
def test_exact_divide_inverts_multiplication(p, q):
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            exact_divide(p, q)
    else:
        assert exact_divide(p * q, q) == p


@given(st.integers(0, 8))
def test_quantum_values_are_bar_symmetric(k):
    assert quantum_integer(k).is_bar_symmetric()
    assert quantum_factorial(k).is_bar_symmetric()
    assert quantum_integer(k).at_one() == k


@given(laurents, laurents)
def test_ring_results_hold_no_zero_coefficient(p, q):
    results = [p + q, p - q, -p, p * q, p + (-p), p * 0, p + 1, 2 - p, p * -3]
    results += list(p.symmetric_split())
    for result in results:
        assert 0 not in result._coeffs.values()
        assert all(type(e) is int and type(c) is int for e, c in result._coeffs.items())
