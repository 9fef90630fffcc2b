"""Exact sparse Laurent-polynomial arithmetic over the integers.

Polynomials in a single variable ``v`` with integer coefficients and
integer (possibly negative) exponents.  All arithmetic is exact; Python
integers make overflow impossible.
"""

from __future__ import annotations

from typing import Iterator, Mapping


class DivisibilityError(ArithmeticError):
    """An exact division left a nonzero remainder."""


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial.

    Stored as a map from exponent to nonzero coefficient; the zero
    polynomial is the empty map.  Equality is coefficient-wise.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        """Terms from a map of int exponents to int coefficients, as in
        from_json; anything else (1.5, "3", True) raises TypeError."""
        data = {}
        if coeffs:
            for exp, c in coeffs.items():
                if type(exp) is not int or type(c) is not int:
                    raise TypeError(f"bad term {exp!r}: {c!r}; want an int exponent and coefficient")
                if c:
                    data[exp] = c
        object.__setattr__(self, "_coeffs", data)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPolynomial":
        return cls({exponent: coefficient})

    @classmethod
    def variable(cls) -> "LaurentPolynomial":
        return cls({1: 1})

    # -- basic queries -----------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes like one (ZERO like 0)
        coeffs = self._coeffs
        if not coeffs or (len(coeffs) == 1 and 0 in coeffs):
            return hash(coeffs.get(0, 0))
        return hash(frozenset(coeffs.items()))

    # -- ring operations ---------------------------------------------

    def __add__(self, other) -> "LaurentPolynomial":
        if type(other) is not LaurentPolynomial:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return _nonzero(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return _nonzero({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "LaurentPolynomial":
        if type(other) is not LaurentPolynomial:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return _nonzero(out)

    __rmul__ = __mul__

    # -- structure maps ----------------------------------------------

    def bar(self) -> "LaurentPolynomial":
        """Exponent negation v -> v^(-1); an involution."""
        return LaurentPolynomial({-e: c for e, c in self._coeffs.items()})

    def is_bar_symmetric(self) -> bool:
        return self.bar() == self

    def symmetric_split(self) -> tuple["LaurentPolynomial", "LaurentPolynomial"]:
        """Split p = beta + gamma with bar(beta) = beta and gamma in v*Z[v].

        beta is p's constant term plus, for each negative exponent i, the
        bar-symmetric pair p_i*(v^i + v^-i).  The decomposition with these
        two properties is unique.
        """
        beta: dict[int, int] = {}
        if 0 in self._coeffs:
            beta[0] = self._coeffs[0]
        for e, c in self._coeffs.items():
            if e < 0:
                beta[e] = c
                beta[-e] = beta.get(-e, 0) + c
        b = LaurentPolynomial(beta)
        return b, self - b

    def in_positive_part(self) -> bool:
        """True iff every term has exponent >= 1 and coefficient >= 1."""
        return all(e >= 1 and c >= 1 for e, c in self._coeffs.items())

    def at_one(self) -> int:
        """Evaluate at v = 1."""
        return sum(self._coeffs.values())

    # -- serialisation -----------------------------------------------

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in sorted(self._coeffs.items())}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LaurentPolynomial":
        """The inverse of to_json: keys in str(int) form, int values.  Anything
        else, such as a key "02" or a coefficient 1.5 or true, raises."""
        if not isinstance(data, dict):
            raise TypeError(f"a polynomial is a JSON object, got {data!r}")
        coeffs = {}
        for key, c in data.items():
            e = int(key)
            if str(e) != key or type(c) is not int:
                raise ValueError(f"bad term {key!r}: {c!r}; want a str(int) key, an int value")
            coeffs[e] = c
        return _nonzero(coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items()):
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                var = "v" if e == 1 else f"v^{e}"
                term = mag + var
            parts.append(("- " if c < 0 else "+ ") + term)
        head = parts[0].lstrip("+ ").replace("- ", "-", 1) if parts[0].startswith("- ") else parts[0][2:]
        return " ".join([head] + parts[1:])

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._coeffs!r})"


def _nonzero(coeffs: dict[int, int]) -> LaurentPolynomial:
    """The ring operations' constructor: their exponents and coefficients
    are ints already, so only the zero coefficients need dropping."""
    poly = object.__new__(LaurentPolynomial)
    object.__setattr__(poly, "_coeffs", {e: c for e, c in coeffs.items() if c})
    return poly


def _coerce(value) -> "LaurentPolynomial":
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, int):
        return LaurentPolynomial({0: value})
    return NotImplemented


ZERO = LaurentPolynomial.zero()
ONE = LaurentPolynomial.one()


def quantum_integer(k: int) -> LaurentPolynomial:
    """[k] = v^(-k+1) + v^(-k+3) + ... + v^(k-1); [0] is the zero polynomial."""
    if k < 0:
        raise ValueError(f"quantum integer needs k >= 0, got {k}")
    return LaurentPolynomial({e: 1 for e in range(-k + 1, k, 2)})


def quantum_factorial(k: int) -> LaurentPolynomial:
    """[k]! = [1][2]...[k], with [0]! = 1."""
    if k < 0:
        raise ValueError(f"quantum factorial needs k >= 0, got {k}")
    out = ONE
    for i in range(1, k + 1):
        out = out * quantum_integer(i)
    return out


def exact_divide(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Return s with s*q = p, or raise DivisibilityError.

    Long division from the top exponent.  Both polynomials are shifted to
    honest polynomials with nonzero constant term first, so non-divisible
    inputs terminate with an error instead of producing an infinite tail.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return ZERO
    shift = p.min_exponent - q.min_exponent
    rem = {e - p.min_exponent: c for e, c in p.items()}
    div = {e - q.min_exponent: c for e, c in q.items()}
    dtop = max(div)
    dlead = div[dtop]
    out: dict[int, int] = {}
    while rem:
        top = max(rem)
        if top < dtop:
            raise DivisibilityError(f"{p} is not divisible by {q}")
        lead = rem[top]
        if lead % dlead:
            raise DivisibilityError(f"{p} is not divisible by {q}")
        c = lead // dlead
        k = top - dtop
        out[k] = c
        for e, qc in div.items():
            ne = e + k
            nv = rem.get(ne, 0) - c * qc
            if nv:
                rem[ne] = nv
            else:
                rem.pop(ne, None)
    return LaurentPolynomial({e + shift: c for e, c in out.items()})
