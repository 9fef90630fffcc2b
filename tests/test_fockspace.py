import warnings

import pytest

from fockpath.fockspace import (
    CacheError,
    CanonicalBasisOracle,
    ERegularError,
    FockVector,
    OracleCache,
    apply_f,
    apply_f_divided,
    canonical_basis,
    expand_in_canonical,
    get_oracle,
    is_e_regular,
    ladder_monomial,
    oracle_coefficient,
)
from fockpath.laurent import LaurentPolynomial, ONE
from fockpath.partitions import boundary_nodes, partitions_of

V = LaurentPolynomial.variable()


def vec(*terms):
    return FockVector({p: LaurentPolynomial(c) for p, c in terms})


def test_apply_f_examples():
    assert apply_f(FockVector.basis(()), 2, 0) == vec(((1,), {0: 1}))
    assert apply_f(FockVector.basis((1,)), 2, 1) == vec(((2,), {0: 1}), ((1, 1), {1: 1}))
    assert apply_f(FockVector.basis((2,)), 2, 1) == vec(((2, 1), {-1: 1}))


def test_divided_power_examples():
    assert apply_f_divided(FockVector.basis((1,)), 2, 1, 2) == vec(((2, 1), {0: 1}))
    x = FockVector.basis((2, 1))
    assert apply_f_divided(x, 3, 0, 1) == apply_f(x, 3, 0)
    assert apply_f_divided(FockVector.zero(), 2, 0, 3) == FockVector.zero()


def test_apply_f_at_one_is_multiplicity_free():
    for e in (2, 3):
        for n in range(7):
            for lam in partitions_of(n):
                for r in range(e):
                    result = apply_f(FockVector.basis(lam), e, r)
                    _, indent = boundary_nodes(lam, e, r)
                    assert len(result.support) == len(indent)
                    for _, c in result.items():
                        assert c.at_one() == 1
                    for mu in result.support:
                        assert sum(mu) == n + 1


def test_divided_power_division_is_exact():
    for e in (2, 3):
        for n in range(9):
            for lam in partitions_of(n):
                for r in range(e):
                    for k in (2, 3):
                        apply_f_divided(FockVector.basis(lam), e, r, k)


def test_ladder_monomials():
    assert ladder_monomial((2,), 2).steps == ((0, 1), (1, 1))
    assert ladder_monomial((1, 1), 2).steps == ((0, 1), (1, 1))
    assert ladder_monomial((), 5).steps == ()
    assert ladder_monomial((2, 2), 3).steps == ((0, 1), (2, 1), (1, 1), (0, 1))


def test_is_e_regular():
    assert not is_e_regular((1, 1), 2)
    assert is_e_regular((2, 1), 2)
    assert is_e_regular((), 2)
    assert is_e_regular((3, 3), 3)
    assert not is_e_regular((3, 3, 3), 3)


def test_canonical_basis_examples():
    g = canonical_basis((2,), 2)
    assert g.vector == vec(((2,), {0: 1}), ((1, 1), {1: 1}))
    assert canonical_basis((1,), 2).vector == FockVector.basis((1,))
    g3 = canonical_basis((2, 1), 3)
    assert g3.coefficient((2, 1)) == ONE
    for p, c in g3.vector.items():
        if p != (2, 1):
            assert c.in_positive_part()
    with pytest.raises(ERegularError):
        canonical_basis((1, 1), 2)


def test_oracle_coefficient_examples():
    assert oracle_coefficient((1, 1), (2,), 2) == V
    assert oracle_coefficient((2,), (2,), 2) == ONE
    with pytest.raises(ValueError):
        oracle_coefficient((1,), (2,), 2)


def test_canonical_element_invariants():
    from fockpath.partitions import dominates

    for e in (2, 3):
        for n in range(9):
            for mu in partitions_of(n):
                if not is_e_regular(mu, e):
                    continue
                g = canonical_basis(mu, e)
                assert g.coefficient(mu) == ONE
                for p, c in g.vector.items():
                    assert sum(p) == n
                    if p != mu:
                        assert c.in_positive_part()
                        assert not dominates(p, mu)


def test_first_row_compatibility():
    # equal first parts let the first row be struck from both labels
    for e in (2, 3):
        for n in range(2, 9):
            for mu in partitions_of(n):
                if not is_e_regular(mu, e):
                    continue
                g = canonical_basis(mu, e)
                for lam, c in g.vector.items():
                    if not lam or not mu or lam[0] != mu[0]:
                        continue
                    lam2, mu2 = lam[1:], mu[1:]
                    if not is_e_regular(mu2, e):
                        continue
                    assert oracle_coefficient(lam2, mu2, e) == c


def test_expand_in_canonical_round_trip():
    oracle = get_oracle(2)
    g = oracle.element((3, 2)).vector
    x = apply_f(g, 2, 0)
    coeffs = expand_in_canonical(x, 2, oracle)
    total = FockVector.zero()
    for mu, c in coeffs.items():
        total = total + oracle.element(mu).vector.scale(c)
    assert total == x


def test_cache_round_trip(tmp_path):
    oracle = CanonicalBasisOracle(2, cache_dir=tmp_path / "cache")
    path = oracle.save_level(6)
    reloaded = OracleCache(tmp_path / "cache").load(2, 6)
    fresh = CanonicalBasisOracle(2)
    for mu, vector in reloaded.items():
        assert vector == fresh.element(mu).vector
    # a second oracle picks the cache up from disk
    again = CanonicalBasisOracle(2, cache_dir=tmp_path / "cache")
    assert again.element((3, 2, 1)).vector == fresh.element((3, 2, 1)).vector


def test_cache_detects_corruption(tmp_path):
    oracle = CanonicalBasisOracle(3, cache_dir=tmp_path)
    path = oracle.save_level(4)
    raw = open(path, "rb").read()
    broken = raw[:-5] + b"9" + raw[-4:]
    with open(path, "wb") as fh:
        fh.write(broken)
    cache = OracleCache(tmp_path)
    with pytest.raises(CacheError):
        cache.load(3, 4)
    # a fresh oracle warns, drops the damaged file and recomputes
    recovered = CanonicalBasisOracle(3, cache_dir=tmp_path)
    with pytest.warns(RuntimeWarning, match="checksum mismatch"):
        assert recovered.element((3, 1)).vector == CanonicalBasisOracle(3).element((3, 1)).vector


def test_corrupt_cache_level_is_reported_and_rebuilt(tmp_path):
    path = CanonicalBasisOracle(2, cache_dir=tmp_path).save_level(5)
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    oracle = CanonicalBasisOracle(2, cache_dir=tmp_path)
    with pytest.warns(RuntimeWarning, match="canonical_e2_n5.jsonl"):
        rebuilt = oracle.element((3, 2))
    assert oracle.cache_discards == 1
    assert rebuilt.vector == CanonicalBasisOracle(2).element((3, 2)).vector
    # the level is read once per oracle: no second warning, no second discard
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle.element((4, 1))
    assert oracle.cache_discards == 1


def test_cache_missing_directory_is_created(tmp_path):
    target = tmp_path / "nested" / "dir"
    oracle = CanonicalBasisOracle(2, cache_dir=target)
    oracle.save_level(3)
    assert target.exists()
