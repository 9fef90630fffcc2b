import hashlib
import json
import os
import random
import sys
import threading
import warnings

import pytest

from fockpath.fockspace import (
    CACHE_FORMAT,
    CacheError,
    CanonicalBasisElement,
    CanonicalBasisOracle,
    ERegularError,
    FockVector,
    OracleCache,
    SingularPivotError,
    UnitriangularityError,
    apply_f,
    apply_f_divided,
    canonical_basis,
    expand_in_canonical,
    get_oracle,
    is_e_regular,
    ladder_monomial,
    oracle_coefficient,
)
from fockpath.laurent import LaurentPolynomial, ONE, ZERO, exact_divide, quantum_factorial
from fockpath.partitions import boundary_nodes, dominates, partitions_of

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


def kfold_divided(x, e, r, k):
    """Reference divided power: f_r applied k times, then divided by [k]!."""
    for _ in range(k):
        x = apply_f(x, e, r)
    fact = quantum_factorial(k)
    return FockVector({p: exact_divide(c, fact) for p, c in x.items()})


def test_closed_form_divided_power_matches_kfold_on_basis_vectors():
    cases = 0
    for e in (2, 3, 4):
        for n in range(11):
            for lam in partitions_of(n):
                x = FockVector.basis(lam)
                for r in range(e):
                    for k in range(1, 5):
                        assert apply_f_divided(x, e, r, k) == kfold_divided(x, e, r, k), (
                            e, lam, r, k)
                        cases += 1
    assert cases == 5004


def test_closed_form_divided_power_matches_kfold_on_canonical_elements():
    oracle = CanonicalBasisOracle(2)
    for n in range(9):
        for mu in partitions_of(n):
            if not is_e_regular(mu, 2):
                continue
            g = oracle.element(mu).vector
            for r in range(2):
                for k in range(1, 4):
                    assert apply_f_divided(g, 2, r, k) == kfold_divided(g, 2, r, k), (mu, r, k)


def test_lexicographic_order_extends_dominance():
    for n in range(13):
        parts = partitions_of(n)
        for p in parts:
            for q in parts:
                if q != p and dominates(q, p):
                    assert q > p, (q, p)


def test_saved_levels_keep_their_bytes(tmp_path):
    digest = hashlib.sha256()
    for e, max_n in ((2, 12), (3, 10)):
        oracle = CanonicalBasisOracle(e, cache_dir=tmp_path)
        for n in range(max_n + 1):
            with open(oracle.save_level(n), "rb") as fh:
                digest.update(fh.read())
    # with '"format": 1, ' cut from each header, the files hash to
    # 1b8a23c692165c84d0a26967273236c447c9be028edde672d7e5c6b3abc29ef9, the
    # digest of the levels written before the header carried a format
    assert digest.hexdigest() == (
        "a7c6a718fe50ffe8e628cc7400799a954604d7b343011adcf45e800d32a6f979"
    )


def test_elimination_rejects_a_pivot_supported_above_itself():
    # G((5,)) at e=2 strips the pivot (3, 2); plant a lexicographically
    # larger term in the memoised G((3, 2)).
    oracle = CanonicalBasisOracle(2)
    planted = oracle.element((3, 2)).vector + FockVector.basis((4, 1)).scale(V)
    oracle._memo[(3, 2)] = planted
    with pytest.raises(UnitriangularityError, match="lexicographically above"):
        oracle.element((5,))


def test_threads_sharing_an_oracle_get_the_serial_vectors():
    labels = [mu for n in range(11) for mu in partitions_of(n) if is_e_regular(mu, 2)]
    serial = CanonicalBasisOracle(2)
    expected = {mu: serial.element(mu).vector for mu in labels}
    shared = CanonicalBasisOracle(2)
    orders = [labels, labels[::-1]]
    for seed in (1, 2):
        order = list(labels)
        random.Random(seed).shuffle(order)
        orders.append(order)
    results = [None] * len(orders)
    errors = []

    def request(slot, order):
        try:
            results[slot] = {mu: shared.element(mu).vector for mu in order}
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=request, args=item) for item in enumerate(orders)]
    assert len(threads) == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for got in results:
        assert got == expected
    # the lock lets no element be computed twice
    assert shared.stats()["computed"] == serial.stats()["computed"]


def test_oracle_stats_count_memo_hits_and_cache_levels(tmp_path):
    CanonicalBasisOracle(2, cache_dir=tmp_path).save_level(5)
    oracle = CanonicalBasisOracle(2, cache_dir=tmp_path)
    oracle.element((3, 2))
    first = oracle.stats()
    assert first["levels_loaded"] == 1 and first["computed"] == 0
    oracle.element((3, 2))
    assert oracle.stats()["memo_hits"] == first["memo_hits"] + 1
    oracle.element((4, 2))
    stats = oracle.stats()
    assert stats["levels_missing"] == 1 and stats["computed"] >= 1
    assert stats["cache_discards"] == 0
    assert stats["memo_size"] == len(oracle._memo)


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


def test_oracle_coefficient_refuses_a_part_that_is_not_an_integer():
    # int() would read [1.9, 1] as (1, 1), whose coefficient is v
    with pytest.raises(ValueError, match=r"^parts must be integers, got 1\.9$"):
        oracle_coefficient([1.9, 1], (2,), 2)
    with pytest.raises(ValueError, match=r"^e must be an integer, got 2\.5$"):
        oracle_coefficient((1, 1), (2,), 2.5)


def test_apply_f_refuses_a_residue_that_is_not_an_integer_after_a_memo_hit():
    x = FockVector.basis((1,))
    assert apply_f(x, 2, 1) == apply_f_divided(x, 2, 1, 1)  # (1,), 2, 1 is memoised
    with pytest.raises(ValueError, match=r"^residue must be an integer, got 1\.0$"):
        apply_f(x, 2, 1.0)
    with pytest.raises(ValueError, match=r"^e must be an integer, got 2\.0$"):
        apply_f_divided(x, 2.0, 1, 1)


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
    coeffs = expand_in_canonical(x, oracle)
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
    with open(path, "rb") as fh:
        raw = fh.read()
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
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
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


def _rewrite_header(path, **changes):
    """Rewrite a level file's header; the payload and its checksum stay."""
    with open(path, encoding="utf-8") as fh:
        head, _, payload = fh.read().partition("\n")
    header = json.loads(head)
    for key, value in changes.items():
        if value is None:
            header.pop(key)
        else:
            header[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n" + payload)


@pytest.mark.parametrize("fmt, message", [
    (None, "cache format None"),
    (CACHE_FORMAT + 1, f"cache format {CACHE_FORMAT + 1}"),
])
def test_cache_level_of_another_format_is_discarded(tmp_path, fmt, message):
    path = CanonicalBasisOracle(2, cache_dir=tmp_path).save_level(5)
    assert OracleCache(tmp_path).load(2, 5)
    _rewrite_header(path, format=fmt)
    with pytest.raises(CacheError, match=message):
        OracleCache(tmp_path).load(2, 5)
    oracle = CanonicalBasisOracle(2, cache_dir=tmp_path)
    with pytest.warns(RuntimeWarning, match=message):
        rebuilt = oracle.element((3, 2))
    assert oracle.cache_discards == 1 and oracle.levels_loaded == 0
    assert rebuilt.vector == CanonicalBasisOracle(2).element((3, 2)).vector
    assert not os.path.exists(path)


def _garble_header(path):
    with open(path, encoding="utf-8") as fh:
        _, _, payload = fh.read().partition("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json\n" + payload)


def _overcount(path):
    with open(path, encoding="utf-8") as fh:
        count = json.loads(fh.readline())["count"]
    _rewrite_header(path, count=count + 1)


@pytest.mark.parametrize("damage, message", [
    (_garble_header, "unreadable header"),
    (lambda path: _rewrite_header(path, n=5), "header labels wrong level"),
    (_overcount, "record count mismatch"),
], ids=["not-json", "wrong-level", "count-plus-one"])
def test_cache_level_with_a_bad_header_is_discarded(tmp_path, damage, message):
    path = CanonicalBasisOracle(2, cache_dir=tmp_path).save_level(4)
    damage(path)
    oracle = CanonicalBasisOracle(2, cache_dir=tmp_path)
    with pytest.warns(RuntimeWarning) as caught:
        got = oracle.element((3, 1))
    assert [str(w.message) for w in caught] == [
        f"{path}: {message}; discarded the corrupt oracle cache level, recomputing it"
    ]
    assert str(path).endswith("canonical_e2_n4.jsonl")
    assert oracle.cache_discards == 1
    assert not os.path.exists(path)
    assert got.vector == CanonicalBasisOracle(2).element((3, 1)).vector


def test_cache_missing_directory_is_created(tmp_path):
    target = tmp_path / "nested" / "dir"
    oracle = CanonicalBasisOracle(2, cache_dir=target)
    oracle.save_level(3)
    assert target.exists()


def test_ladder_monomial_on_the_vacuum_is_unitriangular_in_the_canonical_basis():
    # the from-vacuum seed, independent of the oracle's truncation seeds
    for e in (2, 3, 4):
        labels = [mu for n in range(11) for mu in partitions_of(n) if is_e_regular(mu, e)]
        random.Random(e).shuffle(labels)
        oracle = CanonicalBasisOracle(e)
        for mu in labels:
            x = ladder_monomial(mu, e).apply_to_vacuum()
            coeffs = expand_in_canonical(x, oracle)
            assert coeffs[mu] == 1 and max(coeffs) == mu, (e, mu)
            assert all(c == c.bar() for c in coeffs.values()), (e, mu)


def test_a_seed_term_above_the_label_is_rejected(monkeypatch):
    from fockpath import fockspace

    exact = fockspace.apply_f_divided
    planted = FockVector.basis((4, 1, 1)).scale(V)

    def plant(x, e, r, k):
        out = exact(x, e, r, k)
        return out + planted if (3, 3) in out.support else out

    monkeypatch.setattr(fockspace, "apply_f_divided", plant)
    with pytest.raises(UnitriangularityError, match=r"seed of \(3, 3\) holds \(4, 1, 1\)"):
        CanonicalBasisOracle(3).element((3, 3))


def test_the_truncation_seed_loads_its_level_from_the_cache(tmp_path):
    writer = CanonicalBasisOracle(2, cache_dir=tmp_path)
    for n in range(18):
        writer.save_level(n)
    oracle = CanonicalBasisOracle(2, cache_dir=tmp_path)
    got = oracle.element((9, 5, 3, 1)).vector
    stats = oracle.stats()
    assert stats["levels_loaded"] == 1 and stats["levels_missing"] == 1
    assert {sum(mu) for mu in oracle._memo} == {0, 17, 18}
    assert stats["computed"] == sum(1 for mu in oracle._memo if sum(mu) == 18)
    assert got == CanonicalBasisOracle(2).element((9, 5, 3, 1)).vector


def expand_by_max_loop(x, e, oracle):
    """Reference expansion: repeatedly strip the largest remaining label."""
    rem = dict(x.items())
    out = {}
    while rem:
        sigma = max(rem)
        c = rem[sigma]
        if not is_e_regular(sigma, e):
            raise SingularPivotError(f"expansion pivot {sigma} is {e}-singular")
        out[sigma] = c
        for p, coeff in oracle.element(sigma).vector.items():
            nv = rem.get(p, ZERO) - c * coeff
            if nv:
                rem[p] = nv
            else:
                rem.pop(p, None)
    return out


def test_heap_expansion_matches_the_max_loop_reference():
    expanded = blocked = 0
    for e, max_n in ((2, 9), (3, 8)):
        oracle = CanonicalBasisOracle(e)
        for n in range(max_n + 1):
            for mu in partitions_of(n):
                if not is_e_regular(mu, e):
                    continue
                g = oracle.element(mu).vector
                inputs = [apply_f_divided(g, e, r, k) for r in range(e) for k in (1, 2)]
                # basis vectors reach e-singular pivots
                inputs.append(FockVector.basis(mu))
                for x in inputs:
                    try:
                        want = expand_by_max_loop(x, e, oracle)
                    except SingularPivotError:
                        with pytest.raises(SingularPivotError):
                            expand_in_canonical(x, oracle)
                        blocked += 1
                        continue
                    got = expand_in_canonical(x, oracle)
                    assert got == want and list(got) == list(want), (e, mu, x)
                    expanded += 1
    assert expanded and blocked


def test_cached_level_breaking_an_invariant_is_discarded_and_rebuilt(tmp_path):
    CanonicalBasisOracle(2, cache_dir=tmp_path).save_level(6)
    cache = OracleCache(tmp_path)
    entries = cache.load(2, 6)
    # a coefficient v^-1 is outside v*N0[v]; the checksum stays valid
    entries[(4, 2)] = entries[(4, 2)] + FockVector.basis((3, 2, 1)).scale(V.bar())
    path = cache.store(2, 6, entries)
    assert cache.load(2, 6) == entries
    oracle = CanonicalBasisOracle(2, cache_dir=tmp_path)
    with pytest.warns(RuntimeWarning, match="canonical_e2_n6.jsonl.*outside"):
        oracle.element((5, 1))
    stats = oracle.stats()
    assert stats["cache_discards"] == 1 and stats["levels_loaded"] == 0
    fresh = CanonicalBasisOracle(2)
    for mu in entries:
        assert oracle.element(mu).vector == fresh.element(mu).vector
    assert not os.path.exists(path)


def test_save_level_without_a_cache_fails_before_computing():
    oracle = CanonicalBasisOracle(2)
    with pytest.raises(ValueError, match="oracle has no cache directory"):
        oracle.save_level(16)
    assert oracle.stats()["computed"] == 0



def _plant_foreign_label(entries):
    entries[(2,)] = vec(((2,), {0: 1}), ((1, 1), {5: 1}))


def _plant_foreign_term(entries):
    entries[(3,)] = entries[(3,)] + FockVector.basis((2, 2)).scale(V)


def _plant_singular_label(entries):
    entries[(1, 1, 1)] = FockVector.basis((1, 1, 1))


@pytest.mark.parametrize(
    "plant, match",
    [
        (_plant_foreign_label, r"\(2,\) is no 2-regular partition of 3"),
        (_plant_foreign_term, r"support of G\(\(3,\)\) contains \(2, 2\), of another size"),
        (_plant_singular_label, r"\(1, 1, 1\) is no 2-regular partition of 3"),
    ],
    ids=["label-of-size-2", "term-of-size-4", "2-singular-label"],
)
def test_cached_record_of_another_level_is_discarded_and_rebuilt(tmp_path, plant, match):
    CanonicalBasisOracle(2, cache_dir=tmp_path / "planted").save_level(3)
    cache = OracleCache(tmp_path / "planted")
    entries = cache.load(2, 3)
    plant(entries)  # the checksum stays valid
    cache.store(2, 3, entries)
    assert cache.load(2, 3) == entries
    oracle = CanonicalBasisOracle(2, cache_dir=tmp_path / "planted")
    with pytest.warns(RuntimeWarning, match="canonical_e2_n3.jsonl: " + match):
        oracle.element((3,))
    assert oracle.stats()["cache_discards"] == 1
    fresh = CanonicalBasisOracle(2, cache_dir=tmp_path / "fresh")
    assert oracle.coefficient((1, 1), (2,)) == fresh.coefficient((1, 1), (2,)) == V
    for mu in [(1,), (2,), (3,), (2, 1)]:
        assert oracle.element(mu).vector == fresh.element(mu).vector
    # a foreign record is not written back
    oracle.save_level(3)
    fresh.save_level(3)
    assert cache.load(2, 3) == OracleCache(tmp_path / "fresh").load(2, 3)


def _rewrite_first_record(path, old, new):
    """Replace old by new in the first record of a level file, as raw text,
    and write the payload's new sha256 into the header, as a foreign writer
    would."""
    with open(path, encoding="utf-8") as fh:
        head, _, payload = fh.read().partition("\n")
    first, _, rest = payload.partition("\n")
    assert old in first
    payload = first.replace(old, new) + "\n" + rest
    header = json.loads(head)
    header["sha256"] = hashlib.sha256(payload.rstrip("\n").encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n" + payload)


@pytest.mark.parametrize("old, new", [
    ('{"2": 1}', "[1]"),
    ('{"2": 1}', '{"2": 1.5}'),
    ('{"2": 1}', '{"2": 1.0}'),
    ('{"2": 1}', '{"2": true}'),
    ('{"2": 1}', '{"2": "1"}'),
    ('{"2": 1}', '{"02": 1}'),
    ('{"2": 1}', '{"2.0": 1}'),
    ('{"2": 1}', '{" 2": 1}'),
    ('"mu": [3, 1]', '"mu": [3, true]'),
    ('"mu": [3, 1]', '"mu": [3.0, 1]'),
    ('"lambda": [2, 1, 1]', '"lambda": [2, 1, "1"]'),
    ('"terms": [', '"terms": {"x": 1}, "": ['),
    # a repeated lambda whose zero poly would erase the v(2,2) term
    ('{"0": 1}}', '{"0": 1}}, {"lambda": [2, 2], "poly": {}}'),
])
def test_cached_record_not_in_the_record_form_is_discarded_and_rebuilt(tmp_path, old, new):
    # G(3,1) at e = 2 is (3,1) + v(2,2) + v^2(2,1,1), the first record of its level
    path = CanonicalBasisOracle(2, cache_dir=tmp_path).save_level(4)
    _rewrite_first_record(path, old, new)
    with pytest.raises(CacheError, match="malformed record"):
        OracleCache(tmp_path).load(2, 4)
    oracle = CanonicalBasisOracle(2, cache_dir=tmp_path)
    with pytest.warns(RuntimeWarning, match="canonical_e2_n4.jsonl: malformed record"):
        got = oracle.coefficient((2, 1, 1), (3, 1))
    assert oracle.stats()["cache_discards"] == 1
    fresh = CanonicalBasisOracle(2)
    assert got == fresh.coefficient((2, 1, 1), (3, 1)) == V * V
    for mu in [(3, 1), (4,)]:
        assert oracle.element(mu).vector == fresh.element(mu).vector


def test_element_json_round_trips_and_matches_the_cache_lines(tmp_path):
    oracle = CanonicalBasisOracle(3)
    path = CanonicalBasisOracle(3, cache_dir=tmp_path).save_level(7)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    elements = [
        oracle.element(mu) for mu in sorted(partitions_of(7)) if is_e_regular(mu, 3)
    ]
    assert lines == [json.dumps(g.to_json(), sort_keys=True) for g in elements]
    for g in elements:
        assert CanonicalBasisElement.from_json(json.loads(json.dumps(g.to_json()))) == g


def test_apply_f_and_basis_check_their_input():
    with pytest.raises(ValueError, match="^e must be at least 2$"):
        apply_f(FockVector.basis((1,)), 1, 0)
    with pytest.raises(ValueError, match=r"^parts must be weakly decreasing, got \(1, 2\)$"):
        FockVector.basis((1, 2))
    assert FockVector.basis([2, 1]) == FockVector.basis((2, 1))
