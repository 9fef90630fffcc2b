"""Values built in one write (``signseq._frozen``) from parts already checked
equal their public-constructor twins, and each build writes every field."""

import dataclasses
import random
from collections import Counter

from fockpath.bijection import LeftElement, RightElement, left_elements, right_elements
from fockpath.closedform import norm_polynomial
from fockpath.laurent import LaurentPolynomial
from fockpath.latticepath import (
    LatticedPath,
    WellNestedCollection,
    latticed_paths,
    well_nested_collections,
)
from fockpath.signseq import SignSequence, bijective
from fockpath.sweeps import sample_instances


def seeded_sequences(count, seed=31):
    """Sign sequences on scattered, possibly negative positions."""
    rng = random.Random(seed)
    for _ in range(count):
        positions = rng.sample(range(-12, 13), rng.randint(0, 9))
        plus = frozenset(p for p in positions if rng.random() < 0.5)
        yield SignSequence(plus, frozenset(positions) - plus)


def windows(t):
    """restrict on every pair of bounds: open (None), on and beside each
    position, and beyond both ends."""
    ends = [min(t.positions, default=0) - 5, max(t.positions, default=0) + 5]
    cuts = [None, *ends, *sorted({p + d for p in t.positions for d in (-1, 0, 1)})]
    for lower in cuts:
        for upper in cuts:
            yield t.restrict(lower, upper)


def moves(t):
    """(A, B) with A among t's minus positions, B among its plus positions,
    matching perfectly; and each again with one minus position self-paired."""
    minus, plus = sorted(t.minus), sorted(t.plus)
    for i in range(2 ** len(minus)):
        a = frozenset(p for k, p in enumerate(minus) if i >> k & 1)
        for j in range(2 ** len(plus)):
            b = frozenset(p for k, p in enumerate(plus) if j >> k & 1)
            if bijective(a, b):
                yield a, b
                spare = t.minus - a
                if spare:
                    yield a | {min(spare)}, b | {min(spare)}


def same_value(built, twin):
    assert built == twin and not built != twin
    assert hash(built) == hash(twin)
    assert repr(built) == repr(twin)


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_windows_equal_the_public_sequence():
    for t in seeded_sequences(120):
        for w in windows(t):
            twin = SignSequence(w.plus, w.minus)
            same_value(w, twin)
            assert w.positions == twin.positions
            assert w.word == twin.word


def test_paths_equal_the_public_path():
    for t in seeded_sequences(120):
        for w in windows(t):
            for path in latticed_paths(w):
                twin = LatticedPath(w, path.flattened)
                same_value(path, twin)
                assert path.norm == twin.norm


def test_collections_and_their_norm_polynomials_equal_the_public_ones():
    assert norm_polynomial([]) == LaurentPolynomial(Counter()) == LaurentPolynomial()
    for t in seeded_sequences(200):
        for a, b in moves(t):
            collections = well_nested_collections(t, a, b)
            assert collections
            for c in collections:
                twin = WellNestedCollection(c.base, c.entries)
                same_value(c, twin)
                assert c.norm == twin.norm
            poly = norm_polynomial(collections)
            want = LaurentPolynomial(Counter(c.norm for c in collections))
            assert poly == want and repr(poly) == repr(want)


def test_left_and_right_elements_equal_the_public_ones():
    for t, a, b in sample_instances(300, 10, seed=31):
        lefts, rights = left_elements(t, a, b), right_elements(t, a, b)
        for x in lefts:
            same_value(x, LeftElement(x.position, x.collection, x.norm))
        for x in rights:
            same_value(x, RightElement(x.valley, x.marker, x.collection, x.norm))
        assert norm_polynomial(lefts) == LaurentPolynomial(Counter(x.norm for x in lefts))
        assert norm_polynomial(lefts) == norm_polynomial(rights)


def test_each_trusted_build_writes_every_field_and_the_views_it_names():
    t = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))
    window = t.restrict(1, 9)
    assert set(vars(window)) == field_names(SignSequence) | {"positions", "word"}
    for path in latticed_paths.__wrapped__(window):
        assert set(vars(path)) == field_names(LatticedPath) | {"norm"}
    for c in well_nested_collections(t, {1, 4}, {5, 9}):
        assert set(vars(c)) == field_names(WellNestedCollection) | {"norm"}
    a, b = frozenset({4}), frozenset()
    for x in left_elements(t, a, b):
        assert set(vars(x)) == field_names(LeftElement)
    for x in right_elements(t, a, b):
        assert set(vars(x)) == field_names(RightElement)


def test_the_trusted_classes_keep_an_instance_dict():
    # the builds write the instance __dict__; slots=True would take it away
    for cls in (SignSequence, LatticedPath, WellNestedCollection, LeftElement, RightElement):
        assert "__slots__" not in vars(cls), cls.__name__
    assert vars(SignSequence(frozenset(), frozenset())) == {"plus": frozenset(), "minus": frozenset()}
