"""Level-1 Fock space vectors, the node-adding operators, and the
canonical-basis oracle.

Vectors are finite formal sums of partitions with Laurent-polynomial
coefficients.  The operator f_r adds one indent r-node in all possible
ways, weighting each addition by v to the power (indent r-nodes strictly
to the right) minus (removable r-nodes strictly to the right).

The oracle computes the canonical basis element G(mu) for e-regular mu:
seed with f_r^(k) G(nu), where nu is mu without its last ladder of k
r-nodes (a bar-invariant vector equal to mu plus lexicographically smaller
terms; G(nu) comes from the same memo), then strip the bar-symmetric part
of each offending coefficient using previously computed canonical
elements, until every off-diagonal coefficient lies in v*N0[v].
One pass in decreasing lexicographic order does it: the lexicographically
largest offending partition is always dominance-maximal.  The same pass,
``_eliminate``, writes vectors in the canonical basis
(``expand_in_canonical``); only what it adds at each pivot differs.
Divided powers f_r^(k) come from their closed form, one weighted term per
k-set of indent r-nodes.

Besides the oracle's memo of G, one bounded memo (``functools.lru_cache``,
``_ADDITION_CACHE`` entries) keeps the per-partition terms of f_r^(k): the
partitions lam + S and their exponents, keyed on (lam, e, r, k).  It
returns an immutable value, and every runtime check runs as it did without
the memo.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Mapping

from .laurent import LaurentPolynomial, ZERO
from .partitions import (
    Partition,
    add_cell,
    boundary_nodes,
    cells,
    check_e,
    check_partition,
    check_residue,
    dominates,
    partitions_of,
    residue,
)


Node = tuple[int, int]


class ERegularError(ValueError):
    """The oracle only covers e-regular column labels."""


class UnitriangularityError(RuntimeError):
    """A structural assumption of the elimination failed; results unusable."""


class CacheError(IOError):
    """An oracle cache file is missing a valid checksum, is malformed, or
    holds a record that breaks a canonical-basis invariant."""


def is_e_regular(p: Partition, e: int) -> bool:
    """True iff no part value occurs e or more times."""
    check_e(e)
    run = 1
    for i in range(1, len(p)):
        run = run + 1 if p[i] == p[i - 1] else 1
        if run >= e:
            return False
    return True


class FockVector:
    """Immutable finite sum of partitions with Laurent coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Partition, LaurentPolynomial] | None = None):
        data = {}
        if terms:
            for p, c in terms.items():
                if c:
                    data[p] = c
        object.__setattr__(self, "_terms", data)

    @classmethod
    def basis(cls, p: Partition) -> "FockVector":
        return cls({check_partition(p): LaurentPolynomial.one()})

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def items(self) -> Iterator[tuple[Partition, LaurentPolynomial]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, p: Partition) -> LaurentPolynomial:
        return self._terms.get(p, ZERO)

    @property
    def support(self) -> frozenset[Partition]:
        return frozenset(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, ZERO) + c
        return FockVector(out)

    def scale(self, c: LaurentPolynomial | int) -> "FockVector":
        return FockVector({p: coeff * c for p, coeff in self._terms.items()})

    def __repr__(self) -> str:
        inner = " + ".join(f"({c})*{p}" for p, c in self.items())
        return f"FockVector({inner or '0'})"


def apply_f(x: FockVector, e: int, r: int) -> FockVector:
    """Linear extension of the indent-node-adding operator of residue r."""
    return _add_indent_nodes(x, e, r, 1)


def apply_f_divided(x: FockVector, e: int, r: int, k: int) -> FockVector:
    """The divided power f_r^(k) = f_r^k / [k]!, in closed form.

    Adding an r-node leaves every other r-node indent or removable as it
    was, so f_r^k adds each k-set S of indent r-nodes once per order.  Each
    pair of nodes of S contributes v^(+1) or v^(-1) by which comes first,
    and over the k! orders those factors sum to [k]!.  What is left is the
    order-free weight of ``_add_indent_nodes`` (Lascoux-Leclerc-Thibon,
    CMP 181, 1996, section 4), so no division is needed.
    """
    if k < 1:
        raise ValueError("divided power needs k >= 1")
    return _add_indent_nodes(x, e, r, k)


def _add_indent_nodes(x: FockVector, e: int, r: int, k: int) -> FockVector:
    """Add every k-set S of indent r-nodes to each partition of x, shifting
    its coefficient by the sum over gamma in S of (indent r-nodes not in S
    to the right of gamma) minus (removable r-nodes to the right of gamma)."""
    check_residue(e, r)  # once, ahead of the memo, which would answer r=1.0 as 1
    out: dict[Partition, dict[int, int]] = {}
    for lam, coeff in x._terms.items():
        terms = list(coeff.items())
        for mu, exponent in _indent_additions(lam, e, r, k):
            acc = out.setdefault(mu, {})
            for exp, c in terms:
                acc[exp + exponent] = acc.get(exp + exponent, 0) + c
    return FockVector({mu: LaurentPolynomial(acc) for mu, acc in out.items()})


# Per-partition terms of f_r^(k) memoised per (lam, e, r, k).  The oracle
# applies f_r^(k) to G(nu) for many mu, and those vectors share most of their
# partitions.
_ADDITION_CACHE = 4096


@lru_cache(maxsize=_ADDITION_CACHE)
def _indent_additions(
    lam: Partition, e: int, r: int, k: int
) -> tuple[tuple[Partition, int], ...]:
    """(lam plus S, exponent of S) for every k-set S of indent r-nodes of lam,
    S in lexicographic order of its column-sorted indices."""
    removable, indent = boundary_nodes(lam, e, r)
    # weight of adding indent[i] alone: indent minus removable to its right
    alone = [
        len(indent) - i - 1 - sum(1 for node in removable if node[1] > col)
        for i, (_, col) in enumerate(indent)
    ]
    out = []
    for subset in combinations(range(len(indent)), k):
        # the j-th node of S from the right loses j nodes of S from its count
        exponent = sum(alone[i] for i in subset) - k * (k - 1) // 2
        mu = lam
        for i in subset:
            mu = add_cell(mu, indent[i])
        out.append((mu, exponent))
    return tuple(out)


@dataclass(frozen=True)
class LadderMonomial:
    """Residue/multiplicity steps read off the ladders of a partition.

    The ladder number of a node (i, j) is i + (e-1)(j-1); nodes on one
    ladder share a residue.  Applying the steps in order to the vacuum
    rebuilds the partition's node set ladder by ladder.
    """

    e: int
    steps: tuple[tuple[int, int], ...]

    def apply_to_vacuum(self) -> FockVector:
        x = FockVector.basis(())
        for r, k in self.steps:
            x = apply_f_divided(x, self.e, r, k)
        return x


def ladder_monomial(p: Partition, e: int) -> LadderMonomial:
    groups: dict[int, list[Node]] = {}
    for node in cells(p):
        i, j = node
        groups.setdefault(i + (e - 1) * (j - 1), []).append(node)
    steps = []
    for ladder in sorted(groups):
        nodes = groups[ladder]
        rs = {residue(n, e) for n in nodes}
        if len(rs) != 1:
            raise AssertionError(f"ladder {ladder} of {p} mixes residues {rs}")
        steps.append((rs.pop(), len(nodes)))
    return LadderMonomial(e=e, steps=tuple(steps))


@dataclass(frozen=True)
class CanonicalBasisElement:
    mu: Partition
    vector: FockVector

    def coefficient(self, lam: Partition) -> LaurentPolynomial:
        return self.vector.coefficient(lam)

    def to_json(self) -> dict:
        """The record of one cache line and of ``fockpath oracle --json``."""
        return {
            "mu": list(self.mu),
            "terms": [{"lambda": list(p), "poly": c.to_json()} for p, c in self.vector.items()],
        }

    @classmethod
    def from_json(cls, record: Mapping) -> "CanonicalBasisElement":
        """The inverse of to_json.  Parts, exponents and coefficients must be
        JSON integers and no lambda may repeat (a later term would replace an
        earlier one): anything else raises TypeError or ValueError."""
        terms = {_json_partition(t["lambda"]): LaurentPolynomial.from_json(t["poly"])
                 for t in record["terms"]}
        if len(terms) != len(record["terms"]):
            raise ValueError(f"a lambda repeats in the terms of G({record['mu']})")
        return cls(_json_partition(record["mu"]), FockVector(terms))


def _json_partition(parts) -> Partition:
    if type(parts) is not list or not {int}.issuperset(map(type, parts)):
        raise TypeError(f"a partition is a JSON array of integers, got {parts!r}")
    return check_partition(parts)


def _descending(p: Partition) -> tuple[int, ...]:
    """Heap key that pops partitions of one size in decreasing
    lexicographic order."""
    return tuple(-part for part in p)


def _eliminate(terms, element, pivot) -> dict[Partition, LaurentPolynomial]:
    """terms plus multiples of canonical elements, added top down: at each
    nonzero coefficient c of a partition nu, in decreasing lexicographic
    order, pivot(nu, c) gives the multiple of G(nu) = element(nu) to add,
    or None.

    If q dominates p and q != p, the first part where they differ is larger
    in q, so q > p lexicographically.  G(nu) lives on partitions nu
    dominates, so adding it changes only coefficients below nu, and the
    pass meets each partition after its last change.  Heap keys are negated
    parts: partitions of one size are never prefixes of each other.
    """
    coeffs = dict(terms)
    pending = [(_descending(p), p) for p in coeffs]
    heapq.heapify(pending)
    while pending:
        _, nu = heapq.heappop(pending)
        c = coeffs[nu]
        multiple = pivot(nu, c) if c else None
        if multiple is None:
            continue
        for p, cp in element(nu)._terms.items():
            if p > nu:
                raise UnitriangularityError(
                    f"support of G({nu}) contains {p}, lexicographically above it"
                )
            if p not in coeffs:
                heapq.heappush(pending, (_descending(p), p))
            coeffs[p] = coeffs.get(p, ZERO) + cp * multiple
    return coeffs


class CanonicalBasisOracle:
    """Memoised canonical-basis computation for a fixed modulus e.

    The memo table and the counters that ``stats`` reports are the only
    mutable state; a re-entrant lock serialises them so concurrent callers
    each see every (e, mu) computed once.
    """

    def __init__(self, e: int, cache_dir: str | os.PathLike | None = None):
        self.e = check_e(e)
        self._memo: dict[Partition, FockVector] = {(): FockVector.basis(())}
        self._lock = threading.RLock()
        self._cache = OracleCache(cache_dir) if cache_dir else None
        self._loaded_levels: set[int] = set()
        self.memo_hits = 0
        self.computed = 0
        self.levels_loaded = 0
        self.levels_missing = 0
        self.cache_discards = 0

    def stats(self) -> dict[str, int]:
        """What the oracle did so far: memo size and hits, elements computed
        by elimination, and cache levels loaded, missing and discarded."""
        with self._lock:
            return {
                "memo_size": len(self._memo),
                "memo_hits": self.memo_hits,
                "computed": self.computed,
                "levels_loaded": self.levels_loaded,
                "levels_missing": self.levels_missing,
                "cache_discards": self.cache_discards,
            }

    def element(self, mu: Partition) -> CanonicalBasisElement:
        mu = check_partition(mu)
        if not is_e_regular(mu, self.e):
            raise ERegularError(
                f"{mu} is {self.e}-singular; the ladder-seed oracle does not cover it"
            )
        with self._lock:
            vec = self._compute(mu)
        return CanonicalBasisElement(mu=mu, vector=vec)

    def coefficient(self, lam: Partition, mu: Partition) -> LaurentPolynomial:
        lam = check_partition(lam)
        mu = check_partition(mu)
        if sum(lam) != sum(mu):
            raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
        return self.element(mu).coefficient(lam)

    def _compute(self, mu: Partition) -> FockVector:
        if self._cache is not None and sum(mu) not in self._loaded_levels:
            self._load_level(sum(mu))
        if mu in self._memo:
            self.memo_hits += 1
            return self._memo[mu]
        # Seed with f_r^(k) G(nu): (r, k) is the last ladder step and nu is mu
        # without that ladder's k nodes, which end their rows; nu keeps mu's
        # other ladders, so it is an e-regular partition.  A node on ladder L
        # has residue 1 - L mod e.  The seed is bar-invariant, as f_r^(k)
        # commutes with bar, so elimination gives the unique G(mu) if the seed
        # is 1 at mu and lexicographically below mu elsewhere; both are checked.
        end_ladders = [i + (self.e - 1) * (part - 1) for i, part in enumerate(mu, 1)]
        top = max(end_ladders)
        truncated = tuple(p - 1 if end == top else p for p, end in zip(mu, end_ladders))
        below = self._compute(tuple(p for p in truncated if p))
        seed = apply_f_divided(below, self.e, (1 - top) % self.e, end_ladders.count(top))
        if seed.coefficient(mu) != 1:
            raise UnitriangularityError(
                f"ladder seed of {mu} has diagonal coefficient {seed.coefficient(mu)}"
            )

        def strip(nu: Partition, c: LaurentPolynomial) -> LaurentPolynomial | None:
            if nu > mu:
                raise UnitriangularityError(
                    f"seed of {mu} holds {nu}, lexicographically above it"
                )
            if nu == mu or c.min_exponent > 0:
                return None
            if not is_e_regular(nu, self.e):
                raise UnitriangularityError(
                    f"elimination for {mu} hit the {self.e}-singular pivot {nu}"
                )
            return -c.symmetric_split()[0]

        coeffs = _eliminate(seed._terms, self._compute, strip)
        vec = FockVector(coeffs)
        self._check_element(mu, vec)
        self._memo[mu] = vec
        self.computed += 1
        return vec

    def _check_element(self, mu: Partition, vec: FockVector) -> None:
        if vec.coefficient(mu) != 1:
            raise UnitriangularityError(f"diagonal coefficient at {mu} is not 1")
        size = sum(mu)
        for p, c in vec._terms.items():
            if p == mu:
                continue
            if sum(p) != size:
                raise UnitriangularityError(f"support of G({mu}) contains {p}, of another size")
            if not c.in_positive_part():
                raise UnitriangularityError(
                    f"coefficient of {p} in G({mu}) is {c}, outside v*N0[v]"
                )
            if dominates(p, mu):
                raise UnitriangularityError(
                    f"support of G({mu}) contains the dominating partition {p}"
                )

    # -- disk cache ---------------------------------------------------

    def _load_level(self, n: int) -> None:
        self._loaded_levels.add(n)
        path = self._cache.path(self.e, n)
        try:
            records = self._cache.load(self.e, n)
            for mu, vec in records.items():
                if sum(mu) != n or not is_e_regular(mu, self.e):
                    raise CacheError(f"{path}: {mu} is no {self.e}-regular partition of {n}")
                try:
                    self._check_element(mu, vec)
                except UnitriangularityError as exc:
                    raise CacheError(f"{path}: {exc}") from exc
        except FileNotFoundError:
            self.levels_missing += 1
            return
        except CacheError as exc:
            # corrupt file, foreign record or broken invariant: recompute, but say so
            self._cache.discard(self.e, n)
            self.cache_discards += 1
            warnings.warn(
                f"{exc}; discarded the corrupt oracle cache level, recomputing it",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        for mu, vec in records.items():
            self._memo[mu] = vec
        self.levels_loaded += 1

    def level(self, n: int) -> dict[Partition, FockVector]:
        """Every e-regular element of size n, by label."""
        if n < 0:
            raise ValueError(f"cache level size must be non-negative, got {n}")
        with self._lock:
            return {
                mu: self.element(mu).vector for mu in partitions_of(n) if is_e_regular(mu, self.e)
            }

    def save_level(self, n: int) -> str:
        """Compute every e-regular element of size n and write the level file."""
        if self._cache is None:
            raise ValueError("oracle has no cache directory")
        return self._cache.store(self.e, n, self.level(n))


# The layout of a cache level file; a level written in another format is
# rejected on load like a damaged one.
CACHE_FORMAT = 1


class OracleCache:
    """One JSON-lines file per (e, n) with a checksummed header, then one
    line per element: its ``CanonicalBasisElement.to_json`` record.

    Writes are atomic (temp file + rename); loads verify the payload
    checksum and the header's ``format`` and raise CacheError on any
    mismatch so callers recompute rather than trust a damaged or foreign
    file.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)

    def path(self, e: int, n: int) -> str:
        return os.path.join(self.directory, f"canonical_e{e}_n{n}.jsonl")

    def store(self, e: int, n: int, entries: Mapping[Partition, FockVector]) -> str:
        os.makedirs(self.directory, exist_ok=True)
        lines = [
            json.dumps(CanonicalBasisElement(mu, entries[mu]).to_json(), sort_keys=True)
            for mu in sorted(entries)
        ]
        payload = "\n".join(lines)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        header = json.dumps(
            {"format": CACHE_FORMAT, "e": e, "n": n, "count": len(lines), "sha256": digest}
        )
        target = self.path(e, n)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(header + "\n" + payload + ("\n" if payload else ""))
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return target

    def load(self, e: int, n: int) -> dict[Partition, FockVector]:
        path = self.path(e, n)
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            raw = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheError(f"{path}: not valid UTF-8") from exc
        head, _, payload = raw.partition("\n")
        payload = payload.rstrip("\n")
        try:
            header = json.loads(head)
        except json.JSONDecodeError as exc:
            raise CacheError(f"{path}: unreadable header") from exc
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if not isinstance(header, dict) or header.get("sha256") != digest:
            raise CacheError(f"{path}: checksum mismatch")
        if header.get("format") != CACHE_FORMAT:
            raise CacheError(
                f"{path}: cache format {header.get('format')!r}, expected {CACHE_FORMAT}"
            )
        if header.get("e") != e or header.get("n") != n:
            raise CacheError(f"{path}: header labels wrong level")
        lines = payload.split("\n") if payload else []
        if len(lines) != header.get("count"):
            raise CacheError(f"{path}: record count mismatch")
        try:
            elements = [CanonicalBasisElement.from_json(json.loads(line)) for line in lines]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"{path}: malformed record") from exc
        return {g.mu: g.vector for g in elements}

    def discard(self, e: int, n: int) -> None:
        try:
            os.unlink(self.path(e, n))
        except FileNotFoundError:
            pass


_oracles: dict[tuple[int, str | None], CanonicalBasisOracle] = {}
_oracles_lock = threading.Lock()


def get_oracle(e: int, cache_dir: str | os.PathLike | None = None) -> CanonicalBasisOracle:
    key = (e, os.fspath(cache_dir) if cache_dir is not None else None)
    with _oracles_lock:
        if key not in _oracles:
            _oracles[key] = CanonicalBasisOracle(e, cache_dir)
        return _oracles[key]


def canonical_basis(
    mu: Partition, e: int, cache_dir: str | os.PathLike | None = None
) -> CanonicalBasisElement:
    return get_oracle(e, cache_dir).element(mu)


def oracle_coefficient(
    lam: Partition, mu: Partition, e: int, cache_dir: str | os.PathLike | None = None
) -> LaurentPolynomial:
    return get_oracle(e, cache_dir).coefficient(lam, mu)


def cache_roundtrip(directory: str | os.PathLike, e: int, n: int) -> dict:
    """Compute one cache level without the cache, write it, and read it
    back.  A level on disk that fails to load or differs from it is reported
    (RuntimeWarning) and replaced; a reloaded level that differs raises
    CacheError."""
    entries = CanonicalBasisOracle(e).level(n)
    cache = OracleCache(directory)
    path = cache.path(e, n)
    try:
        found = cache.load(e, n)
        stale = None if found == entries else f"{path}: level differs from the computed one"
    except FileNotFoundError:
        stale = None
    except CacheError as exc:
        stale = str(exc)
    if stale:
        warnings.warn(f"{stale}; rewriting it", RuntimeWarning, stacklevel=2)
    cache.store(e, n, entries)
    if cache.load(e, n) != entries:
        raise CacheError(f"{path}: reloaded level differs from computed level")
    return {"written": path, "entries": len(entries), "roundtrip": "ok"}


class SingularPivotError(ValueError):
    """A canonical-basis expansion needed an e-singular element."""


def expand_in_canonical(
    x: FockVector, oracle: CanonicalBasisOracle
) -> dict[Partition, LaurentPolynomial]:
    """Write x as a combination of canonical basis elements, at e = oracle.e.

    Gaussian from the top, in the oracle's pass (``_eliminate``): the
    lexicographically largest, hence dominance-maximal, support member must
    be the label of a canonical element, so its coefficient is final.
    Raises SingularPivotError when a needed label is e-singular and
    UnitriangularityError when an element reaches above its label.
    """
    e = oracle.e
    out: dict[Partition, LaurentPolynomial] = {}

    def record(sigma: Partition, c: LaurentPolynomial) -> LaurentPolynomial:
        if not is_e_regular(sigma, e):
            raise SingularPivotError(f"expansion pivot {sigma} is {e}-singular")
        out[sigma] = c
        return -c

    _eliminate(x._terms, lambda sigma: oracle.element(sigma).vector, record)
    return out
