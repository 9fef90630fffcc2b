"""Level-1 Fock space vectors, the node-adding operators, and the
canonical-basis oracle.

Vectors are finite formal sums of partitions with Laurent-polynomial
coefficients.  The operator f_r adds one indent r-node in all possible
ways, weighting each addition by v to the power (indent r-nodes strictly
to the right) minus (removable r-nodes strictly to the right).

The oracle computes the canonical basis element G(mu) for e-regular mu:
seed with the ladder monomial applied to the vacuum (a bar-invariant
vector equal to mu plus dominated terms), then repeatedly strip the
bar-symmetric part of the dominance-maximal offending coefficient using
previously computed canonical elements, until every off-diagonal
coefficient lies in v*N0[v].
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .laurent import LaurentPolynomial, ZERO, exact_divide, quantum_factorial
from .partitions import (
    Partition,
    add_cell,
    boundary_nodes,
    cells,
    check_e,
    check_partition,
    dominates,
    residue,
)


Node = tuple[int, int]


class ERegularError(ValueError):
    """The oracle only covers e-regular column labels."""


class UnitriangularityError(RuntimeError):
    """A structural assumption of the elimination failed; results unusable."""


class CacheError(IOError):
    """An oracle cache file is missing a valid checksum or is malformed."""


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
        return cls({p: LaurentPolynomial.one()})

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

    @property
    def is_zero(self) -> bool:
        return not self._terms

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

    def __sub__(self, other: "FockVector") -> "FockVector":
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, ZERO) - c
        return FockVector(out)

    def scale(self, c: LaurentPolynomial | int) -> "FockVector":
        return FockVector({p: coeff * c for p, coeff in self._terms.items()})

    def __repr__(self) -> str:
        inner = " + ".join(f"({c})*{p}" for p, c in self.items())
        return f"FockVector({inner or '0'})"


def apply_f(x: FockVector, e: int, r: int) -> FockVector:
    """Linear extension of the indent-node-adding operator of residue r."""
    out: dict[Partition, LaurentPolynomial] = {}
    for lam, coeff in x.items():
        removable, indent = boundary_nodes(lam, e, r)
        removable_cols = [n[1] for n in removable]
        for idx, node in enumerate(indent):
            col = node[1]
            n_right = (len(indent) - idx - 1) - sum(1 for c in removable_cols if c > col)
            mu = add_cell(lam, node)
            term = coeff * LaurentPolynomial.monomial(n_right)
            out[mu] = out.get(mu, ZERO) + term
    return FockVector(out)


def apply_f_divided(x: FockVector, e: int, r: int, k: int) -> FockVector:
    """k-fold application of f_r divided exactly by [k]!."""
    if k < 1:
        raise ValueError("divided power needs k >= 1")
    y = x
    for _ in range(k):
        y = apply_f(y, e, r)
    fact = quantum_factorial(k)
    return FockVector({p: exact_divide(c, fact) for p, c in y.items()})


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


def _dominance_maximal(candidates: Iterable[Partition]) -> Partition:
    pool = list(candidates)
    maximal = [
        p for p in pool if not any(q != p and dominates(q, p) for q in pool)
    ]
    return max(maximal)  # deterministic tie-break: lexicographically largest


class CanonicalBasisOracle:
    """Memoised canonical-basis computation for a fixed modulus e.

    The memo table and ``cache_discards`` (corrupt cache levels dropped and
    recomputed) are the only mutable state; a re-entrant lock serialises
    writes so concurrent callers each see every (e, mu) computed once.
    """

    def __init__(self, e: int, cache_dir: str | os.PathLike | None = None):
        self.e = check_e(e)
        self._memo: dict[Partition, FockVector] = {(): FockVector.basis(())}
        self._lock = threading.RLock()
        self._cache = OracleCache(cache_dir) if cache_dir else None
        self._loaded_levels: set[int] = set()
        self.cache_discards = 0

    def element(self, mu: Partition) -> CanonicalBasisElement:
        mu = check_partition(mu)
        if not is_e_regular(mu, self.e):
            raise ERegularError(
                f"{mu} is {self.e}-singular; the ladder-seed oracle does not cover it"
            )
        with self._lock:
            if self._cache is not None and sum(mu) not in self._loaded_levels:
                self._load_level(sum(mu))
            vec = self._compute(mu)
        return CanonicalBasisElement(mu=mu, vector=vec)

    def coefficient(self, lam: Partition, mu: Partition) -> LaurentPolynomial:
        lam = check_partition(lam)
        mu = check_partition(mu)
        if sum(lam) != sum(mu):
            raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
        return self.element(mu).coefficient(lam)

    def _compute(self, mu: Partition) -> FockVector:
        if mu in self._memo:
            return self._memo[mu]
        vec = ladder_monomial(mu, self.e).apply_to_vacuum()
        if vec.coefficient(mu) != 1:
            raise UnitriangularityError(
                f"ladder seed of {mu} has diagonal coefficient {vec.coefficient(mu)}"
            )
        while True:
            offending = [
                p
                for p, c in vec.items()
                if p != mu and any(exp <= 0 for exp, _ in c.items())
            ]
            if not offending:
                break
            nu = _dominance_maximal(offending)
            if not is_e_regular(nu, self.e):
                raise UnitriangularityError(
                    f"elimination for {mu} hit the {self.e}-singular pivot {nu}"
                )
            symmetric, _ = vec.coefficient(nu).symmetric_split()
            vec = vec - self._compute(nu).scale(symmetric)
        self._check_element(mu, vec)
        self._memo[mu] = vec
        return vec

    def _check_element(self, mu: Partition, vec: FockVector) -> None:
        if vec.coefficient(mu) != 1:
            raise UnitriangularityError(f"diagonal coefficient at {mu} is not 1")
        for p, c in vec.items():
            if p == mu:
                continue
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
        if self._cache is None:
            return
        try:
            records = self._cache.load(self.e, n)
        except FileNotFoundError:
            return
        except CacheError as exc:
            # corrupt file: drop it and recompute, but say so
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

    def save_level(self, n: int) -> str:
        """Compute every e-regular element of size n and write the level file."""
        from .partitions import partitions_of

        if n < 0:
            raise ValueError(f"cache level size must be non-negative, got {n}")
        with self._lock:
            for mu in partitions_of(n):
                if is_e_regular(mu, self.e):
                    self.element(mu)
            entries = {
                mu: vec for mu, vec in self._memo.items() if sum(mu) == n
            }
            if self._cache is None:
                raise ValueError("oracle has no cache directory")
            return self._cache.store(self.e, n, entries)


class OracleCache:
    """One JSON-lines file per (e, n) with a checksummed header.

    Writes are atomic (temp file + rename); loads verify the payload
    checksum and raise CacheError on any mismatch so callers recompute
    rather than trust a damaged file.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)

    def path(self, e: int, n: int) -> str:
        return os.path.join(self.directory, f"canonical_e{e}_n{n}.jsonl")

    def store(self, e: int, n: int, entries: Mapping[Partition, FockVector]) -> str:
        os.makedirs(self.directory, exist_ok=True)
        lines = []
        for mu in sorted(entries):
            record = {
                "mu": list(mu),
                "terms": [
                    {"lambda": list(p), "poly": c.to_json()}
                    for p, c in entries[mu].items()
                ],
            }
            lines.append(json.dumps(record, sort_keys=True))
        payload = "\n".join(lines)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        header = json.dumps({"e": e, "n": n, "count": len(lines), "sha256": digest})
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
        if header.get("e") != e or header.get("n") != n:
            raise CacheError(f"{path}: header labels wrong level")
        out: dict[Partition, FockVector] = {}
        lines = payload.split("\n") if payload else []
        if len(lines) != header.get("count"):
            raise CacheError(f"{path}: record count mismatch")
        try:
            for line in lines:
                record = json.loads(line)
                mu = check_partition(record["mu"])
                terms = {
                    check_partition(t["lambda"]): LaurentPolynomial.from_json(t["poly"])
                    for t in record["terms"]
                }
                out[mu] = FockVector(terms)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"{path}: malformed record") from exc
        return out

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
    """Compute one cache level, write it, and read it back.

    The reloaded coefficients must be identical to the in-memory ones; any
    checksum or decoding problem surfaces as CacheError rather than being
    ignored.
    """
    oracle = CanonicalBasisOracle(e, cache_dir=directory)
    path = oracle.save_level(n)
    reloaded = OracleCache(directory).load(e, n)
    expected = {mu: vec for mu, vec in oracle._memo.items() if sum(mu) == n}
    if reloaded != expected:
        raise CacheError(f"{path}: reloaded level differs from computed level")
    return {"written": path, "entries": len(reloaded), "roundtrip": "ok"}


class SingularPivotError(ValueError):
    """A canonical-basis expansion needed an e-singular element."""


def expand_in_canonical(
    x: FockVector, e: int, oracle: CanonicalBasisOracle | None = None
) -> dict[Partition, LaurentPolynomial]:
    """Write x as a combination of canonical basis elements.

    Gaussian from the top: the dominance-maximal support member must be the
    label of a canonical element, so its coefficient is final.  Raises
    SingularPivotError when a needed label is e-singular.
    """
    oracle = oracle or get_oracle(e)
    rem = dict(x.items())
    out: dict[Partition, LaurentPolynomial] = {}
    while rem:
        sigma = _dominance_maximal(rem)
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
