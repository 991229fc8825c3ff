"""Instance generators: weighted matroids, rank valuations, modular plus
concave-of-cardinality functions, adversarial mutants, and exhaustive
tiny-universe streams.

Generators self-validate through the checkers; an instance that fails its
own class axiom is an internal error, not a return value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from random import Random

from .checkers import check_single_exchange, check_valuated_matroid
from .core import PriceVector, SetFamily, SetFunction, _check_ground_size, _check_mask, with_value
from .errors import InputError, InternalCheckError
from .sets import elements_of, iter_bits
from .values import (
    ExtValue, _require_int, as_ext_value, finite_value, is_finite, require_nonnegative_int,
)

__all__ = [
    "MatroidSpec",
    "EnumerationSpec",
    "gen_weighted_matroid",
    "gen_rank_valuation",
    "gen_modular_plus_concave",
    "mutate",
    "enumerate_functions",
]

_MAX_GRAPH_VERTICES = 5
_MAX_GRAPH_EDGES = 10
_MAX_ENUMERATION = 10**7


@dataclass(frozen=True)
class MatroidSpec:
    """A small matroid given explicitly: uniform, graphic, partition, or free.

    The ``free`` kind designates every subset as a member, so its weighted
    valuation is modular with full domain.  Graphic matroids are limited to
    five vertices and ten edges; bases are enumerated by brute force.
    """

    kind: str
    n: int
    k: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    capacities: tuple[int, ...] | None = None
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        """The one gate for the fields each kind needs, however the spec is
        built: the classmethods only shape their arguments.  Edges become
        pairs, blocks sorted tuples and weights Fractions."""
        if self.kind == "uniform":
            _require_int("k", self.k)
            _require_int("n", self.n)
            if not (0 <= self.k <= self.n):
                raise InputError(
                    f"uniform matroid needs 0 <= k <= n, got k={self.k}, n={self.n}")
        elif self.kind == "graphic":
            self._check_edges()
        elif self.kind == "partition":
            self._check_blocks()
        elif self.kind == "free":
            _require_int("n", self.n)
            if self.n < 1:
                raise InputError("free kind needs n >= 1")
        else:
            raise InputError(f"unknown matroid kind {self.kind!r}")
        object.__setattr__(self, "weights", _norm_weights(self.weights, self.n))
        # before bases() enumerates up to 2^n members
        _check_ground_size(self.n)

    def _check_edges(self):
        es = tuple(tuple(e) for e in self.edges or ())
        for e in es:
            if len(e) != 2:
                raise InputError(f"an edge is a pair of vertices, got {e!r}")
        for vertex in (w for e in es for w in e):
            _require_int("edge endpoint", vertex)
        if not es:
            raise InputError("graphic matroid needs at least one edge")
        if len(es) > _MAX_GRAPH_EDGES:
            raise InputError(f"at most {_MAX_GRAPH_EDGES} edges supported, got {len(es)}")
        verts = {u for u, _ in es} | {v for _, v in es}
        if len(verts) > _MAX_GRAPH_VERTICES:
            raise InputError(f"at most {_MAX_GRAPH_VERTICES} vertices supported")
        for u, v in es:
            if u == v:
                raise InputError(f"self-loop ({u},{v}) not supported")
        if self.n != len(es):
            raise InputError(f"graphic matroid needs n = {len(es)}, one element per edge, "
                             f"got n={self.n!r}")
        object.__setattr__(self, "edges", es)

    def _check_blocks(self):
        bl = tuple(tuple(b) for b in self.blocks or ())
        caps = tuple(self.capacities or ())
        for e in (e for b in bl for e in b):
            _require_int("block element", e)
        for c in caps:
            _require_int("capacity", c)
        bl = tuple(tuple(sorted(b)) for b in bl)
        if len(bl) != len(caps):
            raise InputError("one capacity per block is required")
        if any(c < 0 for c in caps):
            raise InputError("capacities must be nonnegative")
        seen: set[int] = set()
        for b in bl:
            for e in b:
                if e in seen:
                    raise InputError(f"element {e} appears in two blocks")
                seen.add(e)
        _require_int("n", self.n)
        if not seen or seen != set(range(1, self.n + 1)):
            raise InputError("blocks must partition {1..n} exactly")
        object.__setattr__(self, "blocks", bl)
        object.__setattr__(self, "capacities", caps)

    @classmethod
    def uniform(cls, k: int, n: int, weights=None) -> "MatroidSpec":
        return cls(kind="uniform", n=n, k=k, weights=weights)

    @classmethod
    def graphic(cls, edges, weights=None) -> "MatroidSpec":
        es = tuple(edges)
        return cls(kind="graphic", n=len(es), edges=es, weights=weights)

    @classmethod
    def partition(cls, blocks, capacities, weights=None) -> "MatroidSpec":
        bl = tuple(tuple(b) for b in blocks)
        # the element count: any repeat is refused before n is read
        return cls(kind="partition", n=sum(map(len, bl)), blocks=bl, capacities=capacities,
                   weights=weights)

    @classmethod
    def free(cls, n: int, weights=None) -> "MatroidSpec":
        return cls(kind="free", n=n, weights=weights)

    def bases(self) -> SetFamily:
        """Enumerate the member family exactly."""
        if self.kind == "uniform":
            members = frozenset(
                sum(1 << (e - 1) for e in combo) if combo else 0
                for combo in combinations(range(1, self.n + 1), self.k)
            )
        elif self.kind == "free":
            members = frozenset(range(1 << self.n))
        elif self.kind == "partition":
            per_block = []
            for b, cap in zip(self.blocks, self.capacities):
                take = min(cap, len(b))
                per_block.append(
                    [sum(1 << (e - 1) for e in combo) for combo in combinations(b, take)]
                )
            members = frozenset(
                _or_all(parts) for parts in product(*per_block)
            ) if per_block else frozenset({0})
        else:
            full_rank = self._graph_rank((1 << self.n) - 1)
            members = frozenset(
                m
                for m in range(1 << self.n)
                if m.bit_count() == full_rank and self._graph_rank(m) == full_rank
            )
        return SetFamily(self.n, members)

    def rank(self, subset: int) -> int:
        """Matroid rank of a subset."""
        _check_mask(subset, self.n)
        if self.kind == "uniform":
            return min(subset.bit_count(), self.k)
        if self.kind == "free":
            return subset.bit_count()
        if self.kind == "partition":
            total = 0
            for b, cap in zip(self.blocks, self.capacities):
                bmask = sum(1 << (e - 1) for e in b)
                total += min((subset & bmask).bit_count(), cap)
            return total
        return self._graph_rank(subset)

    def _graph_rank(self, subset: int) -> int:
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merges = 0
        for bit in iter_bits(subset):
            u, v = self.edges[bit.bit_length() - 1]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                merges += 1
        return merges


def _or_all(parts) -> int:
    out = 0
    for p in parts:
        out |= p
    return out


def _norm_weights(weights, n: int) -> tuple[Fraction, ...] | None:
    if weights is None:
        return None
    ws = tuple(finite_value(w, "weights") for w in weights)
    if len(ws) != n:
        raise InputError(f"expected {n} weights, got {len(ws)}")
    return ws


def gen_weighted_matroid(spec: MatroidSpec) -> SetFunction:
    """Additive weights on the member family, -inf elsewhere.

    The output is checked against the valuated-matroid axioms (or, for the
    full-domain ``free`` kind, the one-item exchange axiom).
    """
    if spec.weights is None:
        raise InputError("weighted matroid generation needs weights")
    f = SetFunction.from_entries(
        spec.n,
        (
            (m, sum((spec.weights[e - 1] for e in elements_of(m)), Fraction(0)))
            for m in spec.bases().sorted_members
        ),
    )
    check = check_single_exchange if spec.kind == "free" else check_valuated_matroid
    verdict = check(f)
    if not verdict.passed:
        raise InternalCheckError(
            f"generated weighted matroid failed its own axiom: {verdict.witness.describe()}"
        )
    return f


def gen_rank_valuation(spec: MatroidSpec) -> SetFunction:
    """The matroid rank function on all subsets (always full domain)."""
    f = SetFunction.from_callable(spec.n, lambda m: Fraction(spec.rank(m)))
    verdict = check_single_exchange(f)
    if not verdict.passed:
        raise InternalCheckError(
            f"generated rank valuation failed the exchange axiom: {verdict.witness.describe()}"
        )
    return f


def gen_modular_plus_concave(w: PriceVector, g_seq) -> SetFunction:
    """f(X) = w(X) + g(|X|) for a concave sequence g of length n+1."""
    n = len(w)
    gs = [finite_value(g, "g_seq") for g in g_seq]
    if len(gs) != n + 1:
        raise InputError(f"g_seq must have length n+1 = {n + 1}, got {len(gs)}")
    for i in range(1, n):
        if gs[i + 1] - gs[i] > gs[i] - gs[i - 1]:
            raise InputError("g_seq is not concave (second differences must be <= 0)")
    sums = w.subset_sums
    f = SetFunction(n, tuple(sums[m] + gs[m.bit_count()] for m in range(1 << n)))
    verdict = check_single_exchange(f)
    if not verdict.passed:
        raise InternalCheckError(
            f"modular-plus-concave output failed the exchange axiom: {verdict.witness.describe()}"
        )
    return f


def mutate(f: SetFunction, seed: int, magnitude) -> SetFunction:
    """Perturb one random finite entry by +/- magnitude (near-miss corpus).

    No property of the result is guaranteed; magnitude zero returns an
    equal function.  ``seed`` must be a nonnegative integer, as for
    :class:`~excheck.econ.PriceSampler`.
    """
    require_nonnegative_int("seed", seed)
    mag = finite_value(magnitude, "magnitude")
    rng = Random(seed)
    mask = rng.choice(f.dom_masks)
    sign = rng.choice((1, -1))
    return with_value(f, mask, f.table[mask] + sign * mag)


@dataclass(frozen=True)
class EnumerationSpec:
    """Exhaustive assignment of alphabet values to all subsets, n <= 3."""

    n: int
    value_alphabet: tuple[ExtValue, ...]

    def __post_init__(self):
        require_nonnegative_int("n", self.n)
        if self.n < 1 or self.n > 3:
            raise InputError("exhaustive enumeration supports 1 <= n <= 3")
        alpha = tuple(as_ext_value(a) for a in self.value_alphabet)
        if not alpha:
            raise InputError("alphabet must be nonempty")
        if not any(is_finite(a) for a in alpha):
            raise InputError("alphabet needs at least one finite value")
        object.__setattr__(self, "value_alphabet", alpha)

    def universe_size(self) -> int:
        return len(self.value_alphabet) ** (1 << self.n)


def enumerate_functions(spec: EnumerationSpec):
    """Yield every assignment with a nonempty domain, in lexicographic
    order of the value table (alphabet order as given).

    The stream is duplicate-free and independent of any seed.  Universes
    above ten million assignments are refused.
    """
    if spec.universe_size() > _MAX_ENUMERATION:
        raise InputError(
            f"universe has {spec.universe_size()} assignments; the cap is {_MAX_ENUMERATION}"
        )
    size = 1 << spec.n
    for combo in product(spec.value_alphabet, repeat=size):
        if not any(is_finite(v) for v in combo):
            continue
        yield SetFunction(spec.n, combo)
