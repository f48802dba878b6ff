"""Green's relations on the additive reduct, starred variants through least
regular multiples, and semiring congruences: the least one containing given
pairs, and by those closures every one containing a given congruence."""

from __future__ import annotations

from typing import NamedTuple

from .errors import BoundExceeded, DimensionMismatch, NotBiIdeal, NotCongruence
from .kernel import FiniteSemiring, addition, memo
from .elements import additive_idempotents, least_regular_multiples

GREEN_KINDS = ("L", "R", "H", "D", "J")

CONGRUENCE_BOUND = 6


class Partition:
    """Equivalence relation on 0..n-1, given by a block id per element. The
    ids may be any hashable values in any iterable; construction renumbers
    them densely by first occurrence, so equal partitions compare equal.
    Equal only to a Partition; `block_of` cannot be assigned."""

    __slots__ = ("block_of",)

    block_of: tuple[int, ...]

    def __init__(self, block_of):
        relabel = {}
        object.__setattr__(
            self, "block_of", tuple([relabel.setdefault(b, len(relabel)) for b in block_of])
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.block_of == other.block_of

    def __hash__(self):
        return hash((self.block_of,))

    def __reduce__(self):
        return Partition, (self.block_of,)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"Partition(block_of={self.block_of!r})"

    @staticmethod
    def identity(n: int) -> Partition:
        return Partition(range(n))

    @staticmethod
    def universal(n: int) -> Partition:
        return Partition(block_of=(0,) * n)

    @property
    def n(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1 if self.block_of else 0

    def blocks(self) -> tuple[frozenset[int], ...]:
        out = [set() for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].add(x)
        return tuple(frozenset(b) for b in out)

    def same(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def refines(self, other: Partition) -> bool:
        """self finer-or-equal: every self-block sits inside an other-block."""
        if self.n != other.n:
            raise ValueError("partitions of different carriers")
        rep = {}
        for x, b in enumerate(self.block_of):
            if b in rep and other.block_of[rep[b]] != other.block_of[x]:
                return False
            rep.setdefault(b, x)
        return True


class Congruence(NamedTuple):
    partition: Partition


def _principal_sets(s: FiniteSemiring, kind: str) -> tuple[frozenset[int], ...]:
    """Principal additive left ("L") or right ("R") ideals with a formal
    identity adjoined, so x itself always belongs to its own ideal even
    without additive idempotents."""
    add = s.add
    n = s.order
    if kind == "L":
        return tuple(frozenset({x} | {add[t][x] for t in range(n)}) for x in range(n))
    return tuple(frozenset({x} | {add[x][t] for t in range(n)}) for x in range(n))


@memo(table=addition)
def green_plus(s: FiniteSemiring, kind: str) -> Partition:
    """Green's relation of (S, +): L and R via principal one-sided ideals,
    H = L meet R, and D = L o R, which on a finite semigroup is J. a and b
    are D-related iff their L-classes meet the same R-classes (the egg-box
    lemma)."""
    if kind not in GREEN_KINDS:
        raise ValueError(f"unknown Green relation kind {kind!r}")
    if kind in ("L", "R"):
        return Partition(_principal_sets(s, kind))
    left, right = green_plus(s, "L"), green_plus(s, "R")
    if kind == "H":
        return Partition(zip(left.block_of, right.block_of))
    met = [frozenset(right.block_of[y] for y in block) for block in left.blocks()]
    return Partition(met[b] for b in left.block_of)


@memo(table=addition)
def green_star_plus(s: FiniteSemiring, kind: str) -> Partition:
    """a related to b iff pa related to qb under the plain relation, where p
    and q are the least indices making pa and qb additively regular.

    This pullback is the starred relation of every kind. It preserves
    meets, so H* is L* meet R*, and D* = J* since D = J."""
    base = green_plus(s, kind)
    return Partition(base.block_of[v] for _, v in least_regular_multiples(s))


def is_semiring_congruence_partition(s: FiniteSemiring, p: Partition) -> bool:
    """Compatible with both tables: a ~ a' forces a+b ~ a'+b, b+a ~ b+a',
    ab ~ a'b and ba ~ ba' for every b. DimensionMismatch unless p covers
    the carrier of s."""
    _check_carrier(s, p)
    add, mul = s.add, s.mul
    n = s.order
    for a in range(n):
        for a2 in range(a + 1, n):
            if not p.same(a, a2):
                continue
            for b in range(n):
                if not (
                    p.same(add[a][b], add[a2][b])
                    and p.same(add[b][a], add[b][a2])
                    and p.same(mul[a][b], mul[a2][b])
                    and p.same(mul[b][a], mul[b][a2])
                ):
                    return False
    return True


def generated_congruence(s: FiniteSemiring, pairs) -> Partition:
    """The least semiring congruence containing `pairs` (after Freese,
    Computing congruences efficiently, 2008)."""
    return _closure(s, list(s.elements()), pairs)


def _closure(s: FiniteSemiring, block: list[int], pairs) -> Partition:
    """The least congruence containing the congruence whose block vector is
    `block` and the pairs. Each pair that joins two classes queues its
    translates a+c ~ b+c, c+a ~ c+b, ac ~ bc and ca ~ cb for every c: the
    joining pairs, with pairs of the starting congruence, span each class,
    and the translates of those are related already, so once the joining
    pairs' translates are related, every related pair's are."""
    add, mul = s.add, s.mul
    elements = s.elements()
    todo = list(pairs)
    while todo:
        a, b = todo.pop()
        keep, drop = block[a], block[b]
        if keep == drop:
            continue
        block = [keep if k == drop else k for k in block]
        for c in elements:
            for x, y in (
                (add[a][c], add[b][c]), (add[c][a], add[c][b]),
                (mul[a][c], mul[b][c]), (mul[c][a], mul[c][b]),
            ):
                if block[x] != block[y]:
                    todo.append((x, y))
    return Partition(block)


def congruences_above(s: FiniteSemiring, theta: Partition):
    """Every semiring congruence that contains the congruence theta, once
    each, theta first.

    Each congruence yielded is joined with each pair of its blocks, through
    their least elements, by a closure started from its own blocks; new
    joins are yielded later. Adding the pairs of any congruence containing
    theta one at a time climbs a chain from theta to it, so every one is
    reached. The cost follows the number of congruences found, up to
    Bell(n)."""
    seen = {theta}
    stack = [theta]
    while stack:
        rho = stack.pop()
        yield rho
        leasts = [min(b) for b in rho.blocks()]
        for i, b in enumerate(leasts):
            for c in leasts[i + 1:]:
                joined = _closure(s, list(rho.block_of), [(b, c)])
                if joined not in seen:
                    seen.add(joined)
                    stack.append(joined)


def enumerate_congruences(s: FiniteSemiring, bound: int = CONGRUENCE_BOUND) -> list[Congruence]:
    """All semiring congruences, finest first, ties broken lexicographically
    on the block-id string."""
    n = s.order
    if n > bound:
        raise BoundExceeded(f"order {n} exceeds congruence enumeration bound {bound}")
    found = sorted(
        congruences_above(s, Partition.identity(n)),
        key=lambda p: (n - p.num_blocks, p.block_of),
    )
    return [Congruence(partition=p) for p in found]


def _check_carrier(s: FiniteSemiring, p: Partition) -> Partition:
    """p; DimensionMismatch unless it covers the carrier of s."""
    if p.n != s.order:
        raise DimensionMismatch(f"partition of {p.n} elements, expected {s.order}")
    return p


def is_idempotent_separating(s: FiniteSemiring, c: Congruence) -> bool:
    """No two distinct additive idempotents share a class."""
    p = _check_carrier(s, c.partition)
    idems = sorted(additive_idempotents(s))
    return all(
        not p.same(e, f)
        for i, e in enumerate(idems)
        for f in idems[i + 1:]
    )


def rees_congruence(s: FiniteSemiring, ideal) -> Congruence:
    from .structure import is_bi_ideal  # local import keeps modules acyclic

    ideal = frozenset(ideal)
    if not is_bi_ideal(s, ideal):
        raise NotBiIdeal(f"{sorted(s.names[i] for i in ideal)} is not a bi-ideal")
    marker = min(ideal)
    p = Partition([marker if i in ideal else i for i in s.elements()])
    assert is_semiring_congruence_partition(s, p), "Rees partition of a bi-ideal is a congruence"
    return Congruence(partition=p)


def quotient(s: FiniteSemiring, c: Congruence) -> FiniteSemiring:
    """Block semiring; block names join member names with '|'. A joined name
    that an earlier block already took gets primes (') until it is unused."""
    p = c.partition
    if not is_semiring_congruence_partition(s, p):
        raise NotCongruence("partition is not compatible with both tables")
    blocks = p.blocks()
    reps = [min(b) for b in blocks]
    joined = ["|".join(s.names[i] for i in sorted(b)) for b in blocks]
    taken = set(joined)
    names = []
    for name in joined:
        if name in names:
            while name in taken:
                name += "'"
            taken.add(name)
        names.append(name)
    names = tuple(names)
    add = tuple(
        tuple(p.block_of[s.add[ra][rb]] for rb in reps) for ra in reps
    )
    mul = tuple(
        tuple(p.block_of[s.mul[ra][rb]] for rb in reps) for ra in reps
    )
    return FiniteSemiring(names=names, add=add, mul=mul)
