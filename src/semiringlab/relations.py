"""Green's relations on the additive reduct, starred variants through least
regular multiples, and semiring congruences: the least one containing given
pairs, and by those closures every one containing a given congruence."""

from __future__ import annotations

from typing import NamedTuple

from .errors import BoundExceeded, DimensionMismatch, NotBiIdeal, NotCongruence
from .kernel import GREEN_KINDS, FiniteSemiring, Partition, additive_facts

CONGRUENCE_BOUND = 6


class Congruence(NamedTuple):
    partition: Partition


def green_plus(s: FiniteSemiring, kind: str) -> Partition:
    """Green's relation of (S, +), read off `kernel.additive_facts`: L and R
    via principal one-sided ideals, H = L meet R, and D = L o R, which on a
    finite semigroup is J."""
    if kind not in GREEN_KINDS:
        raise ValueError(f"unknown Green relation kind {kind!r}")
    return additive_facts(s).green[kind]


def green_star_plus(s: FiniteSemiring, kind: str) -> Partition:
    """a related to b iff pa related to qb under the plain relation, where p
    and q are the least indices making pa and qb additively regular.

    This pullback is the starred relation of every kind. H*, D* and J* are
    read off `kernel.additive_facts`; L* and R* are pulled back on each
    call."""
    facts = additive_facts(s)
    return facts.green_star.get(kind) or Partition(
        green_plus(s, kind).block_of[v] for _, v in facts.least_regular_multiples)


def is_semiring_congruence_partition(s: FiniteSemiring, p: Partition) -> bool:
    """Compatible with both tables: a ~ a' forces a+b ~ a'+b, b+a ~ b+a',
    ab ~ a'b and ba ~ ba' for every b. DimensionMismatch unless p covers
    the carrier of s."""
    block = _check_carrier(s, p).block_of
    add, mul = s.add, s.mul
    first = {}
    # each element against the first of its block: by transitivity that
    # covers every related pair
    for a, k in enumerate(block):
        r = first.setdefault(k, a)
        if r != a and any(
            block[add[r][b]] != block[add[a][b]] or block[add[b][r]] != block[add[b][a]]
            or block[mul[r][b]] != block[mul[a][b]] or block[mul[b][r]] != block[mul[b][a]]
            for b in range(len(block))
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
    idems = sorted(additive_facts(s).idempotents)
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
