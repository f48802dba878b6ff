"""Per-element regularity analysis on the additive reduct.

On a finite carrier the cyclic additive subsemigroup of every element
contains an idempotent, so every element has an additively regular multiple;
index searches therefore terminate by scanning the orbit window instead of
relying on a numeric bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedWitness
from .kernel import ADD, FiniteSemiring, addition, memo, orbit, semigroup_inverses


@memo(table=addition)
def additive_idempotents(s: FiniteSemiring) -> frozenset[int]:
    return frozenset(e for e in s.elements() if s.add[e][e] == e)


@dataclass(frozen=True)
class InverseSet:
    element: int
    inverses: frozenset[int]


def additive_inverses(s: FiniteSemiring, a: int) -> InverseSet:
    """V+(a) = {x : a+x+a = a and x+a+x = x}, by exhaustive scan."""
    return InverseSet(element=a, inverses=semigroup_inverses(s.add, s.order, a))


@memo(table=addition)
def is_additively_regular(s: FiniteSemiring, a: int) -> bool:
    add = s.add
    return any(add[add[a][x]][a] == a for x in s.elements())


@memo(table=addition)
def commuting_witness(s: FiniteSemiring, a: int) -> int | None:
    """The unique x with a+x+a = a, a+x = x+a and x+a+x = x, or None.

    Any x satisfying just the first two equations normalizes to this one via
    x + a + x, and a + x does not depend on the choice, so existence here is
    existence of a commuting inverse at all. Uniqueness is a theorem; more
    than one solution means the flag logic is broken, so it is surfaced
    rather than swallowed.
    """
    add = s.add
    hits = [
        x for x in s.elements()
        if add[add[a][x]][a] == a
        and add[a][x] == add[x][a]
        and add[add[x][a]][x] == x
    ]
    if len(hits) > 1:
        raise MalformedWitness(
            f"{len(hits)} witnesses {[s.names[x] for x in hits]} for element {s.names[a]}"
        )
    return hits[0] if hits else None


def is_completely_regular(s: FiniteSemiring, a: int) -> bool:
    """a = a+x+a, a+x = x+a, a(a+x) = a+x for some (necessarily unique) x."""
    x = commuting_witness(s, a)
    if x is None:
        return False
    ax = s.add[a][x]
    return s.mul[a][ax] == ax


@dataclass(frozen=True)
class ElementClassification:
    element: int
    additively_regular: bool
    additively_completely_regular: bool
    completely_regular: bool
    additively_quasi_regular_index: int
    quasi_completely_regular_index: int | None
    witness: int | None

    def __post_init__(self):
        assert self.additively_regular == (self.additively_quasi_regular_index == 1)
        assert self.completely_regular == (self.quasi_completely_regular_index == 1)
        if self.completely_regular:
            assert self.additively_completely_regular
        if self.additively_completely_regular:
            assert self.additively_regular


@memo
def classify_element(s: FiniteSemiring, a: int) -> ElementClassification:
    aqr_index, _ = least_regular_multiple(s, a)
    qcr_index = None
    witness = None
    for i, v in enumerate(orbit(s, a, ADD).values):
        x = commuting_witness(s, v)
        if x is not None and s.mul[v][s.add[v][x]] == s.add[v][x]:
            qcr_index = i + 1
            witness = x
            break
    return ElementClassification(
        element=a,
        additively_regular=aqr_index == 1,
        additively_completely_regular=commuting_witness(s, a) is not None,
        completely_regular=qcr_index == 1,
        additively_quasi_regular_index=aqr_index,
        quasi_completely_regular_index=qcr_index,
        witness=witness,
    )


@memo(table=addition)
def least_regular_multiple(s: FiniteSemiring, a: int) -> tuple[int, int]:
    """(p, pa) for the smallest positive p with pa additively regular: the
    first additively regular element of the additive orbit of a. It reads
    the addition alone, and so do the starred Green relations built on it."""
    orb = orbit(s, a, ADD)
    p = next((i + 1 for i, v in enumerate(orb.values) if is_additively_regular(s, v)), None)
    assert p is not None, "finite additive orbits always contain a regular element"
    return p, orb.values[p - 1]


@memo(table=addition)
def reg_plus(s: FiniteSemiring) -> frozenset[int]:
    """Reg+(S), the additively regular elements."""
    return frozenset(a for a in s.elements() if is_additively_regular(s, a))


def cr_set(s: FiniteSemiring) -> frozenset[int]:
    """Cr(S), the elements completely regular at index 1."""
    return frozenset(a for a in s.elements() if is_completely_regular(s, a))


def first_without_completely_regular_multiple(s: FiniteSemiring) -> int | None:
    """The first element none of whose additive multiples is completely
    regular, or None when the semiring is quasi completely regular."""
    return next(
        (a for a in s.elements()
         if classify_element(s, a).quasi_completely_regular_index is None),
        None,
    )


def is_quasi_completely_regular_semiring(s: FiniteSemiring) -> bool:
    """Every element has a completely regular multiple."""
    return first_without_completely_regular_multiple(s) is None
