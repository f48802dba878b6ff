"""Per-element regularity analysis on the additive reduct.

On a finite carrier the cyclic additive subsemigroup of every element
contains an idempotent, so every element has an additively regular multiple;
index searches therefore terminate by scanning the orbit window instead of
relying on a numeric bound.

Each per-element analysis is one vector over the carrier: those that read
the addition alone are fields of `kernel.additive_facts`, the rest memoized
here; the per-element functions check the index and read the vector.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import MalformedWitness
from .kernel import FiniteSemiring, additive_facts, check_element, memo


def additive_idempotents(s: FiniteSemiring) -> frozenset[int]:
    return additive_facts(s).idempotents


class InverseSet(NamedTuple):
    element: int
    inverses: frozenset[int]


def additive_inverses(s: FiniteSemiring, a: int) -> InverseSet:
    """V+(a) = {x : a+x+a = a and x+a+x = x}."""
    check_element(s, a)
    return InverseSet(element=a, inverses=additive_facts(s).inverses[a])


def commuting_witnesses(s: FiniteSemiring) -> tuple[int | None, ...]:
    """For each element a, the unique x in V+(a) with a+x = x+a, or None.

    Any x satisfying just a+x+a = a and a+x = x+a normalizes to this one via
    x + a + x, and a + x does not depend on the choice, so existence here is
    existence of a commuting inverse at all. Uniqueness is a theorem; more
    than one solution means the flag logic is broken, so it is surfaced
    rather than swallowed.
    """
    facts = additive_facts(s)
    if facts.several_witnesses is not None:
        a, hits = facts.several_witnesses
        raise MalformedWitness(f"{len(hits)} witnesses {[s.names[x] for x in hits]} for element {s.names[a]}")
    return facts.witnesses


@memo
def complete_regularity(s: FiniteSemiring) -> tuple[bool, ...]:
    """For each element a, whether a is completely regular: a(a+x) = a+x at
    its commuting witness x. The one place the test is made."""
    add, mul = s.add, s.mul
    return tuple(
        x is not None and mul[a][add[a][x]] == add[a][x] for a, x in enumerate(commuting_witnesses(s))
    )


def is_completely_regular(s: FiniteSemiring, a: int) -> bool:
    """a = a+x+a, a+x = x+a, a(a+x) = a+x for some (necessarily unique) x."""
    check_element(s, a)
    return complete_regularity(s)[a]


class ElementClassification(NamedTuple):
    element: int
    additively_regular: bool
    additively_completely_regular: bool
    completely_regular: bool
    additively_quasi_regular_index: int
    quasi_completely_regular_index: int | None
    witness: int | None


@memo
def element_classes(s: FiniteSemiring) -> tuple[ElementClassification, ...]:
    """The classification of every element, by index."""
    facts = additive_facts(s)
    witnesses = commuting_witnesses(s)
    completely_regular = complete_regularity(s)
    out = []
    for a, (orb, (aqr_index, _)) in enumerate(zip(facts.orbits, facts.least_regular_multiples)):
        qcr_index = next((i + 1 for i, v in enumerate(orb.values) if completely_regular[v]), None)
        acr = witnesses[a] is not None
        # complete regularity needs a commuting witness, which is an inverse
        assert (qcr_index != 1 or acr) and (not acr or aqr_index == 1)
        out.append(ElementClassification(
            element=a,
            additively_regular=aqr_index == 1,
            additively_completely_regular=acr,
            completely_regular=qcr_index == 1,
            additively_quasi_regular_index=aqr_index,
            quasi_completely_regular_index=qcr_index,
            witness=None if qcr_index is None else witnesses[orb.values[qcr_index - 1]],
        ))
    return tuple(out)


def classify_element(s: FiniteSemiring, a: int) -> ElementClassification:
    check_element(s, a)
    return element_classes(s)[a]


def least_regular_multiples(s: FiniteSemiring) -> tuple[tuple[int, int], ...]:
    """(p, pa) for each element a, with p the smallest positive index making
    pa additively regular: the first additively regular element of the
    additive orbit of a. It reads the addition alone, and so do the starred
    Green relations built on it."""
    return additive_facts(s).least_regular_multiples


def reg_plus(s: FiniteSemiring) -> frozenset[int]:
    """Reg+(S), the additively regular elements."""
    return additive_facts(s).regular


def cr_set(s: FiniteSemiring) -> frozenset[int]:
    """Cr(S), the elements completely regular at index 1."""
    return frozenset(a for a, cr in enumerate(complete_regularity(s)) if cr)


def is_quasi_completely_regular_semiring(s: FiniteSemiring) -> bool:
    """Every element has a completely regular multiple: the verdict of
    `classify`, which decides it."""
    from .classify import classify  # local import keeps modules acyclic

    return classify(s).holds("quasi-completely-regular")
