"""Ideal predicates, quasi skew-ring verification, the decomposition of a
quasi completely regular semiring into classes with skew-ring kernels, and
the retraction map onto the additively regular part.

Conditions (ii) and (iii) of a quasi skew-ring are decided at each additive
idempotent e from the product ee and the maximal additive subgroup H_e,
never by searching the subsets of H_e: a sub-skew-ring at e exists iff
ee = e, and then {e} is the least one (see
`sub_skew_ring_conditions_by_idempotent`).

The decomposition re-verifies every invariant eagerly before returning; the
cost is a few O(n^2) table scans and buys trustworthy theorem tests
downstream. Each class is checked on the tables and analysis of s itself,
and is built as a semiring only on request (`Decomposition.class_semiring`).
It reads the class reports QCR5 reads, shares one empty nil part, and computes
and checks psi's images once when the additive idempotents commute.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from typing import NamedTuple

from .errors import (
    DecompositionInvariantViolation,
    EmptySubset,
    InternalTheoremViolation,
    NotBiIdeal,
    NotCongruence,
    NotQuasiCompletelyRegular,
    NotQuasiSkewRing,
    PreconditionFailed,
    TheoremViolationWarning,
)
from .kernel import (
    FiniteSemiring,
    PartialSemiring,
    Partition,
    additive_facts,
    check_element,
    is_b_lattice,
    is_idempotent_semiring,
    memo,
    validate,
)
from .elements import is_quasi_completely_regular_semiring
from .relations import Congruence, quotient


def _check_subset(s: FiniteSemiring, subset) -> frozenset[int]:
    sub = frozenset(subset)
    if not sub:
        raise EmptySubset("subset must be nonempty")
    for i in sub:
        check_element(s, i)
    return sub


def is_ideal(s: FiniteSemiring, subset) -> bool:
    return _is_ideal(s, _check_subset(s, subset), s.elements())


def _is_ideal(s: FiniteSemiring, sub: frozenset[int], carrier) -> bool:
    """`is_ideal` of a nonempty set of elements of s in the closed carrier,
    neither of which it checks."""
    return all(s.add[a][b] in sub for a in sub for b in sub) and all(
        s.mul[x][a] in sub and s.mul[a][x] in sub for a in sub for x in carrier
    )


def is_k_ideal(s: FiniteSemiring, subset) -> bool:
    return _is_k_ideal(s, _check_subset(s, subset), s.elements())


def _is_k_ideal(s: FiniteSemiring, sub: frozenset[int], carrier) -> bool:
    """`is_k_ideal` of a nonempty set of elements of s in the closed carrier,
    neither of which it checks."""
    return _is_ideal(s, sub, carrier) and all(
        x in sub for a in sub for x in carrier if s.add[a][x] in sub or s.add[x][a] in sub
    )


def _absorbs(s: FiniteSemiring, ideal, carrier) -> bool:
    """ideal + x, x + ideal, ideal * x and x * ideal lie in ideal for every
    x of carrier."""
    return all(
        s.add[a][x] in ideal and s.add[x][a] in ideal
        and s.mul[a][x] in ideal and s.mul[x][a] in ideal
        for a in ideal
        for x in carrier
    )


def is_bi_ideal(s: FiniteSemiring, subset) -> bool:
    sub = _check_subset(s, subset)
    return _absorbs(s, sub, s.elements())


def is_nil_extension(s: FiniteSemiring, ideal) -> bool:
    """Every element has some additive multiple inside the bi-ideal."""
    sub = _check_subset(s, ideal)
    if not is_bi_ideal(s, sub):
        raise NotBiIdeal(f"{sorted(s.names[i] for i in sub)} is not a bi-ideal")
    return all(window & sub for window in additive_facts(s).windows)


def sub_skew_ring_conditions_by_idempotent(
    s: FiniteSemiring, block: frozenset[int] | None = None
) -> dict[int, tuple[bool, bool]]:
    """(absorbing, nil_ext) at each additive idempotent e: some sub-skew-ring
    at e meets every additive orbit window {a, 2a, 3a, ...}; some
    sub-skew-ring at e meeting every window is a bi-ideal.

    A sub-skew-ring at e is a subset of the maximal additive subgroup H_e
    (the H+-class of e) that contains e and is closed under both operations.
    A closed subset of the finite group H_e is a subgroup, so these are
    exactly the sub-skew-rings with additive identity e. Three lemmas then
    replace the search over all 2^(|H_e|-1) subsets of H_e:

    - Every power of e is an additive idempotent (ee + ee = e(e + e) = ee,
      and so on up), and H_e holds no idempotent but e. So a sub-skew-ring
      at e, which holds ee, exists iff ee = e, and then {e} is the least.
    - A window that meets a sub-skew-ring R at e contains e, since the
      multiples of an element of the group R reach its identity. So one
      sub-skew-ring at e meets every window iff all of them do, and the
      first condition holds iff ee = e and e lies in every window.
    - A bi-ideal R inside H_e absorbs r + H_e = H_e for any r in R, so R is
      all of H_e. The second condition therefore holds iff H_e itself
      meets every window and is a bi-ideal (which makes it closed under
      both operations).

    Given a block, a subset of s closed under both operations, the
    conditions are those of the block as a semiring of its own, read off
    s's analysis by lemma (D) of `classify`: its idempotents are the
    additive idempotents of s in the block, H_e is the H+-class of e in s
    cut down to the block, and its windows are the windows of its elements.
    """
    facts = additive_facts(s)
    carrier = frozenset(s.elements()) if block is None else block
    return _conditions_at(s, facts, carrier, facts.idempotents & carrier)


def _conditions_at(
    s: FiniteSemiring, facts, carrier: frozenset[int], idems: frozenset[int]
) -> dict[int, tuple[bool, bool]]:
    """`sub_skew_ring_conditions_by_idempotent` on a carrier, given its
    additive idempotents."""
    of = facts.windows
    windows = {of[a] for a in carrier}
    at = {}
    for e in sorted(idems):
        h = facts.h_classes[e] & carrier
        at[e] = (
            s.mul[e][e] == e and all(e in window for window in windows),
            all(window & h for window in windows) and _absorbs(s, h, carrier),
        )
    return at


def _some_idempotent(at: Mapping[int, tuple[bool, bool]]) -> tuple[bool, bool]:
    """Conditions (ii) and (iii): each holds at some additive idempotent."""
    return any(absorbing for absorbing, _ in at.values()), any(nil_ext for _, nil_ext in at.values())


class QuasiSkewRingReport(NamedTuple):
    """The three equivalent shapes of a quasi skew-ring, each checked on its
    own definition."""

    unique_additive_idempotent: bool
    skew_ring_absorbs_multiples: bool
    nil_extension_of_skew_ring: bool
    kernel: frozenset[int] | None

    @property
    def verdict(self) -> bool:
        return self.unique_additive_idempotent


def _named(s: FiniteSemiring, block: frozenset[int] | None) -> str:
    return repr(s) if block is None else f"{{{', '.join(s.names[i] for i in sorted(block))}}} in {s!r}"


def quasi_skew_ring_check(s: FiniteSemiring, block=None) -> QuasiSkewRingReport:
    """The three shapes of a quasi skew-ring on s, or, given a block (any
    iterable of elements of s, nonempty and closed under both operations),
    on the block as a semiring of its own, read off s without building it
    (see `sub_skew_ring_conditions_by_idempotent`); the kernel is then a set
    of indices of s. EmptySubset, OutOfRange or PreconditionFailed for a
    block that is not one."""
    if block is not None:
        block = _check_subset(s, block)
        if not s.is_closed(block):
            raise PreconditionFailed(f"block {_named(s, block)} is not closed under both operations")
        return _quasi_skew_ring_report(s, additive_facts(s), block)
    return _carrier_report(s)


@memo
def _carrier_report(s: FiniteSemiring) -> QuasiSkewRingReport:
    """`quasi_skew_ring_check` of the whole carrier, computed once: read by
    `classify`, QSR3, the report of a lone H*+ class and main-theorem
    condition (i). The kernel it reports is closed: it raises otherwise."""
    return _quasi_skew_ring_report(s, additive_facts(s), None)


def _quasi_skew_ring_report(
    s: FiniteSemiring, facts, block: frozenset[int] | None
) -> QuasiSkewRingReport:
    """`quasi_skew_ring_check` of s or of a block, which it does not check."""
    carrier = frozenset(s.elements()) if block is None else block
    idems = facts.idempotents & carrier
    cond_i = len(idems) == 1  # additive quasi regularity is automatic on a finite carrier
    cond_ii, cond_iii = _some_idempotent(_conditions_at(s, facts, carrier, idems))
    if not (cond_i == cond_ii == cond_iii):
        raise InternalTheoremViolation(
            f"quasi-skew-ring conditions disagree on {_named(s, block)}: "
            f"unique-idempotent={cond_i} skew-ring-multiples={cond_ii} nil-extension={cond_iii}"
        )
    kernel = None
    if cond_i:
        e = next(iter(idems))
        kernel = facts.h_classes[e] & carrier
        # the carrier is closed: s itself, or a block by contract
        if kernel != carrier and not s.is_closed(kernel):
            raise InternalTheoremViolation(
                f"kernel of {_named(s, block)} (H+-class of {s.names[e]}) is not closed under both operations"
            )
    return QuasiSkewRingReport(
        unique_additive_idempotent=cond_i,
        skew_ring_absorbs_multiples=cond_ii,
        nil_extension_of_skew_ring=cond_iii,
        kernel=kernel,
    )


@memo
def _class_reports(s: FiniteSemiring) -> tuple[QuasiSkewRingReport, ...] | None:
    """The report of each H*+ class, for QCR5, QCI5 and `decompose`, or None
    if some class is not closed, as lemma (D) needs: checked here, once."""
    facts = additive_facts(s)
    classes = facts.green_star["H"].blocks()
    if len(classes) == 1:
        # the whole carrier, which is closed: its report is the carrier's
        return (_carrier_report(s),)
    if not all(s.is_closed(cls) for cls in classes):
        return None
    return tuple(_quasi_skew_ring_report(s, facts, cls) for cls in classes)


def skew_ring_kernel(t: FiniteSemiring) -> frozenset[int]:
    """The maximal sub-skew-ring of a quasi skew-ring: the additive H-class
    of its unique additive idempotent."""
    report = quasi_skew_ring_check(t)
    if not report.verdict:
        raise NotQuasiSkewRing(f"{t!r} is not a quasi skew-ring")
    return report.kernel


class Decomposition(NamedTuple):
    """A quasi completely regular semiring split along its starred additive
    H-relation: classes T_alpha indexed by the quotient Y, each a quasi
    skew-ring with kernel R_alpha around the class idempotent e_alpha and a
    partial-semiring nil part. psi_images holds a + e_alpha for each a when
    the additive idempotents commute (see `psi`), else None."""

    base: FiniteSemiring
    hstar: Partition
    blattice: FiniteSemiring
    classes: tuple[frozenset[int], ...]
    kernels: tuple[frozenset[int], ...]
    idempotents: tuple[int, ...]
    nil_parts: tuple[PartialSemiring, ...]
    psi_images: tuple[int, ...] | None

    @property
    def y_order(self) -> int:
        return self.blattice.order

    def class_semiring(self, alpha: int) -> FiniteSemiring:
        """T_alpha as a semiring, built on each call."""
        return self.base.restrict(self.classes[alpha])

    def nil_indices(self, alpha: int) -> tuple[int, ...]:
        return tuple(sorted(self.classes[alpha] - self.kernels[alpha]))

    def quotient_is_b_lattice(self) -> bool:
        return is_b_lattice(self.blattice)

    def require_base(self, s: FiniteSemiring) -> None:
        """Raise PreconditionFailed unless this decomposes s itself. Identity,
        not equality: an equal copy gets its own decompose(copy)."""
        if self.base is not s:
            raise PreconditionFailed("decomposition does not belong to this semiring")


_NO_NIL = PartialSemiring((), (), ())  # of every class that is its own kernel


def _nil_partial(s: FiniteSemiring, cls: frozenset[int], kernel: frozenset[int]) -> PartialSemiring:
    nil = sorted(cls - kernel)
    # defined only when the result stays in the nil part
    local = {g: i for i, g in enumerate(nil)}.get

    def part(table):
        return tuple(tuple(local(table[a][b]) for b in nil) for a in nil)

    return PartialSemiring(names=tuple(s.names[g] for g in nil), add=part(s.add), mul=part(s.mul))


def _fail(invariant: str):
    raise DecompositionInvariantViolation(invariant)


def decompose(s: FiniteSemiring) -> Decomposition:
    # the memo keeps every field but the root: it never holds s alive, and
    # an equal copy gets a decomposition of its own
    return Decomposition(s, *_decomposition_fields(s))


@memo
def _decomposition_fields(s: FiniteSemiring) -> tuple:
    if not is_quasi_completely_regular_semiring(s):
        raise NotQuasiCompletelyRegular(
            "some element has no completely regular additive multiple"
        )
    facts = additive_facts(s)
    hstar = facts.green_star["H"]
    try:
        y = quotient(s, Congruence(partition=hstar))
    except NotCongruence:
        _fail("starred additive H-relation is not a semiring congruence")
    if not is_idempotent_semiring(y):
        _fail("quotient by the starred H-relation is not an idempotent semiring")
    classes = hstar.blocks()
    kernels = []
    idempotents = []
    nil_parts = []
    # Y is the quotient by a congruence, so class membership follows Y's
    # tables, and Y is idempotent, so each class is closed (a + b lies in
    # class alpha + alpha = alpha), as the class reports check; each class
    # is read off s by lemma (D) of `classify`, and its report raises unless
    # its unique-idempotent and nil-extension shapes agree
    reports = _class_reports(s) or _fail("a class of the starred additive H-relation is not closed")
    for alpha, (cls, report) in enumerate(zip(classes, reports)):
        if not report.verdict:
            _fail(f"class {alpha} is not a quasi skew-ring")
        kernel = report.kernel
        (e,) = facts.idempotents & cls
        # a + x + a = a with x in the class puts x + a + x in V+(a) and in
        # the class, which is closed
        class_reg = frozenset(a for a in cls if facts.inverses[a] & cls)
        if kernel != class_reg:
            _fail(f"kernel of class {alpha} differs from its additively regular part")
        nil = _NO_NIL
        if kernel != cls:
            nil = _nil_partial(s, cls, kernel)
            if not validate(nil).verdict:
                _fail(f"nil part of class {alpha} violates the partial semiring laws")
        kernels.append(kernel)
        idempotents.append(e)
        nil_parts.append(nil)
    if frozenset().union(*kernels) != facts.regular:
        _fail("union of class kernels differs from the additively regular part")
    images = None
    if facts.noncommuting_idempotents is None:
        images = tuple(s.add[a][idempotents[alpha]] for a, alpha in enumerate(hstar.block_of))
        for a, img in enumerate(images):
            if img not in facts.regular:
                _fail(f"psi({s.names[a]}) = {s.names[img]} is not additively regular")
            if a in facts.regular and img != a:  # Reg+ is the union of the kernels
                _fail(f"psi moves kernel element {s.names[a]} of class {hstar.block_of[a]}")
    return hstar, y, classes, tuple(kernels), tuple(idempotents), tuple(nil_parts), images


def is_strongly_additively_quasi_completely_inverse(s: FiniteSemiring) -> bool:
    """The verdict of `classify`, which decides it."""
    from .classify import classify  # local import keeps modules acyclic

    return classify(s).holds("strongly-additively-quasi-completely-inverse")


class PsiMap(NamedTuple):
    """a |-> a + e_alpha, the retraction of each class onto its kernel."""

    images: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]


def psi(s: FiniteSemiring, d: Decomposition) -> PsiMap:
    """a |-> a + e_alpha, as computed and checked by `decompose`."""
    d.require_base(s)
    if d.psi_images is None:
        e, f = additive_facts(s).noncommuting_idempotents
        raise PreconditionFailed(f"additive idempotents {s.names[e]} and {s.names[f]} do not commute")
    return PsiMap(images=d.psi_images)


def psi_tilde(s: FiniteSemiring, d: Decomposition) -> Partition:
    """Kernel partition of psi: fibers of a |-> a + e_alpha."""
    p = psi(s, d)
    fibers = Partition(p.images)
    regs = sorted(additive_facts(s).regular)
    for i, r in enumerate(regs):
        for r2 in regs[i + 1:]:
            if fibers.same(r, r2):
                raise InternalTheoremViolation(
                    f"psi-fibers identify regular elements {s.names[r]} and {s.names[r2]}"
                )
    return fibers


def check_psi_homomorphism(s: FiniteSemiring, d: Decomposition) -> bool:
    """True iff psi respects both operations; the theory says it must, so a
    False return also emits a theorem-violation warning."""
    if not is_strongly_additively_quasi_completely_inverse(s):
        raise PreconditionFailed(
            "psi homomorphism check needs a strongly additively quasi completely inverse semiring"
        )
    p = psi(s, d).images
    ok = all(
        p[add_a[b]] == s.add[pa][pb] and p[mul_a[b]] == s.mul[pa][pb]
        for add_a, mul_a, pa in zip(s.add, s.mul, p)
        for b, pb in enumerate(p)
    )
    if not ok:
        warnings.warn(
            TheoremViolationWarning(
                f"psi is not a homomorphism on {s!r}",
                payload={"theorem": "psi-homomorphism", "semiring": s},
            )
        )
    return ok
