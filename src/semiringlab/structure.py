"""Ideal predicates, quasi skew-ring verification, the decomposition of a
quasi completely regular semiring into classes with skew-ring kernels, and
the retraction map onto the additively regular part.

Conditions (ii) and (iii) of a quasi skew-ring are decided at each additive
idempotent e from two sets alone, the least sub-skew-ring at e and the
maximal additive subgroup H_e, never by searching the subsets of H_e (see
`sub_skew_ring_conditions_by_idempotent`).

The decomposition re-verifies every invariant eagerly before returning; the
cost is a few O(n^2) table scans and buys trustworthy theorem tests
downstream. Each class is checked on the tables and analysis of s itself,
and is built as a semiring only on request (`Decomposition.class_semiring`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    ADD,
    FiniteSemiring,
    PartialSemiring,
    addition,
    check_element,
    is_b_lattice,
    is_idempotent_semiring,
    memo,
    orbits,
    validate_partial,
)
from .elements import (
    additive_idempotents,
    is_quasi_completely_regular_semiring,
    reg_plus,
)
from .relations import Congruence, Partition, green_plus, green_star_plus, quotient


def _check_subset(s: FiniteSemiring, subset) -> frozenset[int]:
    sub = frozenset(subset)
    if not sub:
        raise EmptySubset("subset must be nonempty")
    for i in sub:
        if not 0 <= i < s.order:
            raise EmptySubset(f"element index {i} outside carrier")
    return sub


def is_ideal(s: FiniteSemiring, subset) -> bool:
    sub = _check_subset(s, subset)
    return all(s.add[a][b] in sub for a in sub for b in sub) and all(
        s.mul[x][a] in sub and s.mul[a][x] in sub for a in sub for x in s.elements()
    )


def is_k_ideal(s: FiniteSemiring, subset) -> bool:
    sub = _check_subset(s, subset)
    if not is_ideal(s, sub):
        return False
    for a in sub:
        for x in s.elements():
            if (s.add[a][x] in sub or s.add[x][a] in sub) and x not in sub:
                return False
    return True


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


@memo(table=addition)
def _orbit_windows(s: FiniteSemiring) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(orb.values) for orb in orbits(s, ADD))


def is_nil_extension(s: FiniteSemiring, ideal) -> bool:
    """Every element has some additive multiple inside the bi-ideal."""
    sub = _check_subset(s, ideal)
    if not is_bi_ideal(s, sub):
        raise NotBiIdeal(f"{sorted(s.names[i] for i in sub)} is not a bi-ideal")
    return all(window & sub for window in _orbit_windows(s))


@memo(table=addition)
def additive_h_classes(s: FiniteSemiring) -> tuple[frozenset[int], ...]:
    """The H+-class of every element, by index."""
    h = green_plus(s, "H")
    blocks = h.blocks()
    return tuple(blocks[b] for b in h.block_of)


def additive_h_class(s: FiniteSemiring, a: int) -> frozenset[int]:
    check_element(s, a)
    return additive_h_classes(s)[a]


def sub_skew_ring_conditions_by_idempotent(
    s: FiniteSemiring, block: frozenset[int] | None = None
) -> dict[int, tuple[bool, bool]]:
    """(absorbing, nil_ext) at each additive idempotent e: some sub-skew-ring
    at e meets every additive orbit window {a, 2a, 3a, ...}; some
    sub-skew-ring at e meeting every window is a bi-ideal.

    A sub-skew-ring at e is a subset of the maximal additive subgroup H_e
    (the H+-class of e) that contains e and is closed under both operations.
    A closed subset of the finite group H_e is a subgroup, so these are
    exactly the sub-skew-rings with additive identity e. Each contains the
    closure of {e}, which is one itself when it lies inside H_e; otherwise
    there is none at e. Two lemmas then replace the search over all
    2^(|H_e|-1) subsets of H_e:

    - A window that meets a sub-skew-ring R at e contains e, since the
      multiples of an element of the group R reach its identity. So one
      sub-skew-ring at e meets every window iff all of them do, and the
      least one, the closure of {e}, decides the first condition.
    - A bi-ideal R inside H_e absorbs r + H_e = H_e for any r in R, so R is
      all of H_e. The second condition therefore holds iff H_e itself
      meets every window and is a bi-ideal (which makes it closed under
      both operations).

    Given a block, a subset of s closed under both operations, the
    conditions are those of the block as a semiring of its own, read off
    s's analysis by lemma (D) of `classify`: its idempotents are the
    additive idempotents of s in the block, H_e is the H+-class of e in s
    cut down to the block, the closure of {e} is the same, and its windows
    are the windows of its elements.
    """
    carrier = frozenset(s.elements()) if block is None else block
    of = _orbit_windows(s)
    windows = {of[a] for a in carrier}
    h_classes = additive_h_classes(s)
    at = {}
    for e in sorted(additive_idempotents(s) & carrier):
        h = h_classes[e] & carrier
        least = s.closure({e})
        at[e] = (
            least <= h and all(window & least for window in windows),
            all(window & h for window in windows) and _absorbs(s, h, carrier),
        )
    return at


def sub_skew_ring_conditions(
    s: FiniteSemiring, block: frozenset[int] | None = None
) -> tuple[bool, bool]:
    """(absorbing, nil_ext): conditions (ii) and (iii) of a quasi skew-ring,
    each decided on its own at every additive idempotent (see
    `sub_skew_ring_conditions_by_idempotent`, also for `block`)."""
    at = sub_skew_ring_conditions_by_idempotent(s, block).values()
    return any(absorbing for absorbing, _ in at), any(nil_ext for _, nil_ext in at)


@dataclass(frozen=True)
class QuasiSkewRingReport:
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


@memo
def quasi_skew_ring_check(s: FiniteSemiring, block: frozenset[int] | None = None) -> QuasiSkewRingReport:
    """The three shapes of a quasi skew-ring on s, or, given a block closed
    under both operations, on the block as a semiring of its own, read off
    s without building it (see `sub_skew_ring_conditions_by_idempotent`);
    the kernel is then a set of indices of s."""
    carrier = frozenset(s.elements()) if block is None else block
    idems = additive_idempotents(s) & carrier
    cond_i = len(idems) == 1  # additive quasi regularity is automatic on a finite carrier
    cond_ii, cond_iii = sub_skew_ring_conditions(s, block)
    if not (cond_i == cond_ii == cond_iii):
        raise InternalTheoremViolation(
            f"quasi-skew-ring conditions disagree on {_named(s, block)}: "
            f"unique-idempotent={cond_i} skew-ring-multiples={cond_ii} nil-extension={cond_iii}"
        )
    kernel = None
    if cond_i:
        e = next(iter(idems))
        kernel = additive_h_classes(s)[e] & carrier
        if not s.is_closed(kernel):
            raise InternalTheoremViolation(
                f"kernel of {_named(s, block)} (H+-class of {s.names[e]}) is not closed under both operations"
            )
    return QuasiSkewRingReport(
        unique_additive_idempotent=cond_i,
        skew_ring_absorbs_multiples=cond_ii,
        nil_extension_of_skew_ring=cond_iii,
        kernel=kernel,
    )


def skew_ring_kernel(t: FiniteSemiring) -> frozenset[int]:
    """The maximal sub-skew-ring of a quasi skew-ring: the additive H-class
    of its unique additive idempotent."""
    report = quasi_skew_ring_check(t)
    if not report.verdict:
        raise NotQuasiSkewRing(f"{t!r} is not a quasi skew-ring")
    return report.kernel


@dataclass(frozen=True)
class Decomposition:
    """A quasi completely regular semiring split along its starred additive
    H-relation: classes T_alpha indexed by the quotient Y, each a quasi
    skew-ring with kernel R_alpha around the class idempotent e_alpha and a
    partial-semiring nil part."""

    base: FiniteSemiring
    hstar: Partition
    blattice: FiniteSemiring
    classes: tuple[frozenset[int], ...]
    kernels: tuple[frozenset[int], ...]
    idempotents: tuple[int, ...]
    nil_parts: tuple[PartialSemiring, ...]

    @property
    def y_order(self) -> int:
        return self.blattice.order

    def class_of(self, a: int) -> int:
        return self.hstar.block_of[a]

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


def _nil_partial(s: FiniteSemiring, cls: frozenset[int], kernel: frozenset[int]) -> PartialSemiring:
    nil = sorted(cls - kernel)
    local = {g: i for i, g in enumerate(nil)}

    def entry(table, a, b):
        v = table[a][b]
        return local.get(v)  # defined only when the result stays in the nil part

    return PartialSemiring(
        names=tuple(s.names[g] for g in nil),
        add=tuple(tuple(entry(s.add, a, b) for b in nil) for a in nil),
        mul=tuple(tuple(entry(s.mul, a, b) for b in nil) for a in nil),
    )


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
    hstar = green_star_plus(s, "H")
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
    # unchecked, because they cannot fail: Y is the quotient by a congruence,
    # so class membership follows Y's tables, and Y is idempotent, so each
    # class is closed (a + b lies in class alpha + alpha = alpha)
    for alpha, cls in enumerate(classes):
        # read off s by lemma (D) of `classify`; the report raises unless its
        # unique-idempotent and nil-extension shapes agree
        report = quasi_skew_ring_check(s, cls)
        if not report.verdict:
            _fail(f"class {alpha} is not a quasi skew-ring")
        kernel = report.kernel
        (e,) = additive_idempotents(s) & cls
        class_reg = frozenset(a for a in cls if any(s.add[s.add[a][x]][a] == a for x in cls))
        if kernel != class_reg:
            _fail(f"kernel of class {alpha} differs from its additively regular part")
        nil = _nil_partial(s, cls, kernel)
        if not validate_partial(nil).verdict:
            _fail(f"nil part of class {alpha} violates the partial semiring laws")
        kernels.append(kernel)
        idempotents.append(e)
        nil_parts.append(nil)
    if frozenset().union(*kernels) != reg_plus(s):
        _fail("union of class kernels differs from the additively regular part")
    return hstar, y, classes, tuple(kernels), tuple(idempotents), tuple(nil_parts)


@memo(table=addition)
def commuting_additive_idempotents(s: FiniteSemiring) -> tuple[int, int] | None:
    """First non-commuting pair of additive idempotents, or None."""
    idems = sorted(additive_idempotents(s))
    for i, e in enumerate(idems):
        for f in idems[i + 1:]:
            if s.add[e][f] != s.add[f][e]:
                return e, f
    return None


def is_strongly_additively_quasi_completely_inverse(s: FiniteSemiring) -> bool:
    return (
        commuting_additive_idempotents(s) is None
        and is_quasi_completely_regular_semiring(s)
    )


@dataclass(frozen=True)
class PsiMap:
    """a |-> a + e_alpha, the retraction of each class onto its kernel."""

    images: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]


def psi(s: FiniteSemiring, d: Decomposition) -> PsiMap:
    d.require_base(s)
    bad = commuting_additive_idempotents(s)
    if bad is not None:
        raise PreconditionFailed(
            f"additive idempotents {s.names[bad[0]]} and {s.names[bad[1]]} do not commute"
        )
    images = tuple(s.add[a][d.idempotents[d.class_of(a)]] for a in s.elements())
    regs = reg_plus(s)
    for a, img in enumerate(images):
        if img not in regs:
            raise InternalTheoremViolation(
                f"psi({s.names[a]}) = {s.names[img]} is not additively regular"
            )
    for alpha, kernel in enumerate(d.kernels):
        for r in kernel:
            if images[r] != r:
                raise InternalTheoremViolation(
                    f"psi moves kernel element {s.names[r]} of class {alpha}"
                )
    return PsiMap(images=images)


def psi_tilde(s: FiniteSemiring, d: Decomposition) -> Partition:
    """Kernel partition of psi: fibers of a |-> a + e_alpha."""
    p = psi(s, d)
    fibers = Partition.from_block_of(p.images)
    regs = sorted(reg_plus(s))
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
    p = psi(s, d)
    ok = all(
        p(s.add[a][b]) == s.add[p(a)][p(b)] and p(s.mul[a][b]) == s.mul[p(a)][p(b)]
        for a in s.elements()
        for b in s.elements()
    )
    if not ok:
        warnings.warn(
            TheoremViolationWarning(
                f"psi is not a homomorphism on {s!r}",
                payload={"theorem": "psi-homomorphism", "semiring": s},
            )
        )
    return ok
