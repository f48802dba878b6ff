"""Whole-semiring class predicates and multi-condition theorem verifiers.

Every class verdict is computed from its definition, never through a proved
equivalence; the verifiers then check the equivalences by evaluating each
side independently and comparing. A disagreement is reported, not hidden:
it means an implementation bug or a genuine counterexample, and either one
is exactly what a sweep is for.

Additive quasi regularity (some multiple of each element is additively
regular) holds on every finite carrier, so no predicate computes it:
`elements.classify_element` asserts it for every element it analyses.

The existence conditions of QCR5 and QCI5 (a partition into quasi skew
subsemirings, and a congruence with a b-lattice or idempotent quotient whose
classes are quasi skew-rings or completely Archimedean) are decided over the
orbit-idempotent partition P, never over all set partitions of the carrier.
Each additive orbit {a, 2a, 3a, ...} holds exactly one additive idempotent
e_a, and P puts a and b in one block iff e_a = e_b. Two lemmas:

- (A) A block closed under addition that holds a holds every multiple of a,
  so it holds e_a. A quasi skew-ring has exactly one additive idempotent, so
  in a partition into quasi skew subsemirings the block of a is the block of
  e_a, and its elements are exactly those b with e_b = e_a. The only
  candidate partition is therefore P itself.
- (B) If the quotient by a congruence rho has idempotent addition, as a
  b-lattice and an idempotent semiring do, then a rho 2a rho 3a ..., so
  a rho e_a and P refines rho. Such congruences are therefore found among
  the coarsenings of P, one per set partition of the |E+| blocks of P.

So QCR5 (iii) asks whether every block of P is a quasi skew subsemiring;
QCR5 (v) and QCI5 (v) ask, besides, whether P is a congruence with an
idempotent or b-lattice quotient; and QCR5 (iv) scans the Bell(|E+|)
coarsenings of P.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import InternalTheoremViolation, NotQuasiCompletelyRegular, UnknownTheoremId
from .kernel import (
    ADD,
    FiniteSemiring,
    ReductFlag,
    addition,
    is_b_lattice,
    memo,
    orbit,
    reduct_kind,
)
from .elements import (
    additive_idempotents,
    additive_inverses,
    first_without_completely_regular_multiple,
    is_completely_regular,
    reg_plus,
)
from .relations import (
    Partition,
    green_plus,
    green_star_plus,
    is_semiring_congruence_partition,
    set_partitions,
)
from .structure import (
    commuting_additive_idempotents,
    is_ideal,
    is_k_ideal,
    quasi_skew_ring_check,
    sub_skew_ring_conditions,
)

CLASS_KEYS = (
    "additively-regular",
    "additively-inverse",
    "additively-quasi-inverse",
    "completely-regular",
    "quasi-completely-regular",
    "quasi-completely-inverse",
    "strongly-additively-quasi-inverse",
    "strongly-additively-quasi-completely-inverse",
    "generalized-clifford",
    "skew-ring",
    "quasi-skew-ring",
    "b-lattice",
    "completely-simple",
    "completely-archimedean",
)

THEOREM_IDS = ("QSR3", "QCR5", "QCI5", "SAQCI3", "HJEQ")


@dataclass(frozen=True)
class Verdict:
    holds: bool
    evidence: str = ""


@dataclass(frozen=True)
class ClassReport:
    # read-only: the memo hands the same report to every caller
    verdicts: Mapping[str, Verdict]

    def holds(self, key: str) -> bool:
        return self.verdicts[key].holds

    def true_classes(self) -> tuple[str, ...]:
        return tuple(k for k in CLASS_KEYS if self.verdicts[k].holds)


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    conditions: tuple[tuple[str, bool, str], ...]

    @property
    def agreement(self) -> bool:
        values = {holds for _, holds, _ in self.conditions}
        return len(values) == 1

    @property
    def verdicts(self) -> dict[str, bool]:
        return {label: holds for label, holds, _ in self.conditions}


@memo(table=addition)
def _additive_inverse_counts(s: FiniteSemiring) -> tuple[int, ...]:
    """|V+(a)| for each element a."""
    return tuple(len(additive_inverses(s, a).inverses) for a in s.elements())


@memo(table=addition)
def _first_without_quasi_inverse_multiple(s: FiniteSemiring) -> int | None:
    """The first element no multiple na of which admits exactly one x with
    na+x+na = na and x+na+x = x, or None."""
    counts = _additive_inverse_counts(s)
    return next(
        (a for a in s.elements() if all(counts[v] != 1 for v in orbit(s, a, ADD).values)),
        None,
    )


def _is_additively_inverse(s: FiniteSemiring):
    counts = _additive_inverse_counts(s)
    bad = next((a for a in s.elements() if counts[a] != 1), None)
    if bad is None:
        return True, ""
    return False, f"{s.names[bad]} has {counts[bad]} additive inverses"


def _is_additively_quasi_inverse(s: FiniteSemiring):
    bad = _first_without_quasi_inverse_multiple(s)
    if bad is None:
        return True, ""
    return False, f"no multiple of {s.names[bad]} has a unique additive inverse"


def _is_completely_regular(s: FiniteSemiring):
    for a in s.elements():
        if not is_completely_regular(s, a):
            return False, f"{s.names[a]} is not completely regular"
    return True, ""


def _is_quasi_completely_regular(s: FiniteSemiring):
    bad = first_without_completely_regular_multiple(s)
    if bad is None:
        return True, ""
    return False, f"no multiple of {s.names[bad]} is completely regular"


def _idempotents_commute(s: FiniteSemiring):
    bad = commuting_additive_idempotents(s)
    if bad is None:
        return True, ""
    e, f = bad
    return False, f"{s.names[e]}+{s.names[f]} != {s.names[f]}+{s.names[e]}"


def _is_regular_part_inverse_subsemiring(s: FiniteSemiring):
    """Reg+(S) closed under both operations with an inverse additive reduct."""
    regs = sorted(reg_plus(s))
    regset = frozenset(regs)
    for a in regs:
        for b in regs:
            if s.add[a][b] not in regset:
                return False, f"{s.names[a]}+{s.names[b]} leaves Reg+"
            if s.mul[a][b] not in regset:
                return False, f"{s.names[a]}*{s.names[b]} leaves Reg+"
    sub = s.restrict(regset)
    ok, why = _is_additively_inverse(sub)
    if not ok:
        return False, f"Reg+ additive reduct not inverse: {why}"
    return True, ""


def _sum_closed_idempotents(s: FiniteSemiring):
    idems = sorted(additive_idempotents(s))
    for e in idems:
        for f in idems:
            if s.add[s.add[e][f]][s.add[e][f]] != s.add[e][f]:
                return False, f"{s.names[e]}+{s.names[f]} is not an additive idempotent"
    return True, ""


@memo
def classify(s: FiniteSemiring) -> ClassReport:
    v: dict[str, Verdict] = {}

    def put(key, holds, evidence=""):
        v[key] = Verdict(holds=holds, evidence=evidence)

    regs = reg_plus(s)
    bad_reg = next((a for a in s.elements() if a not in regs), None)
    put(
        "additively-regular",
        bad_reg is None,
        "" if bad_reg is None else f"{s.names[bad_reg]} has no x with a+x+a=a",
    )
    put("additively-inverse", *_is_additively_inverse(s))
    put("additively-quasi-inverse", *_is_additively_quasi_inverse(s))
    put("completely-regular", *_is_completely_regular(s))
    put("quasi-completely-regular", *_is_quasi_completely_regular(s))

    qcr = v["quasi-completely-regular"].holds
    aqi = v["additively-quasi-inverse"].holds
    put(
        "quasi-completely-inverse",
        qcr and aqi,
        "" if qcr and aqi else (v["quasi-completely-regular"].evidence or v["additively-quasi-inverse"].evidence),
    )

    comm_ok, comm_why = _idempotents_commute(s)
    put("strongly-additively-quasi-inverse", comm_ok, comm_why)
    put(
        "strongly-additively-quasi-completely-inverse",
        qcr and comm_ok,
        v["quasi-completely-regular"].evidence or comm_why,
    )

    cr = v["completely-regular"].holds
    inv = v["additively-inverse"].holds
    idems = additive_idempotents(s)
    e_plus_k_ideal = is_k_ideal(s, idems)
    put(
        "generalized-clifford",
        cr and inv and e_plus_k_ideal,
        "" if cr and inv and e_plus_k_ideal else (
            v["completely-regular"].evidence
            or v["additively-inverse"].evidence
            or "E+ is not a k-ideal"
        ),
    )

    group_add = ReductFlag.GROUP in reduct_kind(s, ADD)
    put("skew-ring", group_add, "" if group_add else "additive reduct is not a group")
    qsr = quasi_skew_ring_check(s)
    put(
        "quasi-skew-ring",
        qsr.skew_ring_absorbs_multiples,
        f"kernel {{{', '.join(sorted(s.names[i] for i in qsr.kernel))}}}" if qsr.kernel else
        f"{len(idems)} additive idempotents",
    )
    blat = is_b_lattice(s)
    put("b-lattice", blat, "" if blat else "reducts are not semilattice/band")

    j_one = green_plus(s, "J").num_blocks == 1
    put("completely-simple", cr and j_one,
        "" if cr and j_one else (v["completely-regular"].evidence or "J+ has several blocks"))
    js_one = green_star_plus(s, "J").num_blocks == 1
    put("completely-archimedean", qcr and js_one,
        "" if qcr and js_one else (v["quasi-completely-regular"].evidence or "J*+ has several blocks"))

    report = ClassReport(verdicts=MappingProxyType(v))
    _check_implication_closure(s, report)
    return report


_IMPLICATIONS = (
    ("skew-ring", "quasi-skew-ring"),
    ("b-lattice", "completely-regular"),
    ("completely-regular", "quasi-completely-regular"),
    ("generalized-clifford", "strongly-additively-quasi-completely-inverse"),
    ("strongly-additively-quasi-completely-inverse", "quasi-completely-inverse"),
    ("quasi-completely-inverse", "quasi-completely-regular"),
)


def _check_implication_closure(s: FiniteSemiring, report: ClassReport) -> None:
    for premise, conclusion in _IMPLICATIONS:
        if report.holds(premise) and not report.holds(conclusion):
            raise InternalTheoremViolation(
                f"{premise} holds but {conclusion} fails on {s!r}: "
                f"{report.verdicts[conclusion].evidence}"
            )


def _some_multiple_equal(s: FiniteSemiring, u: int, v: int) -> bool:
    """Does mu == mv for some m >= 1? Complete via cycle detection on the
    joint orbit of the two sequences."""
    seen = set()
    pu, pv = u, v
    while (pu, pv) not in seen:
        seen.add((pu, pv))
        if pu == pv:
            return True
        pu, pv = s.add[pu][u], s.add[pv][v]
    return False


@memo
def _is_quasi_skew_subsemiring(s: FiniteSemiring, block: frozenset[int]) -> bool:
    # memoized by block: QCR5 (iii) and (v) meet the same blocks
    sub = s.subsemiring(block)
    return sub is not None and quasi_skew_ring_check(sub).skew_ring_absorbs_multiples


@memo
def _is_completely_archimedean_subsemiring(s: FiniteSemiring, block: frozenset[int]) -> bool:
    # memoized by block: coarsenings of P share most of their blocks
    sub = s.subsemiring(block)
    return (
        sub is not None
        and _is_quasi_completely_regular(sub)[0]
        and green_star_plus(sub, "J").num_blocks == 1
    )


@memo(table=addition)
def _orbit_idempotent_partition(s: FiniteSemiring) -> Partition:
    """P: a and b share a block iff their additive orbits hold the same
    additive idempotent (see the module docstring)."""
    return Partition.from_block_of(
        next(v for v in orbit(s, a, ADD).values if s.add[v][v] == v)
        for a in s.elements()
    )


def _quotient_is_idempotent(s: FiniteSemiring, p: Partition) -> bool:
    """For a congruence p: both reducts of S/p are bands."""
    return all(p.same(s.add[a][a], a) and p.same(s.mul[a][a], a) for a in s.elements())


def _quotient_is_b_lattice(s: FiniteSemiring, p: Partition) -> bool:
    """For a congruence p: S/p has a semilattice sum and a band product."""
    return _quotient_is_idempotent(s, p) and all(
        p.same(s.add[a][b], s.add[b][a]) for a in s.elements() for b in range(a)
    )


def _is_union_of_quasi_skew_rings(s: FiniteSemiring) -> bool:
    """Some partition into quasi skew subsemirings exists: by lemma (A) the
    only candidate is P."""
    return all(
        _is_quasi_skew_subsemiring(s, b) for b in _orbit_idempotent_partition(s).blocks()
    )


def _is_congruence_of_quasi_skew_rings(s: FiniteSemiring, quotient_pred) -> bool:
    """Some congruence whose classes are quasi skew subsemirings has a
    quotient satisfying quotient_pred: by lemma (A) the only candidate is P."""
    p = _orbit_idempotent_partition(s)
    return (
        _is_union_of_quasi_skew_rings(s)
        and quotient_pred(s, p)
        and is_semiring_congruence_partition(s, p)
    )


def _is_b_lattice_of_completely_archimedean(s: FiniteSemiring) -> bool:
    """Some congruence with a b-lattice quotient has completely Archimedean
    subsemirings as classes: by lemma (B) only the coarsenings of P are
    candidates."""
    p = _orbit_idempotent_partition(s)
    for q in set_partitions(p.num_blocks):
        rho = Partition.from_block_of(q.block_of[b] for b in p.block_of)
        if (  # the quotient test first: it is the cheapest filter
            _quotient_is_b_lattice(s, rho)
            and is_semiring_congruence_partition(s, rho)
            and all(_is_completely_archimedean_subsemiring(s, b) for b in rho.blocks())
        ):
            return True
    return False


def _qsr3_conditions(s: FiniteSemiring):
    # the three conditions computed independently, bypassing the combined
    # check so a genuine disagreement shows up in the report
    idems = additive_idempotents(s)
    absorbing, nil_ext = sub_skew_ring_conditions(s)
    return (
        ("i", len(idems) == 1, f"{len(idems)} additive idempotents"),
        ("ii", absorbing, ""),
        ("iii", nil_ext, ""),
    )


def _qcr5_conditions(s: FiniteSemiring):
    qcr, qcr_why = _is_quasi_completely_regular(s)
    hstar = green_star_plus(s, "H")
    classes_qsr = all(_is_quasi_skew_subsemiring(s, b) for b in hstar.blocks())
    union_qsr = _is_union_of_quasi_skew_rings(s)
    blattice_arch = _is_b_lattice_of_completely_archimedean(s)
    idem_qsr = _is_congruence_of_quasi_skew_rings(s, _quotient_is_idempotent)
    return (
        ("i", qcr, qcr_why),
        ("ii", classes_qsr, ""),
        ("iii", union_qsr, ""),
        ("iv", blattice_arch, ""),
        ("v", idem_qsr, ""),
    )


def _qci5_conditions(s: FiniteSemiring):
    qcr, qcr_why = _is_quasi_completely_regular(s)
    aqi, aqi_why = _is_additively_quasi_inverse(s)
    idems = sorted(additive_idempotents(s))
    elem_idem = all(
        _some_multiple_equal(s, s.add[a][f], s.add[f][a])
        for a in s.elements()
        for f in idems
    )
    idem_idem = all(
        _some_multiple_equal(s, s.add[e][f], s.add[f][e])
        for e in idems
        for f in idems
    )
    hstar = green_star_plus(s, "H")
    sums_h_related = all(
        hstar.same(s.add[a][b], s.add[b][a])
        for a in s.elements()
        for b in s.elements()
    )
    blattice_qsr = _is_congruence_of_quasi_skew_rings(s, _quotient_is_b_lattice)
    return (
        ("i", qcr and aqi, qcr_why or aqi_why),
        ("ii", qcr and elem_idem, ""),
        ("iii", qcr and idem_idem, ""),
        ("iv", qcr and sums_h_related, ""),
        ("v", blattice_qsr, ""),
    )


def _saqci3_conditions(s: FiniteSemiring):
    qcr, qcr_why = _is_quasi_completely_regular(s)
    comm_ok, comm_why = _idempotents_commute(s)
    reg_inverse, reg_why = _is_regular_part_inverse_subsemiring(s)
    aqi, aqi_why = _is_additively_quasi_inverse(s)
    closed_idems, closed_why = _sum_closed_idempotents(s)
    return (
        ("i", qcr and comm_ok, qcr_why or comm_why),
        ("ii", qcr and reg_inverse, qcr_why or reg_why),
        ("iii", qcr and aqi and closed_idems, qcr_why or aqi_why or closed_why),
    )


def _hjeq_conditions(s: FiniteSemiring):
    # (ii) pairs the relation equality with quasi complete regularity: the
    # starred relations live on the additive reduct alone and cannot see the
    # multiplicative leg of complete regularity, so the bare
    # additively-quasi-regular premise admits counterexamples
    qcr, qcr_why = _is_quasi_completely_regular(s)
    aqi, aqi_why = _is_additively_quasi_inverse(s)
    relations_equal = green_star_plus(s, "H") == green_star_plus(s, "J")
    return (
        ("i", qcr and aqi, qcr_why or aqi_why),
        ("ii", qcr and relations_equal, qcr_why or ("" if relations_equal else "H*+ differs from J*+")),
    )


_THEOREMS = {
    "QSR3": _qsr3_conditions,
    "QCR5": _qcr5_conditions,
    "QCI5": _qci5_conditions,
    "SAQCI3": _saqci3_conditions,
    "HJEQ": _hjeq_conditions,
}


def verify_equivalence(s: FiniteSemiring, theorem: str) -> TheoremReport:
    """Evaluate every condition of the named equivalence theorem on its own
    and report whether they agree."""
    if theorem not in _THEOREMS:
        raise UnknownTheoremId(f"unknown theorem id {theorem!r}; expected one of {THEOREM_IDS}")
    return TheoremReport(theorem=theorem, conditions=tuple(_THEOREMS[theorem](s)))


def verify_ideal_corollary(s: FiniteSemiring) -> TheoremReport:
    """Strong additive quasi complete inversity against 'quasi completely
    inverse with Reg+ and E+ both ideals'."""
    report = classify(s)
    lhs = report.holds("strongly-additively-quasi-completely-inverse")
    regs = reg_plus(s)
    idems = additive_idempotents(s)
    rhs = (
        report.holds("quasi-completely-inverse")
        and is_ideal(s, regs)
        and is_ideal(s, idems)
    )
    return TheoremReport(
        theorem="IDEALS",
        conditions=(
            ("saqci", lhs, ""),
            ("qci-with-ideals", rhs, ""),
        ),
    )


def is_completely_simple(s: FiniteSemiring) -> bool:
    """Completely regular with all elements J+-related."""
    return classify(s).holds("completely-simple")


def is_completely_archimedean(s: FiniteSemiring) -> bool:
    """Quasi completely regular with all elements J*+-related."""
    report = classify(s)
    if not report.holds("quasi-completely-regular"):
        raise NotQuasiCompletelyRegular(
            "completely Archimedean is defined for quasi completely regular semirings"
        )
    return report.holds("completely-archimedean")
