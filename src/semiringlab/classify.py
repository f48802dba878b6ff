"""Whole-semiring class predicates and multi-condition theorem verifiers.

Every class verdict is computed from its definition, never through a proved
equivalence; the verifiers then check the equivalences by evaluating each
side independently and comparing. A disagreement is reported, not hidden:
it means an implementation bug or a genuine counterexample, and either one
is exactly what a sweep is for.

Each class verdict is decided once, in `classify`. The verifiers QCR5, QCI5,
SAQCI3 and HJEQ read their class premises (quasi complete regularity, quasi
complete inversity, strong additive quasi complete inversity) off its
memoized report as (holds, evidence), and compute only their other
conditions themselves, so a verifier called on its own runs `classify` first.
Each verifier fetches the report and the record of the addition
(`kernel.additive_facts`) in one memo lookup and passes them to its
condition helper. A condition "premise and X" computes X only when the
premise holds; when it fails, its evidence is the premise's.

Additive quasi regularity (some multiple of each element is additively
regular) holds on every finite carrier, so no predicate computes it:
`elements.least_regular_multiples` asserts it for every element.

The verdicts of `classify` that read the addition alone (additive
regularity, inversity and quasi inversity, strong additive quasi inversity,
skew-rings, one J+ class, one J*+ class) are read off the one record per
addition, `kernel.additive_facts`, which the memo keeps once for every
semiring with that addition. The rest read the multiplication as well:
complete regularity through the one vector `elements.complete_regularity`,
the k-ideal property of E+, the quasi skew-ring check and the b-lattice
test `kernel.is_b_lattice`; complete and quasi complete regularity read
that one vector. `classify` and QSR3 read one memoized quasi skew-ring report of
the carrier; QCR5, QCI5 and `decompose` one report per H*+ class, which is
the carrier's when there is one class.

The existence conditions of QCR5 and QCI5 (a partition into quasi skew
subsemirings, and a congruence with a b-lattice or idempotent quotient whose
classes are quasi skew-rings or completely Archimedean) are decided over the
orbit-idempotent partition P and two generated congruences, never over all
set partitions of the carrier. Each additive orbit {a, 2a, 3a, ...} holds
exactly one additive idempotent e_a, and P puts a and b in one block iff
e_a = e_b. The least idempotent congruence iota is generated by a+a ~ a and
aa ~ a; the least b-lattice congruence beta adds a+b ~ b+a. A congruence
has an idempotent quotient iff it contains iota, and a b-lattice quotient
iff it contains beta. The lemmas:

- (A) A block closed under addition that holds a holds every multiple of a,
  so it holds e_a. A quasi skew-ring has exactly one additive idempotent, so
  in a partition into quasi skew subsemirings the block of a is the block of
  e_a, and its elements are exactly those b with e_b = e_a. The only
  candidate partition is therefore P itself.
- (B) If the quotient by a congruence rho has idempotent addition, as a
  b-lattice and an idempotent semiring do, then a rho 2a rho 3a ..., so
  a rho e_a and P refines rho. In particular P refines iota, which refines
  beta.
- (C) Let B be a block closed under addition and a an element of B. Then a
  has the same additive orbit in B as in S, and the same commuting witness:
  a witness makes its element an element of a subgroup of (S, +), so it is
  a multiple of that element, and lies in B. So a has a completely regular
  multiple in B iff it has one in S, and B is quasi completely regular iff
  its elements are quasi completely regular in S.
- (D) Let B be a block closed under both operations and e an additive
  idempotent in B. Then the H+-class of e in B is its H+-class in S cut
  down to B. The H+-class of e in S is the maximal subgroup of (S, +) at e;
  its part in B is closed under addition, and a closed subset of a finite
  group is a subgroup, so it is a subgroup of (B, +) at e and lies in the
  H+-class of e in B. That class in turn is a subgroup of (S, +) at e, so it
  lies in the H+-class of e in S. The product ee is the same in B as in S,
  and by (C) the additive orbit windows of B are the windows in S of its
  elements. So whether B is a quasi skew-ring is read off the analysis of
  S, and no block is built as a semiring for it.
- (E) Let S be quasi completely regular with each additively regular
  element in a subgroup of (S, +) (GV; QCR5 (iv) checks this, never
  assumes it), and B a block closed under addition. Then J*+ of B is J*+
  of S cut down to B. (1) The least regular multiple pa lies in a subgroup
  and its group inverse, a multiple of pa, lies in B, so pa is the least
  multiple regular in B too. (2) On elements regular in B, L and R of B are
  those of S: if v = v + v' + v with v' in B and u = t + v, then
  u = (u + v') + v. (3) If u D v in S, every H-class of their D-class is a
  group, so v + u lies in R_v, in L_u (Miller and Clifford; Howie,
  Fundamentals of Semigroup Theory, 1995, 2.3) and in B: u D v in B.

So QCR5 (iii) asks whether every block of P is a quasi skew subsemiring.
QCR5 (v) and QCI5 (v) ask, besides, whether P is a congruence containing
iota or beta; as P refines both, that is whether P equals iota or beta.
QCI5 (v) tests the blocks first and compares P with beta only if they
qualify, which by (C) they do only on a quasi completely regular s, as a
quasi skew-ring is one: there QCR5 (iv) needs beta too.
QCR5 (iv) asks for a congruence containing beta whose classes are completely
Archimedean subsemirings. The classes cover S, so by (C) S must be quasi
completely regular. A class of a congruence containing beta is closed
under both operations, its quotient being idempotent, so by (C) and (E) it
qualifies iff J*+ of S holds it whole: the congruence qualifies iff it
refines J*+. Beta is the least congruence containing beta, so (iv) holds
iff S is quasi completely regular and beta refines J*+; no class is built
and no congruence above beta is enumerated.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import repeat
from types import MappingProxyType
from typing import NamedTuple

from .errors import InternalTheoremViolation, NotQuasiCompletelyRegular, UnknownTheoremId
from .kernel import AdditiveFacts, FiniteSemiring, Partition, ReductFlag, additive_facts, is_b_lattice, memo
from .elements import complete_regularity
from .relations import generated_congruence
from .structure import _carrier_report, _class_reports, _is_ideal, _is_k_ideal, _quasi_skew_ring_report

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


class Verdict(NamedTuple):
    holds: bool
    evidence: str = ""


class ClassReport(NamedTuple):
    # read-only: the memo hands the same report to every caller
    verdicts: Mapping[str, Verdict]

    def holds(self, key: str) -> bool:
        return self.verdicts[key].holds

    def true_classes(self) -> tuple[str, ...]:
        return tuple(k for k in CLASS_KEYS if self.verdicts[k].holds)


class TheoremReport(NamedTuple):
    theorem: str
    conditions: tuple[tuple[str, bool, str], ...]

    @property
    def agreement(self) -> bool:
        values = {holds for _, holds, _ in self.conditions}
        return len(values) == 1

    @property
    def verdicts(self) -> dict[str, bool]:
        return {label: holds for label, holds, _ in self.conditions}


def _is_regular_part_inverse_subsemiring(s: FiniteSemiring, facts):
    """Reg+(S) closed under both operations with an inverse additive reduct."""
    regs = sorted(facts.regular)
    regset = frozenset(regs)
    for a in regs:
        for b in regs:
            if s.add[a][b] not in regset:
                return False, f"{s.names[a]}+{s.names[b]} leaves Reg+"
            if s.mul[a][b] not in regset:
                return False, f"{s.names[a]}*{s.names[b]} leaves Reg+"
    # V+(a) lies in Reg+: a is in V+(x) for each x in V+(a)
    inv = facts.inverses
    for a in regs:
        count = len(inv[a])
        if count != 1:
            return False, f"Reg+ additive reduct not inverse: {s.names[a]} has {count} additive inverses"
    return True, ""


def _is_generalized_clifford(s: FiniteSemiring, facts, carrier) -> bool:
    """The carrier, all of s or a closed Reg+, is generalized Clifford: each
    element completely regular with one additive inverse, E+ a k-ideal of
    it. V+(a) lies in Reg+, as a lies in V+(x) for x in V+(a), so on Reg+
    V+ and all it decides (witnesses, complete regularity, E+) are of s."""
    cr, inv = complete_regularity(s), facts.inverses
    idems = frozenset(e for e in carrier if s.add[e][e] == e)
    return all(cr[a] and len(inv[a]) == 1 for a in carrier) and _is_k_ideal(s, idems, carrier)


def _sum_closed_idempotents(s: FiniteSemiring, facts):
    idems = sorted(facts.idempotents)
    for e in idems:
        for f in idems:
            if s.add[s.add[e][f]][s.add[e][f]] != s.add[e][f]:
                return False, f"{s.names[e]}+{s.names[f]} is not an additive idempotent"
    return True, ""


@memo
def classify(s: FiniteSemiring) -> ClassReport:
    """Every class verdict, each decided here once: the verifiers read their
    class premises off this report."""
    facts = additive_facts(s)
    names, vplus, windows, r = s.names, facts.inverses, facts.windows, s.elements()
    one = {a for a, v in enumerate(vplus) if len(v) == 1}
    crs = {a for a, cr in enumerate(complete_regularity(s)) if cr}
    # the first element outside each set, then the first with no multiple in
    # it, which exists only if the first does: a is a multiple of itself
    bad_reg, bad_inv, bad_cr = (None if len(sub) == len(r) else min(set(r) - sub)
                                for sub in (facts.regular, one, crs))
    bad_aqi = None if bad_inv is None else next((a for a, w in enumerate(windows) if one.isdisjoint(w)), None)
    bad_qcr = None if bad_cr is None else next((a for a, w in enumerate(windows) if crs.isdisjoint(w)), None)
    regular_why = "" if bad_reg is None else f"{names[bad_reg]} has no x with a+x+a=a"
    inv_why = "" if bad_inv is None else f"{names[bad_inv]} has {len(vplus[bad_inv])} additive inverses"
    aqi_why = "" if bad_aqi is None else f"no multiple of {names[bad_aqi]} has a unique additive inverse"
    cr_why = "" if bad_cr is None else f"{names[bad_cr]} is not completely regular"
    qcr_why = "" if bad_qcr is None else f"no multiple of {names[bad_qcr]} is completely regular"
    bad = facts.noncommuting_idempotents
    comm_why = "" if bad is None else "{0}+{1} != {1}+{0}".format(*(names[i] for i in bad))
    # each of these holds iff nothing breaks it
    inv, aqi, cr, qcr, comm_ok = (not why for why in (inv_why, aqi_why, cr_why, qcr_why, comm_why))
    # E+ is nonempty: every additive orbit holds an idempotent
    gc = cr and inv and _is_generalized_clifford(s, facts, s.elements())
    qsr = _carrier_report(s)
    blat = is_b_lattice(s)
    group = ReductFlag.GROUP in facts.flags
    simple = cr and facts.green["J"].num_blocks == 1
    archimedean = qcr and facts.green_star["J"].num_blocks == 1
    # in the order of CLASS_KEYS; tuple.__new__ makes each Verdict without a Python call
    verdicts = MappingProxyType(dict(zip(CLASS_KEYS, map(tuple.__new__, repeat(Verdict), (
        (not regular_why, regular_why),
        (inv, inv_why),
        (aqi, aqi_why),
        (cr, cr_why),
        (qcr, qcr_why),
        (qcr and aqi, qcr_why or aqi_why),
        (comm_ok, comm_why),
        (qcr and comm_ok, qcr_why or comm_why),
        (gc, "" if gc else cr_why or inv_why or "E+ is not a k-ideal"),
        (group, "" if group else "additive reduct is not a group"),
        (
            qsr.skew_ring_absorbs_multiples,
            f"kernel {{{', '.join(sorted(s.names[i] for i in qsr.kernel))}}}" if qsr.kernel else
            f"{len(facts.idempotents)} additive idempotents",
        ),
        (blat, "" if blat else "reducts are not semilattice/band"),
        (simple, "" if simple else cr_why or "J+ has several blocks"),
        (archimedean, "" if archimedean else qcr_why or "J*+ has several blocks"),
    )))))
    _check_implication_closure(s, verdicts)
    return ClassReport(verdicts=verdicts)


_IMPLICATIONS = (
    ("skew-ring", "quasi-skew-ring"),
    ("b-lattice", "completely-regular"),
    ("completely-regular", "quasi-completely-regular"),
    ("generalized-clifford", "strongly-additively-quasi-completely-inverse"),
    ("strongly-additively-quasi-completely-inverse", "quasi-completely-inverse"),
    ("quasi-completely-inverse", "quasi-completely-regular"),
)


def _check_implication_closure(s: FiniteSemiring, verdicts: Mapping[str, Verdict]) -> None:
    for premise, conclusion in _IMPLICATIONS:
        if verdicts[premise].holds and not verdicts[conclusion].holds:
            raise InternalTheoremViolation(
                f"{premise} holds but {conclusion} fails on {s!r}: "
                f"{verdicts[conclusion].evidence}"
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


def _is_quasi_skew_subsemiring(s: FiniteSemiring, facts, block: frozenset[int]) -> bool:
    """The block is a subsemiring and a quasi skew-ring, decided on s by
    lemma (D) without building it."""
    return s.is_closed(block) and _quasi_skew_ring_report(s, facts, block).skew_ring_absorbs_multiples


def _band_pairs(s: FiniteSemiring) -> list[tuple[int, int]]:
    """a+a ~ a and aa ~ a for every a."""
    return [(s.add[a][a], a) for a in s.elements()] + [(s.mul[a][a], a) for a in s.elements()]


def _least_idempotent_congruence(s: FiniteSemiring) -> Partition:
    """iota, generated by a+a ~ a and aa ~ a."""
    return generated_congruence(s, _band_pairs(s))


@memo
def _least_b_lattice_congruence(s: FiniteSemiring) -> Partition:
    """beta, generated by a+a ~ a, aa ~ a and a+b ~ b+a."""
    commuting = [(s.add[a][b], s.add[b][a]) for a in s.elements() for b in range(a)]
    return generated_congruence(s, _band_pairs(s) + commuting)


def _quasi_skew_blocks(s: FiniteSemiring, facts, p: Partition) -> bool:
    """Every block of p is a quasi skew subsemiring. For p = P, whether any
    partition into quasi skew subsemirings exists, as by lemma (A) P is the
    only candidate; so some congruence of them contains iota (beta) iff this
    holds and P, which refines both, equals iota (beta). For p = H*+, read
    off the class reports that `decompose` reads."""
    if p == facts.green_star["H"]:
        reports = _class_reports(s)
        return reports is not None and all(r.skew_ring_absorbs_multiples for r in reports)
    return all(_is_quasi_skew_subsemiring(s, facts, b) for b in p.blocks())


def _is_b_lattice_of_completely_archimedean(s: FiniteSemiring, report, facts) -> bool:
    """Some congruence with a b-lattice quotient, that is some congruence
    containing beta, has completely Archimedean subsemirings as classes.
    Every element lies in some class, so by lemma (C) S must be quasi
    completely regular, and then by lemma (E) beta qualifies iff it refines
    J*+, and some congruence does iff beta does."""
    if not report.holds("quasi-completely-regular"):
        return False
    for a in sorted(facts.regular):
        if facts.witnesses[a] is None:
            raise InternalTheoremViolation(f"{s.names[a]} is additively regular but in no "
                                           f"additive subgroup of the quasi completely regular {s!r}")
    return _least_b_lattice_congruence(s).refines(facts.green_star["J"])


def _qsr3_conditions(s: FiniteSemiring, report, facts):
    # the three conditions, each decided on its own definition by the
    # carrier report, which raises if they disagree
    idems = facts.idempotents
    qsr = _carrier_report(s)
    return (
        ("i", len(idems) == 1, f"{len(idems)} additive idempotents"),
        ("ii", qsr.skew_ring_absorbs_multiples, ""),
        ("iii", qsr.nil_extension_of_skew_ring, ""),
    )


def _qcr5_conditions(s: FiniteSemiring, report, facts):
    qcr, qcr_why = report.verdicts["quasi-completely-regular"]
    hstar = facts.green_star["H"]
    classes_qsr = _quasi_skew_blocks(s, facts, hstar)
    p = facts.partition
    # (ii) and (iii) ask the same of the same blocks when P is H*+
    union_qsr = classes_qsr if p == hstar else _quasi_skew_blocks(s, facts, p)
    return (
        ("i", qcr, qcr_why),
        ("ii", classes_qsr, ""),
        ("iii", union_qsr, ""),
        ("iv", _is_b_lattice_of_completely_archimedean(s, report, facts), ""),
        ("v", union_qsr and p == _least_idempotent_congruence(s), ""),
    )


def _qci5_conditions(s: FiniteSemiring, report, facts):
    qcr = report.holds("quasi-completely-regular")
    idems = sorted(facts.idempotents)
    elem_idem = qcr and all(
        _some_multiple_equal(s, s.add[a][f], s.add[f][a])
        for a in s.elements()
        for f in idems
    )
    idem_idem = qcr and all(
        _some_multiple_equal(s, s.add[e][f], s.add[f][e])
        for e in idems
        for f in idems
    )
    hstar = facts.green_star["H"]
    sums_h_related = qcr and all(
        hstar.same(s.add[a][b], s.add[b][a])
        for a in s.elements()
        for b in s.elements()
    )
    # P is the only candidate (lemma (A)); its blocks first (module docstring)
    p = facts.partition
    blattice_qsr = _quasi_skew_blocks(s, facts, p) and p == _least_b_lattice_congruence(s)
    return (
        ("i", *report.verdicts["quasi-completely-inverse"]),
        ("ii", elem_idem, ""),
        ("iii", idem_idem, ""),
        ("iv", sums_h_related, ""),
        ("v", blattice_qsr, ""),
    )


def _saqci3_conditions(s: FiniteSemiring, report, facts):
    qcr, qcr_why = report.verdicts["quasi-completely-regular"]
    qci, qci_why = report.verdicts["quasi-completely-inverse"]
    reg_inverse, reg_why = _is_regular_part_inverse_subsemiring(s, facts) if qcr else (False, qcr_why)
    closed_idems, closed_why = _sum_closed_idempotents(s, facts) if qci else (False, qci_why)
    return (
        ("i", *report.verdicts["strongly-additively-quasi-completely-inverse"]),
        ("ii", reg_inverse, reg_why),
        ("iii", closed_idems, closed_why),
    )


def _hjeq_conditions(s: FiniteSemiring, report, facts):
    # (ii) pairs the relation equality with quasi complete regularity: the
    # starred relations live on the additive reduct alone and cannot see the
    # multiplicative leg of complete regularity, so the bare
    # additively-quasi-regular premise admits counterexamples
    qcr, qcr_why = report.verdicts["quasi-completely-regular"]
    relations_equal = qcr and facts.green_star["H"] == facts.green_star["J"]
    return (
        ("i", *report.verdicts["quasi-completely-inverse"]),
        ("ii", relations_equal, qcr_why or ("" if relations_equal else "H*+ differs from J*+")),
    )


_THEOREMS = {
    "QSR3": _qsr3_conditions,
    "QCR5": _qcr5_conditions,
    "QCI5": _qci5_conditions,
    "SAQCI3": _saqci3_conditions,
    "HJEQ": _hjeq_conditions,
}


@memo
def _premises(s: FiniteSemiring) -> tuple[ClassReport, AdditiveFacts]:
    """The class report and the record of the addition, in one memo lookup."""
    return classify(s), additive_facts(s)


def verify_equivalence(s: FiniteSemiring, theorem: str) -> TheoremReport:
    """Evaluate every condition of the named equivalence theorem on its own
    and report whether they agree."""
    if theorem not in _THEOREMS:
        raise UnknownTheoremId(f"unknown theorem id {theorem!r}; expected one of {THEOREM_IDS}")
    conditions = _THEOREMS[theorem](s, *_premises(s))
    return TheoremReport(theorem=theorem, conditions=tuple(conditions))


def verify_ideal_corollary(s: FiniteSemiring) -> TheoremReport:
    """Strong additive quasi complete inversity against 'quasi completely
    inverse with Reg+ and E+ both ideals'."""
    report, facts = _premises(s)
    lhs = report.holds("strongly-additively-quasi-completely-inverse")
    rhs = (
        report.holds("quasi-completely-inverse")
        and _is_ideal(s, facts.regular, s.elements())
        and _is_ideal(s, facts.idempotents, s.elements())
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
