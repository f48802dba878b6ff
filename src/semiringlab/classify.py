"""Whole-semiring class predicates and multi-condition theorem verifiers.

Every class verdict is computed from its definition, never through a proved
equivalence; the verifiers then check the equivalences by evaluating each
side independently and comparing. A disagreement is reported, not hidden:
it means an implementation bug or a genuine counterexample, and either one
is exactly what a sweep is for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalTheoremViolation, NotQuasiCompletelyRegular, UnknownTheoremId
from .kernel import (
    ADD,
    FiniteSemiring,
    ReductFlag,
    analysis,
    is_b_lattice,
    is_idempotent_semiring,
    memo,
    orbit,
    reduct_kind,
)
from .elements import (
    additive_idempotents,
    additive_inverses,
    first_without_completely_regular_multiple,
    is_additively_regular,
    is_completely_regular,
    reg_plus,
)
from .relations import (
    enumerate_congruences,
    green_plus,
    green_star_plus,
    quotient,
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
    verdicts: dict[str, Verdict]

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


def _unique_additive_inverse(s: FiniteSemiring, a: int) -> bool:
    return len(additive_inverses(s, a).inverses) == 1


def _is_additively_inverse(s: FiniteSemiring):
    for a in s.elements():
        count = len(additive_inverses(s, a).inverses)
        if count != 1:
            return False, f"{s.names[a]} has {count} additive inverses"
    return True, ""


def _is_additively_quasi_inverse(s: FiniteSemiring):
    """Some multiple na of each a admits exactly one x with na+x+na = na and
    x+na+x = x."""
    for a in s.elements():
        if not any(_unique_additive_inverse(s, v) for v in orbit(s, a, ADD).values):
            return False, f"no multiple of {s.names[a]} has a unique additive inverse"
    return True, ""


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


def _is_additively_quasi_regular(s: FiniteSemiring):
    for a in s.elements():
        if not any(is_additively_regular(s, v) for v in orbit(s, a, ADD).values):
            return False, f"no multiple of {s.names[a]} is additively regular"
    return True, ""


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


@analysis
def classify(s: FiniteSemiring) -> ClassReport:
    v: dict[str, Verdict] = {}

    def put(key, holds, evidence=""):
        v[key] = Verdict(holds=holds, evidence=evidence)

    bad_reg = next((a for a in s.elements() if not is_additively_regular(s, a)), None)
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

    aqr_ok, aqr_why = _is_additively_quasi_regular(s)
    comm_ok, comm_why = _idempotents_commute(s)
    put("strongly-additively-quasi-inverse", aqr_ok and comm_ok, aqr_why or comm_why)
    put(
        "strongly-additively-quasi-completely-inverse",
        qcr and aqr_ok and comm_ok,
        v["quasi-completely-regular"].evidence or aqr_why or comm_why,
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

    report = ClassReport(verdicts=v)
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
    # memoized by block: the partition and congruence scans of QCR5 and QCI5
    # meet the same blocks again and again
    if not s.is_closed(block):
        return False
    return quasi_skew_ring_check(s.restrict(block)).skew_ring_absorbs_multiples


@memo
def _is_completely_archimedean_subsemiring(s: FiniteSemiring, block: frozenset[int]) -> bool:
    if not s.is_closed(block):
        return False
    sub = s.restrict(block)
    return _is_quasi_completely_regular(sub)[0] and green_star_plus(sub, "J").num_blocks == 1


def _exists_partition_into(s: FiniteSemiring, block_pred) -> bool:
    return any(
        all(block_pred(s, block) for block in p.blocks())
        for p in set_partitions(s.order)
    )


def _exists_congruence_with(s: FiniteSemiring, quotient_pred, block_pred) -> bool:
    for cong in enumerate_congruences(s, bound=max(s.order, 6)):
        q = quotient(s, cong)
        if quotient_pred(q) and all(block_pred(s, b) for b in cong.partition.blocks()):
            return True
    return False


def _qsr3_conditions(s: FiniteSemiring):
    # the three conditions computed independently, bypassing the combined
    # check so a genuine disagreement shows up in the report
    aqr = _is_additively_quasi_regular(s)[0]
    idems = additive_idempotents(s)
    absorbing, nil_ext = sub_skew_ring_conditions(s)
    return (
        ("i", aqr and len(idems) == 1, f"{len(idems)} additive idempotents"),
        ("ii", absorbing, ""),
        ("iii", nil_ext, ""),
    )


def _qcr5_conditions(s: FiniteSemiring):
    qcr, qcr_why = _is_quasi_completely_regular(s)
    hstar = green_star_plus(s, "H")
    classes_qsr = all(_is_quasi_skew_subsemiring(s, b) for b in hstar.blocks())
    union_qsr = _exists_partition_into(s, _is_quasi_skew_subsemiring)
    blattice_arch = _exists_congruence_with(
        s, is_b_lattice, _is_completely_archimedean_subsemiring
    )
    idem_qsr = _exists_congruence_with(
        s, is_idempotent_semiring, _is_quasi_skew_subsemiring
    )
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
    blattice_qsr = _exists_congruence_with(s, is_b_lattice, _is_quasi_skew_subsemiring)
    return (
        ("i", qcr and aqi, qcr_why or aqi_why),
        ("ii", qcr and elem_idem, ""),
        ("iii", qcr and idem_idem, ""),
        ("iv", qcr and sums_h_related, ""),
        ("v", blattice_qsr, ""),
    )


def _saqci3_conditions(s: FiniteSemiring):
    qcr, qcr_why = _is_quasi_completely_regular(s)
    aqr_ok, _ = _is_additively_quasi_regular(s)
    comm_ok, comm_why = _idempotents_commute(s)
    reg_inverse, reg_why = _is_regular_part_inverse_subsemiring(s)
    aqi, aqi_why = _is_additively_quasi_inverse(s)
    closed_idems, closed_why = _sum_closed_idempotents(s)
    return (
        ("i", qcr and aqr_ok and comm_ok, qcr_why or comm_why),
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


@analysis
def verify_equivalence(s: FiniteSemiring, theorem: str) -> TheoremReport:
    """Evaluate every condition of the named equivalence theorem on its own
    and report whether they agree."""
    if theorem not in _THEOREMS:
        raise UnknownTheoremId(f"unknown theorem id {theorem!r}; expected one of {THEOREM_IDS}")
    return TheoremReport(theorem=theorem, conditions=tuple(_THEOREMS[theorem](s)))


@analysis
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
    return _is_completely_regular(s)[0] and green_plus(s, "J").num_blocks == 1


def is_completely_archimedean(s: FiniteSemiring) -> bool:
    """Quasi completely regular with all elements J*+-related."""
    if not _is_quasi_completely_regular(s)[0]:
        raise NotQuasiCompletelyRegular(
            "completely Archimedean is defined for quasi completely regular semirings"
        )
    return green_star_plus(s, "J").num_blocks == 1
