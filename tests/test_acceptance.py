"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Criterion 2's witness dump policy: any disagreement fails the test with the
offending semiring serialized into the assertion message.
"""

import time

import semiringlab as sl
from semiringlab.elements import is_quasi_completely_regular_semiring
from semiringlab.enumeration import (
    canonical_form,
    enumerate_semirings,
    manifest_line,
)
from semiringlab.relations import is_semiring_congruence_partition
from semiringlab.structure import is_strongly_additively_quasi_completely_inverse

from conftest import QSR3_TEXT

ORDER2_COUNT_FROZEN = 20  # brute-force oracle, computed before the build


def _report(number, name, ok):
    print(f"acceptance {number} [{name}]: {'PASS' if ok else 'FAIL'}")
    return ok


def test_acceptance_1_golden_example():
    started = time.monotonic()
    s = sl.parse_srt(QSR3_TEXT)
    ok = sl.validate(s).verdict
    e_plus = {s.names[i] for i in sl.additive_idempotents(s)}
    ok = ok and e_plus == {"0"}
    regs = {s.names[i] for i in sl.reg_plus(s)}
    ok = ok and regs == {"0"}
    d = sl.decompose(s)
    p = sl.psi(s, d)
    a, b = s.index("a"), s.index("b")
    ok = ok and s.names[p(a)] == "0" and s.names[p(b)] == "0" and a != b
    qsr = sl.quasi_skew_ring_check(s)
    ok = ok and qsr.verdict and qsr.kernel == frozenset({s.index("0")})
    ok = ok and sl.is_nil_extension(s, {s.index("0")})
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    assert _report(1, "golden example", ok), f"elapsed={elapsed:.3f}s"


# members of the 836-member sweep (the corpus without order 1) where every
# condition of a theorem holds, and where every one fails; pinned so a
# regression toward a vacuous sweep fails
SWEEP_HOLD_FAIL = {
    "QSR3": (139, 697),
    "QCR5": (451, 385),
    "QCI5": (340, 496),
    "SAQCI3": (340, 496),
    "HJEQ": (340, 496),
    "IDEALS": (340, 496),
}


def test_acceptance_2_theorem_equivalence_sweeps(corpus):
    order4 = [s for s in corpus if s.order == 4]
    assert len(order4) >= 500
    failures = []
    members = [s for s in corpus if s.order > 1]
    counts = {theorem: [0, 0] for theorem in SWEEP_HOLD_FAIL}
    for s in members:
        reports = [sl.verify_equivalence(s, t) for t in ("QSR3", "QCR5", "QCI5", "SAQCI3", "HJEQ")]
        reports.append(sl.verify_ideal_corollary(s))
        for r in reports:
            values = r.verdicts.values()
            counts[r.theorem][0] += all(values)
            counts[r.theorem][1] += not any(values)
            if not r.agreement:
                failures.append((r.theorem, r.verdicts, sl.serialize_srt(s)))
    counts = {theorem: tuple(c) for theorem, c in counts.items()}
    ok = _report(
        2,
        "theorem equivalence sweeps",
        not failures and len(members) == 836 and counts == SWEEP_HOLD_FAIL,
    )
    assert ok, (
        (len(members), counts),
        "\n\n".join(f"{t} {v}\n{srt}" for t, v, srt in failures[:5]),
    )


def test_acceptance_3_reg_plus_equals_cr(corpus):
    failures = []
    for s in corpus:
        if is_quasi_completely_regular_semiring(s):
            if sl.reg_plus(s) != sl.cr_set(s):
                failures.append(sl.serialize_srt(s))
    ok = _report(3, "Reg+ equals Cr on quasi completely regular members", not failures)
    assert ok, "\n\n".join(failures[:5])


def test_acceptance_4_greatest_idempotent_separating_congruence(corpus):
    failures = []
    checked = 0
    for s in corpus:
        if s.order > 4 or not is_strongly_additively_quasi_completely_inverse(s):
            continue
        checked += 1
        hstar = sl.green_star_plus(s, "H")
        if not is_semiring_congruence_partition(s, hstar):
            failures.append(("not a congruence", sl.serialize_srt(s)))
            continue
        hcong = sl.Congruence(hstar)
        if not sl.is_idempotent_separating(s, hcong):
            failures.append(("not idempotent separating", sl.serialize_srt(s)))
            continue
        for c in sl.enumerate_congruences(s):
            if sl.is_idempotent_separating(s, c) and not c.partition.refines(hstar):
                failures.append(("not greatest", sl.serialize_srt(s)))
                break
    ok = _report(4, "H*+ greatest idempotent-separating congruence", not failures and checked > 50)
    assert ok, (checked, failures[:5])


def test_acceptance_5_psi_homomorphism(corpus):
    failures = []
    checked = 0
    for s in corpus:
        if s.order > 4 or not is_strongly_additively_quasi_completely_inverse(s):
            continue
        checked += 1
        if not sl.check_psi_homomorphism(s, sl.decompose(s)):
            failures.append(sl.serialize_srt(s))
    ok = _report(5, "psi is a homomorphism", not failures and checked > 50)
    assert ok, (checked, failures[:5])


def _all_single_corruptions(d, m):
    for (alpha, beta), f in sorted(m.phi.items()):
        if alpha == beta:
            continue
        for x in sorted(f):
            for alt in sorted(d.classes[beta]):
                if alt == f[x]:
                    continue
                phi = {pair: dict(g) for pair, g in m.phi.items()}
                phi[(alpha, beta)][x] = alt
                yield (alpha, beta, x, alt), sl.StructureMaps(decomposition=d, phi=phi)


def test_acceptance_6_strong_blattice_round_trip(spec_test_set, generated_sbl_texts):
    assert len(generated_sbl_texts) >= 10
    failures = []
    corruption_checked = 0
    for spec in spec_test_set:
        total = sum(c.order for c in spec.components)
        if total > 6:
            failures.append(("total order above budget", total))
            continue
        if not sl.validate_spec(spec).verdict:
            failures.append(("spec invalid", spec))
            continue
        s = sl.compose(spec)
        if not sl.validate(s).verdict:
            failures.append(("composed not a semiring", spec))
            continue
        d = sl.decompose(s)
        m = sl.search_structure_maps(s)
        if m is None:
            failures.append(("no presenting family found", sl.serialize_srt(s)))
            continue
        if not sl.verify_strong_blattice(s, d, m):
            failures.append(("family does not present", sl.serialize_srt(s)))
            continue
        conditions = sl.check_main_theorem_conditions(s, d, m)
        if not conditions.all_hold:
            failures.append(("conditions failed", conditions.failed(), sl.serialize_srt(s)))
            continue
        for where, corrupted in _all_single_corruptions(d, m):
            corruption_checked += 1
            report = sl.check_main_theorem_conditions(s, d, corrupted)
            if report.all_hold:
                failures.append(("corruption not flagged", where, sl.serialize_srt(s)))
    ok = _report(
        6,
        "strong b-lattice round trip and corruption sensitivity",
        not failures and corruption_checked > 0,
    )
    assert ok, failures[:5]


def test_acceptance_7_generalized_clifford_iff_strong_blattice(corpus, corpus_order5):
    failures = []
    for s in corpus + corpus_order5:
        r = sl.check_generalized_clifford_theorem(s)
        if not r.agreement:
            failures.append((r.verdicts, sl.serialize_srt(s)))
    ok = _report(7, "generalized Clifford iff strong b-lattice of skew-rings", not failures)
    assert ok, failures[:5]


def test_acceptance_8_enumeration_determinism():
    first = "".join(manifest_line(s) + "\n" for s in enumerate_semirings(3))
    second = "".join(manifest_line(s) + "\n" for s in enumerate_semirings(3))
    ok = first == second
    count2 = len(enumerate_semirings(2))
    ok = ok and count2 == ORDER2_COUNT_FROZEN
    forms = [canonical_form(s) for s in enumerate_semirings(3)]
    ok = ok and forms == sorted(forms) and len(set(forms)) == len(forms)
    assert _report(8, "enumeration determinism and frozen order-2 count", ok), count2
