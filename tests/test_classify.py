import importlib

import pytest
from hypothesis import given, settings, strategies as st

import semiringlab as sl
from semiringlab.errors import NotQuasiCompletelyRegular, UnknownTheoremId
from semiringlab.classify import (
    CLASS_KEYS,
    THEOREM_IDS,
    _is_quasi_completely_regular,
    _is_quasi_skew_subsemiring,
    _least_b_lattice_congruence,
    _least_idempotent_congruence,
    _orbit_idempotent_partition,
)
from semiringlab.kernel import is_b_lattice, is_idempotent_semiring
from semiringlab.relations import Partition, enumerate_congruences, is_semiring_congruence_partition, quotient

from conftest import direct_product, set_partitions, zn

# the package exports the function classify under the module's name
classify_module = importlib.import_module("semiringlab.classify")


def test_classify_qsr3(qsr3):
    r = sl.classify(qsr3)
    assert r.holds("quasi-skew-ring")
    assert r.holds("quasi-completely-inverse")
    assert r.holds("strongly-additively-quasi-completely-inverse")
    assert r.holds("completely-archimedean")
    assert not r.holds("generalized-clifford")
    assert not r.holds("b-lattice")
    assert not r.holds("completely-regular")
    assert not r.holds("additively-regular")
    assert "kernel {0}" in r.verdicts["quasi-skew-ring"].evidence


def test_classify_boolean(boolean):
    r = sl.classify(boolean)
    assert r.holds("completely-regular")
    assert r.holds("generalized-clifford")
    assert r.holds("b-lattice")
    assert not r.holds("completely-simple")
    assert not r.holds("skew-ring")


def test_classify_z2(z2):
    r = sl.classify(z2)
    assert r.holds("skew-ring")
    assert r.holds("generalized-clifford")
    assert r.holds("completely-simple")


def test_classify_left_zero(left_zero):
    r = sl.classify(left_zero)
    assert r.holds("completely-regular")
    assert r.holds("quasi-completely-regular")
    assert not r.holds("additively-quasi-inverse")
    assert not r.holds("quasi-completely-inverse")
    assert not r.holds("strongly-additively-quasi-inverse")


def test_classify_min_const(min_const):
    r = sl.classify(min_const)
    assert not r.holds("quasi-completely-regular")
    assert r.holds("additively-regular")


def test_false_verdicts_carry_evidence(qsr3, min_const):
    r = sl.classify(qsr3)
    assert "a" in r.verdicts["additively-regular"].evidence
    r = sl.classify(min_const)
    assert r.verdicts["quasi-completely-regular"].evidence


def test_verify_equivalence_qsr3_qsr3(qsr3):
    report = sl.verify_equivalence(qsr3, "QSR3")
    assert report.agreement
    assert all(holds for _, holds, _ in report.conditions)


def test_verify_equivalence_one_element():
    one = sl.FiniteSemiring(names=("e",), add=((0,),), mul=((0,),))
    for theorem in THEOREM_IDS:
        report = sl.verify_equivalence(one, theorem)
        assert report.agreement
        assert all(holds for _, holds, _ in report.conditions)


def test_verify_equivalence_unknown_id(qsr3):
    with pytest.raises(UnknownTheoremId):
        sl.verify_equivalence(qsr3, "NOPE")


def test_verify_equivalence_disagreement_is_reported_not_raised(min_const):
    # all five theorems must still agree here (all conditions false or all true)
    for theorem in THEOREM_IDS:
        report = sl.verify_equivalence(min_const, theorem)
        assert report.agreement, (theorem, report.verdicts)


def test_verify_ideal_corollary(qsr3, boolean, left_zero):
    for s in (qsr3, boolean):
        report = sl.verify_ideal_corollary(s)
        assert report.agreement
        assert all(holds for _, holds, _ in report.conditions)
    report = sl.verify_ideal_corollary(left_zero)
    assert report.agreement
    assert not any(holds for _, holds, _ in report.conditions)


def test_completely_simple_and_archimedean(z2, boolean, qsr3, min_const):
    assert sl.is_completely_simple(z2)
    assert not sl.is_completely_simple(boolean)
    assert sl.is_completely_archimedean(qsr3)
    with pytest.raises(NotQuasiCompletelyRegular):
        sl.is_completely_archimedean(min_const)


def test_implication_lattice_over_corpus(corpus_small):
    implications = (
        ("skew-ring", "quasi-skew-ring"),
        ("generalized-clifford", "strongly-additively-quasi-completely-inverse"),
        ("strongly-additively-quasi-completely-inverse", "quasi-completely-inverse"),
        ("quasi-completely-inverse", "quasi-completely-regular"),
        ("b-lattice", "completely-regular"),
        ("completely-simple", "completely-regular"),
        ("completely-archimedean", "quasi-completely-regular"),
    )
    for s in corpus_small:
        r = sl.classify(s)  # raises InternalTheoremViolation on closure breaks
        for premise, conclusion in implications:
            if r.holds(premise):
                assert r.holds(conclusion), (premise, conclusion, s)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_classify_invariant_under_isomorphism(data, corpus_small):
    s = data.draw(st.sampled_from(corpus_small[::5]))
    perm = data.draw(st.permutations(range(s.order)))
    relabeled = s.relabel(perm)
    original = sl.classify(s)
    mapped = sl.classify(relabeled)
    for key in CLASS_KEYS:
        assert original.holds(key) == mapped.holds(key), key


def test_jstar_classes_completely_archimedean_on_qcr_members(corpus_small):
    from semiringlab.classify import _is_quasi_completely_regular
    from semiringlab.elements import is_quasi_completely_regular_semiring

    surveyed = 0
    for s in corpus_small:
        if not is_quasi_completely_regular_semiring(s):
            continue
        surveyed += 1
        for block in sl.green_star_plus(s, "J").blocks():
            assert s.is_closed(block)
            sub = s.restrict(block)
            assert _is_quasi_completely_regular(sub)[0]
            assert sl.green_star_plus(sub, "J").num_blocks == 1
    assert surveyed > 50


def orbit_idempotent_partition(s):
    """a ~ b iff the additive multiples of a and of b, folded directly, hold
    the same additive idempotent; each holds exactly one."""
    idempotent_of = []
    for a in s.elements():
        value, multiples = a, {a}
        for _ in range(s.order):
            value = s.add[value][a]
            multiples.add(value)
        (e,) = (v for v in multiples if s.add[v][v] == v)
        idempotent_of.append(e)
    return Partition.from_block_of(idempotent_of)


def is_completely_archimedean_subsemiring(s, block):
    """The definition: the block is closed, and as a semiring of its own it
    is quasi completely regular with a single J*+ class."""
    if not s.is_closed(block):
        return False
    sub = s.restrict(block)
    return _is_quasi_completely_regular(sub)[0] and sl.green_star_plus(sub, "J").num_blocks == 1


def existence_oracles(s):
    """QCR5 (iii), (iv), (v) and QCI5 (v) by scanning every set partition of
    the carrier, checking lemmas (A) and (B) of the classify docstring on the
    way."""
    p = orbit_idempotent_partition(s)
    into_qsr = [
        q for q in set_partitions(s.order)
        if all(_is_quasi_skew_subsemiring(s, b) for b in q.blocks())
    ]
    assert into_qsr in ([], [p]), "lemma (A)"
    found = {("QCR5", "iii"): bool(into_qsr)}
    congruences = [
        sl.Congruence(q) for q in set_partitions(s.order)
        if is_semiring_congruence_partition(s, q)
    ]
    for label, quotient_pred, block_pred in (
        (("QCR5", "iv"), is_b_lattice, is_completely_archimedean_subsemiring),
        (("QCR5", "v"), is_idempotent_semiring, _is_quasi_skew_subsemiring),
        (("QCI5", "v"), is_b_lattice, _is_quasi_skew_subsemiring),
    ):
        found[label] = False
        for c in congruences:
            if not quotient_pred(quotient(s, c)):
                continue
            assert p.refines(c.partition), "lemma (B)"
            if all(block_pred(s, b) for b in c.partition.blocks()):
                found[label] = True
    return found


def test_existence_conditions_match_set_partition_scan(corpus, corpus_order5, corpus_order6):
    members = list(corpus) + list(corpus_order5) + list(corpus_order6)
    for s in list(members):
        for block in sl.green_star_plus(s, "H").blocks():
            if s.is_closed(block):
                members.append(s.restrict(block))
    members += [zn(n) for n in range(1, 10)]
    members += [direct_product(zn(a), zn(b)) for a, b in ((2, 2), (2, 3), (2, 4), (3, 3))]
    tally = {}
    for s in members:
        assert _orbit_idempotent_partition(s) == orbit_idempotent_partition(s)
        expected = existence_oracles(s)
        reports = {theorem: sl.verify_equivalence(s, theorem).verdicts for theorem in ("QCR5", "QCI5")}
        for (theorem, label), holds in expected.items():
            assert reports[theorem][label] == holds, (theorem, label, sl.serialize_srt(s))
            tally[theorem, label, holds] = tally.get((theorem, label, holds), 0) + 1
    # every condition is seen both true and false, so no comparison is vacuous
    for theorem, label in expected:
        assert tally.get((theorem, label, True), 0) > 50, (theorem, label)
        assert tally.get((theorem, label, False), 0) > 50, (theorem, label)


def test_existence_conditions_scan_only_coarsenings_of_the_idempotent_partition(
    monkeypatch, boolean, left_zero
):
    scanned = []
    above = classify_module.congruences_above

    def counting(s, theta):
        for rho in above(s, theta):
            scanned.append(rho)
            yield rho

    monkeypatch.setattr(classify_module, "congruences_above", counting)
    # Z_20 has 5.2e13 set partitions; its one additive idempotent leaves one
    for s in (zn(20), direct_product(zn(2), zn(9)), boolean, left_zero):
        p = orbit_idempotent_partition(s)
        bell = sum(1 for _ in set_partitions(p.num_blocks))
        for theorem in ("QCR5", "QCI5"):
            scanned.clear()
            report = sl.verify_equivalence(s, theorem)
            assert report.agreement, (theorem, s, report.verdicts)
            assert len(scanned) <= bell, (theorem, s, len(scanned))
            assert all(p.refines(rho) for rho in scanned), (theorem, s)


def meet(partitions):
    """a ~ b iff a ~ b in every one of `partitions`."""
    return Partition.from_block_of(zip(*(p.block_of for p in partitions)))


def test_beta_and_iota_are_the_least_b_lattice_and_idempotent_congruences(corpus):
    for s in corpus:
        congruences = enumerate_congruences(s, bound=s.order)
        for least, quotient_pred in (
            (_least_b_lattice_congruence, is_b_lattice),
            (_least_idempotent_congruence, is_idempotent_semiring),
        ):
            qualifying = [c.partition for c in congruences if quotient_pred(quotient(s, c))]
            # the universal congruence always qualifies
            assert qualifying, sl.serialize_srt(s)
            assert least(s) == meet(qualifying), (least.__name__, sl.serialize_srt(s))
        # QCR5 (iv) tries beta first, expecting the J*+ classes
        if sl.classify(s).holds("quasi-completely-regular"):
            assert _least_b_lattice_congruence(s) == sl.green_star_plus(s, "J"), sl.serialize_srt(s)


def test_qcr5_iv_builds_no_block_semiring_on_a_non_qcr_member(monkeypatch, corpus, min_const):
    members = [min_const] + [s for s in corpus if not sl.classify(s).holds("quasi-completely-regular")]
    assert len(members) > 50
    built = []
    subsemiring = sl.FiniteSemiring.subsemiring

    def counting(self, subset):
        built.append(subset)
        return subsemiring(self, subset)

    monkeypatch.setattr(sl.FiniteSemiring, "subsemiring", counting)
    for s in members:
        assert not classify_module._is_b_lattice_of_completely_archimedean(s), sl.serialize_srt(s)
    assert built == []
