import hashlib
import importlib
import sys
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

import semiringlab as sl
from semiringlab.errors import NotQuasiCompletelyRegular, UnknownTheoremId
from semiringlab.classify import (
    CLASS_KEYS,
    THEOREM_IDS,
    ClassReport,
    Verdict,
    _is_quasi_skew_subsemiring,
    _least_b_lattice_congruence,
    _least_idempotent_congruence,
)
from semiringlab.elements import is_completely_regular
from semiringlab.kernel import (
    ADD,
    ReductFlag,
    additive_facts,
    is_b_lattice,
    is_idempotent_semiring,
    orbit,
    reduct_kind,
)
from semiringlab.relations import Partition, enumerate_congruences, is_semiring_congruence_partition, quotient

from conftest import direct_product, is_additively_regular, set_partitions, zn

# the package exports the function classify under the module's name
classify_module = importlib.import_module("semiringlab.classify")
relations_module = importlib.import_module("semiringlab.relations")


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


def completely_regular_by_definition(s, a):
    """a = a+x+a, a+x = x+a and a(a+x) = a+x for some x of the carrier."""
    add, mul = s.add, s.mul
    return any(
        add[add[a][x]][a] == a and add[a][x] == add[x][a] and mul[a][add[a][x]] == add[a][x]
        for x in s.elements()
    )


def classify_by_elements(s):
    """The class report built verdict by verdict from the public per-element
    predicates and whole-semiring primitives, each element asked on its
    own; complete regularity is searched over the carrier."""
    names = s.names
    elements = list(s.elements())
    v = {}

    def put(key, holds, evidence=""):
        v[key] = Verdict(holds=holds, evidence=evidence)

    def first(pred):
        return next((a for a in elements if pred(a)), None)

    def verdict(bad, evidence):
        return (True, "") if bad is None else (False, evidence(names[bad]))

    def count(a):
        return len(sl.additive_inverses(s, a).inverses)

    cr_at = [completely_regular_by_definition(s, a) for a in elements]
    put("additively-regular", *verdict(first(lambda a: not is_additively_regular(s, a)),
                                       lambda x: f"{x} has no x with a+x+a=a"))
    bad = first(lambda a: count(a) != 1)
    put("additively-inverse", *verdict(bad, lambda x: f"{x} has {count(bad)} additive inverses"))
    put("additively-quasi-inverse", *verdict(
        first(lambda a: all(count(m) != 1 for m in orbit(s, a).values)),
        lambda x: f"no multiple of {x} has a unique additive inverse"))
    put("completely-regular", *verdict(first(lambda a: not cr_at[a]),
                                       lambda x: f"{x} is not completely regular"))
    put("quasi-completely-regular", *verdict(
        first(lambda a: not any(cr_at[m] for m in orbit(s, a).values)),
        lambda x: f"no multiple of {x} is completely regular"))
    qcr, qcr_why = v["quasi-completely-regular"].holds, v["quasi-completely-regular"].evidence
    aqi, aqi_why = v["additively-quasi-inverse"].holds, v["additively-quasi-inverse"].evidence
    put("quasi-completely-inverse", qcr and aqi, "" if qcr and aqi else qcr_why or aqi_why)
    idems = sorted(sl.additive_idempotents(s))
    pair = next(((e, f) for i, e in enumerate(idems) for f in idems[i + 1:]
                 if s.add[e][f] != s.add[f][e]), None)
    comm_why = "" if pair is None else f"{names[pair[0]]}+{names[pair[1]]} != {names[pair[1]]}+{names[pair[0]]}"
    put("strongly-additively-quasi-inverse", pair is None, comm_why)
    put("strongly-additively-quasi-completely-inverse", qcr and pair is None, qcr_why or comm_why)
    cr, cr_why = v["completely-regular"].holds, v["completely-regular"].evidence
    inv, inv_why = v["additively-inverse"].holds, v["additively-inverse"].evidence
    k_ideal = sl.is_k_ideal(s, idems)
    gc = cr and inv and k_ideal
    put("generalized-clifford", gc, "" if gc else cr_why or inv_why or "E+ is not a k-ideal")
    group = ReductFlag.GROUP in reduct_kind(s, ADD)
    put("skew-ring", group, "" if group else "additive reduct is not a group")
    qsr = sl.quasi_skew_ring_check(s)
    put("quasi-skew-ring", qsr.skew_ring_absorbs_multiples,
        f"kernel {{{', '.join(sorted(names[i] for i in qsr.kernel))}}}" if qsr.kernel else
        f"{len(idems)} additive idempotents")
    # a b-lattice by its definition: both reducts bands, the addition commutative
    blat = all(s.add[a][a] == a == s.mul[a][a] for a in elements) and all(
        s.add[a][b] == s.add[b][a] for a in elements for b in elements)
    put("b-lattice", blat, "" if blat else "reducts are not semilattice/band")
    j_one = sl.green_plus(s, "J").num_blocks == 1
    put("completely-simple", cr and j_one, "" if cr and j_one else cr_why or "J+ has several blocks")
    js_one = sl.green_star_plus(s, "J").num_blocks == 1
    put("completely-archimedean", qcr and js_one, "" if qcr and js_one else qcr_why or "J*+ has several blocks")
    return ClassReport(verdicts=MappingProxyType(v))


def test_classify_matches_the_per_element_reference(corpus_small, corpus_order4_all, corpus_order5, corpus_order6):
    members = list(corpus_small) + list(corpus_order4_all) + list(corpus_order5) + list(corpus_order6)
    assert len(members) == 7989 + 120 + 40
    for s in members:
        report = sl.classify(s)
        assert report == classify_by_elements(s), sl.serialize_srt(s)
        assert [is_completely_regular(s, a) for a in s.elements()] == [
            completely_regular_by_definition(s, a) for a in s.elements()
        ]


# sha256 over every line "theorem label holds evidence" of the five
# verify_equivalence reports and the verify_ideal_corollary report of each
# member, in corpus order
THEOREM_REPORTS_SHA256 = {
    "corpus_small": "84992dabf64799385a9f07a1f820dc69c0c21a211015d9060f803ebccf85b418",
    "corpus_order4_all": "5debd3149ea3d74e6feb26abc948865f507fa0652f8a1adf5f643ec3f5b58e7a",
    "corpus_order5": "1c451eab141a4f88203d025d824bdaab83ab0c68cc65c88e80ff7e0aa5e343a3",
    "corpus_order6": "0ecaecb47efe3860b15367b1cbe210b6638476d139d3361938d28c7aac3b06e3",
}


def test_theorem_reports_are_pinned(corpus_small, corpus_order4_all, corpus_order5, corpus_order6):
    corpora = {
        "corpus_small": corpus_small,
        "corpus_order4_all": corpus_order4_all,
        "corpus_order5": corpus_order5,
        "corpus_order6": corpus_order6,
    }
    digests = {}
    for name, members in corpora.items():
        h = hashlib.sha256()
        for s in members:
            reports = [sl.verify_equivalence(s, t) for t in THEOREM_IDS] + [sl.verify_ideal_corollary(s)]
            for r in reports:
                for label, holds, why in r.conditions:
                    h.update(f"{r.theorem} {label} {int(holds)} {why}\n".encode())
        digests[name] = h.hexdigest()
    assert digests == THEOREM_REPORTS_SHA256


# sha256 over the strong b-lattice path of each member, in corpus order: the
# lines "GCSB label holds evidence" of check_generalized_clifford_theorem,
# then on strongly additively quasi completely inverse members "psi holds",
# the found family as "maps" with its maps and their items sorted (or "maps
# none"), and each main-theorem condition as "key holds witness"
BLATTICE_PATH_SHA256 = {
    "corpus_small": "4059e07f9df3a9d0d388b84120bb4a751971fdda99f7bf553d85cd4148d8a08a",
    "corpus_order4_all": "d440bc723b9d6cccab4bc27ba9c685c346ed8e44a5b24e6f8f7b45ce2762fc32",
    "corpus_order5": "c74787ea10db755fb2728781eebfc9edf5560c4d4204df49b67499ad6621c032",
    "corpus_order6": "44d39c77d61fd23ce582ad7c01c2253274d774fcf356d6bcd396c86a7110e22c",
}


def blattice_path_lines(s):
    for label, holds, why in sl.check_generalized_clifford_theorem(s).conditions:
        yield f"GCSB {label} {int(holds)} {why}"
    if not sl.classify(s).holds("strongly-additively-quasi-completely-inverse"):
        return
    d = sl.decompose(s)
    yield f"psi {int(sl.check_psi_homomorphism(s, d))}"
    m = sl.search_structure_maps(s)
    if m is None:
        yield "maps none"
        return
    yield f"maps {sorted((pair, sorted(f.items())) for pair, f in m.phi.items())}"
    conditions = sl.check_main_theorem_conditions(s, d, m)
    for key in sl.blattice.CONDITION_KEYS:
        yield f"{key} {int(conditions.verdicts[key])} {conditions.witnesses[key]}"


def test_strong_blattice_path_is_pinned(corpus_small, corpus_order4_all, corpus_order5, corpus_order6):
    corpora = {
        "corpus_small": corpus_small,
        "corpus_order4_all": corpus_order4_all,
        "corpus_order5": corpus_order5,
        "corpus_order6": corpus_order6,
    }
    digests = {}
    for name, members in corpora.items():
        h = hashlib.sha256()
        for s in members:
            for line in blattice_path_lines(s):
                h.update(f"{line}\n".encode())
        digests[name] = h.hexdigest()
    assert digests == BLATTICE_PATH_SHA256


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


def test_jstar_classes_completely_archimedean_on_qcr_members(
    corpus_small, corpus_order4_all, corpus_order5, corpus_order6
):
    """Lemma (E) of the classify docstring, and the GV fact it rests on: on
    a quasi completely regular member every additively regular element has
    a commuting witness, and J*+ of each beta-class and each J*+ class B,
    built as a semiring, is J*+ of s cut down to B."""
    from semiringlab.elements import commuting_witnesses, is_quasi_completely_regular_semiring

    surveyed = 0
    for s in list(corpus_small) + list(corpus_order4_all) + list(corpus_order5) + list(corpus_order6):
        if not is_quasi_completely_regular_semiring(s):
            continue
        surveyed += 1
        witnesses = commuting_witnesses(s)
        assert all(witnesses[a] is not None for a in sl.reg_plus(s)), sl.serialize_srt(s)
        jstar = sl.green_star_plus(s, "J")
        for partition in (_least_b_lattice_congruence(s), jstar):
            for block in partition.blocks():
                assert s.is_closed(block)
                sub = s.restrict(block)
                ordered = sorted(block)
                got = {frozenset(ordered[i] for i in b) for b in sl.green_star_plus(sub, "J").blocks()}
                assert got == {b & block for b in jstar.blocks()} - {frozenset()}, sl.serialize_srt(s)
        for block in jstar.blocks():
            assert sl.classify(s.restrict(block)).holds("quasi-completely-regular")
    assert surveyed > 1000


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
    return Partition(idempotent_of)


def is_completely_archimedean_subsemiring(s, block):
    """The definition: the block is closed, and as a semiring of its own it
    is quasi completely regular with a single J*+ class."""
    if not s.is_closed(block):
        return False
    sub = s.restrict(block)
    return sl.classify(sub).holds("quasi-completely-regular") and sl.green_star_plus(sub, "J").num_blocks == 1


def quasi_skew_subsemiring(s, block):
    return _is_quasi_skew_subsemiring(s, additive_facts(s), block)


def existence_oracles(s):
    """QCR5 (iii), (iv), (v) and QCI5 (v) by scanning every set partition of
    the carrier, checking lemmas (A) and (B) of the classify docstring on the
    way."""
    p = orbit_idempotent_partition(s)
    into_qsr = [
        q for q in set_partitions(s.order)
        if all(quasi_skew_subsemiring(s, b) for b in q.blocks())
    ]
    assert into_qsr in ([], [p]), "lemma (A)"
    found = {("QCR5", "iii"): bool(into_qsr)}
    congruences = [
        sl.Congruence(q) for q in set_partitions(s.order)
        if is_semiring_congruence_partition(s, q)
    ]
    for label, quotient_pred, block_pred in (
        (("QCR5", "iv"), is_b_lattice, is_completely_archimedean_subsemiring),
        (("QCR5", "v"), is_idempotent_semiring, quasi_skew_subsemiring),
        (("QCI5", "v"), is_b_lattice, quasi_skew_subsemiring),
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
        assert additive_facts(s).partition == orbit_idempotent_partition(s)
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
    """No verifier enumerates congruences: QCR5 (iv) compares beta with J*+
    (lemma (E)), and the other existence conditions compare P with iota and
    beta. The verdicts still agree where no set partition scan could run."""
    scanned = []
    above = relations_module.congruences_above

    def counting(s, theta):
        scanned.append(theta)
        return above(s, theta)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "semiringlab" and hasattr(module, "congruences_above"):
            monkeypatch.setattr(module, "congruences_above", counting)
    # Z_20 has 5.2e13 set partitions; its one additive idempotent leaves one
    for s in (zn(20), direct_product(zn(2), zn(9)), boolean, left_zero):
        for theorem in ("QCR5", "QCI5"):
            report = sl.verify_equivalence(s, theorem)
            assert report.agreement, (theorem, s, report.verdicts)
    assert scanned == []


def meet(partitions):
    """a ~ b iff a ~ b in every one of `partitions`."""
    return Partition(zip(*(p.block_of for p in partitions)))


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
        # QCR5 (iv) asks whether beta refines J*+ (lemma (E)); here it is J*+
        if sl.classify(s).holds("quasi-completely-regular"):
            assert _least_b_lattice_congruence(s) == sl.green_star_plus(s, "J"), sl.serialize_srt(s)


def test_qcr5_iv_builds_no_semiring(monkeypatch, corpus, min_const):
    """QCR5 (iv) builds no semiring, whether S is quasi completely regular
    or not, and is false wherever it is not."""
    built = []
    post_init = sl.FiniteSemiring.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(sl.FiniteSemiring, "__post_init__", counting)
    tally = {True: 0, False: 0}
    for s in [min_const] + list(corpus):
        holds = classify_module._is_b_lattice_of_completely_archimedean(s, sl.classify(s), additive_facts(s))
        if not sl.classify(s).holds("quasi-completely-regular"):
            assert not holds, sl.serialize_srt(s)
        tally[holds] += 1
    assert built == []
    assert min(tally.values()) > 50, tally
