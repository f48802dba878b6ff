"""The block, Reg+ and family checks of the verifiers read their conditions
off the tables of s and build no semiring; each agrees with the build-based
definition it replaced."""

import random

import pytest

import semiringlab as sl
from semiringlab import blattice
from semiringlab.blattice import _family_presents, _search_family
from semiringlab.classify import (
    _is_generalized_clifford,
    _is_quasi_skew_subsemiring,
    _is_regular_part_inverse_subsemiring,
)
from semiringlab.errors import SemiringError
from semiringlab.kernel import FiniteSemiring, additive_facts

from conftest import (
    clear_memo,
    family_presents_by_compose,
    quasi_skew_subsemiring_by_building,
    regular_part_inverse_by_building,
    zn,
)

SAQCI = "strongly-additively-quasi-completely-inverse"


def test_block_and_reg_plus_checks_match_the_built_semirings(
    corpus_small, corpus_order4_all, corpus_order5, corpus_order6
):
    members = list(corpus_small) + list(corpus_order4_all) + list(corpus_order5) + list(corpus_order6)
    closed = open_ = reg_false = 0
    clifford = {True: 0, False: 0}
    for s in members:
        facts = additive_facts(s)
        blocks = set(sl.green_star_plus(s, "H").blocks()) | set(facts.partition.blocks())
        for block in blocks:
            assert _is_quasi_skew_subsemiring(s, facts, block) == quasi_skew_subsemiring_by_building(s, block)
            if not s.is_closed(block):
                open_ += 1
                continue
            closed += 1
            sub = s.restrict(block)
            # the whole report, its kernel carried back into the indices of s
            new, old = sl.quasi_skew_ring_check(s, block), sl.quasi_skew_ring_check(sub)
            ordered = sorted(block)
            assert new.unique_additive_idempotent == old.unique_additive_idempotent
            assert new.skew_ring_absorbs_multiples == old.skew_ring_absorbs_multiples
            assert new.nil_extension_of_skew_ring == old.nil_extension_of_skew_ring
            assert new.kernel == (None if old.kernel is None else frozenset(ordered[i] for i in old.kernel))
        got = _is_regular_part_inverse_subsemiring(s, facts)
        assert got == regular_part_inverse_by_building(s), sl.serialize_srt(s)
        reg_false += not got[0]
        # main-theorem condition (i): Reg+ generalized Clifford, read off s
        regs = sl.reg_plus(s)
        if s.is_closed(regs):
            got = _is_generalized_clifford(s, facts, regs)
            assert got == sl.classify(s.restrict(regs)).holds("generalized-clifford"), sl.serialize_srt(s)
            clifford[got] += 1
    assert closed > 10000 and open_ > 100 and reg_false > 100
    assert min(clifford.values()) > 100, clifford


def test_every_search_leaf_agrees_with_compose(monkeypatch, corpus_order4_all):
    """At every leaf of the family search over the order-4 corpus, the check
    on the tables of s gives compose's verdict, and compose never finds the
    composed system to break the semiring laws."""
    verdicts = []

    def checked(s, d, m):
        got = _family_presents(s, d, m)
        # an InternalTheoremViolation from compose fails the test here
        assert got == family_presents_by_compose(s, d, m), sl.serialize_srt(s)
        verdicts.append(got)
        return got

    monkeypatch.setattr(blattice, "_family_presents", checked)
    for s in corpus_order4_all:
        try:
            d = sl.decompose(s)
        except SemiringError:
            continue
        _search_family(s, d)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_one_image_perturbations_agree_with_compose(corpus_small, corpus_order4):
    """Every presenting family, with one image moved to a random element of
    s (inside or outside the target class, diagonal pairs included), gets
    compose's verdict from the check on the tables of s."""
    rng = random.Random(20261019)
    verdicts = []
    for s in list(corpus_small) + list(corpus_order4):
        if not sl.classify(s).holds(SAQCI):
            continue
        m = sl.search_structure_maps(s)
        if m is None:
            continue
        d = m.decomposition
        for pair in sorted(m.phi):
            for x in sorted(m.phi[pair]):
                phi = {p: dict(f) for p, f in m.phi.items()}
                phi[pair][x] = rng.randrange(s.order)
                bad = sl.StructureMaps(decomposition=d, phi=phi)
                got = _family_presents(s, d, bad)
                assert got == family_presents_by_compose(s, d, bad), (sl.serialize_srt(s), pair, x)
                verdicts.append(got)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


@pytest.fixture
def builds(monkeypatch):
    """How many FiniteSemiring objects are constructed."""
    counts = {"semirings": 0}
    post_init = FiniteSemiring.__post_init__

    def counting(self):
        counts["semirings"] += 1
        post_init(self)

    monkeypatch.setattr(FiniteSemiring, "__post_init__", counting)
    return counts


def _built_by(counts, call):
    before = dict(counts)
    call()
    return {k: counts[k] - before[k] for k in counts}


def test_decompose_builds_only_the_quotient(builds, corpus_small, corpus_order4):
    """decompose reads every class off s: on a quasi completely regular
    member the one semiring it builds is the b-lattice Y."""
    decomposed = 0
    for s in list(corpus_small) + list(corpus_order4) + [zn(6), zn(8)]:
        if not sl.classify(s).holds("quasi-completely-regular"):
            continue
        clear_memo()
        assert _built_by(builds, lambda: sl.decompose(s))["semirings"] == 1, sl.serialize_srt(s)
        decomposed += 1
    assert decomposed > 100


def test_the_verifiers_build_nothing(builds, corpus_small, corpus_order4):
    """QCR5, SAQCI3, and the family check and the main-theorem conditions on
    a found family, read everything off s: QCR5 (iv) by lemma (E) of the
    classify docstring, main-theorem condition (i) with Reg+ judged in
    place."""
    members = list(corpus_small) + list(corpus_order4) + [zn(6), zn(8)]
    tally = {"qcr": 0, "not-qcr": 0, "families": 0}
    for s in members:
        report = sl.classify(s)
        tally["qcr" if report.holds("quasi-completely-regular") else "not-qcr"] += 1
        for theorem in ("QCR5", "SAQCI3"):
            built = _built_by(builds, lambda: sl.verify_equivalence(s, theorem))
            assert built["semirings"] == 0, (theorem, sl.serialize_srt(s))
        if report.holds(SAQCI):
            d = sl.decompose(s)
            m = sl.search_structure_maps(s)
            if m is not None:
                for check in (_family_presents, sl.check_main_theorem_conditions):
                    built = _built_by(builds, lambda: check(s, d, m))
                    assert built["semirings"] == 0, (check.__name__, sl.serialize_srt(s))
                tally["families"] += 1
    assert min(tally.values()) > 20, tally
