"""The memo: a semiring's primitives compute once and live while the
semiring is alive and among the last `_MEMO_SEMIRINGS` semirings the memo
first saw; no cached result keeps its semiring alive, and the memo stores
nothing on one."""

import gc
import importlib
import sys
import threading
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

import semiringlab as sl
from semiringlab import kernel, relations, structure
from semiringlab.classify import THEOREM_IDS, Verdict
from semiringlab.errors import NotQuasiCompletelyRegular, UnknownTheoremId
from semiringlab.kernel import _CACHES, _MEMO_SEMIRINGS
from semiringlab.relations import enumerate_congruences

from conftest import ring, zn

SAQCI = "strongly-additively-quasi-completely-inverse"


def reports(s):
    """The whole sweep chain: classify, every equivalence theorem, the
    ideals corollary and the generalized Clifford theorem, and on strongly
    additively quasi completely inverse members the decomposition, the
    structure maps, psi and the main theorem's conditions."""
    report = sl.classify(s)
    out = [report]
    out.extend(sl.verify_equivalence(s, t) for t in THEOREM_IDS)
    out.append(sl.verify_ideal_corollary(s))
    out.append(sl.check_generalized_clifford_theorem(s))
    if report.holds(SAQCI):
        d = sl.decompose(s)
        maps = sl.search_structure_maps(s)
        out.extend((d, maps, sl.check_psi_homomorphism(s, d)))
        if maps is not None:
            out.append(sl.check_main_theorem_conditions(s, d, maps))
    return out


class _StoresNothing(dict):
    def __setitem__(self, key, value):
        pass


@contextmanager
def uncached():
    """Every primitive computes afresh: the memo's table keeps no entry."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_CACHES", _StoresNothing())
        yield


def check_entries():
    """Every entry is keyed by the id of the live semiring it refers to."""
    assert len(_CACHES) <= _MEMO_SEMIRINGS
    for key, (ref, _) in _CACHES.items():
        assert ref() is not None and id(ref()) == key


def test_cached_reports_match_uncached(corpus_small):
    for s in list(corpus_small) + [zn(6), zn(8)]:
        cached = reports(s)
        assert reports(s) == cached, repr(s)
        with uncached():
            assert reports(s) == cached, repr(s)
    check_entries()


def _relabelled(base):
    return base.relabel(tuple(reversed(range(base.order))))


def _classify_transient(base):
    t = _relabelled(base)
    sl.classify(t)
    assert id(t) in _CACHES
    return weakref.ref(t), id(t)


def _decompose_transient(base):
    t = _relabelled(base)
    try:
        sl.decompose(t)
    except NotQuasiCompletelyRegular:
        pass
    else:
        raise AssertionError("decompose should reject a non quasi completely regular semiring")
    return weakref.ref(t), id(t)


def _structure_transient(base):
    t = _relabelled(base)
    assert sl.decompose(t).base is t
    assert sl.search_structure_maps(t) is not None
    return weakref.ref(t), id(t)


def test_no_scope_or_semiring_survives_the_call(z3, min_const):
    for transient, base in (
        (_classify_transient, z3),
        (_decompose_transient, min_const),
        (_structure_transient, zn(6)),
    ):
        ref, key = transient(base)
        gc.collect()
        assert ref() is None and key not in _CACHES
    with pytest.raises(UnknownTheoremId):
        sl.verify_equivalence(z3, "NOPE")
    check_entries()


def test_a_dead_semirings_entry_is_dropped(z3):
    t = _relabelled(z3)
    sl.green_plus(t, "H")
    key = id(t)
    assert _CACHES[key][0]() is t
    del t
    assert key not in _CACHES


def test_an_object_reusing_a_dead_semirings_id_gets_its_own_results():
    # Z_3 has one H-class; the 3-chain under (max, min) has three
    chain = ((0, 1, 2), (1, 1, 2), (2, 2, 2)), ((0, 0, 0), (0, 1, 1), (0, 1, 2))
    dead = zn(3)
    assert sl.green_plus(dead, "H").num_blocks == 1
    key = id(dead)
    del dead
    others = []
    while len(others) < 100:
        s = ring("abc", *chain)
        if id(s) == key:
            break
        others.append(s)
    else:
        pytest.fail("no semiring reused the id of the dead one")
    assert sl.green_plus(s, "H").num_blocks == 3
    assert _CACHES[key][0]() is s


def test_the_memo_keeps_at_most_its_bound_of_live_semirings(corpus_small):
    members = list(corpus_small)
    assert len(members) > 10 * _MEMO_SEMIRINGS
    for k, s in enumerate(members):
        sl.green_plus(s, "H")
        assert len(_CACHES) == min(k + 1, _MEMO_SEMIRINGS)
    # the last ones first seen are the ones kept
    assert list(_CACHES) == [id(s) for s in members[-_MEMO_SEMIRINGS:]]
    check_entries()


def test_congruence_list_is_fresh_within_a_scope(z3):
    first = enumerate_congruences(z3)
    assert len(first) >= 2
    expected = list(first)
    first.clear()
    assert enumerate_congruences(z3) == expected


def test_threads_share_the_cache_soundly(corpus_small):
    members = [s for s in corpus_small if s.order == 3][:48]
    expected = [reports(s) for s in members]
    _CACHES.clear()
    shares = [members[k::4] for k in range(4)]
    got = [None] * len(shares)

    def work(k):
        got[k] = [reports(s) for s in shares[k]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(shares))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == [expected[k::4] for k in range(4)]
    check_entries()


class Bodies:
    """How often memoized primitive bodies ran on each semiring object,
    counted through helpers only those bodies call: FiniteSemiring.table
    (orbit, reduct_kind), _principal_sets (green_plus) and
    least_regular_multiple (green_star_plus)."""

    def __init__(self, monkeypatch):
        self.seen = Counter()
        self._count(monkeypatch, kernel.FiniteSemiring, "table")
        self._count(monkeypatch, relations, "_principal_sets")
        self._count(monkeypatch, relations, "least_regular_multiple")

    def _count(self, monkeypatch, owner, name):
        real = getattr(owner, name)

        def counted(s, *args):
            self.seen[name, id(s)] += 1
            return real(s, *args)

        monkeypatch.setattr(owner, name, counted)

    def on(self, s) -> dict:
        """The counts for s, which must be alive since they were taken."""
        return {name: k for (name, i), k in self.seen.items() if i == id(s)}

    def cold(self, call, s) -> dict:
        """The counts for s of call(s) with an empty memo."""
        _CACHES.clear()
        self.seen.clear()
        call(s)
        counts = self.on(s)
        assert set(counts) == {"table", "_principal_sets", "least_regular_multiple"}
        return counts


@pytest.fixture
def bodies(monkeypatch):
    return Bodies(monkeypatch)


def test_a_second_call_on_the_same_root_recomputes_no_primitive(bodies):
    s = zn(6)
    assert bodies.cold(reports, s)
    assert SAQCI in sl.classify(s).true_classes()
    for call in (sl.classify, reports):
        bodies.seen.clear()
        call(s)
        assert bodies.on(s) == {}
    cached = reports(s)
    with uncached():
        assert reports(s) == cached


def test_equal_or_relabelled_copies_get_no_reuse(bodies):
    s = zn(6)
    copies = (
        sl.FiniteSemiring(s.names, s.add, s.mul),
        s.relabel(range(s.order)),
        s.relabel(tuple(reversed(range(s.order)))),
    )
    for t in copies:
        cold = bodies.cold(sl.classify, t)
        _CACHES.clear()
        sl.classify(s)
        bodies.seen.clear()
        sl.classify(t)
        assert bodies.on(t) == cold, t


def test_a_raising_call_leaves_a_sound_cache(bodies, min_const):
    with pytest.raises(NotQuasiCompletelyRegular):
        sl.decompose(min_const)
    assert id(min_const) in _CACHES
    report = sl.classify(min_const)
    with uncached():
        assert sl.classify(min_const) == report
    bodies.seen.clear()
    assert sl.classify(min_const) == report
    assert bodies.on(min_const) == {}


def test_classify_and_decompose_bodies_run_once_per_semiring(bodies, monkeypatch, min_const):
    # helpers only the bodies call, once per run: _check_implication_closure
    # (classify) and quotient (decompose)
    classify_module = importlib.import_module("semiringlab.classify")
    bodies._count(monkeypatch, classify_module, "_check_implication_closure")
    bodies._count(monkeypatch, structure, "quotient")
    z6 = zn(6)
    assert sl.classify(z6).holds(SAQCI)
    assert not sl.classify(min_const).holds("quasi-completely-regular")
    for s, decompositions in ((z6, 1), (min_const, 0)):
        _CACHES.clear()
        bodies.seen.clear()
        reports(s)
        counts = bodies.on(s)
        assert counts["_check_implication_closure"] == 1, s
        assert counts.get("quotient", 0) == decompositions, s


def test_a_class_report_is_read_only(z3):
    report = sl.classify(z3)
    with pytest.raises(TypeError):
        report.verdicts["skew-ring"] = Verdict(holds=False)
    with pytest.raises(TypeError):
        del report.verdicts["skew-ring"]
    assert sl.classify(z3) is report and report.holds("skew-ring")
