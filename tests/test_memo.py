"""The memo: the outermost public analysis opens a scope and the
per-semiring primitives compute once inside it; when it closes, only the
root's own primitives survive, held for the next outermost call on that very
object and dropped by an outermost call on any other."""

import gc
import sys
import threading
import weakref
from collections import Counter
from functools import partial

import pytest

import semiringlab as sl
from semiringlab import kernel, relations
from semiringlab.classify import THEOREM_IDS
from semiringlab.errors import NotQuasiCompletelyRegular, UnknownTheoremId
from semiringlab.kernel import _RETAINED, _SCOPE, analysis
from semiringlab.relations import enumerate_congruences

from conftest import zn

SAQCI = "strongly-additively-quasi-completely-inverse"


def reports(fn, s):
    """The whole sweep chain through fn(name) -> callable: classify, every
    equivalence theorem, the ideals corollary and the generalized Clifford
    theorem, and on strongly additively quasi completely inverse members the
    decomposition, the structure maps, psi and the main theorem's
    conditions."""
    report = fn("classify")(s)
    out = [report]
    out.extend(fn("verify_equivalence")(s, t) for t in THEOREM_IDS)
    out.append(fn("verify_ideal_corollary")(s))
    out.append(fn("check_generalized_clifford_theorem")(s))
    if report.holds(SAQCI):
        d = fn("decompose")(s)
        maps = fn("search_structure_maps")(s)
        out.extend((d, maps, fn("check_psi_homomorphism")(s, d)))
        if maps is not None:
            out.append(fn("check_main_theorem_conditions")(s, d, maps))
    return out


def scoped(name):
    return getattr(sl, name)


def unscoped(name):
    # the undecorated body: the primitives it calls find no scope open
    return getattr(sl, name).__wrapped__


def test_scoped_reports_match_unscoped_bodies(corpus_small):
    members = list(corpus_small) + [zn(6), zn(8)]
    for s in members:
        assert reports(scoped, s) == reports(unscoped, s), repr(s)


def test_primitives_are_shared_inside_a_scope_only(z3):
    @analysis
    def twice():
        assert _SCOPE.get() is not None
        return sl.green_plus(z3, "H"), sl.green_plus(z3, "H")

    first, second = twice()
    assert first is second
    assert sl.green_plus(z3, "H") is not sl.green_plus(z3, "H")


def _classify_transient(base):
    t = base.relabel(tuple(reversed(range(base.order))))
    sl.classify(t)
    return weakref.ref(t)


def _decompose_transient(base):
    t = base.relabel(tuple(reversed(range(base.order))))
    try:
        sl.decompose(t)
    except NotQuasiCompletelyRegular:
        pass
    else:
        raise AssertionError("decompose should reject a non quasi completely regular semiring")
    return weakref.ref(t)


def test_no_scope_or_semiring_survives_the_call(z3, min_const):
    ref = _classify_transient(z3)
    assert _SCOPE.get() is None
    gc.collect()
    assert ref() is None
    ref = _decompose_transient(min_const)
    assert _SCOPE.get() is None
    gc.collect()
    assert ref() is None
    with pytest.raises(UnknownTheoremId):
        sl.verify_equivalence(z3, "NOPE")
    assert _SCOPE.get() is None


def test_congruence_list_is_fresh_within_a_scope(z3):
    expected = enumerate_congruences(z3)

    @analysis
    def mutate_then_reread():
        first = enumerate_congruences(z3)
        first.clear()
        return enumerate_congruences(z3)

    assert mutate_then_reread() == expected
    assert len(expected) >= 2


def test_threads_keep_their_own_scopes(corpus_small):
    members = [s for s in corpus_small if s.order == 3][:24]
    expected = [reports(scoped, s) for s in members]
    shares = [members[k::4] for k in range(4)]
    got = [None] * len(shares)

    def work(k):
        got[k] = [reports(scoped, s) for s in shares[k]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
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
        """The counts for s of call(s) with nothing retained."""
        _RETAINED.set(None)
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
    chain = partial(reports, scoped)
    assert bodies.cold(chain, s)
    assert SAQCI in sl.classify(s).true_classes()
    for call in (sl.classify, chain):
        bodies.seen.clear()
        call(s)
        assert bodies.on(s) == {}
    assert reports(scoped, s) == reports(unscoped, s)


def test_equal_or_relabelled_copies_get_no_reuse(bodies):
    s = zn(6)
    copies = (
        sl.FiniteSemiring(s.names, s.add, s.mul),
        s.relabel(range(s.order)),
        s.relabel(tuple(reversed(range(s.order)))),
    )
    for t in copies:
        cold = bodies.cold(sl.classify, t)
        sl.classify(s)
        bodies.seen.clear()
        sl.classify(t)
        assert bodies.on(t) == cold, t


def test_a_call_on_another_root_drops_the_first_roots_cache(bodies, z3):
    s = zn(6)
    cold = bodies.cold(sl.classify, s)
    sl.classify(z3)
    assert _RETAINED.get()[0]() is z3
    bodies.seen.clear()
    sl.classify(s)
    assert bodies.on(s) == cold


def test_a_raising_call_leaves_a_sound_cache(bodies, min_const):
    with pytest.raises(NotQuasiCompletelyRegular):
        sl.decompose(min_const)
    assert _RETAINED.get()[0]() is min_const
    report = sl.classify(min_const)
    assert report == sl.classify.__wrapped__(min_const)
    bodies.seen.clear()
    assert sl.classify(min_const) == report
    assert bodies.on(min_const) == {}


def test_calls_without_a_semiring_root_neither_retain_nor_reuse(bodies, z3):
    @analysis
    def no_arguments():
        return dict(_SCOPE.get())

    @analysis
    def first_not_a_semiring(x, s):
        return dict(_SCOPE.get()), sl.green_plus(s, "H")

    sl.classify(z3)
    assert no_arguments() == {}
    assert _RETAINED.get() is None
    sl.classify(z3)
    bodies.seen.clear()
    scope, _ = first_not_a_semiring(z3.names, z3)
    assert scope == {} and bodies.on(z3) == {"_principal_sets": 2}
    assert _RETAINED.get() is None
    # a retained root that has since died matches no call, not even one
    # whose first argument is None
    ref = _classify_transient(z3)
    gc.collect()
    assert ref() is None and _RETAINED.get()[0]() is None
    assert first_not_a_semiring(None, z3)[0] == {}
