"""The call-scoped memo: the outermost public analysis opens a scope, the
per-semiring primitives compute once inside it, and nothing survives it."""

import gc
import sys
import threading
import weakref

import pytest

import semiringlab as sl
from semiringlab.classify import THEOREM_IDS
from semiringlab.errors import NotQuasiCompletelyRegular, UnknownTheoremId
from semiringlab.kernel import _SCOPE, analysis
from semiringlab.relations import enumerate_congruences

from conftest import zn


def reports(fn, s):
    """classify, every equivalence theorem and the ideals corollary, through
    fn(name) -> callable."""
    out = [fn("classify")(s)]
    out.extend(fn("verify_equivalence")(s, t) for t in THEOREM_IDS)
    out.append(fn("verify_ideal_corollary")(s))
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
