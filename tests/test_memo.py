"""The memo: a primitive computes once per value it reads, the semiring's
names and tables or the one table of a single-reduct primitive, among the
`_MEMO_SEMIRINGS` values most recently used; equal semirings share results,
and no cached result keeps its semiring alive."""

import gc
import importlib
import sys
import threading
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

import semiringlab as sl
from semiringlab import blattice, elements, enumeration, kernel, structure
from semiringlab.classify import THEOREM_IDS, Verdict
from semiringlab.enumeration import enumerate_semirings
from semiringlab.errors import NotQuasiCompletelyRegular, UnknownTheoremId
from semiringlab.kernel import _CACHES, _MEMO_SEMIRINGS
from semiringlab.relations import enumerate_congruences

from conftest import MEMO_WRAPPER, clear_memo, memo_calls, ring, zn

classify_module = importlib.import_module("semiringlab.classify")

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


def value_of(s):
    """The memo key of a primitive that reads the whole semiring."""
    return s.names, s.add, s.mul


class _StoresNothing(dict):
    def __setitem__(self, key, value):
        pass


@contextmanager
def uncached():
    """Every primitive computes afresh: the memo keeps no entry."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_CACHES", _StoresNothing())
        yield


def check_entries(*semirings):
    """At most the bound of entries, each keyed by a tuple, and no cached
    result, nor any field of a tuple result, is one of `semirings`."""
    assert len(_CACHES) <= _MEMO_SEMIRINGS
    analysed = {id(s) for s in semirings}
    for value, cache in _CACHES.items():
        assert type(value) is tuple
        for result in cache.values():
            fields = result if type(result) is tuple else (result,)
            assert not any(id(x) in analysed for x in (result, *fields))


def test_cached_reports_match_uncached(corpus_small):
    members = list(corpus_small) + [zn(6), zn(8)]
    for s in members:
        cached = reports(s)
        assert reports(s) == cached, repr(s)
        with uncached():
            assert reports(s) == cached, repr(s)
    check_entries(*members)


def _relabelled(base):
    return base.relabel(tuple(reversed(range(base.order))))


def _classify_transient(base):
    t = _relabelled(base)
    sl.classify(t)
    assert value_of(t) in _CACHES
    return weakref.ref(t)


def _decompose_transient(base):
    t = _relabelled(base)
    try:
        sl.decompose(t)
    except NotQuasiCompletelyRegular:
        pass
    else:
        raise AssertionError("decompose should reject a non quasi completely regular semiring")
    return weakref.ref(t)


def _structure_transient(base):
    t = _relabelled(base)
    assert sl.decompose(t).base is t
    assert sl.search_structure_maps(t) is not None
    return weakref.ref(t)


def test_no_scope_or_semiring_survives_the_call(z3, min_const):
    for transient, base in (
        (_classify_transient, z3),
        (_decompose_transient, min_const),
        (_structure_transient, zn(6)),
    ):
        ref = transient(base)
        gc.collect()
        assert ref() is None
    with pytest.raises(UnknownTheoremId):
        sl.verify_equivalence(z3, "NOPE")
    check_entries()


def test_the_memo_keeps_at_most_its_bound_of_live_semirings(corpus_small):
    members = list(corpus_small)
    assert len(members) > 10 * _MEMO_SEMIRINGS
    used = []  # the values classify_element read, least recently used first
    hits = 0
    for s in members:
        hits += s.add in used[-_MEMO_SEMIRINGS:]
        sl.classify_element(s, 0)
        # the call reads the semiring; its body's first read of the addition
        # moves the addition's entry to the end, and the semiring's entry,
        # read again for complete regularity, moves back past it
        used = [v for v in used if v not in (value_of(s), s.add)] + [s.add, value_of(s)]
        assert list(_CACHES) == used[-_MEMO_SEMIRINGS:]
        # a read of the addition through the semiring's own entry moves nothing
        kernel.additive_facts(s)
        assert list(_CACHES) == used[-_MEMO_SEMIRINGS:]
    # a kept addition that is read again moves to the end
    assert hits > 0
    check_entries(*members)


def test_the_newest_entry_is_the_last_of_the_memo(corpus_small):
    """The entry the memo serves without hashing is the last of `_CACHES`,
    read from the very tables of the value it holds, also once more than
    the bound of values has been read."""
    members = list(corpus_small)[:3 * _MEMO_SEMIRINGS]
    for s in members:
        sl.classify(s)
        caches, names, add, mul, cache = kernel._newest
        assert caches is _CACHES and cache is list(_CACHES.values())[-1]
        assert add is s.add
        if names is None:
            assert mul is None and list(_CACHES)[-1] == s.add
        else:
            assert names is s.names and mul is s.mul and list(_CACHES)[-1] == value_of(s)
    assert len({value_of(s) for s in members}) > _MEMO_SEMIRINGS == len(_CACHES)


def memoized_primitives() -> set:
    """Every primitive of the package that `kernel.memo` wraps."""
    modules = (kernel, elements, classify_module, structure, blattice, enumeration)
    return {f for m in modules for f in vars(m).values() if getattr(f, "__code__", None) is MEMO_WRAPPER}


def test_a_call_after_clear_memo_reruns_every_body(bodies):
    counted = {classify_module.classify, elements.complete_regularity, kernel.additive_facts}
    for primitive in memoized_primitives() - counted:
        bodies.count(primitive)
    s = zn(6)
    clear_memo()
    reports(s)
    cold = bodies.on(s)
    assert {"classify", "additive_facts", "_decomposition_fields", "_family_items"} <= set(cold)
    bodies.seen.clear()
    reports(s)
    assert bodies.on(s) == {}
    clear_memo()
    assert not _CACHES and kernel._newest == kernel._NO_ENTRY
    bodies.seen.clear()
    reports(s)
    assert bodies.on(s) == cold


def test_an_uncached_run_computes_each_call_afresh(bodies):
    s = zn(6)
    reports(s)
    with uncached():
        counts = []
        for _ in range(2):
            bodies.seen.clear()
            reports(s)
            counts.append(bodies.on(s))
            # the newest entry belongs to the dict the memo no longer uses
            assert kernel._newest[0] is not kernel._CACHES
        assert counts[0] == counts[1] and counts[0]["classify"] > 1


def test_congruence_list_is_fresh_within_a_scope(z3):
    first = enumerate_congruences(z3)
    assert len(first) >= 2
    expected = list(first)
    first.clear()
    assert enumerate_congruences(z3) == expected


def test_threads_share_the_cache_soundly(corpus_small):
    members = [s for s in corpus_small if s.order == 3][:48]
    expected = [reports(s) for s in members]
    clear_memo()
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
    """How often the bodies of three memoized primitives ran on each semiring
    object, counted by replacing the `__wrapped__` body each memo runs on a
    miss: classify and the complete-regularity vector, keyed by the
    semiring's value, and the record of the addition, keyed by that table,
    which computes the orbits and the starred Green relations. The principal
    ideals, which only the record's body reads, are counted in the module."""

    SEMIRING_KEYED = ("classify", "complete_regularity")

    def __init__(self, monkeypatch):
        self.seen = Counter()
        self._monkeypatch = monkeypatch
        for primitive in (
            classify_module.classify,
            elements.complete_regularity,
            kernel.additive_facts,
        ):
            self.count(primitive)
        monkeypatch.setattr(kernel, "_principal_sets", self.counted(kernel._principal_sets))

    def counted(self, body):
        def counted(s, *args):
            self.seen[body.__name__, id(s)] += 1
            return body(s, *args)

        return counted

    def count(self, primitive):
        self._monkeypatch.setattr(primitive, "__wrapped__", self.counted(primitive.__wrapped__))

    def on(self, s) -> dict:
        """The counts for s, which must be alive since they were taken."""
        return {name: k for (name, i), k in self.seen.items() if i == id(s)}

    def cold(self, call, s) -> dict:
        """The counts for s of call(s) with an empty memo."""
        clear_memo()
        self.seen.clear()
        call(s)
        counts = self.on(s)
        assert set(counts) == {"classify", "complete_regularity", "additive_facts", "_principal_sets"}
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


def _warm_counts(bodies, s, t) -> dict:
    """The counts for t of classify(t) right after classify(s)."""
    clear_memo()
    sl.classify(s)
    bodies.seen.clear()
    sl.classify(t)
    return bodies.on(t)


def test_a_copy_with_another_addition_reuses_nothing(bodies):
    s = zn(6)
    for t in (s.relabel(tuple(reversed(range(s.order)))), s.relabel((1, 0, 2, 3, 4, 5))):
        assert t.add != s.add
        cold = bodies.cold(sl.classify, t)
        assert _warm_counts(bodies, s, t) == cold, t


def test_an_equal_addition_copy_skips_only_the_additive_bodies(bodies):
    s = zn(6)
    # an equal copy runs no body at all
    for t in (sl.FiniteSemiring(s.names, s.add, s.mul), s.relabel(range(s.order))):
        assert t is not s and value_of(t) == value_of(s)
        assert bodies.cold(sl.classify, t)
        assert _warm_counts(bodies, s, t) == {}, t
    # other names or another multiplication run only the bodies that read them
    zero = tuple((0,) * s.order for _ in s.elements())
    for t in (sl.FiniteSemiring(tuple("uvwxyz"), s.add, s.mul), sl.FiniteSemiring(s.names, s.add, zero)):
        cold = bodies.cold(sl.classify, t)
        own = {name: k for name, k in cold.items() if name in Bodies.SEMIRING_KEYED}
        assert _warm_counts(bodies, s, t) == own, t


def test_equal_additions_keep_their_own_names_and_verdicts():
    # a+b = a; every product distributes over it
    left_zero = tuple((a,) * 3 for a in range(3))
    zero = ((0, 0, 0),) * 3
    first = ring("abc", left_zero, left_zero)
    for members in (
        (first, ring("xyz", left_zero, left_zero), ring("abc", left_zero, zero)),
        # the very table objects of the first, as enumerated members share them
        (first, sl.FiniteSemiring._from_checked(tuple("xyz"), first.add, first.mul),
         sl.FiniteSemiring._from_checked(first.names, first.add, zero)),
    ):
        clear_memo()
        got = [sl.classify(t) for t in members]
        with uncached():
            assert got == [sl.classify(t) for t in members]
        assert [r.verdicts["additively-inverse"].evidence for r in got] == [
            "a has 3 additive inverses", "x has 3 additive inverses", "a has 3 additive inverses",
        ]
        assert [r.verdicts["strongly-additively-quasi-inverse"].evidence for r in got] == [
            "a+b != b+a", "x+y != y+x", "a+b != b+a",
        ]
        assert [r.holds("completely-regular") for r in got] == [True, True, False]
        assert got[2].verdicts["completely-regular"].evidence == "b is not completely regular"


def test_classify_analyses_each_addition_of_the_order4_corpus_once(bodies):
    corpus = enumerate_semirings(4)
    additions = {s.add for s in corpus}
    assert (len(corpus), len(additions)) == (7652, 188)
    bodies.seen.clear()
    for s in corpus:
        sl.classify(s)
    runs = Counter(name for name, _ in bodies.seen.elements())
    # the L and R ideals once per addition, where keying by the semiring ran 15304
    assert runs["_principal_sets"] == 2 * len(additions)
    assert runs["classify"] == len(corpus)


def test_a_raising_call_leaves_a_sound_cache(bodies, min_const):
    with pytest.raises(NotQuasiCompletelyRegular):
        sl.decompose(min_const)
    # the analyses decompose ran are kept, its failed body is not
    cache = _CACHES[value_of(min_const)]
    assert structure._decomposition_fields.__wrapped__ not in cache
    report = sl.classify(min_const)
    with uncached():
        assert sl.classify(min_const) == report
    bodies.seen.clear()
    assert sl.classify(min_const) == report
    assert bodies.on(min_const) == {}


def test_classify_and_decompose_bodies_run_once_per_semiring(bodies, min_const):
    bodies.count(structure._decomposition_fields)
    z6 = zn(6)
    assert sl.classify(z6).holds(SAQCI)
    assert not sl.classify(min_const).holds("quasi-completely-regular")
    for s, decompositions in ((z6, 1), (min_const, 0)):
        clear_memo()
        bodies.seen.clear()
        reports(s)
        counts = bodies.on(s)
        # the chain decomposes only quasi completely regular members; on
        # min_const decompose would raise
        assert counts["classify"] == 1 and counts.get("_decomposition_fields", 0) == decompositions, s


def test_a_class_report_is_read_only(z3):
    report = sl.classify(z3)
    with pytest.raises(TypeError):
        report.verdicts["skew-ring"] = Verdict(holds=False)
    with pytest.raises(TypeError):
        del report.verdicts["skew-ring"]
    assert sl.classify(z3) is report and report.holds("skew-ring")


def test_a_sweep_member_costs_few_memo_lookups(corpus_small, corpus_order4):
    """The sweep's whole verifier chain on a member new to the memo makes at
    most 30 memo wrapper calls on average, and at most 25 on the members
    that are not strongly additively quasi completely inverse: each
    verifier fetches the class report and the record of the addition once,
    never a fact at a time."""
    calls = {True: [], False: []}
    for s in list(corpus_small) + list(corpus_order4):
        clear_memo()
        with memo_calls() as counted:
            reports(s)
        calls[sl.classify(s).holds(SAQCI)].append(counted.count)
    every = calls[True] + calls[False]
    mean, other = sum(every) / len(every), sum(calls[False]) / len(calls[False])
    # `pytest -s` shows the figures
    print(f"memo calls per member: {mean:.1f} on {len(every)}, {other:.1f} on the {len(calls[False])} not SAQCI")
    assert min(len(calls[True]), len(calls[False])) > 300
    assert mean <= 30 and other <= 25


def test_a_sweep_member_hashes_three_memo_values(corpus_small, corpus_order4, monkeypatch):
    """Of the memo lookups in the chain of a member new to the memo, exactly
    three find their entry by hashing a value, on every member: the
    semiring's, which `classify` makes; the addition's, on the first read of
    the addition through the semiring's entry; and the semiring's once more,
    on the next whole-semiring primitive. The newest entry serves every other
    lookup, so a change that brings back an alternation between a member's
    two entries fails here."""
    renewals = []
    renew = kernel._renew

    def counted(s, addition):
        renewals.append("addition" if addition else "semiring")
        return renew(s, addition)

    monkeypatch.setattr(kernel, "_renew", counted)
    members = list(corpus_small) + list(corpus_order4)
    seen = Counter()
    for s in members:
        clear_memo()
        renewals.clear()
        reports(s)
        seen[tuple(renewals)] += 1
    assert seen == {("semiring", "addition", "semiring"): len(members)}


def test_each_quasi_skew_ring_fact_is_computed_once(corpus_small, corpus_order4, monkeypatch):
    """The report of the whole carrier, which `classify` and QSR3 read, and
    the report of each H*+ class, which QCR5 (ii) and `decompose` read,
    equal the reports of those blocks computed afresh; and the chain reports
    the carrier once and each H*+ class of a quasi completely regular member
    at most once."""
    report = structure._quasi_skew_ring_report
    reported = Counter()

    def counted(s, facts, block):
        reported[id(s), block] += 1
        return report(s, facts, block)

    for module in (structure, classify_module):
        monkeypatch.setattr(module, "_quasi_skew_ring_report", counted)
    qcr = 0
    for s in list(corpus_small) + list(corpus_order4):
        clear_memo()
        reported.clear()
        chain = reports(s)
        classes = kernel.additive_facts(s).green_star["H"].blocks()
        with uncached():
            facts = kernel.additive_facts(s)
            at = structure._conditions_at(s, facts, frozenset(s.elements()), facts.idempotents)
            whole = report(s, facts, None)
            # lemma (D) reads a block off s only when it is closed
            fresh = chain[0].holds("quasi-completely-regular") and tuple(
                report(s, facts, block) for block in classes)
        assert structure._carrier_report(s) == whole, sl.serialize_srt(s)
        assert reported[id(s), None] == 1, sl.serialize_srt(s)
        assert chain[0].holds("quasi-skew-ring") == whole.skew_ring_absorbs_multiples
        qsr3 = sl.verify_equivalence(s, "QSR3").verdicts
        assert (qsr3["ii"], qsr3["iii"]) == structure._some_idempotent(at)
        if not chain[0].holds("quasi-completely-regular"):
            continue
        qcr += 1
        assert structure._class_reports(s) == fresh, sl.serialize_srt(s)
        assert sl.verify_equivalence(s, "QCR5").verdicts["ii"] == all(r.skew_ring_absorbs_multiples for r in fresh)
        assert sl.decompose(s).kernels == tuple(r.kernel for r in fresh)
        assert max(reported[id(s), block] for block in classes) <= 1, sl.serialize_srt(s)
    assert qcr > 300


def test_the_chain_scans_each_block_for_closure_once(corpus_small, corpus_order4, monkeypatch):
    """Along one member's chain every block is scanned for closure at most
    once, Reg+ included: the kernel of a quasi skew-ring is found closed by
    its carrier report, which its one H*+ class and condition (i) of the
    main theorem read."""
    scans = Counter()
    is_closed = sl.FiniteSemiring.is_closed

    def counted(self, subset):
        scans[id(self), frozenset(subset)] += 1
        return is_closed(self, subset)

    monkeypatch.setattr(sl.FiniteSemiring, "is_closed", counted)
    for s in list(corpus_small) + list(corpus_order4):
        clear_memo()
        scans.clear()
        reports(s)
        again = {block: k for (i, block), k in scans.items() if i == id(s) and k > 1}
        assert not again, sl.serialize_srt(s)


def test_a_failed_premise_skips_its_conjuncts(corpus_small, corpus_order4, bodies, monkeypatch):
    """A condition "premise and X" computes X only when the premise holds: on
    a member that is not quasi completely regular the chain generates no
    beta and runs none of the helpers behind the premise; on one that is,
    each runs, and the sums of idempotents are scanned iff it is quasi
    completely inverse."""
    bodies.count(classify_module._least_b_lattice_congruence)
    lazy = ("_some_multiple_equal", "_is_regular_part_inverse_subsemiring", "_sum_closed_idempotents")
    for name in lazy:
        monkeypatch.setattr(classify_module, name, bodies.counted(getattr(classify_module, name)))
    lazy += ("_least_b_lattice_congruence",)
    qcr = 0
    for s in list(corpus_small) + list(corpus_order4):
        clear_memo()
        bodies.seen.clear()
        report = reports(s)[0]
        got = {name: k for name, k in bodies.on(s).items() if name in lazy}
        if not report.holds("quasi-completely-regular"):
            assert got == {}, sl.serialize_srt(s)
            continue
        qcr += 1
        assert got["_least_b_lattice_congruence"] == got["_is_regular_part_inverse_subsemiring"] == 1
        assert got["_some_multiple_equal"] >= 1, sl.serialize_srt(s)
        assert got.get("_sum_closed_idempotents", 0) == report.holds("quasi-completely-inverse")
    assert 300 < qcr < len(corpus_small) + len(corpus_order4) - 300


def test_the_chain_runs_one_family_search_per_member(corpus_small, corpus_order4, monkeypatch):
    """The family search runs at most once per member new to the memo, and
    exactly once on a strongly additively quasi completely inverse one,
    though both the generalized Clifford theorem and the structure maps
    read it; and a caller that changes its family changes no later one."""
    runs = Counter()
    search = blattice._search_family

    def counted(s, d):
        runs[id(s)] += 1
        return search(s, d)

    monkeypatch.setattr(blattice, "_search_family", counted)
    members = list(corpus_small) + list(corpus_order4)
    saqci = 0
    for s in members:
        clear_memo()
        reports(s)
        if sl.classify(s).holds(SAQCI):
            saqci += 1
            assert runs[id(s)] == 1, sl.serialize_srt(s)
        else:
            assert runs[id(s)] <= 1, sl.serialize_srt(s)
    assert saqci > 300
    # a member whose family has maps between classes and no nil part
    s = next(t for t in members if sl.classify(t).holds(SAQCI) and sl.decompose(t).y_order > 1
             and sl.check_generalized_clifford_theorem(t).verdicts["strong-b-lattice-of-skew-rings"])
    gcsb = sl.check_generalized_clifford_theorem(s)
    m = sl.search_structure_maps(s)
    expected = {pair: dict(f) for pair, f in m.phi.items()}
    assert len(expected) > sl.decompose(s).y_order
    for f in m.phi.values():
        f.clear()
    m.phi.clear()
    assert sl.search_structure_maps(s).phi == expected
    assert sl.check_generalized_clifford_theorem(s) == gcsb


def facts_by_definition(s) -> dict:
    """Every field of `kernel.additive_facts`, by scans of the addition."""
    add, r = s.add, s.elements()

    def multiples(a):
        """a, 2a, 3a, ... up to the first repeat."""
        values = [a]
        while add[values[-1]][a] not in values:
            values.append(add[values[-1]][a])
        return values

    def orbit(a):
        values = multiples(a)
        mu = values.index(add[values[-1]][a])
        return kernel.Orbit(tuple(values), mu, len(values) - mu)

    def one_sided(x, left):
        return frozenset({x} | {add[t][x] if left else add[x][t] for t in r})

    def two_sided(x):
        return one_sided(x, True) | one_sided(x, False) | {add[add[t][x]][u] for t in r for u in r}

    inverses = tuple(frozenset(x for x in r if add[add[a][x]][a] == a and add[add[x][a]][x] == x) for a in r)
    regular = frozenset(a for a in r if any(add[add[a][x]][a] == a for x in r))
    least = tuple(next((k + 1, v) for k, v in enumerate(multiples(a)) if v in regular) for a in r)
    idems = sorted(e for e in r if add[e][e] == e)
    left = sl.Partition(one_sided(x, True) for x in r)
    right = sl.Partition(one_sided(x, False) for x in r)
    h = sl.Partition(zip(left.block_of, right.block_of))
    j = sl.Partition(two_sided(x) for x in r)
    witnesses = [[x for x in inverses[a] if add[a][x] == add[x][a]] for a in r]
    band = all(add[a][a] == a for a in r)
    identity = [e for e in r if all(add[e][x] == x == add[x][e] for x in r)]
    flags = {
        kernel.ReductFlag.BAND: band,
        kernel.ReductFlag.SEMILATTICE: band and all(add[a][b] == add[b][a] for a in r for b in r),
        kernel.ReductFlag.GROUP: bool(identity) and all(
            any(add[a][x] == identity[0] == add[x][a] for x in r) for a in r),
        kernel.ReductFlag.INVERSE: all(len(v) == 1 for v in inverses),
    }
    return {
        "orbits": tuple(orbit(a) for a in r),
        "windows": tuple(frozenset(multiples(a)) for a in r),
        "inverses": inverses,
        "flags": frozenset(flag for flag, holds in flags.items() if holds) or {kernel.ReductFlag.PLAIN},
        "idempotents": frozenset(idems),
        "regular": regular,
        "least_regular_multiples": least,
        "witnesses": tuple(hits[0] if hits else None for hits in witnesses),
        "several_witnesses": None,
        "green": {"L": left, "R": right, "H": h, "D": j, "J": j},
        "green_star": {kind: sl.Partition(rel.block_of[v] for _, v in least) for kind, rel in
                       (("H", h), ("D", j), ("J", j))},
        "h_classes": tuple(frozenset(b for b in r if h.same(a, b)) for a in r),
        "partition": sl.Partition(next(v for v in multiples(a) if add[v][v] == v) for a in r),
        "noncommuting_idempotents": next(
            ((e, f) for e in idems for f in idems if e < f and add[e][f] != add[f][e]), None),
    }


def check_the_record_against_its_definitions(members):
    for s in members:
        cached = kernel.additive_facts(s)
        with uncached():
            facts = kernel.additive_facts(s)
            expected = facts_by_definition(s)
        assert facts == cached
        assert list(expected) == list(facts._fields)
        for field, value in zip(facts._fields, facts):
            if field.startswith("green"):
                value = dict(value)
            assert value == expected[field], (field, sl.serialize_srt(s))


def test_the_addition_record_matches_its_definitions(corpus):
    check_the_record_against_its_definitions(corpus)


def test_the_addition_record_matches_its_definitions_at_orders_5_and_6(corpus_order5, corpus_order6):
    """The record is built in one loop over the elements; every field still
    equals its definition on the larger carriers of the order-5 and order-6
    samples."""
    check_the_record_against_its_definitions(list(corpus_order5) + list(corpus_order6))
