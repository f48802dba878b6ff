import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import semiringlab as sl
from semiringlab.errors import DimensionMismatch, OutOfRange, SemiringError
from semiringlab.classify import Verdict
from semiringlab.relations import Partition
from semiringlab.kernel import (
    LAW_ADD_ASSOC,
    LAW_LEFT_DIST,
    LAW_MUL_ASSOC,
    LAW_RIGHT_DIST,
    LawFailure,
    ReductFlag,
    ValidationReport,
    is_idempotent_semiring,
    orbit,
)

from conftest import universal_partition


def brute_first_witness(names, add, mul):
    """Independent law scan: first failing triple per law, row-major."""
    n = len(names)
    laws = {
        LAW_ADD_ASSOC: lambda a, b, c: add[add[a][b]][c] == add[a][add[b][c]],
        LAW_MUL_ASSOC: lambda a, b, c: mul[mul[a][b]][c] == mul[a][mul[b][c]],
        LAW_LEFT_DIST: lambda a, b, c: mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]],
        LAW_RIGHT_DIST: lambda a, b, c: mul[add[b][c]][a] == add[mul[b][a]][mul[c][a]],
    }
    out = {}
    for law, ok in laws.items():
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if not ok(a, b, c):
                        out.setdefault(law, (names[a], names[b], names[c]))
    return out


def test_validate_qsr3_example(qsr3):
    assert sl.validate(qsr3).verdict


def test_validate_one_element():
    report = sl.validate_semiring(("e",), ((0,),), ((0,),))
    assert report.verdict and not report.failures


def test_validate_xor_xor_reports_first_distributivity_witnesses():
    xor = ((0, 1), (1, 0))
    report = sl.validate_semiring("01", xor, xor)
    assert not report.verdict
    got = {f.law: f.witness for f in report.failures}
    # frozen from the pre-build brute-force oracle; re-derived here too
    assert got == {
        LAW_LEFT_DIST: ("1", "0", "0"),
        LAW_RIGHT_DIST: ("1", "0", "0"),
    }
    assert got == brute_first_witness("01", xor, xor)


def test_validate_witnesses_match_brute_force_scan():
    # a non-associative, non-distributive mess
    add = ((1, 0), (0, 0))
    mul = ((1, 1), (0, 1))
    report = sl.validate_semiring("01", add, mul)
    assert {f.law: f.witness for f in report.failures} == brute_first_witness("01", add, mul)


def test_dimension_and_range_errors():
    with pytest.raises(DimensionMismatch):
        sl.validate_semiring("01", ((0, 1),), ((0, 0), (0, 1)))
    with pytest.raises(OutOfRange):
        sl.validate_semiring("01", ((0, 2), (1, 0)), ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        sl.FiniteSemiring(names=("a", "a"), add=((0, 0), (0, 0)), mul=((0, 0), (0, 0)))


def test_names_that_cannot_round_trip_are_rejected():
    # '#' starts a comment in .srt and .sbl text, so "a#" would serialize to
    # a file that parse_srt rejects
    for name in ("a#", "#", "a b"):
        with pytest.raises(ValueError, match="without whitespace or '#'"):
            sl.FiniteSemiring(names=(name, "b"), add=((0, 0), (0, 0)), mul=((0, 0), (0, 0)))
    # '->' would make the .sbl head "map -> b:" read as a map entry
    with pytest.raises(ValueError, match="reserved"):
        sl.FiniteSemiring(names=("->", "b"), add=((0, 0), (0, 0)), mul=((0, 0), (0, 0)))


def test_validate_partial_of_qsr3_nil_part(qsr3):
    d = sl.decompose(qsr3)
    nil = d.nil_parts[0]
    assert nil.names == ("a", "b")
    # a+a = b and a*a = b are the only defined entries
    assert nil.add == ((1, None), (None, None))
    assert nil.mul == ((1, None), (None, None))
    assert sl.validate(nil).verdict


def test_validate_partial_empty_carrier():
    empty = sl.PartialSemiring(names=(), add=(), mul=())
    assert sl.validate(empty).verdict


def test_validate_partial_one_side_defined_fails():
    # a+a = b defined, (a+a)+a defined via b+a, but a+(a+a) = a+b undefined
    p = sl.PartialSemiring(
        names=("a", "b"),
        add=((1, None), (0, None)),
        mul=((None, None), (None, None)),
    )
    report = sl.validate(p)
    assert not report.verdict
    assert any(f.law == LAW_ADD_ASSOC for f in report.failures)


def _partial_value(table, x, y):
    """Evaluate a two-step partial product; (defined, value)."""
    if x is None or y is None:
        return False, None
    v = table[x][y]
    return (v is not None), v


def partial_law_oracle(p) -> ValidationReport:
    """The partial-law contract by its definition: if one grouping of an
    associative product is defined so is the other and they agree; a
    distributive law only binds when both of its sides are defined. The
    first witness per law, in row-major (a, b, c) order."""
    n = p.order
    laws = (LAW_ADD_ASSOC, LAW_MUL_ASSOC, LAW_LEFT_DIST, LAW_RIGHT_DIST)
    first = {law: None for law in laws}

    def note(law, a, b, c):
        if first[law] is None:
            first[law] = (a, b, c)

    for law, table in ((LAW_ADD_ASSOC, p.add), (LAW_MUL_ASSOC, p.mul)):
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    bc = table[b][c]
                    ldef, lval = _partial_value(table, ab, c)
                    rdef, rval = _partial_value(table, a, bc)
                    if ldef != rdef or (ldef and lval != rval):
                        note(law, a, b, c)
    for law, lhs, rhs in (
        (LAW_LEFT_DIST, lambda a, b, c: _partial_value(p.mul, a, p.add[b][c]),
         lambda a, b, c: _partial_value(p.add, p.mul[a][b], p.mul[a][c])),
        (LAW_RIGHT_DIST, lambda a, b, c: _partial_value(p.mul, p.add[b][c], a),
         lambda a, b, c: _partial_value(p.add, p.mul[b][a], p.mul[c][a])),
    ):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    ldef, lval = lhs(a, b, c)
                    rdef, rval = rhs(a, b, c)
                    if ldef and rdef and lval != rval:
                        note(law, a, b, c)
    return ValidationReport.from_failures(
        LawFailure(law, tuple(p.names[x] for x in first[law])) for law in laws if first[law] is not None
    )


def test_validate_matches_the_partial_oracle_on_nil_parts(corpus, corpus_order5, corpus_order6):
    nil_parts = 0
    for s in corpus + corpus_order5 + corpus_order6:
        try:
            d = sl.decompose(s)
        except SemiringError:
            continue
        for nil in d.nil_parts:
            assert sl.validate(nil) == partial_law_oracle(nil), (s, nil)
            nil_parts += bool(nil.order)
    assert nil_parts > 100


def test_validate_matches_the_partial_oracle_on_partial_restrictions(corpus_small):
    # every subset of an order-3 member, with an entry defined only when it
    # stays in the subset: the shape of a nil part, lawful or not
    verdicts = set()
    for s in corpus_small:
        for k in range(s.order + 1):
            for sub in combinations(s.elements(), k):
                local = {g: i for i, g in enumerate(sub)}
                p = sl.PartialSemiring(
                    names=tuple(s.names[g] for g in sub),
                    add=tuple(tuple(local.get(s.add[a][b]) for b in sub) for a in sub),
                    mul=tuple(tuple(local.get(s.mul[a][b]) for b in sub) for a in sub),
                )
                report = sl.validate(p)
                assert report == partial_law_oracle(p), (s, sub)
                verdicts.add(report.verdict)
    assert verdicts == {True, False}


def test_validate_matches_the_partial_oracle_on_random_tables():
    rng = random.Random(20261019)
    failed_laws = set()
    totals = 0
    for _ in range(5000):
        n = rng.randint(0, 5)
        undefined = rng.choice((0.0, 0.0, 0.1, 0.3, 0.6, 1.0))

        def table():
            return tuple(
                tuple(None if rng.random() < undefined else rng.randrange(n) for _ in range(n))
                for _ in range(n)
            )

        names = tuple(f"x{i}" for i in range(n))
        add, mul = table(), table()
        p = sl.PartialSemiring(names=names, add=add, mul=mul)
        report = sl.validate(p)
        assert report == partial_law_oracle(p)
        failed_laws.update(f.law for f in report.failures)
        if n and not any(None in row for row in add + mul):
            # a partial table with no undefined entry is judged as a total one
            totals += 1
            assert report == sl.validate_semiring(names, add, mul)
            assert {f.law: f.witness for f in report.failures} == brute_first_witness(names, add, mul)
    assert failed_laws == {LAW_ADD_ASSOC, LAW_MUL_ASSOC, LAW_LEFT_DIST, LAW_RIGHT_DIST}
    assert totals > 1000


def test_partial_semiring_rejects_malformed_tables():
    good = ((1, None), (None, None))
    with pytest.raises(DimensionMismatch, match="mul table has 1 rows, expected 2"):
        sl.PartialSemiring(names=("a", "b"), add=good, mul=((None, None),))
    with pytest.raises(DimensionMismatch, match="add table row 1 has 1 entries, expected 2"):
        sl.PartialSemiring(names=("a", "b"), add=((1, None), (None,)), mul=good)
    with pytest.raises(OutOfRange, match=r"add table entry at \(0,1\) is 2, expected 0..1 or undefined"):
        sl.PartialSemiring(names=("a", "b"), add=((1, 2), (None, None)), mul=good)
    with pytest.raises(OutOfRange, match=r"mul table entry at \(1,0\) is 'a', expected 0..1 or undefined"):
        sl.PartialSemiring(names=("a", "b"), add=good, mul=((None, None), ("a", None)))
    with pytest.raises(OutOfRange, match=r"entry at \(0,0\) is -1"):
        sl.PartialSemiring(names=("a", "b"), add=((-1, None), (None, None)), mul=good)
    # a total table admits no undefined entry
    with pytest.raises(OutOfRange, match=r"add table entry at \(0,1\) is None, expected 0..1$"):
        sl.FiniteSemiring(names=("a", "b"), add=good, mul=((0, 0), (0, 0)))


def test_reduct_kind_examples(boolean, z2, qsr3):
    assert sl.reduct_kind(boolean, sl.ADD) == frozenset(
        {ReductFlag.BAND, ReductFlag.SEMILATTICE, ReductFlag.INVERSE}
    )
    assert sl.reduct_kind(z2, sl.ADD) == frozenset({ReductFlag.GROUP, ReductFlag.INVERSE})
    assert sl.reduct_kind(qsr3, sl.ADD) == frozenset({ReductFlag.PLAIN})


def test_reduct_flags_downward_consistent(corpus_small):
    for s in corpus_small:
        for which in (sl.ADD, sl.MUL):
            flags = sl.reduct_kind(s, which)
            if ReductFlag.SEMILATTICE in flags:
                assert ReductFlag.BAND in flags
            if ReductFlag.GROUP in flags:
                assert ReductFlag.INVERSE in flags
        # the two table predicates agree with the flags
        add, mul = sl.reduct_kind(s, sl.ADD), sl.reduct_kind(s, sl.MUL)
        assert is_idempotent_semiring(s) == (ReductFlag.BAND in add and ReductFlag.BAND in mul)
        assert sl.is_b_lattice(s) == (ReductFlag.SEMILATTICE in add and ReductFlag.BAND in mul)


def test_is_b_lattice(boolean, z2, qsr3):
    assert sl.is_b_lattice(boolean)
    assert not sl.is_b_lattice(z2)
    assert not sl.is_b_lattice(qsr3)


def test_repeat_qsr3_values(qsr3):
    a = qsr3.index("a")
    assert qsr3.names[sl.repeat(qsr3, a, 1, sl.ADD)] == "a"
    assert qsr3.names[sl.repeat(qsr3, a, 2, sl.ADD)] == "b"
    assert qsr3.names[sl.repeat(qsr3, a, 3, sl.ADD)] == "0"


def naive_fold(s, a, k, which):
    table = s.table(which)
    value = a
    for _ in range(k - 1):
        value = table[value][a]
    return value


def test_repeat_matches_naive_fold_within_3n(corpus_small):
    for s in corpus_small[::7]:
        for a in s.elements():
            for which in (sl.ADD, sl.MUL):
                for k in range(1, 3 * s.order + 1):
                    assert sl.repeat(s, a, k, which) == naive_fold(s, a, k, which)


@given(k=st.integers(min_value=1, max_value=10**12), data=st.data())
def test_repeat_cycle_detection_unbounded(k, data, corpus_small):
    s = data.draw(st.sampled_from(corpus_small))
    a = data.draw(st.integers(min_value=0, max_value=s.order - 1))
    orb = orbit(s, a, sl.ADD)
    # fold k into the detected cycle by hand and compare
    i = k - 1
    if i >= len(orb.values):
        i = orb.mu + (i - orb.mu) % orb.lam
    assert sl.repeat(s, a, k, sl.ADD) == orb.values[i]
    assert orb.mu + orb.lam <= s.order


def test_orbit_window_covers_all_multiples(corpus_small):
    for s in corpus_small[::11]:
        for a in s.elements():
            orb = orbit(s, a, sl.ADD)
            window = set(orb.values)
            assert {naive_fold(s, a, k, sl.ADD) for k in range(1, 2 * s.order + 2)} <= window


def test_validated_corpus_satisfies_all_laws(corpus_small):
    for s in corpus_small[::13]:
        n = s.order
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert s.add[s.add[a][b]][c] == s.add[a][s.add[b][c]]
                    assert s.mul[s.mul[a][b]][c] == s.mul[a][s.mul[b][c]]
                    assert s.mul[a][s.add[b][c]] == s.add[s.mul[a][b]][s.mul[a][c]]
                    assert s.mul[s.add[b][c]][a] == s.add[s.mul[b][a]][s.mul[c][a]]


NAMES, ADD_T, MUL_T = ("a", "b"), ((0, 1), (1, 1)), ((0, 0), (0, 1))


def test_records_are_read_only():
    for record, field in (
        (sl.FiniteSemiring(NAMES, ADD_T, MUL_T), "add"),
        (sl.PartialSemiring(NAMES, ADD_T, MUL_T), "names"),
        (Partition([5, 3, 5]), "block_of"),
        (Verdict(True, "x"), "holds"),
        (LawFailure(LAW_ADD_ASSOC, ("a", "a", "b")), "witness"),
    ):
        for change in (
            lambda: setattr(record, field, None),
            lambda: delattr(record, field),
            lambda: setattr(record, "extra", None),
        ):
            with pytest.raises(AttributeError):
                change()


def test_record_reprs_are_pinned():
    assert repr(sl.FiniteSemiring(NAMES, ADD_T, MUL_T)) == "FiniteSemiring(a/b)"
    assert repr(sl.PartialSemiring(NAMES, ADD_T, MUL_T)) == (
        "PartialSemiring(names=('a', 'b'), add=((0, 1), (1, 1)), mul=((0, 0), (0, 1)))"
    )
    assert repr(Partition([5, 3, 5])) == "Partition(block_of=(0, 1, 0))"
    assert repr(Verdict(True, "x")) == "Verdict(holds=True, evidence='x')"
    assert repr(Verdict(False)) == "Verdict(holds=False, evidence='')"


def test_semirings_and_partitions_equal_only_their_own_class():
    total = sl.FiniteSemiring(NAMES, ADD_T, MUL_T)
    partial = sl.PartialSemiring(NAMES, ADD_T, MUL_T)
    partition = Partition([0, 1])
    fields = (NAMES, ADD_T, MUL_T)
    for a, b in ((total, partial), (total, fields), (partial, fields), (partition, (0, 1)),
                 (partition, ((0, 1),)), (partition, total), (partition, partial)):
        assert a != b and b != a and not a == b, (a, b)
    # the named tuples compare as the tuple of their fields
    assert Verdict(True, "x") == (True, "x")


def test_equal_semirings_hash_equal():
    for a, b in (
        (sl.FiniteSemiring(NAMES, ADD_T, MUL_T), sl.FiniteSemiring(list(NAMES), [[0, 1], [1, 1]], MUL_T)),
        (sl.PartialSemiring(NAMES, ADD_T, MUL_T), sl.PartialSemiring(NAMES, ADD_T, [[0, 0], [0, 1]])),
        (Partition([5, 3, 5]), Partition("xyx")),
    ):
        assert a == b and a is not b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a


def test_a_partition_splits_its_blocks_once():
    for p in (Partition([5, 3, 5, 7]), Partition.identity(3), universal_partition(2), Partition([])):
        fresh = tuple(frozenset(x for x in range(p.n) if p.block_of[x] == b) for b in range(p.num_blocks))
        seen = (hash(p), repr(p), pickle.dumps(p))
        blocks = p.blocks()
        assert blocks == fresh and p.blocks() is blocks
        # the blocks are no part of the value
        assert (hash(p), repr(p), pickle.dumps(p)) == seen
        assert p == Partition(p.block_of) and pickle.loads(pickle.dumps(p)).blocks() == fresh
        for field in ("_blocks", "block_of", "extra"):
            with pytest.raises(AttributeError):
                setattr(p, field, ())
        assert p.blocks() is blocks


def test_post_init_runs_once_per_checked_construction(monkeypatch):
    runs = []
    post_init = sl.FiniteSemiring.__post_init__

    def counting(self):
        runs.append(self)
        post_init(self)

    monkeypatch.setattr(sl.FiniteSemiring, "__post_init__", counting)
    s = sl.FiniteSemiring(names=NAMES, add=ADD_T, mul=MUL_T)
    assert runs == [s]
    t = sl.FiniteSemiring._from_checked(NAMES, ADD_T, MUL_T)
    assert t == s and runs == [s]
    s.relabel((1, 0))
    assert len(runs) == 2
