import hashlib
import random
import warnings
from functools import cache
from itertools import permutations, product
from math import factorial

import pytest

import semiringlab as sl
from conftest import zn
from semiringlab.errors import (
    BoundExceeded,
    DimensionMismatch,
    OutOfRange,
    SampleShortfallWarning,
    UnknownClassName,
)
from semiringlab.enumeration import (
    FULL_ENUMERATION_BOUND,
    SAMPLE_BOUND,
    _cached_relabellings,
    _distributive_classes,
    _least_addition,
    _semigroups,
    ImplicationQuery,
    canonical_form,
    canonical_hash,
    count_labeled_semirings,
    enumerate_semirings,
    find_counterexample,
    manifest_line,
    sample_semirings,
    write_corpus,
)

# pre-build brute-force oracle values (all 16x16 / 512x512 table pairs
# scanned directly, no pruning); order 4 from the orbit-reduced enumerator,
# cross-checked by the orbit-stabilizer identity
ORACLE_LABELED = {1: 1, 2: 36, 3: 1747, 4: 168392}
ORACLE_CANONICAL = {1: 1, 2: 20, 3: 316, 4: 7652}
# semigroups of order n up to isomorphism (OEIS A027851)
SEMIGROUP_CLASSES = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}
# associative tables on n labeled elements (OEIS A023814)
LABELED_SEMIGROUPS = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}
# sha256 over the concatenated canonical forms of enumerate_semirings(4)
ORDER4_FORMS_SHA256 = "36b4f19bbfffda2ab1d347658fbba5e42eab3a35755afa6b2d6a7633c62eef07"
# sha256 over the canonical forms of sample_semirings(n, count, seed), in order
SAMPLE_DIGESTS = {
    (4, 30, 11): "4c5d20036400808aadec6c9da58e63050fa0cf04b6b3c88944b514ad9c4ac4d8",
    (5, 10, 3): "7d2f5d1292e23158a0208faf3e597c02fe4461185d0b65c3b49c25f2a7bd7fff",
    (6, 3, 7): "d15f3e0db3e693a75f06d33336d5e0f5dd3f7d75b966c7c1acdf038fec37674f",
}


@cache
def brute_force_associative_tables(n):
    """Every associative table on n elements, by a scan of all n^(n*n)
    tables, in row-major order."""
    tables = []
    for flat in product(range(n), repeat=n * n):
        t = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if all(t[t[a][b]][c] == t[a][t[b][c]] for a, b, c in product(range(n), repeat=3)):
            tables.append(t)
    return tables


def brute_force_forms(n):
    """Canonical form of every valid labeled (add, mul) pair on n elements,
    straight from the definitions and independent of the production
    enumerator: associative tables by a scan of all n^(n*n) tables, pairs
    accepted by validate_semiring, forms by the all-permutation
    canonical_form."""
    names = tuple(str(i) for i in range(n))
    tables = brute_force_associative_tables(n)
    forms = []
    for add in tables:
        for mul in tables:
            if sl.validate_semiring(names, add, mul).verdict:
                forms.append(canonical_form(sl.FiniteSemiring(names=names, add=add, mul=mul)))
    return forms


def oracle_canonical_form(s):
    """The definition of the canonical form, independent of the production
    relabelling: the least encoding of both tables over every relabelled
    copy."""
    n = s.order

    def encode(t):
        return bytes([n]) + bytes(v for row in t.add + t.mul for v in row)

    return min(encode(s.relabel(p)) for p in permutations(range(n)))


def test_canonical_form_matches_definition(corpus_small, corpus_order5, corpus_order6):
    rng = random.Random(20261018)
    for s in corpus_small:
        perm = list(range(s.order))
        rng.shuffle(perm)
        copy = s.relabel(perm)
        assert canonical_form(copy) == oracle_canonical_form(copy) == canonical_form(s)
    for s in corpus_order5[:3] + corpus_order6[:2]:
        assert canonical_form(s) == oracle_canonical_form(s)


def test_canonical_form_at_the_extremes_of_aut_add():
    # a left-zero addition is fixed by every permutation, so all of them
    # compete on the multiplication; a chain's is fixed by none but the
    # identity. Orders 4-6 go through the memoized addition, 7 streams.
    for n in range(4, 8):
        names = tuple(f"e{i}" for i in range(n))
        left_zero = tuple(tuple(x for _ in range(n)) for x in range(n))
        # a chain with its top and bottom swapped: some relabelling is smaller
        swap = {0: n - 1, n - 1: 0}
        rank = [swap.get(x, x) for x in range(n)]
        chain = tuple(tuple(x if rank[x] >= rank[y] else y for y in range(n)) for x in range(n))
        meet = tuple(tuple(x if rank[x] <= rank[y] else y for y in range(n)) for x in range(n))
        for add, aut in ((left_zero, factorial(n)), (chain, 1)):
            s = sl.FiniteSemiring(names=names, add=add, mul=meet)
            assert sl.validate(s).verdict
            assert canonical_form(s) == oracle_canonical_form(s)
            if n <= SAMPLE_BOUND:
                assert len(_least_addition(s)[1]) == aut


def test_canonical_form_above_the_cached_orders():
    # relabellings are cached per order up to SAMPLE_BOUND and built as they
    # are consumed above it
    z7 = zn(7)
    assert z7.order > SAMPLE_BOUND
    _cached_relabellings.cache_clear()
    assert canonical_form(z7) == oracle_canonical_form(z7)
    assert _cached_relabellings.cache_info().currsize == 0
    canonical_form(zn(SAMPLE_BOUND))
    assert _cached_relabellings.cache_info().currsize == 1


def test_order4_canonical_set_is_pinned():
    # each representative is written in its canonical labelling, and the set
    # of forms is frozen
    forms = []
    for s in enumerate_semirings(4):
        form = canonical_form(s)
        assert form == bytes([4]) + bytes(v for row in s.add + s.mul for v in row)
        forms.append(form)
    assert hashlib.sha256(b"".join(forms)).hexdigest() == ORDER4_FORMS_SHA256


def test_members_equal_their_checked_construction(corpus_small, corpus_order4_all, corpus_order5):
    # the members are built unchecked from their canonical bytes; the checked
    # constructor, run on the same names and tables, accepts them unchanged
    for s in list(corpus_small) + list(corpus_order4_all) + list(corpus_order5):
        assert s == sl.FiniteSemiring(s.names, s.add, s.mul), sl.serialize_srt(s)
    # one table object per addition and one names tuple per order
    assert len({id(s.add) for s in corpus_order4_all}) == len({s.add for s in corpus_order4_all}) == 188
    assert len({id(s.names) for s in corpus_order4_all}) == 1


def test_members_share_every_equal_table_and_row(corpus_order4_all, corpus_order5):
    # one call decodes each distinct table, addition or multiplication, and
    # each distinct row once: equal values are one object
    def one_object_per_value(values):
        return len({id(v) for v in values}) == len(set(values))

    for members in (corpus_order4_all, corpus_order5):
        adds, muls = [s.add for s in members], [s.mul for s in members]
        rows = [row for table in adds + muls for row in table]
        assert one_object_per_value(adds + muls) and one_object_per_value(rows)
        for s in members:
            n = s.order
            form = bytes([n]) + bytes(v for row in s.add + s.mul for v in row)
            tables = [tuple(tuple(form[i:i + n]) for i in range(start, start + n * n, n))
                      for start in (1, 1 + n * n)]
            built = sl.FiniteSemiring(tuple(f"x{i}" for i in range(n)), *tables)
            assert sl.validate(built).verdict and s == built, sl.serialize_srt(s)
            assert canonical_form(s) == form, sl.serialize_srt(s)
    adds, muls = {s.add for s in corpus_order4_all}, {s.mul for s in corpus_order4_all}
    assert (len(adds), len(muls), len({row for table in adds | muls for row in table})) == (188, 1019, 111)


def test_counts_match_frozen_oracle():
    for n in ORACLE_LABELED:
        assert count_labeled_semirings(n) == ORACLE_LABELED[n]
        assert len(enumerate_semirings(n)) == ORACLE_CANONICAL[n]


def test_additions_are_the_semigroups_up_to_isomorphism():
    # one representative per orbit of the associative tables under
    # relabelling, and by orbit-stabilizer the orbits hold every labeled
    # associative table: the sum of n!/|Aut S| over the representatives
    for n, count in SEMIGROUP_CLASSES.items():
        reps = list(_semigroups(n))
        assert len(reps) == count
        if n <= FULL_ENUMERATION_BOUND:
            assert sum(1 for _ in _distributive_classes(n)) == count
        perms = list(permutations(range(n)))
        total = 0
        for add in reps:
            automorphisms = sum(
                all(add[p[i]][p[j]] == p[add[i][j]] for i in range(n) for j in range(n))
                for p in perms
            )
            total += factorial(n) // automorphisms
        assert total == LABELED_SEMIGROUPS[n]


def test_semigroup_fill_matches_brute_force_orbit_minima():
    # the lex-leader fill keeps exactly the least table of each orbit of the
    # scan of all n^(n*n) tables, in ascending order
    for n in (1, 2, 3):
        names = tuple(str(i) for i in range(n))
        tables = brute_force_associative_tables(n)
        assert len(tables) == LABELED_SEMIGROUPS[n]
        minima = [
            t for t in tables
            if all(t <= sl.FiniteSemiring(names, t, t).relabel(p).add
                   for p in permutations(range(n)))
        ]
        assert list(_semigroups(n)) == minima


def test_order2_counts_match_in_suite_oracle():
    forms = brute_force_forms(2)
    assert len(forms) == ORACLE_LABELED[2]
    assert len(set(forms)) == ORACLE_CANONICAL[2]


def test_order2_enumeration_is_isomorphism_complete():
    # every valid labeled pair canonicalizes onto an emitted representative
    emitted = {canonical_form(s) for s in enumerate_semirings(2)}
    assert set(brute_force_forms(2)) == emitted


def test_enumeration_matches_brute_force_definition():
    # every valid labeled pair canonicalizes onto an emitted representative,
    # and every representative comes from one
    for n in (1, 2, 3):
        forms = brute_force_forms(n)
        assert len(forms) == count_labeled_semirings(n) == ORACLE_LABELED[n]
        assert [canonical_form(s) for s in enumerate_semirings(n)] == sorted(set(forms))


def test_orbit_stabilizer_matches_labeled_count():
    # each representative S stands for n!/|Aut S| labeled semirings
    for n in (1, 2, 3, 4):
        perms = list(permutations(range(n)))
        total = 0
        for s in enumerate_semirings(n):
            automorphisms = sum(
                all(t[p[i]][p[j]] == p[t[i][j]] for t in (s.add, s.mul)
                    for i in range(n) for j in range(n))
                for p in perms
            )
            total += factorial(n) // automorphisms
        assert total == count_labeled_semirings(n)


def test_canonical_form_iso_invariance(qsr3):
    relabeled = qsr3.relabel((1, 2, 0))
    assert canonical_form(relabeled) == canonical_form(qsr3)


def test_canonical_form_separates(z2, boolean):
    assert canonical_form(z2) != canonical_form(boolean)


def test_canonical_form_one_element():
    one = sl.FiniteSemiring(names=("e",), add=((0,),), mul=((0,),))
    assert canonical_form(one) == bytes([1, 0, 0])


def test_canonical_form_bound():
    big = sl.FiniteSemiring(
        names=tuple(f"e{i}" for i in range(9)),
        add=tuple(tuple(0 for _ in range(9)) for _ in range(9)),
        mul=tuple(tuple(0 for _ in range(9)) for _ in range(9)),
    )
    with pytest.raises(BoundExceeded):
        canonical_form(big)


def test_quasi_skew_ring_filter_contains_qsr3(qsr3):
    reps = enumerate_semirings(3, filter_class="quasi-skew-ring")
    assert canonical_form(qsr3) in {canonical_form(s) for s in reps}


def test_enumeration_bound_and_class_errors():
    with pytest.raises(BoundExceeded):
        enumerate_semirings(FULL_ENUMERATION_BOUND + 1)
    with pytest.raises(BoundExceeded):
        sample_semirings(7, 1)
    with pytest.raises(UnknownClassName):
        enumerate_semirings(2, filter_class="not-a-class")


def test_sample_count_below_one_is_rejected():
    for n, count in ((3, 0), (5, 0), (3, -2)):
        with pytest.raises(OutOfRange, match=f"sample count must be at least 1, got {count}"):
            sample_semirings(n, count)


def test_empty_carrier_is_rejected():
    for n in (0, -1):
        with pytest.raises(DimensionMismatch, match="carrier must be nonempty"):
            enumerate_semirings(n)
        with pytest.raises(DimensionMismatch, match="carrier must be nonempty"):
            count_labeled_semirings(n)
        # a search over no orders must not report the implication as surviving
        with pytest.raises(DimensionMismatch, match="carrier must be nonempty"):
            find_counterexample(ImplicationQuery("skew-ring", "quasi-skew-ring", n))


def test_enumeration_deterministic():
    first = [manifest_line(s) for s in enumerate_semirings(3)]
    second = [manifest_line(s) for s in enumerate_semirings(3)]
    assert first == second
    forms = [canonical_form(s) for s in enumerate_semirings(3)]
    assert forms == sorted(forms)


def test_sampling_deterministic_and_valid():
    with warnings.catch_warnings():
        warnings.simplefilter("error", SampleShortfallWarning)
        a = sample_semirings(4, 30, seed=11)
    b = sample_semirings(4, 30, seed=11)
    assert [canonical_form(s) for s in a] == [canonical_form(s) for s in b]
    assert len(a) == 30
    for s in a:
        assert sl.validate(s).verdict
    # the seeded draws themselves are frozen: corpora and the CLI sample
    # output depend on them
    for (n, count, seed), digest in SAMPLE_DIGESTS.items():
        forms = b"".join(canonical_form(s) for s in sample_semirings(n, count, seed=seed))
        assert hashlib.sha256(forms).hexdigest() == digest


def test_sampling_shortfall_warns():
    # order 2 has only 20 semirings up to isomorphism
    with pytest.warns(SampleShortfallWarning) as record:
        got = sample_semirings(2, 50)
    assert len(got) == 20
    (w,) = record
    assert (w.message.requested, w.message.returned) == (50, 20)
    assert str(w.message) == "sampled 20 of 50 requested semirings of order 2: all 10000 attempts used"


def test_sampling_fixtures_have_no_shortfall(corpus_order4, corpus_order5, corpus_order6):
    # the fixtures sample with the shortfall warning raised as an error
    assert (len(corpus_order4), len(corpus_order5), len(corpus_order6)) == (500, 120, 40)


def test_classify_constant_on_iso_classes(corpus_small):
    for s in corpus_small[::23]:
        relabeled = s.relabel(tuple(reversed(range(s.order))))
        assert canonical_form(relabeled) == canonical_form(s)
        assert sl.classify(relabeled).verdicts.keys() == sl.classify(s).verdicts.keys()
        for key, v in sl.classify(s).verdicts.items():
            assert sl.classify(relabeled).verdicts[key].holds == v.holds


def test_counterexample_saqci_implies_qci():
    query = ImplicationQuery(
        premise="strongly-additively-quasi-completely-inverse",
        conclusion="quasi-completely-inverse",
        max_order=3,
    )
    assert find_counterexample(query) is None


def test_counterexample_quasi_skew_ring_not_skew_ring(qsr3):
    query = ImplicationQuery(premise="quasi-skew-ring", conclusion="skew-ring", max_order=3)
    witness = find_counterexample(query)
    assert witness is not None
    report = sl.classify(witness)
    assert report.holds("quasi-skew-ring") and not report.holds("skew-ring")
    # the smallest witnesses appear at order 2; the canonical 3-element example
    # is an order-3 member of the same sweep
    assert witness.order == 2
    sweep = enumerate_semirings(3, filter_class="quasi-skew-ring")
    assert canonical_form(qsr3) in {
        canonical_form(s) for s in sweep if not sl.classify(s).holds("skew-ring")
    }


def test_counterexample_qcr_not_qci():
    query = ImplicationQuery(
        premise="quasi-completely-regular",
        conclusion="quasi-completely-inverse",
        max_order=4,
    )
    witness = find_counterexample(query)
    assert witness is not None and witness.order == 2


def test_counterexample_reflexive_smoke():
    from semiringlab.classify import CLASS_KEYS

    for key in CLASS_KEYS:
        assert find_counterexample(ImplicationQuery(key, key, 2)) is None


def test_counterexample_unknown_class():
    with pytest.raises(UnknownClassName):
        find_counterexample(ImplicationQuery("nope", "skew-ring", 2))


def test_write_corpus_files_reparse_and_revalidate(tmp_path):
    reps = enumerate_semirings(2)
    manifest = write_corpus(reps, tmp_path)
    lines = manifest.strip().splitlines()
    assert len(lines) == len(reps)
    for s, line in zip(reps, lines):
        digest, order, flags = line.split(" ", 2)
        assert digest == canonical_hash(s)
        assert int(order) == 2
        loaded = sl.load_srt(tmp_path / f"{digest}.srt")
        assert sl.validate(loaded).verdict
        assert canonical_form(loaded) == canonical_form(s)
