from itertools import product

import pytest

import semiringlab as sl
from semiringlab.errors import BoundExceeded, DimensionMismatch, NotBiIdeal, NotCongruence
from semiringlab.classify import _least_b_lattice_congruence, _least_idempotent_congruence
from semiringlab.relations import (
    Partition,
    congruences_above,
    generated_congruence,
    is_semiring_congruence_partition,
)
from semiringlab.elements import is_quasi_completely_regular_semiring, least_regular_multiples
from semiringlab.structure import is_strongly_additively_quasi_completely_inverse

from conftest import set_partitions, universal_partition


def blocks_by_name(s, partition):
    return sorted(sorted(s.names[i] for i in b) for b in partition.blocks())


def test_green_plus_examples(z2, boolean, qsr3):
    assert sl.green_plus(z2, "H").num_blocks == 1
    assert blocks_by_name(boolean, sl.green_plus(boolean, "H")) == [["0"], ["1"]]
    assert blocks_by_name(qsr3, sl.green_plus(qsr3, "H")) == [["0"], ["a"], ["b"]]


def test_green_star_plus_examples(qsr3, z2):
    assert blocks_by_name(qsr3, sl.green_star_plus(qsr3, "H")) == [["0", "a", "b"]]
    assert sl.green_star_plus(z2, "J").num_blocks == 1


def test_starred_equals_plain_when_all_regular(corpus_small):
    checked = 0
    for s in corpus_small:
        if sl.reg_plus(s) == frozenset(s.elements()):
            for kind in "LRHDJ":
                assert sl.green_star_plus(s, kind) == sl.green_plus(s, kind)
            checked += 1
    assert checked > 10


def test_refinement_chains(corpus_small):
    for s in corpus_small[::3]:
        for rel in (sl.green_plus, sl.green_star_plus):
            l, r = rel(s, "L"), rel(s, "R")
            h, d, j = rel(s, "H"), rel(s, "D"), rel(s, "J")
            assert h.refines(l) and h.refines(r)
            assert l.refines(d) and r.refines(d)
            assert d.refines(j)


def _join(p, q):
    """The finest partition refined by both p and q."""
    parent = list(range(p.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (p, q):
        for block in part.blocks():
            block = sorted(block)
            for other in block[1:]:
                parent[find(other)] = find(block[0])
    return Partition([find(x) for x in range(p.n)])


def test_d_is_join_of_l_and_r(corpus):
    # green_star_plus pulls every kind back through least regular multiples;
    # these are the definitions of starred H and D as meet and join
    for s in corpus:
        for green in (sl.green_plus, sl.green_star_plus):
            l, r = green(s, "L"), green(s, "R")
            assert green(s, "D") == _join(l, r), (green.__name__, s)
            assert green(s, "H") == Partition(zip(l.block_of, r.block_of)), (
                green.__name__, s)


def j_oracle(s):
    """Plain J of (S, +) by brute force: a ~ b iff S¹ + a + S¹ = S¹ + b + S¹,
    the principal two-sided ideals with a formal identity adjoined."""
    add = s.add
    n = s.order
    ideals = []
    for x in range(n):
        ideal = {x}
        ideal.update(add[t][x] for t in range(n))
        ideal.update(add[x][t] for t in range(n))
        ideal.update(add[add[t][x]][u] for t in range(n) for u in range(n))
        ideals.append(frozenset(ideal))
    return Partition(ideals)


def test_d_and_j_match_the_two_sided_ideal_oracle(corpus_small, corpus_order4_all, corpus_order5, corpus_order6):
    # D = J on a finite semigroup, and the starred kinds pull both back
    # through least regular multiples
    for s in corpus_small + corpus_order4_all + corpus_order5 + corpus_order6:
        j = j_oracle(s)
        jstar = Partition(j.block_of[v] for _, v in least_regular_multiples(s))
        for kind in "DJ":
            assert sl.green_plus(s, kind) == j, (kind, sl.serialize_srt(s))
            assert sl.green_star_plus(s, kind) == jstar, (kind, sl.serialize_srt(s))


def _composite(p, q):
    """p o q as a set of pairs: a ~ b iff a p c and c q b for some c."""
    n = p.n
    return {(a, b) for a in range(n) for b in range(n) if any(p.same(a, c) and q.same(c, b) for c in range(n))}


def test_l_and_r_commute_to_d(corpus, corpus_order5, corpus_order6):
    # L o R = R o L on every semigroup, so the composite is an equivalence,
    # and it is the D that green_plus reads off the egg-box
    for s in corpus + corpus_order5 + corpus_order6:
        l, r, d = (sl.green_plus(s, kind) for kind in "LRD")
        pairs = {(a, b) for a in s.elements() for b in s.elements() if d.same(a, b)}
        assert _composite(l, r) == _composite(r, l) == pairs, sl.serialize_srt(s)


def congruence_oracle(s):
    """Brute-force filter over all set partitions, no cleverness."""
    n = s.order
    found = []
    for assignment in product(range(n), repeat=n):
        p = Partition(assignment)
        if p in found:
            continue
        ok = True
        for a in range(n):
            for a2 in range(n):
                if p.block_of[a] != p.block_of[a2]:
                    continue
                for b in range(n):
                    if (
                        p.block_of[s.add[a][b]] != p.block_of[s.add[a2][b]]
                        or p.block_of[s.add[b][a]] != p.block_of[s.add[b][a2]]
                        or p.block_of[s.mul[a][b]] != p.block_of[s.mul[a2][b]]
                        or p.block_of[s.mul[b][a]] != p.block_of[s.mul[b][a2]]
                    ):
                        ok = False
        if ok:
            found.append(p)
    return found


def test_enumerate_congruences_qsr3_matches_oracle(qsr3):
    congs = sl.enumerate_congruences(qsr3)
    assert len(congs) == 3  # frozen from the pre-build oracle
    assert sorted(c.partition.block_of for c in congs) == sorted(
        p.block_of for p in congruence_oracle(qsr3)
    )
    assert blocks_by_name(qsr3, congs[1].partition) == [["0", "b"], ["a"]]


def test_identity_and_universal_always_present(corpus_small):
    for s in corpus_small[::17]:
        congs = sl.enumerate_congruences(s)
        partitions = [c.partition for c in congs]
        assert Partition.identity(s.order) in partitions
        assert universal_partition(s.order) in partitions
        assert partitions[0] == Partition.identity(s.order)
        assert partitions[-1] == universal_partition(s.order)


def test_set_partitions_run_finest_first():
    for n, bell in enumerate((1, 1, 2, 5, 15, 52, 203)):
        got = [p.block_of for p in set_partitions(n)]
        assert len(set(got)) == len(got) == bell
        assert got == sorted(got, reverse=True)
        assert got[0] == tuple(range(n)) and got[-1] == (0,) * n


def test_congruences_above_match_the_bell_scan(corpus_small, corpus_order5, corpus_order6):
    """Above the identity, iota and beta, the engine yields exactly the
    congruences of the set partition scan that contain its start, the start
    first and each once; enumerate_congruences sorts the first of them."""
    for s in corpus_small + corpus_order5 + corpus_order6:
        scan = [p for p in set_partitions(s.order) if is_semiring_congruence_partition(s, p)]
        for theta in (
            Partition.identity(s.order),
            _least_idempotent_congruence(s),
            _least_b_lattice_congruence(s),
        ):
            got = list(congruences_above(s, theta))
            assert got[0] == theta, sl.serialize_srt(s)
            assert len(set(got)) == len(got), sl.serialize_srt(s)
            assert set(got) == {p for p in scan if theta.refines(p)}, sl.serialize_srt(s)
        finest_first = sorted(scan, key=lambda p: (s.order - p.num_blocks, p.block_of))
        assert [c.partition for c in sl.enumerate_congruences(s)] == finest_first


def test_generated_congruence_is_the_least_containing_the_pairs(corpus_small):
    checked = 0
    for s in corpus_small[::3]:
        congruences = [c.partition for c in sl.enumerate_congruences(s)]
        for a, b, c, d in product(s.elements(), repeat=4):
            if (a, b) > (c, d):
                continue
            containing = [p for p in congruences if p.same(a, b) and p.same(c, d)]
            least = generated_congruence(s, [(a, b), (c, d)])
            assert least in containing, sl.serialize_srt(s)
            assert all(least.refines(p) for p in containing), sl.serialize_srt(s)
            checked += 1
    assert generated_congruence(s, []) == Partition.identity(s.order)
    assert checked > 1000


def test_one_element_has_exactly_one_congruence():
    one = sl.FiniteSemiring(names=("e",), add=((0,),), mul=((0,),))
    assert len(sl.enumerate_congruences(one)) == 1


def test_congruence_bound():
    constant = tuple(tuple(0 for _ in range(7)) for _ in range(7))
    left_zero = tuple(tuple(a for _ in range(7)) for a in range(7))
    for table in (constant, left_zero):
        s = sl.FiniteSemiring(names=tuple("abcdefg"), add=table, mul=table)
        with pytest.raises(BoundExceeded):
            sl.enumerate_congruences(s)
        # every partition is a congruence of both: Bell(7)
        assert len(sl.enumerate_congruences(s, bound=7)) == 877


def test_is_idempotent_separating(qsr3, boolean):
    eps = sl.Congruence(Partition.identity(3))
    assert sl.is_idempotent_separating(qsr3, eps)
    omega_bool = sl.Congruence(universal_partition(2))
    assert not sl.is_idempotent_separating(boolean, omega_bool)
    omega_qsr3 = sl.Congruence(universal_partition(3))
    assert sl.is_idempotent_separating(qsr3, omega_qsr3)


def test_rees_congruence(qsr3):
    zero = qsr3.index("0")
    c = sl.rees_congruence(qsr3, {zero})
    assert c.partition == Partition.identity(3)
    c = sl.rees_congruence(qsr3, {qsr3.index("b"), zero})
    assert blocks_by_name(qsr3, c.partition) == [["0", "b"], ["a"]]
    c = sl.rees_congruence(qsr3, set(qsr3.elements()))
    assert c.partition == universal_partition(3)
    with pytest.raises(NotBiIdeal):
        sl.rees_congruence(qsr3, {qsr3.index("a")})


def test_quotient(qsr3):
    c = sl.rees_congruence(qsr3, {qsr3.index("b"), qsr3.index("0")})
    q = sl.quotient(qsr3, c)
    assert q.order == 2
    assert q.names == ("a", "b|0")
    assert sl.validate(q).verdict
    eps = sl.Congruence(Partition.identity(3))
    assert sl.quotient(qsr3, eps).order == 3
    omega = sl.Congruence(universal_partition(3))
    assert sl.quotient(qsr3, omega).order == 1
    bad = sl.Congruence(Partition((0, 0, 1)))
    with pytest.raises(NotCongruence):
        sl.quotient(qsr3, bad)


def test_quotient_rejects_a_partition_of_another_carrier(qsr3):
    for block_of in ((0, 0), (0, 1, 2, 3)):
        with pytest.raises(DimensionMismatch):
            sl.quotient(qsr3, sl.Congruence(Partition(block_of)))


def test_idempotent_separation_rejects_a_partition_of_another_carrier(qsr3):
    # (0, 0) once answered False, though it partitions two elements of three
    for block_of in ((0, 0), (0, 1, 2, 3)):
        with pytest.raises(DimensionMismatch):
            sl.is_idempotent_separating(qsr3, sl.Congruence(Partition(block_of)))


def test_quotient_reads_any_block_ids(qsr3, boolean):
    # (0, 2, 2) once died in min() over the empty block 1
    dense = sl.quotient(qsr3, sl.rees_congruence(qsr3, {qsr3.index("b"), qsr3.index("0")}))
    sparse = sl.quotient(qsr3, sl.Congruence(Partition((0, 2, 2))))
    assert (sparse.names, sparse.add, sparse.mul) == (dense.names, dense.add, dense.mul)
    assert sl.is_idempotent_separating(boolean, sl.Congruence(Partition((4, 1))))
    assert not sl.is_idempotent_separating(boolean, sl.Congruence(Partition((3, 3))))


def test_partitions_with_the_same_blocks_are_equal():
    # (0, 2, 2) once kept its ids, so it differed from (0, 1, 1)
    assert Partition((0, 2, 2)) == Partition((0, 1, 1))
    assert hash(Partition(("x", "y", "y"))) == hash(Partition((0, 1, 1)))
    assert Partition((0, 2, 2)).block_of == (0, 1, 1)


def test_partition_blocks_are_its_classes():
    # (0, 2, 2) once had an empty block 1 and three blocks
    p = Partition((0, 2, 2))
    assert p.num_blocks == 2
    assert p.blocks() == (frozenset({0}), frozenset({1, 2}))


def test_a_congruence_with_any_block_ids_is_enumerated(qsr3):
    # qsr3 = {a, b, 0}: {a} | {b, 0} is a congruence
    assert is_semiring_congruence_partition(qsr3, Partition((0, 2, 2)))
    assert sl.Congruence(Partition((0, 2, 2))) in sl.enumerate_congruences(qsr3)


def test_congruence_partition_check_rejects_another_carrier(qsr3):
    # (0, 0, 0, 0) was once a congruence of 3 elements; (0, 0) an IndexError
    for block_of in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(DimensionMismatch):
            is_semiring_congruence_partition(qsr3, Partition(block_of))


def test_quotient_block_names_stay_distinct():
    # the 3-chain with max for both operations; joining {a, b} gives the
    # name of the third element
    chain = tuple(tuple(max(i, j) for j in range(3)) for i in range(3))
    s = sl.FiniteSemiring(names=("a", "b", "a|b"), add=chain, mul=chain)
    c = sl.Congruence(Partition((0, 0, 1)))
    assert c in sl.enumerate_congruences(s)
    q = sl.quotient(s, c)
    assert q.names == ("a|b", "a|b'")
    assert sl.validate(q).verdict


def test_hstar_congruence_for_qci_members(corpus_small):
    """H*+ equals J*+ exactly on the quasi completely inverse members, and is
    a congruence there; the quotient is a b-lattice."""
    findings = []
    checked = 0
    for s in corpus_small:
        qci = sl.classify(s).holds("quasi-completely-inverse")
        if not qci:
            continue
        checked += 1
        hstar = sl.green_star_plus(s, "H")
        assert hstar == sl.green_star_plus(s, "J")
        if not is_semiring_congruence_partition(s, hstar):
            findings.append(s)
            continue
        q = sl.quotient(s, sl.Congruence(hstar))
        assert sl.is_b_lattice(q)
    assert checked > 10
    # the qsr3 claims the congruence property for quasi completely inverse
    # semirings; a nonempty findings list is reported, not asserted away
    assert findings == [], f"H*+ not a congruence on QCI members: {findings}"


def test_hstar_greatest_idempotent_separating_saqci(corpus_small):
    for s in corpus_small:
        if not is_strongly_additively_quasi_completely_inverse(s):
            continue
        hstar = sl.green_star_plus(s, "H")
        assert is_semiring_congruence_partition(s, hstar)
        hcong = sl.Congruence(hstar)
        assert sl.is_idempotent_separating(s, hcong)
        for c in sl.enumerate_congruences(s):
            if sl.is_idempotent_separating(s, c):
                assert c.partition.refines(hstar)


def test_quotient_by_hstar_is_b_lattice_for_qci(corpus_small, qsr3):
    d = sl.decompose(qsr3)
    assert d.blattice.order == 1
    for s in corpus_small[::4]:
        if not sl.classify(s).holds("quasi-completely-inverse"):
            continue
        if not is_quasi_completely_regular_semiring(s):
            continue
        assert sl.decompose(s).quotient_is_b_lattice()


def test_hstar_greatest_extends_to_order_six(corpus_order5, corpus_order6):
    from semiringlab.structure import is_strongly_additively_quasi_completely_inverse

    checked = 0
    for s in corpus_order5 + corpus_order6:
        if not is_strongly_additively_quasi_completely_inverse(s):
            continue
        checked += 1
        hstar = sl.green_star_plus(s, "H")
        assert is_semiring_congruence_partition(s, hstar)
        assert sl.is_idempotent_separating(s, sl.Congruence(hstar))
        for c in sl.enumerate_congruences(s, bound=6):
            if sl.is_idempotent_separating(s, c):
                assert c.partition.refines(hstar)
    assert checked >= 5


def test_hstar_congruence_status_on_qcr_members(corpus):
    """The congruence property is only claimed for quasi completely inverse
    semirings; for merely quasi completely regular ones it is surveyed and
    any exception is surfaced as a finding, not a failure."""
    import warnings

    from semiringlab.errors import TheoremViolationWarning

    findings = []
    surveyed = 0
    for s in corpus:
        if not is_quasi_completely_regular_semiring(s):
            continue
        surveyed += 1
        if not is_semiring_congruence_partition(s, sl.green_star_plus(s, "H")):
            findings.append(s)
    if findings:
        warnings.warn(
            TheoremViolationWarning(
                f"H*+ fails to be a semiring congruence on {len(findings)} "
                f"quasi completely regular members",
                payload={"semirings": findings},
            )
        )
    assert surveyed > 100
