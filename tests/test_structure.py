from collections import Counter
from itertools import combinations

import pytest

import semiringlab as sl
from semiringlab.errors import (
    EmptySubset,
    NotBiIdeal,
    OutOfRange,
    NotQuasiCompletelyRegular,
    NotQuasiSkewRing,
    PreconditionFailed,
)
from semiringlab.kernel import FiniteSemiring
from semiringlab.structure import (
    is_strongly_additively_quasi_completely_inverse,
    sub_skew_ring_conditions_by_idempotent,
)

from conftest import additive_h_class, direct_product, zn


def idx(s, *names):
    return frozenset(s.index(name) for name in names)


def test_ideal_predicates(qsr3, boolean):
    zero = idx(qsr3, "0")
    assert sl.is_bi_ideal(qsr3, zero)
    assert sl.is_ideal(qsr3, zero)
    # 0 is absorbing, so 0+x lands in {0} for every x: not a k-ideal
    assert not sl.is_k_ideal(qsr3, zero)
    whole = frozenset(qsr3.elements())
    assert sl.is_ideal(qsr3, whole) and sl.is_k_ideal(qsr3, whole) and sl.is_bi_ideal(qsr3, whole)
    assert not sl.is_k_ideal(boolean, idx(boolean, "1"))
    with pytest.raises(EmptySubset):
        sl.is_ideal(qsr3, frozenset())
    # a bad element is out of range, as at every other index check
    with pytest.raises(OutOfRange):
        sl.is_ideal(qsr3, {0, 7})
    with pytest.raises(OutOfRange):
        sl.is_ideal(qsr3, ["a"])
    # a bool is an int to isinstance, but no element index
    with pytest.raises(OutOfRange):
        sl.is_ideal(qsr3, [True])


def test_quasi_skew_ring_check(qsr3, z2, boolean):
    report = sl.quasi_skew_ring_check(qsr3)
    assert report.unique_additive_idempotent
    assert report.skew_ring_absorbs_multiples
    assert report.nil_extension_of_skew_ring
    assert report.kernel == idx(qsr3, "0")

    report = sl.quasi_skew_ring_check(z2)
    assert report.verdict and report.kernel == frozenset({0, 1})

    report = sl.quasi_skew_ring_check(boolean)
    assert not (report.unique_additive_idempotent or report.skew_ring_absorbs_multiples
                or report.nil_extension_of_skew_ring)
    assert report.kernel is None


def test_skew_ring_kernel(qsr3, z2, boolean, composed_gc):
    assert sl.skew_ring_kernel(qsr3) == idx(qsr3, "0")
    assert sl.skew_ring_kernel(z2) == frozenset({0, 1})
    with pytest.raises(NotQuasiSkewRing):
        sl.skew_ring_kernel(boolean)
    d = sl.decompose(composed_gc)
    top = max(range(d.y_order), key=lambda a: len(d.classes[a]))
    t = composed_gc.restrict(d.classes[top])
    assert sl.skew_ring_kernel(t) == frozenset(t.elements())


def test_is_nil_extension(qsr3):
    assert sl.is_nil_extension(qsr3, idx(qsr3, "0"))
    assert sl.is_nil_extension(qsr3, frozenset(qsr3.elements()))
    with pytest.raises(NotBiIdeal):
        sl.is_nil_extension(qsr3, idx(qsr3, "a"))


def test_decompose_qsr3(qsr3):
    d = sl.decompose(qsr3)
    assert d.y_order == 1
    assert d.classes == (frozenset(qsr3.elements()),)
    assert d.kernels == (idx(qsr3, "0"),)
    assert qsr3.names[d.idempotents[0]] == "0"
    assert d.nil_parts[0].names == ("a", "b")
    assert d.quotient_is_b_lattice()


def test_decompose_b_lattice(boolean):
    d = sl.decompose(boolean)
    assert d.y_order == 2
    assert all(len(c) == 1 for c in d.classes)
    from semiringlab.enumeration import canonical_form

    assert canonical_form(d.blattice) == canonical_form(boolean)


def test_decompose_composed_gc(composed_gc):
    d = sl.decompose(composed_gc)
    assert d.y_order == 2
    sizes = sorted(len(c) for c in d.classes)
    assert sizes == [1, 2]
    assert all(d.kernels[a] == d.classes[a] for a in range(2))
    assert all(not d.nil_indices(a) for a in range(2))


def test_decompose_rejects_non_qcr(min_const):
    with pytest.raises(NotQuasiCompletelyRegular):
        sl.decompose(min_const)


def test_decompose_membership_compatibility(corpus_small):
    for s in corpus_small[::6]:
        try:
            d = sl.decompose(s)
        except NotQuasiCompletelyRegular:
            continue
        y = d.blattice
        for a in s.elements():
            for b in s.elements():
                alpha, beta = d.hstar.block_of[a], d.hstar.block_of[b]
                assert d.hstar.block_of[s.add[a][b]] == y.add[alpha][beta]
                assert d.hstar.block_of[s.mul[a][b]] == y.mul[alpha][beta]
        for alpha in range(d.y_order):
            t = d.class_semiring(alpha)
            # built on request, equal to the restriction to the class
            assert t == s.restrict(d.classes[alpha])
            assert sl.is_nil_extension(t, sl.skew_ring_kernel(t))
        assert frozenset().union(*d.kernels) == sl.reg_plus(s)


def test_psi_qsr3(qsr3):
    d = sl.decompose(qsr3)
    p = sl.psi(qsr3, d)
    assert [qsr3.names[p(a)] for a in qsr3.elements()] == ["0", "0", "0"]


def test_psi_identity_on_skew_ring(z2):
    d = sl.decompose(z2)
    p = sl.psi(z2, d)
    assert all(p(a) == a for a in z2.elements())


def test_psi_identity_on_composed_gc(composed_gc):
    d = sl.decompose(composed_gc)
    p = sl.psi(composed_gc, d)
    assert all(p(a) == a for a in composed_gc.elements())


def test_psi_requires_commuting_idempotents(left_zero):
    d = sl.decompose(left_zero)
    with pytest.raises(PreconditionFailed) as err:
        sl.psi(left_zero, d)
    assert "0" in str(err.value) and "1" in str(err.value)


def test_psi_is_idempotent_map(corpus_small):
    for s in corpus_small[::6]:
        if not is_strongly_additively_quasi_completely_inverse(s):
            continue
        d = sl.decompose(s)
        p = sl.psi(s, d)
        assert all(p(p(a)) == p(a) for a in s.elements())
        assert frozenset(p(a) for a in s.elements()) <= sl.reg_plus(s)


def test_a_decomposition_holds_psi_when_the_idempotents_commute(corpus_small):
    """decompose computes a |-> a + e_alpha once, exactly when the additive
    idempotents commute, and psi hands out those images; a class that is
    its own kernel has the one empty nil part."""
    held, empty = Counter(), set()
    for s in corpus_small:
        if not sl.classify(s).holds("quasi-completely-regular"):
            continue
        d = sl.decompose(s)
        for nil, cls, kernel in zip(d.nil_parts, d.classes, d.kernels):
            assert (nil.order == 0) == (cls == kernel)
            if cls == kernel:
                empty.add(id(nil))
        held[d.psi_images is not None] += 1
        if not is_strongly_additively_quasi_completely_inverse(s):
            assert d.psi_images is None
            with pytest.raises(PreconditionFailed, match="do not commute"):
                sl.psi(s, d)
            continue
        assert d.psi_images == tuple(s.add[a][d.idempotents[d.hstar.block_of[a]]] for a in s.elements())
        assert sl.psi(s, d).images is d.psi_images
    assert min(held.values()) > 10
    assert len(empty) == 1


def test_psi_tilde_qsr3(qsr3):
    d = sl.decompose(qsr3)
    fibers = sl.psi_tilde(qsr3, d)
    assert fibers.num_blocks == 1


def test_psi_tilde_identity_iff_completely_regular(corpus_small, composed_gc):
    d = sl.decompose(composed_gc)
    assert sl.psi_tilde(composed_gc, d).num_blocks == composed_gc.order
    for s in corpus_small[::6]:
        if not is_strongly_additively_quasi_completely_inverse(s):
            continue
        d = sl.decompose(s)
        fibers = sl.psi_tilde(s, d)
        completely_regular = sl.classify(s).holds("completely-regular")
        assert (fibers.num_blocks == s.order) == completely_regular


def test_check_psi_homomorphism(qsr3, z2, min_const):
    assert sl.check_psi_homomorphism(qsr3, sl.decompose(qsr3))
    assert sl.check_psi_homomorphism(z2, sl.decompose(z2))
    with pytest.raises(PreconditionFailed):
        sl.check_psi_homomorphism(min_const, sl.decompose(qsr3))


def test_psi_rejects_a_decomposition_of_another_order():
    z3, d = zn(3), sl.decompose(zn(6))
    for call in (sl.psi, sl.psi_tilde, sl.check_psi_homomorphism):
        with pytest.raises(PreconditionFailed, match="does not belong"):
            call(z3, d)


def test_psi_rejects_a_decomposition_of_a_relabelled_copy():
    z4, d = zn(4), sl.decompose(zn(4).relabel((1, 0, 2, 3)))
    for call in (sl.psi, sl.psi_tilde, sl.check_psi_homomorphism):
        with pytest.raises(PreconditionFailed, match="does not belong"):
            call(z4, d)
    assert sl.check_psi_homomorphism(z4, sl.decompose(z4))


def test_is_nil_extension_matches_naive_multiple_search(corpus_small):
    from itertools import combinations

    def oracle(s, ideal):
        # fold multiples directly; 2n additions suffice on an n-set
        for a in s.elements():
            value = a
            hit = value in ideal
            for _ in range(2 * s.order):
                value = s.add[value][a]
                hit = hit or value in ideal
            if not hit:
                return False
        return True

    checked = 0
    for s in corpus_small[::9]:
        universe = list(s.elements())
        for size in range(1, s.order + 1):
            for subset in combinations(universe, size):
                ideal = frozenset(subset)
                if sl.is_bi_ideal(s, ideal):
                    assert sl.is_nil_extension(s, ideal) == oracle(s, ideal)
                    checked += 1
    assert checked > 30


def subset_search_at(s, e):
    """Brute force: every subset of the H+-class of e that contains e and is
    closed under both operations."""
    rest = sorted(additive_h_class(s, e) - {e})
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            cand = frozenset({e, *extra})
            if s.is_closed(cand):
                yield cand


def multiples(s, a):
    """{a, 2a, 3a, ...}, folded directly; n additions reach every multiple."""
    seen = {a}
    value = a
    for _ in range(s.order):
        value = s.add[value][a]
        seen.add(value)
    return seen


def closure(s, subset):
    """The least superset of `subset` closed under both operations: the
    carrier of the subsemiring it generates."""
    closed = set(subset)
    frontier = list(closed)
    while frontier:
        a = frontier.pop()
        for b in tuple(closed):
            for v in (s.add[a][b], s.add[b][a], s.mul[a][b], s.mul[b][a]):
                if v not in closed:
                    closed.add(v)
                    frontier.append(v)
    return frozenset(closed)


def sub_skew_ring_conditions(s):
    """(absorbing, nil_ext): conditions (ii) and (iii) of a quasi skew-ring,
    each holding at some additive idempotent."""
    at = sub_skew_ring_conditions_by_idempotent(s).values()
    return any(ii for ii, _ in at), any(iii for _, iii in at)


def test_sub_skew_ring_conditions_match_subset_search(
    corpus, corpus_order5, corpus_order6
):
    members = list(corpus) + list(corpus_order5) + list(corpus_order6)
    for s in list(members):
        for block in sl.green_star_plus(s, "H").blocks():
            if s.is_closed(block):
                members.append(s.restrict(block))  # the blocks QCR5 restricts to
    members += [zn(n) for n in range(1, 15)]
    members += [direct_product(zn(a), zn(b)) for a, b in ((2, 2), (2, 3), (2, 4), (3, 3))]
    checked = 0
    for s in members:
        windows = [multiples(s, a) for a in s.elements()]
        at = sub_skew_ring_conditions_by_idempotent(s)
        assert sorted(at) == sorted(sl.additive_idempotents(s))
        any_ii = any_iii = False
        for e in sorted(sl.additive_idempotents(s)):
            candidates = list(subset_search_at(s, e))
            absorbing = [c for c in candidates if all(w & c for w in windows)]
            ii = bool(absorbing)
            iii = any(sl.is_bi_ideal(s, c) for c in absorbing)
            # the ee = e lemma: the closure of {e} lies in H_e iff ee = e iff
            # some sub-skew-ring at e exists, and then the closure is {e}
            least = closure(s, {e})
            exists = least <= additive_h_class(s, e)
            assert exists == (s.mul[e][e] == e) == bool(candidates), sl.serialize_srt(s)
            assert not exists or least == {e}, sl.serialize_srt(s)
            assert at[e] == (ii, iii), sl.serialize_srt(s)
            any_ii, any_iii = any_ii or ii, any_iii or iii
            checked += 1
        assert sub_skew_ring_conditions(s) == (any_ii, any_iii)
    assert checked > 3000


def test_sub_skew_ring_work_is_linear_in_idempotents(monkeypatch):
    calls = 0
    is_closed = FiniteSemiring.is_closed

    def counting(self, subset):
        nonlocal calls
        calls += 1
        return is_closed(self, subset)

    monkeypatch.setattr(FiniteSemiring, "is_closed", counting)
    for s, analysis in ((zn(20), sl.classify), (direct_product(zn(2), zn(9)), sl.decompose)):
        calls = 0
        analysis(s)
        # the subset search made 2^19 = 524288 calls on Z_20
        assert calls <= 4 * len(sl.additive_idempotents(s)) + 4, (analysis.__name__, calls)


def test_decompose_scans_each_class_for_closure_once(boolean, monkeypatch):
    calls = 0
    is_closed = FiniteSemiring.is_closed

    def counting(self, subset):
        nonlocal calls
        calls += 1
        return is_closed(self, subset)

    monkeypatch.setattr(FiniteSemiring, "is_closed", counting)
    # one class, the whole carrier, which is closed and its own skew-ring
    # kernel: no scan
    sl.decompose(direct_product(zn(2), zn(9)))
    assert calls == 0
    # two classes, each its own kernel: one scan each
    sl.decompose(boolean)
    assert calls == 2
    with pytest.raises(ValueError, match="not closed"):
        zn(4).restrict({1})


def test_a_quasi_skew_ring_check_block_must_be_nonempty(qsr3):
    for block in (frozenset(), [], ()):
        with pytest.raises(EmptySubset):
            sl.quasi_skew_ring_check(qsr3, block)


def test_a_quasi_skew_ring_check_block_holds_elements_only(qsr3):
    # -1 would read the last element, 3 is past it
    for block in (frozenset({-1}), {0, 3}, [True]):
        with pytest.raises(OutOfRange):
            sl.quasi_skew_ring_check(qsr3, block)


def test_a_quasi_skew_ring_check_block_must_be_closed(corpus_small):
    raised = 0
    for s in corpus_small:
        for size in range(1, s.order):
            for block in combinations(s.elements(), size):
                if s.is_closed(block):
                    assert sl.quasi_skew_ring_check(s, block) == sl.quasi_skew_ring_check(s, frozenset(block))
                    continue
                with pytest.raises(PreconditionFailed, match="is not closed under both operations"):
                    sl.quasi_skew_ring_check(s, block)
                raised += 1
    assert raised > 200


def test_a_quasi_skew_ring_check_block_may_be_any_iterable(qsr3):
    kernel = idx(qsr3, "0")
    expected = sl.quasi_skew_ring_check(qsr3, kernel)
    assert expected.verdict and expected.kernel == kernel
    for block in (list(kernel), tuple(kernel), iter(kernel), {qsr3.index("0"): None}):
        assert sl.quasi_skew_ring_check(qsr3, block) == expected

