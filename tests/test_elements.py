import pytest

import semiringlab as sl
from semiringlab.elements import (
    commuting_witnesses,
    complete_regularity,
    is_completely_regular,
    is_quasi_completely_regular_semiring,
    least_regular_multiples,
)
from semiringlab.errors import MalformedWitness, NotQuasiCompletelyRegular, OutOfRange
from semiringlab.kernel import ADD, FiniteSemiring, check_element, inverses, orbit, orbits

from conftest import additive_h_class, is_additively_regular


def commuting_witness(s, a):
    """The commuting witness of a, off the vector of all of them."""
    check_element(s, a)
    return commuting_witnesses(s)[a]


def least_regular_multiple(s, a):
    """(p, pa) of a, off the vector of all elements."""
    check_element(s, a)
    return least_regular_multiples(s)[a]


def names(s, subset):
    return sorted(s.names[i] for i in subset)


def test_additive_idempotents(qsr3, boolean, z2):
    assert names(qsr3, sl.additive_idempotents(qsr3)) == ["0"]
    assert names(boolean, sl.additive_idempotents(boolean)) == ["0", "1"]
    assert names(z2, sl.additive_idempotents(z2)) == ["0"]


def test_additive_inverses(qsr3, z2):
    zero = qsr3.index("0")
    assert names(qsr3, sl.additive_inverses(qsr3, zero).inverses) == ["0"]
    assert sl.additive_inverses(qsr3, qsr3.index("a")).inverses == frozenset()
    assert names(z2, sl.additive_inverses(z2, 1).inverses) == ["1"]


def test_classify_element_qsr3(qsr3):
    c = sl.classify_element(qsr3, qsr3.index("a"))
    assert not c.additively_regular
    assert not c.additively_completely_regular
    assert not c.completely_regular
    assert c.additively_quasi_regular_index == 3
    assert c.quasi_completely_regular_index == 3
    assert qsr3.names[c.witness] == "0"


def test_classify_element_z2(z2):
    c = sl.classify_element(z2, 1)
    assert c.completely_regular
    assert c.quasi_completely_regular_index == 1
    assert z2.names[c.witness] == "1"


def test_classify_element_boolean(boolean):
    c = sl.classify_element(boolean, 1)
    assert c.completely_regular and c.witness == 1


def test_reg_plus(qsr3, z2, boolean):
    assert names(qsr3, sl.reg_plus(qsr3)) == ["0"]
    assert sl.reg_plus(z2) == frozenset({0, 1})
    assert sl.reg_plus(boolean) == frozenset({0, 1})


def test_cr_set(qsr3, z2, boolean):
    assert names(qsr3, sl.cr_set(qsr3)) == ["0"]
    assert sl.cr_set(z2) == frozenset({0, 1})
    assert sl.cr_set(boolean) == frozenset({0, 1})


def test_every_element_additively_quasi_regular(corpus_small):
    for s in corpus_small:
        for a in s.elements():
            assert sl.classify_element(s, a).additively_quasi_regular_index >= 1


def test_reg_plus_equals_cr_set_on_qcr_members(corpus_small):
    checked = 0
    for s in corpus_small:
        if is_quasi_completely_regular_semiring(s):
            assert sl.reg_plus(s) == sl.cr_set(s)
            checked += 1
    assert checked > 10


def test_quasi_complete_regularity_matches_its_orbit_definition(
    corpus_small, corpus_order4, corpus_order5, corpus_order6
):
    """Quasi complete regularity by its definition, every additive orbit
    holding a completely regular element, is the verdict of `classify` and
    of `is_quasi_completely_regular_semiring`, and `decompose` refuses
    exactly the members where it fails."""
    verdicts = set()
    for s in corpus_small + corpus_order4 + corpus_order5 + corpus_order6:
        cr = complete_regularity(s)
        qcr = all(any(cr[v] for v in orb.values) for orb in orbits(s, ADD))
        assert sl.classify(s).holds("quasi-completely-regular") is qcr
        assert is_quasi_completely_regular_semiring(s) is qcr
        if qcr:
            sl.decompose(s)
        else:
            with pytest.raises(NotQuasiCompletelyRegular):
                sl.decompose(s)
        verdicts.add(qcr)
    assert verdicts == {False, True}


def test_witness_is_normalized(corpus_small):
    # the unique commuting witness satisfies x = x + a + x
    for s in corpus_small[::5]:
        for a in s.elements():
            x = commuting_witness(s, a)
            if x is not None:
                assert s.add[s.add[x][a]][x] == x
                assert s.add[s.add[a][x]][a] == a
                assert s.add[a][x] == s.add[x][a]


def test_index_one_iff_flag(corpus_small):
    for s in corpus_small[::5]:
        for a in s.elements():
            c = sl.classify_element(s, a)
            assert c.additively_regular == (c.additively_quasi_regular_index == 1)
            assert c.completely_regular == (c.quasi_completely_regular_index == 1)


def test_least_regular_multiple(qsr3):
    p, value = least_regular_multiple(qsr3, qsr3.index("a"))
    assert p == 3 and qsr3.names[value] == "0"
    q, value = least_regular_multiple(qsr3, qsr3.index("b"))
    assert q == 2 and qsr3.names[value] == "0"


def test_per_element_entry_points_reject_indices_outside_the_carrier(qsr3):
    entry_points = (
        sl.classify_element,
        sl.additive_inverses,
        lambda s, a: sl.repeat(s, a, 2),
        lambda s, a: orbit(s, a, sl.MUL),
        is_additively_regular,
        commuting_witness,
        is_completely_regular,
        least_regular_multiple,
        additive_h_class,
    )
    for entry in entry_points:
        for a in (-1, qsr3.order, None, True):
            with pytest.raises(OutOfRange):
                entry(qsr3, a)
        entry(qsr3, qsr3.order - 1)


# The scans that `kernel.inverses` replaced, kept as brute-force oracles.


def inverses_by_definition(table, a):
    """V(a): every x with a*x*a = a and x*a*x = x."""
    r = range(len(table))
    return frozenset(x for x in r if table[table[a][x]][a] == a and table[table[x][a]][x] == x)


def regular_by_scan(s, a):
    """Some x has a+x+a = a."""
    return any(s.add[s.add[a][x]][a] == a for x in s.elements())


def least_regular_multiple_by_scan(s, a):
    """The first of a, 2a, 3a, ... with some x making it regular, and its index."""
    p, v = 1, a
    while not regular_by_scan(s, v):
        p, v = p + 1, s.add[v][a]
    return p, v


def commuting_witnesses_by_scan(s):
    """For each a, every x with a+x+a = a, a+x = x+a and x+a+x = x."""
    add = s.add
    return tuple(
        [x for x in s.elements()
         if add[add[a][x]][a] == a and add[a][x] == add[x][a] and add[add[x][a]][x] == x]
        for a in s.elements()
    )


def test_inverse_vector_matches_the_scans(corpus, corpus_order5, corpus_order6):
    members = list(corpus) + list(corpus_order5) + list(corpus_order6)
    irregular = witnessed = 0
    for s in members:
        for which in (sl.ADD, sl.MUL):
            table = s.table(which)
            assert inverses(s, which) == tuple(inverses_by_definition(table, a) for a in s.elements())
        regular = frozenset(a for a in s.elements() if regular_by_scan(s, a))
        assert sl.reg_plus(s) == regular
        assert least_regular_multiples(s) == tuple(
            least_regular_multiple_by_scan(s, a) for a in s.elements()
        )
        hits = commuting_witnesses_by_scan(s)
        assert all(len(x) <= 1 for x in hits)
        assert commuting_witnesses(s) == tuple(x[0] if x else None for x in hits)
        irregular += s.order - len(regular)
        witnessed += sum(map(len, hits))
    assert irregular > 1000 and witnessed > 2000


def test_more_than_one_commuting_witness_is_surfaced():
    # not associative: a and c both lie in V+(a) and commute with a
    add = ((0, 0, 1), (0, 0, 2), (1, 0, 0))
    s = FiniteSemiring(("a", "b", "c"), add, add)
    with pytest.raises(MalformedWitness, match=r"^2 witnesses \['a', 'c'\] for element a$"):
        commuting_witnesses(s)
