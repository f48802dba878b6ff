import pytest
from hypothesis import given, settings, strategies as st

import semiringlab as sl
from semiringlab.errors import MissingMap, ParseError
from semiringlab.kernel import check_names

from conftest import QSR3_TEXT, ZUNION_Z2_SBL


def test_srt_round_trip(qsr3):
    again = sl.parse_srt(sl.serialize_srt(qsr3))
    assert again == qsr3


def _accepted(name):
    try:
        check_names((name,))
    except ValueError:
        return False
    return True


# any single name the constructor accepts
NAMES = st.text(min_size=1, max_size=8).filter(_accepted)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_srt_round_trip_with_generated_names(data, corpus_small):
    s = data.draw(st.sampled_from(corpus_small))
    perm = data.draw(st.permutations(range(s.order)))
    names = data.draw(st.lists(NAMES, min_size=s.order, max_size=s.order, unique=True))
    relabelled = s.relabel(perm)
    t = sl.FiniteSemiring(names=tuple(names), add=relabelled.add, mul=relabelled.mul)
    assert sl.parse_srt(sl.serialize_srt(t)) == t


@pytest.fixture(scope="module")
def family_specs(corpus_small):
    """family_spec of every order-1..3 member that a family presents."""
    from semiringlab.blattice import family_spec
    from semiringlab.structure import is_strongly_additively_quasi_completely_inverse

    specs = []
    for s in corpus_small:
        if not is_strongly_additively_quasi_completely_inverse(s):
            continue
        m = sl.search_structure_maps(s)
        if m is not None:
            specs.append(family_spec(m.decomposition, m))
    return specs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sbl_round_trip_with_generated_names(data, family_specs):
    spec = data.draw(st.sampled_from(family_specs))
    components = tuple(
        sl.FiniteSemiring(
            names=tuple(data.draw(st.lists(NAMES, min_size=c.order, max_size=c.order, unique=True))),
            add=c.add,
            mul=c.mul,
        )
        for c in spec.components
    )
    renamed = sl.StrongBLatticeSpec(blattice=spec.blattice, components=components, maps=spec.maps)
    assert sl.parse_sbl(sl.serialize_sbl(renamed)) == renamed


def test_srt_comments_and_blank_lines():
    text = """
# a semiring with comments
elements: a b 0   # carrier
add:
b 0 0
0 0 0  # row b
0 0 0

mul:
b 0 0
0 0 0
0 0 0
"""
    s = sl.parse_srt(text)
    assert s.names == ("a", "b", "0")
    assert sl.validate(s).verdict


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("b 0 0\n0 0 0\n0 0 0\nmul", "b 0 0\n0 0\n0 0 0\nmul"), "2 entries"),
        (lambda t: t.replace("add:\nb", "add:\nq"), "unknown element"),
        (lambda t: t.replace("mul:\n", ""), "expected 'mul:'"),
        (lambda t: t.replace("elements: a b 0", "elements: a b a"), "duplicate"),
        (lambda t: t + "extra\n", "trailing"),
        (lambda t: "", "missing 'elements:'"),
    ],
)
def test_srt_parse_errors_carry_line_numbers(mangle, fragment):
    with pytest.raises(ParseError) as err:
        sl.parse_srt(mangle(QSR3_TEXT), source="bad.srt")
    assert fragment in str(err.value)
    assert "bad.srt" in str(err.value)


def test_srt_ragged_row_reports_its_line():
    text = "elements: a b\nadd:\na b\na\nmul:\na b\nb a\n"
    with pytest.raises(ParseError) as err:
        sl.parse_srt(text, source="f.srt")
    assert err.value.line == 4


def test_srt_file_round_trip(tmp_path, qsr3):
    path = tmp_path / "qsr3.srt"
    sl.save_srt(qsr3, path)
    assert sl.load_srt(path) == qsr3


def test_a_saved_srt_file_holds_exactly_the_serialization(tmp_path, corpus_small):
    for k, s in enumerate(corpus_small[-20:]):
        path = tmp_path / f"{k}.srt"
        sl.save_srt(s, path)
        assert path.read_bytes() == sl.serialize_srt(s).encode("utf-8")


def test_sbl_round_trip(zunion_z2_spec):
    text = sl.serialize_sbl(zunion_z2_spec)
    again = sl.parse_sbl(text)
    assert again.blattice == zunion_z2_spec.blattice
    assert again.components == zunion_z2_spec.components
    assert again.maps == zunion_z2_spec.maps


def test_sbl_round_trip_with_head_like_element_names():
    # elements named after the block heads serialize to the entry line
    # "map -> map", which the parser once read as a malformed block head
    y = sl.parse_srt("elements: p q\nadd:\np q\nq q\nmul:\np p\np q\n")
    p = sl.FiniteSemiring(names=("map",), add=((0,),), mul=((0,),))
    q = sl.FiniteSemiring(names=("component", "map"), add=((0, 1), (1, 0)), mul=((0, 0), (0, 1)))
    spec = sl.StrongBLatticeSpec(blattice=y, components=(p, q), maps={(0, 1): (1,)})
    text = sl.serialize_sbl(spec)
    assert "\nmap -> map\n" in text
    assert sl.parse_sbl(text) == spec


def test_sbl_missing_component():
    text = ZUNION_Z2_SBL.replace("component p:\nelements: z\nadd:\nz\nmul:\nz\n", "")
    with pytest.raises(ParseError) as err:
        sl.parse_sbl(text)
    assert "missing component" in str(err.value)


def test_sbl_missing_map_is_detected():
    text = ZUNION_Z2_SBL.replace("map p q:\nz -> 0\n", "")
    with pytest.raises(MissingMap):
        sl.parse_sbl(text)


def test_sbl_map_entry_errors():
    with pytest.raises(ParseError) as err:
        sl.parse_sbl(ZUNION_Z2_SBL.replace("z -> 0", "z 0"))
    assert "x -> y" in str(err.value)
    with pytest.raises(ParseError) as err:
        sl.parse_sbl(ZUNION_Z2_SBL.replace("z -> 0", "w -> 0"))
    assert "misses element" in str(err.value) or "foreign element" in str(err.value)
    with pytest.raises(ParseError) as err:
        sl.parse_sbl(ZUNION_Z2_SBL.replace("z -> 0", "z -> 7"))
    assert "unknown element" in str(err.value)


def test_sbl_unknown_blattice_element_in_blocks():
    with pytest.raises(ParseError):
        sl.parse_sbl(ZUNION_Z2_SBL.replace("component q:", "component r:"))
    with pytest.raises(ParseError):
        sl.parse_sbl(ZUNION_Z2_SBL.replace("map p q:", "map p r:"))
