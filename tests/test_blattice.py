import hashlib
import warnings

import pytest

import semiringlab as sl
from semiringlab import blattice, structure
from semiringlab.blattice import _family_presents, family_spec
from semiringlab.enumeration import canonical_form
from semiringlab.errors import (
    DecompositionInvariantViolation,
    DomainMismatch,
    InternalTheoremViolation,
    NotQuasiCompletelyRegular,
    OverlappingCarriers,
    PreconditionFailed,
    SearchBoundExceeded,
    TheoremViolationWarning,
)
from semiringlab.kernel import LawFailure

from conftest import (
    QSR3_TEXT,
    TWO_CHAIN_Y,
    Z3_SRT,
    ZUNION_Z2_SBL,
    family_presents_by_compose,
    kernel_family_presents_by_building,
    zn,
)

ONE_COMPONENT_QSR3_SBL = (
    "blattice:\nelements: y\nadd:\ny\nmul:\ny\ncomponent y:\n" + QSR3_TEXT
)

TWO_TRIVIAL_SBL = """\
blattice:
elements: p q
add:
p q
q q
mul:
p p
p q
component p:
elements: u
add:
u
mul:
u
component q:
elements: v
add:
v
mul:
v
map p q:
u -> v
"""

# the 3-element quasi skew-ring stacked on itself along a 2-chain: nil parts
# {a,b} and {A,B} exercise every nil-sensitive condition
QSR3_CHAIN_SBL = """\
blattice:
elements: p q
add:
p q
q q
mul:
p p
p q
component p:
elements: a b 0
add:
b 0 0
0 0 0
0 0 0
mul:
b 0 0
0 0 0
0 0 0
component q:
elements: A B O
add:
B O O
O O O
O O O
mul:
B O O
O O O
O O O
map p q:
a -> A
b -> B
0 -> O
"""


def test_validate_spec_zunion(zunion_z2_spec):
    assert sl.validate_spec(zunion_z2_spec).verdict


def test_validate_spec_bad_target(zunion_z2_spec):
    bad = sl.StrongBLatticeSpec(
        blattice=zunion_z2_spec.blattice,
        components=zunion_z2_spec.components,
        maps={(0, 1): (1,)},  # z -> 1 is not a homomorphism: 1+1 = 0
    )
    report = sl.validate_spec(bad)
    assert not report.verdict
    assert any(f.law == "monomorphism-add" for f in report.failures)


def test_validate_spec_single_component():
    spec = sl.parse_sbl(ONE_COMPONENT_QSR3_SBL)
    assert sl.validate_spec(spec).verdict
    twisted = sl.StrongBLatticeSpec(
        blattice=spec.blattice,
        components=spec.components,
        maps={(0, 0): (1, 0, 2)},
    )
    report = sl.validate_spec(twisted)
    assert not report.verdict
    assert any(f.law == "condition-1-identity" for f in report.failures)


def test_validate_spec_overlapping_carriers(zunion_z2_spec):
    clash = sl.StrongBLatticeSpec(
        blattice=zunion_z2_spec.blattice,
        components=(zunion_z2_spec.components[1], zunion_z2_spec.components[1]),
        maps={(0, 1): (0, 1)},
    )
    with pytest.raises(OverlappingCarriers):
        sl.validate_spec(clash)


def test_a_map_for_an_incomparable_pair_is_rejected(tmp_path):
    # q is not below p, so a `map q p` section has no place in the spec
    path = tmp_path / "reversed.sbl"
    path.write_text(ZUNION_Z2_SBL + "map q p:\n0 -> z\n1 -> z\n", encoding="utf-8")
    spec = sl.load_sbl(path)
    assert spec.maps[1, 0] == (0, 0)
    for check in (sl.validate_spec, sl.compose):
        with pytest.raises(DomainMismatch, match="map q -> p .* not comparable"):
            check(spec)


def test_family_spec_drops_a_map_for_an_incomparable_pair(composed_gc):
    d, m = _pipeline(composed_gc)
    top, bottom = d.hstar.block_of[composed_gc.index("0")], d.hstar.block_of[composed_gc.index("z")]
    z = composed_gc.index("z")
    extra = sl.StructureMaps(decomposition=d, phi={
        **m.phi, (top, bottom): {x: z for x in d.classes[top]}})
    spec = family_spec(d, extra)
    assert (top, bottom) not in spec.maps
    assert spec == family_spec(d, m)
    assert sl.validate_spec(spec).verdict


def test_compose_zunion_tables(composed_gc):
    assert composed_gc.names == ("z", "0", "1")
    assert composed_gc.add == ((0, 1, 2), (1, 1, 2), (2, 2, 1))
    assert composed_gc.mul == ((0, 0, 0), (0, 1, 1), (0, 1, 2))
    assert sl.classify(composed_gc).holds("generalized-clifford")


def test_compose_single_component_is_isomorphic_copy(qsr3):
    composed = sl.compose(sl.parse_sbl(ONE_COMPONENT_QSR3_SBL))
    assert canonical_form(composed) == canonical_form(qsr3)


def test_compose_two_trivial_components_gives_the_b_lattice():
    spec = sl.parse_sbl(TWO_TRIVIAL_SBL)
    composed = sl.compose(spec)
    assert composed.order == 2
    assert canonical_form(composed) == canonical_form(spec.blattice)


def test_generalized_clifford_theorem(composed_gc, qsr3, z2):
    report = sl.check_generalized_clifford_theorem(composed_gc)
    assert report.agreement and all(h for _, h, _ in report.conditions)
    report = sl.check_generalized_clifford_theorem(qsr3)
    assert report.agreement and not any(h for _, h, _ in report.conditions)
    report = sl.check_generalized_clifford_theorem(z2)
    assert report.agreement and all(h for _, h, _ in report.conditions)


def order9_zero_semiring():
    """Nine elements, both operations constant: one past SEARCH_BOUND."""
    zero = tuple(tuple(0 for _ in range(9)) for _ in range(9))
    return sl.FiniteSemiring(names=tuple(f"e{i}" for i in range(9)), add=zero, mul=zero)


def test_generalized_clifford_theorem_bound():
    with pytest.raises(SearchBoundExceeded):
        sl.check_generalized_clifford_theorem(order9_zero_semiring())


def test_build_phi_identity_family(qsr3):
    d = sl.decompose(qsr3)
    m = sl.build_phi(d, theta={}, varphi={})
    assert m.phi[(0, 0)] == {i: i for i in qsr3.elements()}
    assert sl.verify_strong_blattice(qsr3, d, m)


def test_build_phi_composed(composed_gc):
    d = sl.decompose(composed_gc)
    pairs = [(a, b) for a in range(2) for b in range(2)
             if d.blattice.add[a][b] == b and a != b]
    (alpha, beta) = pairs[0]
    z = next(iter(d.kernels[alpha]))
    e_beta = d.idempotents[beta]
    m = sl.build_phi(d, theta={(alpha, beta): {z: e_beta}}, varphi={(alpha, beta): {}})
    assert sl.verify_strong_blattice(composed_gc, d, m)


def test_build_phi_domain_errors(composed_gc):
    d = sl.decompose(composed_gc)
    with pytest.raises(DomainMismatch):
        sl.build_phi(d, theta={}, varphi={})  # missing cross-pair theta
    pairs = [(a, b) for a in range(2) for b in range(2)
             if d.blattice.add[a][b] == b and a != b]
    (alpha, beta) = pairs[0]
    z = next(iter(d.kernels[alpha]))
    with pytest.raises(DomainMismatch):
        sl.build_phi(d, theta={(alpha, beta): {z: z}}, varphi={})  # image outside class


def test_build_phi_rejects_non_injective_assembly():
    s = sl.compose(sl.parse_sbl(QSR3_CHAIN_SBL))
    d = sl.decompose(s)
    (alpha, beta) = next(
        (a, b) for a in range(2) for b in range(2)
        if d.blattice.add[a][b] == b and a != b
    )
    e_beta = d.idempotents[beta]
    theta = {(alpha, beta): {r: s.add[r][e_beta] for r in d.kernels[alpha]}}
    nil = d.nil_indices(alpha)
    collide = {x: e_beta for x in nil}  # all nils onto the kernel idempotent
    with pytest.raises(DomainMismatch) as err:
        sl.build_phi(d, theta=theta, varphi={(alpha, beta): collide})
    assert "not injective" in str(err.value)


def test_search_recovers_zunion_map(composed_gc):
    d = sl.decompose(composed_gc)
    m = sl.search_structure_maps(composed_gc)
    assert m is not None
    (alpha, beta) = next(
        (a, b) for a in range(2) for b in range(2)
        if d.blattice.add[a][b] == b and a != b
    )
    z = next(iter(d.kernels[alpha]))
    assert composed_gc.names[m.phi[(alpha, beta)][z]] == "0"
    assert sl.verify_strong_blattice(composed_gc, d, m)


def test_search_qsr3_single_class(qsr3):
    m = sl.search_structure_maps(qsr3)
    assert m is not None
    assert m.phi[(0, 0)] == {i: i for i in qsr3.elements()}


def test_search_bound():
    with pytest.raises(SearchBoundExceeded):
        sl.search_structure_maps(order9_zero_semiring())


def test_search_requires_saqci(left_zero):
    with pytest.raises(PreconditionFailed):
        sl.search_structure_maps(left_zero)


def test_a_decomposition_serves_only_its_own_semiring(monkeypatch):
    s = zn(6)
    d = sl.decompose(s)
    m = sl.search_structure_maps(s)
    equal = sl.FiniteSemiring(s.names, s.add, s.mul)
    relabelled = s.relabel(tuple(reversed(range(s.order))))
    assert equal == s and equal is not s and relabelled != s
    assert sl.search_structure_maps(equal) is not None
    # search_structure_maps guards what decompose hands it
    monkeypatch.setattr(blattice, "decompose", lambda _: d)
    for t in (equal, relabelled):
        with pytest.raises(PreconditionFailed, match="does not belong"):
            sl.check_main_theorem_conditions(t, d, m)
        with pytest.raises(PreconditionFailed, match="does not belong"):
            sl.search_structure_maps(t)
    assert sl.check_main_theorem_conditions(s, d, m).all_hold


def _raise(error):
    def raising(*args):
        raise error("raised on purpose")

    return raising


def test_an_internal_theorem_violation_is_never_swallowed(monkeypatch):
    s = zn(6)
    # the leaf check runs the map conditions on the tables of s
    monkeypatch.setattr(blattice, "_map_failures", _raise(InternalTheoremViolation))
    with pytest.raises(InternalTheoremViolation):
        sl.search_structure_maps(s)
    with pytest.raises(InternalTheoremViolation):
        sl.check_generalized_clifford_theorem(s)
    monkeypatch.setattr(blattice, "decompose", _raise(InternalTheoremViolation))
    with pytest.raises(InternalTheoremViolation):
        sl.check_generalized_clifford_theorem(s)


def test_a_decompose_error_on_a_qcr_member_is_never_read_as_no_family(monkeypatch):
    s = zn(6)
    monkeypatch.setattr(blattice, "decompose", _raise(NotQuasiCompletelyRegular))
    with pytest.raises(NotQuasiCompletelyRegular):
        sl.check_generalized_clifford_theorem(s)


def test_a_broken_decomposition_invariant_is_never_swallowed(monkeypatch):
    s = zn(2)
    # Y is then "not idempotent", which the theory rules out
    monkeypatch.setattr(structure, "is_idempotent_semiring", lambda y: False)
    for check in (sl.decompose, sl.search_structure_maps, sl.check_generalized_clifford_theorem):
        with pytest.raises(DecompositionInvariantViolation, match="not an idempotent semiring"):
            check(s)
    assert issubclass(DecompositionInvariantViolation, InternalTheoremViolation)


def _pipeline(s):
    d = sl.decompose(s)
    m = sl.search_structure_maps(s)
    assert m is not None
    assert sl.verify_strong_blattice(s, d, m)
    report = sl.check_main_theorem_conditions(s, d, m)
    assert report.all_hold, report.failed()
    return d, m


def test_qsr3_chain_full_pipeline():
    spec = sl.parse_sbl(QSR3_CHAIN_SBL)
    assert sl.validate_spec(spec).verdict
    s = sl.compose(spec)
    assert sl.validate(s).verdict
    assert sl.classify(s).holds("strongly-additively-quasi-completely-inverse")
    d, m = _pipeline(s)
    assert sorted(len(c) for c in d.classes) == [3, 3]
    assert sorted(len(d.nil_indices(a)) for a in range(2)) == [2, 2]


def test_conditions_detect_corrupted_theta(composed_gc):
    d, m = _pipeline(composed_gc)
    (alpha, beta) = next(
        (a, b) for a in range(2) for b in range(2)
        if d.blattice.add[a][b] == b and a != b
    )
    z = next(iter(d.kernels[alpha]))
    other = next(x for x in d.classes[beta] if x != m.phi[(alpha, beta)][z])
    phi = {pair: dict(f) for pair, f in m.phi.items()}
    phi[(alpha, beta)][z] = other
    bad = sl.StructureMaps(decomposition=d, phi=phi)
    report = sl.check_main_theorem_conditions(composed_gc, d, bad)
    assert not report.verdicts["i"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", TheoremViolationWarning)
        assert not sl.verify_strong_blattice(composed_gc, d, bad)


def test_verify_warns_when_sides_disagree():
    # the stacked nil extension: corrupting the nil image onto the kernel
    # image keeps every numbered condition true, leaving only the assembled
    # injectivity (ii-mono) to catch it
    text = """\
blattice:
elements: p q
add:
p q
q q
mul:
p p
p q
component p:
elements: x z
add:
z z
z z
mul:
z z
z z
component q:
elements: X Z
add:
Z Z
Z Z
mul:
Z Z
Z Z
map p q:
x -> X
z -> Z
"""
    s = sl.compose(sl.parse_sbl(text))
    d, m = _pipeline(s)
    x, Z = s.names.index("x"), s.names.index("Z")
    (alpha, beta) = next(
        (a, b) for a in range(2) for b in range(2)
        if d.blattice.add[a][b] == b and a != b
    )
    phi = {pair: dict(f) for pair, f in m.phi.items()}
    phi[(alpha, beta)][x] = Z
    bad = sl.StructureMaps(decomposition=d, phi=phi)
    report = sl.check_main_theorem_conditions(s, d, bad)
    assert report.failed() == ("ii-mono",)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TheoremViolationWarning)
        assert not sl.verify_strong_blattice(s, d, bad)


def test_family_spec_round_trip(composed_gc):
    d, m = _pipeline(composed_gc)
    spec = family_spec(d, m)
    assert sl.validate_spec(spec).verdict
    composed = sl.compose(spec)
    assert canonical_form(composed) == canonical_form(composed_gc)
    assert _family_presents(composed_gc, d, m)


def test_psi_compatibility_on_verified_maps():
    s = sl.compose(sl.parse_sbl(QSR3_CHAIN_SBL))
    d, m = _pipeline(s)
    p = sl.psi(s, d)
    for (alpha, beta), f in m.phi.items():
        if alpha == beta:
            continue
        for x in d.nil_indices(alpha):
            assert p(f[x]) == f[p(x)]


def test_search_outcomes_over_saqci_corpus(corpus_small):
    """Either a family is found and presents the semiring with all theorem
    conditions holding, or no family exists at all; both outcomes occur."""
    from semiringlab.structure import is_strongly_additively_quasi_completely_inverse

    found = none = 0
    for s in corpus_small:
        if not is_strongly_additively_quasi_completely_inverse(s):
            continue
        m = sl.search_structure_maps(s)
        if m is None:
            none += 1
            continue
        found += 1
        d = sl.decompose(s)
        assert sl.verify_strong_blattice(s, d, m)
        assert sl.check_main_theorem_conditions(s, d, m).all_hold
    # frozen split: not every member admits a presentation, e.g. when some
    # sum with a nil element refuses to retract through the kernel maps
    assert (found, none) == (72, 28)


def test_composed_semirings_are_saqci(spec_test_set):
    for spec in spec_test_set:
        s = sl.compose(spec)
        report = sl.classify(s)
        assert report.holds("strongly-additively-quasi-completely-inverse"), spec
        assert report.holds("quasi-completely-inverse")


def test_composition_laws_are_definitional_on_composed_tables(spec_test_set):
    # regression guard: the two gluing laws, re-evaluated from the spec maps,
    # reproduce every entry of the composed tables
    for spec in spec_test_set:
        y = spec.blattice
        composed = sl.compose(spec)
        offset = []
        total = 0
        for comp in spec.components:
            offset.append(total)
            total += comp.order
        home = [alpha for alpha, comp in enumerate(spec.components) for _ in comp.names]
        for ga in range(total):
            alpha, a = home[ga], ga - offset[home[ga]]
            for gb in range(total):
                beta, b = home[gb], gb - offset[home[gb]]
                delta = y.add[alpha][beta]
                gamma = y.mul[alpha][beta]
                va = spec.component_map(alpha, delta)[a]
                vb = spec.component_map(beta, delta)[b]
                comp_d = spec.components[delta]
                assert composed.add[ga][gb] == offset[delta] + comp_d.add[va][vb]
                product = comp_d.mul[va][vb]
                c = composed.mul[ga][gb] - offset[gamma]
                assert spec.component_map(gamma, delta)[c] == product


def test_compose_left_inverse_to_decomposition(spec_test_set):
    """Recovered structure is isomorphic to the input spec: classes match the
    component carriers through an isomorphism of the indexing b-lattices, and
    the recovered maps agree with the input maps element by element."""
    for spec in spec_test_set:
        s = sl.compose(spec)
        d = sl.decompose(s)
        m = sl.search_structure_maps(s)
        assert m is not None
        assert canonical_form(d.blattice) == canonical_form(spec.blattice)
        # input index -> recovered class index, via the component carriers
        r = []
        for comp in spec.components:
            carrier = {s.index(name) for name in comp.names}
            hits = [alpha for alpha in range(d.y_order) if d.classes[alpha] == carrier]
            assert len(hits) == 1, "component is not a decomposition class"
            r.append(hits[0])
        assert sorted(r) == list(range(d.y_order))
        y_in, y_out = spec.blattice, d.blattice
        for a in y_in.elements():
            for b in y_in.elements():
                assert r[y_in.add[a][b]] == y_out.add[r[a]][r[b]]
                assert r[y_in.mul[a][b]] == y_out.mul[r[a]][r[b]]
        for (alpha, beta), images in spec.maps.items():
            if alpha == beta:
                continue
            recovered = m.phi[(r[alpha], r[beta])]
            comp_a, comp_b = spec.components[alpha], spec.components[beta]
            for x, img in enumerate(images):
                assert recovered[s.index(comp_a.names[x])] == s.index(comp_b.names[img])


def _component(name, text):
    return f"component {name}:\n{text}"


def _z2z2(p):
    """Z_2 x Z_2 with elements {p}00, {p}01, {p}10, {p}11."""
    e = [f"{p}{i}{j}" for i in "01" for j in "01"]
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    mul = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    rows = lambda table: "".join(" ".join(e[v] for v in row) + "\n" for row in table)
    return f"elements: {' '.join(e)}\nadd:\n{rows(add)}mul:\n{rows(mul)}"


# Z_3 over Z_3 along a 2-chain; negation on Z_3 keeps sums, not products
Z3_CHAIN_SBL = (
    "blattice:\n" + TWO_CHAIN_Y
    + _component("p", Z3_SRT)
    + _component("q", Z3_SRT.replace("t0", "u0").replace("t1", "u1").replace("t2", "u2"))
    + "map p q:\nt0 -> u0\nt1 -> u1\nt2 -> u2\n"
)

Z2_TEXT = "elements: {0}0 {0}1\nadd:\n{0}0 {0}1\n{0}1 {0}0\nmul:\n{0}0 {0}0\n{0}0 {0}1\n"

# Z_2, Z_2 and Z_2 x Z_2 along a 3-chain, products in the upper class; Z_2
# has three monomorphisms into Z_2 x Z_2, so a map can be one and still
# break the composition
Z2_Z2_Z2Z2_CHAIN_SBL = (
    "blattice:\nelements: p q r\nadd:\np q r\nq q r\nr r r\nmul:\np q r\nq q r\nr r r\n"
    + _component("p", Z2_TEXT.format("g")) + _component("q", Z2_TEXT.format("k"))
    + _component("r", _z2z2("l"))
    + "map p q:\ng0 -> k0\ng1 -> k1\nmap p r:\ng0 -> l00\ng1 -> l11\n"
    + "map q r:\nk0 -> l00\nk1 -> l11\n"
)

# Z_2 into Z_2 x Z_2 along a 2-chain with products in the lower class: the
# image of the map must absorb products, as {h00, h01} does and {h00, h11}
# does not
Z2_INTO_Z2Z2_LOW_SBL = (
    "blattice:\n" + TWO_CHAIN_Y
    + _component("p", Z2_TEXT.format("g"))
    + _component("q", _z2z2("h"))
    + "map p q:\ng0 -> h00\ng1 -> h01\n"
)


def _rewired(s, m, source, target, changes):
    """m with the map between the classes of the named elements changed at
    the named elements."""
    d = m.decomposition
    pair = (d.hstar.block_of[s.index(source)], d.hstar.block_of[s.index(target)])
    phi = {p: dict(f) for p, f in m.phi.items()}
    for x, img in changes.items():
        phi[pair][s.index(x)] = s.index(img)
    return sl.StructureMaps(decomposition=d, phi=phi)


@pytest.mark.parametrize("sbl, source, target, changes", [
    # not injective
    (QSR3_CHAIN_SBL, "a", "A", {"b": "O"}),
    # breaks addition only: 1 + 1 = 0
    (None, "z", "0", {"z": "1"}),
    # breaks multiplication only
    (Z3_CHAIN_SBL, "t0", "u0", {"t1": "u2", "t2": "u1"}),
    # every map a monomorphism, but phi_{q,r} phi_{p,q} != phi_{p,r}
    (Z2_Z2_Z2Z2_CHAIN_SBL, "g0", "l00", {"g1": "l01"}),
    # a monomorphism whose image does not absorb the products (condition 3)
    (Z2_INTO_Z2Z2_LOW_SBL, "g0", "h00", {"g1": "h11"}),
])
def test_hand_broken_families_get_compose_s_verdict(composed_gc, sbl, source, target, changes):
    s = composed_gc if sbl is None else sl.compose(sl.parse_sbl(sbl))
    d, m = _pipeline(s)
    bad = _rewired(s, m, source, target, changes)
    assert bad.phi != m.phi
    with warnings.catch_warnings():
        warnings.simplefilter("error", TheoremViolationWarning)
        assert sl.verify_strong_blattice(s, d, bad) is family_presents_by_compose(s, d, bad) is False


def test_a_diagonal_map_that_is_not_the_identity_presents_nothing(composed_gc):
    s = composed_gc
    d, m = _pipeline(s)
    # family_spec keeps the swapped diagonal, validate_spec rejects it under
    # condition-1-identity, and the theorem's conditions (i) and (ii)(1)
    # fail with it, so the verdicts agree and nothing is warned
    bad = _rewired(s, m, "0", "1", {"0": "1", "1": "0"})
    assert bad.phi != m.phi
    report = sl.validate_spec(family_spec(d, bad))
    assert "condition-1-identity" in {f.law for f in report.failures}
    with warnings.catch_warnings():
        warnings.simplefilter("error", TheoremViolationWarning)
        assert sl.verify_strong_blattice(s, d, bad) is family_presents_by_compose(s, d, bad) is False


def test_a_presenting_family_of_a_non_semiring_is_a_theorem_violation(monkeypatch, composed_gc):
    s = composed_gc
    d, m = _pipeline(s)
    validate = blattice.validate
    broken = sl.ValidationReport.from_failures([LawFailure("add-associativity", ("z", "z", "z"))])

    def failing(*targets):
        return lambda t: broken if any(t == x for x in targets) else validate(t)

    # compose builds s from valid classes, so s must be a semiring
    monkeypatch.setattr(blattice, "validate", failing(s))
    for presents in (_family_presents, family_presents_by_compose):
        with pytest.raises(InternalTheoremViolation):
            presents(s, d, m)
    # with a class that is no semiring compose refuses the spec: no family
    monkeypatch.setattr(blattice, "validate", failing(s, d.class_semiring(0)))
    assert _family_presents(s, d, m) is family_presents_by_compose(s, d, m) is False


@pytest.fixture(scope="module")
def presenting_families(corpus_small, corpus_order4):
    """(s, d, m) for every member of the order 1-3 corpora and the order-4
    sample that some family m presents."""
    from semiringlab.structure import is_strongly_additively_quasi_completely_inverse

    out = []
    for s in corpus_small + corpus_order4:
        if is_strongly_additively_quasi_completely_inverse(s):
            m = sl.search_structure_maps(s)
            if m is not None:
                out.append((s, m.decomposition, m))
    return out


def test_a_family_s_shape_is_read_by_one_rule(presenting_families):
    """A family without its diagonal maps, or with an entry outside a class,
    is the family itself to the direct check, the theorem's conditions and
    compose alike, so no theorem violation is warned."""
    variants = 0
    for s, d, m in presenting_families:
        families = [{pair: f for pair, f in m.phi.items() if pair[0] != pair[1]}]
        (alpha, beta) = min(m.phi)
        outside = next((x for x in s.elements() if x not in d.classes[alpha]), None)
        if outside is not None:
            extra = {pair: dict(f) for pair, f in m.phi.items()}
            extra[alpha, beta][outside] = outside
            families.append(extra)
        for phi in families:
            variant = sl.StructureMaps(decomposition=d, phi=phi)
            with warnings.catch_warnings():
                warnings.simplefilter("error", TheoremViolationWarning)
                direct = sl.verify_strong_blattice(s, d, variant)
            conditions = sl.check_main_theorem_conditions(s, d, variant)
            assert direct is conditions.all_hold is family_presents_by_compose(s, d, variant) is True
            variants += 1
    assert variants > len(presenting_families)


def test_condition_i_kernel_family_agrees_with_building(presenting_families):
    """(i) on each family and on every change of one kernel element's image
    within its target class agrees with composing the kernels as semirings.
    The Reg+ parts of (i) hold on these semirings, so the kernel family
    alone decides (i), and its kernel maps are forced (theta(r) = r + e),
    so every change breaks it."""
    checked = failed = 0
    for s, d, m in presenting_families:
        families = [m.phi]
        for (alpha, beta), f in sorted(m.phi.items()):
            for r in sorted(d.kernels[alpha]):
                for img in sorted(d.classes[beta] - {f[r]}):
                    phi = {pair: dict(g) for pair, g in m.phi.items()}
                    phi[alpha, beta][r] = img
                    families.append(phi)
        for phi in families:
            family = sl.StructureMaps(decomposition=d, phi=phi)
            expected = kernel_family_presents_by_building(s, d, family)
            assert sl.check_main_theorem_conditions(s, d, family).verdicts["i"] is expected
            checked += 1
            failed += not expected
    assert 0 < failed == checked - len(presenting_families)


# sha256 over every single-entry corruption of every family in
# `presenting_families`: per member its .srt text, then per corruption the
# line "pair x image" and each main-theorem condition as "key holds witness"
CORRUPTIONS_SHA256 = "1da82accbaa6f190f59b2686851a39ffd12ea22a0e5e1174173266860b30dfa1"


def test_every_single_entry_corruption_is_pinned(presenting_families):
    """Each entry of each found map, diagonal maps included, is moved to
    every other element of s in turn. The verdicts and first witnesses of
    the main-theorem conditions are pinned, no corruption meets them all,
    and the direct check agrees with them on every one (no theorem
    violation is warned)."""
    h = hashlib.sha256()
    corruptions = all_hold = 0
    for s, d, m in presenting_families:
        h.update(sl.serialize_srt(s).encode())
        for pair, f in sorted(m.phi.items()):
            for x in sorted(f):
                for img in s.elements():
                    if img == f[x]:
                        continue
                    phi = {p: dict(g) for p, g in m.phi.items()}
                    phi[pair][x] = img
                    family = sl.StructureMaps(decomposition=d, phi=phi)
                    report = sl.check_main_theorem_conditions(s, d, family)
                    h.update(f"{pair} {x} {img}\n".encode())
                    for key in sl.blattice.CONDITION_KEYS:
                        h.update(f"{key} {int(report.verdicts[key])} {report.witnesses[key]}\n".encode())
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", TheoremViolationWarning)
                        sl.verify_strong_blattice(s, d, family)
                    corruptions += 1
                    all_hold += report.all_hold
    assert (corruptions, all_hold) == (2161, 0)
    assert h.hexdigest() == CORRUPTIONS_SHA256
