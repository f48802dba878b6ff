"""Strong b-lattice machinery: compose a semiring from disjoint components
glued by an injective homomorphism family, verify the defining conditions,
check the decomposition theorem's conditions for a given map family, and
search for such a family on a decomposed semiring.

Throughout, alpha <= beta means alpha + beta == beta in the indexing
b-lattice (the order of its additive semilattice).

The map conditions (`_map_failures`) and the compose formula (`_composed`)
run on one carrier, in its own indices: a spec's components placed side by
side (`_glue`) for `validate_spec` and `compose`; a decomposed s itself,
whose classes are closed, for the family check; and s with its kernels as
the classes for the kernel family of the main theorem's condition (i).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    DomainMismatch,
    InternalTheoremViolation,
    MissingMap,
    NoProductWitness,
    OverlappingCarriers,
    PreconditionFailed,
    SearchBoundExceeded,
    SemiringError,
    TheoremViolationWarning,
)
from .kernel import (
    ADD,
    MUL,
    FiniteSemiring,
    LawFailure,
    PartialSemiring,
    ValidationReport,
    is_b_lattice,
    validate,
)
from .elements import reg_plus
from .structure import (
    Decomposition,
    decompose,
    is_bi_ideal,
    is_nil_extension,
    is_strongly_additively_quasi_completely_inverse,
    psi,
)

SEARCH_BOUND = 8


def leq(y: FiniteSemiring, alpha: int, beta: int) -> bool:
    return y.add[alpha][beta] == beta


def comparable_pairs(y: FiniteSemiring, include_diagonal: bool = False):
    for alpha in y.elements():
        for beta in y.elements():
            if leq(y, alpha, beta) and (include_diagonal or alpha != beta):
                yield alpha, beta


@dataclass(frozen=True)
class StrongBLatticeSpec:
    """An indexing b-lattice, one component semiring per index, and for each
    comparable pair an element map given in component-local indices. Diagonal
    maps may be omitted; they are the identity."""

    blattice: FiniteSemiring
    components: tuple[FiniteSemiring, ...]
    maps: dict[tuple[int, int], tuple[int, ...]]

    def component_map(self, alpha: int, beta: int) -> tuple[int, ...]:
        if alpha == beta and (alpha, beta) not in self.maps:
            return tuple(range(self.components[alpha].order))
        try:
            return self.maps[(alpha, beta)]
        except KeyError:
            raise MissingMap(self.blattice.names[alpha], self.blattice.names[beta]) from None


def _check_spec_shape(spec: StrongBLatticeSpec) -> None:
    y = spec.blattice
    if len(spec.components) != y.order:
        raise DomainMismatch(
            f"{len(spec.components)} components for a b-lattice of order {y.order}"
        )
    seen: dict[str, int] = {}
    for alpha, comp in enumerate(spec.components):
        for name in comp.names:
            if name in seen:
                raise OverlappingCarriers(
                    f"element name {name!r} appears in components "
                    f"{y.names[seen[name]]} and {y.names[alpha]}"
                )
            seen[name] = alpha
    for alpha, beta in comparable_pairs(y):
        images = spec.component_map(alpha, beta)
        if len(images) != spec.components[alpha].order:
            raise DomainMismatch(
                f"map {y.names[alpha]} -> {y.names[beta]} has {len(images)} entries, "
                f"expected {spec.components[alpha].order}"
            )
        for img in images:
            if not 0 <= img < spec.components[beta].order:
                raise DomainMismatch(
                    f"map {y.names[alpha]} -> {y.names[beta]} hits index {img}, "
                    f"outside component {y.names[beta]}"
                )


def _frame_failures(y: FiniteSemiring, components) -> list[LawFailure]:
    """The conditions of a spec that no map enters, with the first witness
    of each: the indexing semiring is a semiring and a b-lattice, and every
    component is a semiring."""
    failures = []
    if not validate(y).verdict:
        failures.append(LawFailure("indexing-semiring", y.names))
    elif not is_b_lattice(y):
        failures.append(LawFailure("indexing-b-lattice", y.names))
    else:
        # alpha+beta == alpha+beta+alpha*beta holds in every b-lattice;
        # checked rather than assumed
        bad = next(((alpha, beta) for alpha in y.elements() for beta in y.elements()
                    if y.add[y.add[alpha][beta]][y.mul[alpha][beta]] != y.add[alpha][beta]), None)
        if bad is not None:
            failures.append(LawFailure("b-lattice-arithmetic", (y.names[bad[0]], y.names[bad[1]])))
    bad = next((alpha for alpha, comp in enumerate(components) if not validate(comp).verdict), None)
    if bad is not None:
        failures.append(LawFailure("component-validity", (y.names[bad],)))
    return failures


def validate_spec(spec: StrongBLatticeSpec) -> ValidationReport:
    """Injectivity, homomorphism property, identity, composition and
    product-containment conditions of the strong b-lattice definition."""
    _check_spec_shape(spec)
    failures = _frame_failures(spec.blattice, spec.components)
    if failures:
        return ValidationReport.from_failures(failures)
    seen: set[str] = set()
    for failure in _map_failures(spec.blattice, *_glue(spec)):
        # first witness per condition, like the semiring law checks
        if failure.law not in seen:
            seen.add(failure.law)
            failures.append(failure)
    return ValidationReport.from_failures(failures)


def _glue(spec: StrongBLatticeSpec):
    """The components side by side on one carrier, for a spec that passed
    `_check_spec_shape`: a partial semiring whose tables are defined only
    inside a class, the index range of each class, and every comparable
    map, diagonal included, in carrier indices."""
    offsets = list(accumulate((comp.order for comp in spec.components), initial=0))
    total = offsets.pop()
    classes = tuple(range(o, o + comp.order) for o, comp in zip(offsets, spec.components))

    def glued(which):
        return [(None,) * o + tuple(o + v for v in row) + (None,) * (total - o - comp.order)
                for o, comp in zip(offsets, spec.components) for row in comp.table(which)]

    t = PartialSemiring(names=tuple(name for comp in spec.components for name in comp.names),
                        add=glued(ADD), mul=glued(MUL))
    maps = {(alpha, beta): {offsets[alpha] + x: offsets[beta] + img
                            for x, img in enumerate(spec.component_map(alpha, beta))}
            for alpha, beta in comparable_pairs(spec.blattice, include_diagonal=True)}
    return t, classes, maps


def _map_failures(y: FiniteSemiring, t, classes, maps):
    """Yield a LawFailure for each violation of the conditions the maps
    enter, in the order `validate_spec` reports them. The classes of the
    carrier t are closed, each listed in ascending order, and `maps` holds
    every comparable map, diagonal included, from a class into a class."""
    add, mul, names = t.add, t.mul, t.names

    def fail(condition, *witness):
        return LawFailure(condition, witness)

    for alpha, beta in comparable_pairs(y, include_diagonal=True):
        f = maps[alpha, beta]
        if alpha == beta:
            moved = next((x for x in classes[alpha] if f[x] != x), None)
            if moved is not None:
                yield fail("condition-1-identity", y.names[alpha], names[moved])
            continue
        hit: dict[int, int] = {}
        for x in classes[alpha]:
            if f[x] in hit:
                yield fail("monomorphism-injectivity", y.names[alpha], y.names[beta],
                           names[hit[f[x]]], names[x])
                break
            hit[f[x]] = x
        for x in classes[alpha]:
            for x2 in classes[alpha]:
                if f[add[x][x2]] != add[f[x]][f[x2]]:
                    yield fail("monomorphism-add", y.names[alpha], y.names[beta], names[x], names[x2])
                if f[mul[x][x2]] != mul[f[x]][f[x2]]:
                    yield fail("monomorphism-mul", y.names[alpha], y.names[beta], names[x], names[x2])

    for alpha, beta in comparable_pairs(y, include_diagonal=True):
        for gamma in y.elements():
            if not leq(y, beta, gamma):
                continue
            f_ab, f_bg, f_ag = maps[alpha, beta], maps[beta, gamma], maps[alpha, gamma]
            for x in classes[alpha]:
                if f_bg[f_ab[x]] != f_ag[x]:
                    yield fail("condition-2-composition", y.names[alpha], y.names[beta],
                               y.names[gamma], names[x])
                    break

    for alpha in y.elements():
        for beta in y.elements():
            delta = y.add[alpha][beta]
            prod_idx = y.mul[alpha][beta]
            for gamma in y.elements():
                if not leq(y, delta, gamma):
                    continue
                if not leq(y, prod_idx, gamma):
                    yield fail("condition-3-order", y.names[alpha], y.names[beta], y.names[gamma])
                    continue
                f_ag, f_bg = maps[alpha, gamma], maps[beta, gamma]
                image_p = set(maps[prod_idx, gamma].values())
                for a in classes[alpha]:
                    for b in classes[beta]:
                        if mul[f_ag[a]][f_bg[b]] not in image_p:
                            yield fail("condition-3-containment", y.names[alpha], y.names[beta],
                                       y.names[gamma], names[a], names[b])


def _composed(y: FiniteSemiring, t, classes, maps):
    """Yield (a, b, a + b, ab) for every a and b of the union of the classes,
    row-major in ascending order (all of t when the classes cover it), as
    the strong b-lattice glues them: for a in T_alpha and b in T_beta,
    with delta = alpha+beta and gamma = alpha*beta, add and multiply the
    images in T_delta and solve the product back into T_gamma:

        a + b = phi_{alpha,delta}(a) + phi_{beta,delta}(b)
        phi_{gamma,delta}(ab) = phi_{alpha,delta}(a) * phi_{beta,delta}(b)

    `classes` and `maps` are as `_map_failures` reads them."""
    home = {x: alpha for alpha, cls in enumerate(classes) for x in cls}
    for a in sorted(home):
        alpha = home[a]
        for b in sorted(home):
            beta = home[b]
            delta, gamma = y.add[alpha][beta], y.mul[alpha][beta]
            va, vb = maps[alpha, delta][a], maps[beta, delta][b]
            target = t.mul[va][vb]
            f_gd = maps[gamma, delta]
            hits = [c for c in classes[gamma] if f_gd[c] == target]
            if not hits:
                raise NoProductWitness(
                    f"no element of component {y.names[gamma]} maps onto the product "
                    f"{t.names[target]} of {t.names[a]} and {t.names[b]}"
                )
            if len(hits) > 1:
                raise InternalTheoremViolation(
                    f"injective map yielded {len(hits)} product witnesses for "
                    f"{t.names[a]} * {t.names[b]}"
                )
            yield a, b, t.add[va][vb], hits[0]


def compose(spec: StrongBLatticeSpec) -> FiniteSemiring:
    """Disjoint-union semiring with addition routed through the top of each
    pair and multiplication solved back out of the product component."""
    report = validate_spec(spec)
    if not report.verdict:
        raise PreconditionFailed(
            f"spec fails validation: {report.failures[0].law} at {report.failures[0].witness}"
        )
    t, classes, maps = _glue(spec)
    add = [[0] * t.order for _ in t.names]
    mul = [[0] * t.order for _ in t.names]
    for a, b, total, product in _composed(spec.blattice, t, classes, maps):
        add[a][b], mul[a][b] = total, product
    out = FiniteSemiring(names=t.names, add=add, mul=mul)
    check = validate(out)
    if not check.verdict:
        raise InternalTheoremViolation(
            f"composed system is not a semiring: {check.failures[0].law} "
            f"at {check.failures[0].witness}"
        )
    return out


@dataclass(frozen=True)
class StructureMaps:
    """Element maps T_alpha -> T_beta in base-carrier indices, one for each
    comparable pair; a diagonal map may be omitted, as it is the identity.
    Restricted to the kernels they are the theta family of the main
    theorem, restricted to the nil parts its varphi family."""

    decomposition: Decomposition
    phi: dict[tuple[int, int], dict[int, int]]


def build_phi(d: Decomposition, theta, varphi) -> StructureMaps:
    """Assemble the piecewise maps from a kernel family and a nil family."""
    y = d.blattice
    phi: dict[tuple[int, int], dict[int, int]] = {}
    for alpha, beta in comparable_pairs(y, include_diagonal=True):
        if alpha == beta:
            phi[(alpha, beta)] = {x: x for x in d.classes[alpha]}
            continue
        t_part = theta.get((alpha, beta))
        v_part = varphi.get((alpha, beta), {})
        if t_part is None:
            raise DomainMismatch(f"theta missing for pair ({y.names[alpha]}, {y.names[beta]})")
        if set(t_part) != d.kernels[alpha]:
            raise DomainMismatch(
                f"theta domain for ({y.names[alpha]}, {y.names[beta]}) is not the kernel"
            )
        nil = set(d.nil_indices(alpha))
        if set(v_part) != nil:
            raise DomainMismatch(
                f"varphi domain for ({y.names[alpha]}, {y.names[beta]}) is not the nil part"
            )
        merged = {**t_part, **v_part}
        for x, img in merged.items():
            if img not in d.classes[beta]:
                raise DomainMismatch(
                    f"image of {d.base.names[x]} lies outside class {y.names[beta]}"
                )
        images = list(merged.values())
        if len(set(images)) != len(images):
            dup = next(v for v in images if images.count(v) > 1)
            srcs = [d.base.names[x] for x, img in merged.items() if img == dup]
            raise DomainMismatch(
                f"assembled map ({y.names[alpha]}, {y.names[beta]}) is not injective: "
                f"{' and '.join(srcs)} both map to {d.base.names[dup]}"
            )
        phi[(alpha, beta)] = merged
    return StructureMaps(decomposition=d, phi=phi)


def family_spec(d: Decomposition, m: StructureMaps) -> StrongBLatticeSpec:
    """A structure-map family as a spec for `.sbl` export: the class
    semirings, built here, and each map reindexed into them. An identity
    diagonal map is omitted, as the spec reads it; any other diagonal map is
    kept, so `validate_spec` rejects it."""
    orders = [sorted(cls) for cls in d.classes]
    local = [{g: i for i, g in enumerate(order)} for order in orders]
    maps = {}
    for (alpha, beta), f in m.phi.items():
        if alpha == beta and all(f.get(g) == g for g in orders[alpha]):
            continue
        images = []
        for g in orders[alpha]:
            img = f.get(g)
            if img not in local[beta]:
                raise DomainMismatch(
                    f"image of {d.base.names[g]} does not lie in class {beta}"
                )
            images.append(local[beta][img])
        maps[(alpha, beta)] = tuple(images)
    return StrongBLatticeSpec(
        blattice=d.blattice,
        components=tuple(d.class_semiring(alpha) for alpha in range(d.y_order)),
        maps=maps,
    )


def _family_maps(d: Decomposition, m: StructureMaps):
    """Read m's family by the one shape rule: (maps, None), with every
    comparable map, diagonal included, on its class in s's indices, or
    (None, witness) when there is no family. A missing diagonal map is the
    identity, as `StrongBLatticeSpec` reads it; a missing non-diagonal pair,
    or a class element without an image, is no family; entries outside the
    class are ignored, as pairs that are not comparable are."""
    y = d.blattice
    maps = {}
    for alpha, beta in comparable_pairs(y, include_diagonal=True):
        identity = {x: x for x in d.classes[alpha]} if alpha == beta else {}
        f = m.phi.get((alpha, beta), identity)
        cls = sorted(d.classes[alpha])
        missing = next((x for x in cls if x not in f), None)
        if missing is not None:
            return None, (f"no image of {d.base.names[missing]} for pair "
                          f"({y.names[alpha]}, {y.names[beta]})")
        maps[alpha, beta] = {x: f[x] for x in cls}
    return maps, None


def _family_presents(s: FiniteSemiring, d: Decomposition, m: StructureMaps) -> bool:
    """Is s the semiring that `compose` builds from Y, the classes and the
    family? Decided on the tables of s, building nothing: the classes of s
    are closed, so their tables are those of s, and s itself is the carrier
    of the map conditions (`_map_failures`) and of the compose formula
    (`_composed`). The caller checks once per search that Y is a b-lattice
    (`_frame_failures(y, ())`).

    A family of no shape (`_family_maps`), or with an image outside its
    target class, presents nothing. An InternalTheoremViolation propagates.
    A family that presents s makes it a strong b-lattice of its classes,
    which are semirings when s is. So whether they are, which compose checks
    first, matters only when s fails `validate`: the family then presents
    nothing if some class fails too, and is an InternalTheoremViolation if
    none does.
    """
    y = d.blattice
    maps, _ = _family_maps(d, m)
    if maps is None or any(img not in d.classes[beta]
                           for (_, beta), f in maps.items() for img in f.values()):
        return False
    classes = [sorted(cls) for cls in d.classes]
    if next(_map_failures(y, s, classes, maps), None) is not None:
        return False
    if any(s.add[a][b] != total or s.mul[a][b] != product
           for a, b, total, product in _composed(y, s, classes, maps)):
        return False
    check = validate(s)
    if check.verdict:
        return True
    if not _frame_failures(y, [d.class_semiring(alpha) for alpha in y.elements()]):
        raise InternalTheoremViolation(
            f"composed system is not a semiring: {check.failures[0].law} "
            f"at {check.failures[0].witness}"
        )
    return False


CONDITION_KEYS = ("i", "ii-mono", "ii1", "ii2", "ii3", "ii4", "ii5", "iii")


@dataclass(frozen=True)
class ConditionReport:
    verdicts: dict[str, bool]
    witnesses: dict[str, str]

    @property
    def all_hold(self) -> bool:
        return all(self.verdicts.values())

    def failed(self) -> tuple[str, ...]:
        return tuple(k for k in CONDITION_KEYS if not self.verdicts[k])


def _require_saqci(s: FiniteSemiring, d: Decomposition) -> None:
    d.require_base(s)
    if not is_strongly_additively_quasi_completely_inverse(s):
        raise PreconditionFailed(
            "a strongly additively quasi completely inverse semiring is required"
        )
    if not d.quotient_is_b_lattice():
        raise PreconditionFailed("decomposition quotient is not a b-lattice")


def check_main_theorem_conditions(
    s: FiniteSemiring, d: Decomposition, m: StructureMaps
) -> ConditionReport:
    """Evaluate conditions (i), (ii)(1)-(5) and (iii) of the decomposition
    theorem literally for the candidate family.

    The family is read as the family check reads it (`_family_maps`); one
    of no shape fails "ii-mono" alone. The kernel family of (i) is checked
    by the map conditions and the compose formula of any strong b-lattice,
    on s with the kernels as its classes.

    The (ii) preamble's requirement that each nil-part map be a semiring
    monomorphism, together with injectivity of the assembled class map, is
    reported under the key "ii-mono"; injectivity of the assembled map does
    not follow from the numbered conditions alone.
    """
    _require_saqci(s, d)
    y = d.blattice
    names = s.names
    verdicts = {k: True for k in CONDITION_KEYS}
    witnesses = {k: "" for k in CONDITION_KEYS}

    def fail(key, why):
        if verdicts[key]:
            verdicts[key] = False
            witnesses[key] = why

    def in_nil(x, alpha):
        return x in d.classes[alpha] and x not in d.kernels[alpha]

    maps, shape = _family_maps(d, m)
    if maps is None:
        fail("ii-mono", shape)
        return ConditionReport(verdicts=verdicts, witnesses=witnesses)

    def phi(alpha, beta, x):
        return maps[alpha, beta][x]

    # (i) the additively regular part is a generalized Clifford bi-ideal and
    # the kernel maps present it as a strong b-lattice of skew-rings
    from .classify import classify  # deferred to avoid an import cycle

    regs = reg_plus(s)
    if frozenset().union(*d.kernels) != regs:
        fail("i", "kernels do not cover the additively regular part")
    if not all(s.add[a][b] in regs and s.mul[a][b] in regs for a in regs for b in regs):
        fail("i", "Reg+ is not closed under both operations")
    else:
        sub = s.restrict(regs)
        if not classify(sub).holds("generalized-clifford"):
            fail("i", "Reg+ is not a generalized Clifford semiring")
    if not is_bi_ideal(s, regs):
        fail("i", "Reg+ is not a bi-ideal")
    elif not is_nil_extension(s, regs):
        fail("i", "some element has no multiple in Reg+")
    kernels = [sorted(kernel) for kernel in d.kernels]
    theta = {(alpha, beta): {r: f[r] for r in kernels[alpha]} for (alpha, beta), f in maps.items()}
    # first, so that no lookup of the map check or the formula can miss
    leaving = next(((alpha, beta) for (alpha, beta), f in theta.items()
                    if any(img not in d.kernels[beta] for img in f.values())), None)
    if leaving is not None:
        alpha, beta = leaving
        fail("i", f"theta ({y.names[alpha]},{y.names[beta]}) leaves the kernel")
    elif (failure := next(_map_failures(y, s, kernels, theta), None)) is not None:
        fail("i", f"kernel family fails {failure.law} at {failure.witness}")
    else:
        for a, b, total, product in _composed(y, s, kernels, theta):
            if s.add[a][b] != total:
                fail("i", f"kernel family misses {names[a]}+{names[b]}")
            if s.mul[a][b] != product:
                fail("i", f"kernel family misses {names[a]}*{names[b]}")

    # (ii) preamble: each varphi injective and a homomorphism wherever the
    # nil part defines the operation; the assembled class map injective
    for alpha, beta in maps:
        if alpha == beta:
            continue
        f = maps[alpha, beta]
        imgs = list(f.values())
        if len(set(imgs)) != len(imgs):
            fail("ii-mono", f"assembled map ({y.names[alpha]},{y.names[beta]}) is not injective")
        for x, img in f.items():
            if img not in d.classes[beta]:
                fail("ii-mono", f"image of {names[x]} leaves class {y.names[beta]}")
        nil = d.nil_indices(alpha)
        for x in nil:
            for x2 in nil:
                if in_nil(s.add[x][x2], alpha) and s.add[f[x]][f[x2]] != f[s.add[x][x2]]:
                    fail("ii-mono", f"varphi ({y.names[alpha]},{y.names[beta]}) breaks addition "
                                    f"at ({names[x]},{names[x2]})")
                if in_nil(s.mul[x][x2], alpha) and s.mul[f[x]][f[x2]] != f[s.mul[x][x2]]:
                    fail("ii-mono", f"varphi ({y.names[alpha]},{y.names[beta]}) breaks "
                                    f"multiplication at ({names[x]},{names[x2]})")

    # (ii)(1) the diagonal nil maps are identities
    for alpha in y.elements():
        for x in d.nil_indices(alpha):
            if phi(alpha, alpha, x) != x:
                fail("ii1", f"varphi ({y.names[alpha]},{y.names[alpha]}) moves {names[x]}")

    # (ii)(2) sums of nil elements that fall into a kernel keep doing so
    # under the maps
    for alpha in y.elements():
        for beta in y.elements():
            delta = y.add[alpha][beta]
            for gamma in y.elements():
                if not leq(y, delta, gamma):
                    continue
                for a in d.nil_indices(alpha):
                    for b in d.nil_indices(beta):
                        if in_nil(s.add[a][b], delta):
                            continue
                        fa, fb = phi(alpha, gamma, a), phi(beta, gamma, b)
                        if in_nil(s.add[fa][fb], gamma):
                            fail("ii2", f"{names[a]}+{names[b]} left the nil part but the "
                                        f"images' sum stays nil in {y.names[gamma]}")

    # (ii)(3) composition on nil parts, membership-sensitively
    for alpha, beta in maps:
        for gamma in y.elements():
            if not leq(y, beta, gamma):
                continue
            for a in d.nil_indices(alpha):
                img = phi(alpha, beta, a)
                if in_nil(img, beta):
                    if phi(beta, gamma, img) != phi(alpha, gamma, a):
                        fail("ii3", f"varphi composition breaks at {names[a]} via "
                                    f"({y.names[alpha]},{y.names[beta]},{y.names[gamma]})")
                elif in_nil(phi(alpha, gamma, a), gamma):
                    fail("ii3", f"{names[a]} maps out of the nil part at {y.names[beta]} "
                                f"but back into it at {y.names[gamma]}")

    # (ii)(4) products of nil elements, membership-sensitively
    for alpha in y.elements():
        for beta in y.elements():
            delta = y.add[alpha][beta]
            gamma_idx = y.mul[alpha][beta]
            for gamma in y.elements():
                if not leq(y, delta, gamma):
                    continue
                for a in d.nil_indices(alpha):
                    for b in d.nil_indices(beta):
                        prod = s.mul[a][b]
                        fa, fb = phi(alpha, gamma, a), phi(beta, gamma, b)
                        if in_nil(prod, gamma_idx):
                            if s.mul[fa][fb] != phi(gamma_idx, gamma, prod):
                                fail("ii4", f"({names[a]}*{names[b]}) does not track through "
                                            f"the maps into {y.names[gamma]}")
                        else:
                            if in_nil(s.mul[fa][fb], gamma):
                                fail("ii4", f"{names[a]}*{names[b]} left the nil part but the "
                                            f"images' product stays nil in {y.names[gamma]}")

    # (ii)(5) where sums and products of nil elements stay nil, the maps
    # already realize them at level alpha+beta
    for alpha in y.elements():
        for beta in y.elements():
            delta = y.add[alpha][beta]
            gamma_idx = y.mul[alpha][beta]
            for a in d.nil_indices(alpha):
                for b in d.nil_indices(beta):
                    fa, fb = phi(alpha, delta, a), phi(beta, delta, b)
                    if in_nil(s.add[a][b], delta) and s.add[a][b] != s.add[fa][fb]:
                        fail("ii5", f"{names[a]}+{names[b]} is not realized by the maps")
                    prod = s.mul[a][b]
                    if in_nil(prod, gamma_idx) and phi(gamma_idx, delta, prod) != s.mul[fa][fb]:
                        fail("ii5", f"{names[a]}*{names[b]} is not realized by the maps")

    # (iii) the maps commute with the kernel retraction
    p = psi(s, d)
    for alpha, beta in maps:
        if alpha == beta:
            continue
        for a in d.nil_indices(alpha):
            if p(phi(alpha, beta, a)) != phi(alpha, beta, p(a)):
                fail("iii", f"psi does not commute with the map at {names[a]} for "
                            f"({y.names[alpha]},{y.names[beta]})")

    return ConditionReport(verdicts=verdicts, witnesses=witnesses)


def verify_strong_blattice(s: FiniteSemiring, d: Decomposition, m: StructureMaps) -> bool:
    """True iff composing (Y, classes, maps) reproduces s exactly.

    The theorem says this equals the conjunction of its conditions; both are
    computed independently and a mismatch is surfaced as a finding.
    """
    # the conditions first: they raise unless d decomposes s
    conditions = check_main_theorem_conditions(s, d, m)
    direct = not _frame_failures(d.blattice, ()) and _family_presents(s, d, m)
    if direct != conditions.all_hold:
        warnings.warn(
            TheoremViolationWarning(
                f"strong b-lattice verdict {direct} disagrees with condition "
                f"conjunction {conditions.all_hold} (failed: {conditions.failed()})",
                payload={
                    "theorem": "strong-b-lattice-conditions",
                    "semiring": s,
                    "conditions": conditions,
                },
            )
        )
    return direct


def _forced_theta(s: FiniteSemiring, d: Decomposition) -> dict[tuple[int, int], dict[int, int]] | None:
    """In any presenting family theta_{a,b}(r) == r + e_b, so the kernel maps
    are read off the addition table; None when that forced map is unusable."""
    theta: dict[tuple[int, int], dict[int, int]] = {}
    for alpha, beta in comparable_pairs(d.blattice):
        e_beta = d.idempotents[beta]
        f = {r: s.add[r][e_beta] for r in sorted(d.kernels[alpha])}
        if any(img not in d.kernels[beta] for img in f.values()):
            return None
        if len(set(f.values())) != len(f):
            return None
        theta[(alpha, beta)] = f
    return theta


def _search_family(s: FiniteSemiring, d: Decomposition) -> StructureMaps | None:
    theta = _forced_theta(s, d)
    if theta is None or _frame_failures(d.blattice, ()):
        return None
    y = d.blattice
    pairs = [(a, b) for a, b in comparable_pairs(y)]
    slots = [(alpha, beta, x) for alpha, beta in pairs for x in d.nil_indices(alpha)]
    phi: dict[tuple[int, int], dict[int, int]] = {
        (alpha, alpha): {g: g for g in d.classes[alpha]} for alpha in y.elements()
    }
    for pair, f in theta.items():
        phi[pair] = dict(f)

    def candidates(alpha, beta, x):
        e_beta = d.idempotents[beta]
        want = s.add[s.add[x][d.idempotents[alpha]]][e_beta]
        taken = set(phi[(alpha, beta)].values())
        out = []
        for yv in sorted(d.classes[beta]):
            if yv in taken:
                continue
            if s.add[yv][e_beta] != want:  # psi-compatibility, condition (iii)
                continue
            # the addition law pins the image row against the target class
            if any(s.add[yv][b] != s.add[x][b] or s.add[b][yv] != s.add[b][x]
                   for b in d.classes[beta]):
                continue
            out.append(yv)
        return out

    def extend(k: int) -> StructureMaps | None:
        if k == len(slots):
            m = StructureMaps(decomposition=d, phi={p: dict(f) for p, f in phi.items()})
            return m if _family_presents(s, d, m) else None
        alpha, beta, x = slots[k]
        f = phi[(alpha, beta)]
        for yv in candidates(alpha, beta, x):
            f[x] = yv
            ok = True
            # partial homomorphism check against already-assigned images
            for x2, img2 in list(f.items()):
                for u, v, iu, iv in ((x, x2, yv, img2), (x2, x, img2, yv)):
                    su, pu = s.add[u][v], s.mul[u][v]
                    if su in f and f[su] != s.add[iu][iv]:
                        ok = False
                    if pu in f and f[pu] != s.mul[iu][iv]:
                        ok = False
            if ok:
                result = extend(k + 1)
                if result is not None:
                    return result
            del f[x]
        return None

    return extend(0)


def search_structure_maps(s: FiniteSemiring, bound: int = SEARCH_BOUND) -> StructureMaps | None:
    """Exhaustive, deterministic search for a family presenting s as a strong
    b-lattice of its classes; None when no family exists."""
    if s.order > bound:
        raise SearchBoundExceeded(f"order {s.order} exceeds search bound {bound}")
    d = decompose(s)
    _require_saqci(s, d)
    return _search_family(s, d)


def check_generalized_clifford_theorem(s: FiniteSemiring, bound: int = SEARCH_BOUND):
    """Generalized Clifford (definitional) against the existence of a
    presenting family with empty nil parts (strong b-lattice of skew-rings)."""
    from .classify import TheoremReport, classify

    if s.order > bound:
        raise SearchBoundExceeded(f"order {s.order} exceeds search bound {bound}")
    lhs = classify(s).holds("generalized-clifford")
    rhs = False
    try:
        d = decompose(s)
    except InternalTheoremViolation:
        raise
    except SemiringError:
        d = None
    if d is not None and all(not d.nil_indices(alpha) for alpha in range(d.y_order)):
        rhs = _search_family(s, d) is not None
    return TheoremReport(
        theorem="GCSB",
        conditions=(
            ("generalized-clifford", lhs, ""),
            ("strong-b-lattice-of-skew-rings", rhs, ""),
        ),
    )
