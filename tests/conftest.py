import sys
import warnings
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

import semiringlab as sl
from semiringlab.enumeration import enumerate_semirings, sample_semirings
from semiringlab.errors import SampleShortfallWarning
from semiringlab.kernel import additive_facts, check_element, clear_memo, memo


# every `kernel.memo` wrapper runs this one code object
MEMO_WRAPPER = memo(lambda s: None).__code__


@contextmanager
def memo_calls():
    """Count the `kernel.memo` wrapper calls this thread makes in the block,
    hits and misses alike:

        with memo_calls() as calls:
            sl.classify(s)
        print(calls.count)
    """
    calls = SimpleNamespace(count=0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is MEMO_WRAPPER:
            calls.count += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(old)


@pytest.fixture(autouse=True)
def memo_cleared():
    """Start each test with an empty memo, so that what a test counts does
    not depend on which tests ran before it."""
    clear_memo()


def ring(names, add, mul):
    return sl.FiniteSemiring(names=tuple(names), add=add, mul=mul)


def zn(n):
    """The ring of integers mod n."""
    return sl.FiniteSemiring(
        names=tuple(str(i) for i in range(n)),
        add=tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
        mul=tuple(tuple((i * j) % n for j in range(n)) for i in range(n)),
    )


def direct_product(s, t):
    """s x t with componentwise operations, pairs in row-major order."""
    pairs = [(a, b) for a in s.elements() for b in t.elements()]
    index = {pair: k for k, pair in enumerate(pairs)}

    def table(op_s, op_t):
        return tuple(
            tuple(index[op_s[a][c], op_t[b][d]] for c, d in pairs) for a, b in pairs
        )

    return sl.FiniteSemiring(
        names=tuple(f"({s.names[a]},{t.names[b]})" for a, b in pairs),
        add=table(s.add, t.add),
        mul=table(s.mul, t.mul),
    )


def universal_partition(n):
    """The partition of 0..n-1 into one block."""
    return sl.Partition((0,) * n)


def is_additively_regular(s, a):
    """Some x has a+x+a = a: V+(a) is nonempty."""
    check_element(s, a)
    return bool(additive_facts(s).inverses[a])


def additive_h_class(s, a):
    """The H+-class of a."""
    check_element(s, a)
    return additive_facts(s).h_classes[a]


def set_partitions(n):
    """Every partition of 0..n-1, once each, in decreasing lexicographic
    order of its restricted growth string (a[0] = 0 and a[i] <= 1 +
    max(a[:i])): the finest partition first, the coarsest last. The
    brute-force oracle of the congruence engine."""
    a = list(range(n))
    while True:
        yield sl.Partition(block_of=tuple(a))
        i = n - 1
        while i >= 1 and a[i] == 0:
            i -= 1
        if i < 1:
            return
        a[i] -= 1
        for j in range(i + 1, n):
            a[j] = max(a[:j]) + 1


def sample_in_full(n, count, seed):
    """sample_semirings with a shortfall raised as an error, so a fixture
    can never shrink unnoticed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", SampleShortfallWarning)
        return sample_semirings(n, count, seed=seed)


# canonical 3-element quasi skew-ring: nil part {a, b} over the zero kernel,
# both Cayley tables identical
QSR3_TEXT = """\
elements: a b 0
add:
b 0 0
0 0 0
0 0 0
mul:
b 0 0
0 0 0
0 0 0
"""


@pytest.fixture(scope="session")
def qsr3():
    return sl.parse_srt(QSR3_TEXT)


@pytest.fixture(scope="session")
def boolean():
    # ({0,1}, max, min)
    return ring("01", ((0, 1), (1, 1)), ((0, 0), (0, 1)))


@pytest.fixture(scope="session")
def z2():
    # the ring Z_2: XOR addition, AND multiplication
    return ring("01", ((0, 1), (1, 0)), ((0, 0), (0, 1)))


@pytest.fixture(scope="session")
def z3():
    return ring(
        "012",
        ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        ((0, 0, 0), (0, 1, 2), (0, 2, 1)),
    )


@pytest.fixture(scope="session")
def left_zero():
    # both operations left projection: completely regular but not
    # additively quasi inverse (every x inverts every a)
    return ring("01", ((0, 0), (1, 1)), ((0, 0), (1, 1)))


@pytest.fixture(scope="session")
def min_const():
    # + = min, * = const 0: additively regular everywhere yet not quasi
    # completely regular (1*1 = 0 breaks the multiplicative leg)
    return ring("01", ((0, 0), (0, 1)), ((0, 0), (0, 0)))


@pytest.fixture(scope="session")
def nil2():
    # {x, z}: x+x = z with z absorbing; kernel {z}, nil part {x}
    return ring("xz", ((1, 1), (1, 1)), ((1, 1), (1, 1)))


ZUNION_Z2_SBL = """\
blattice:
elements: p q
add:
p q
q q
mul:
p p
p q
component p:
elements: z
add:
z
mul:
z
component q:
elements: 0 1
add:
0 1
1 0
mul:
0 0
0 1
map p q:
z -> 0
"""


@pytest.fixture(scope="session")
def zunion_z2_spec():
    return sl.parse_sbl(ZUNION_Z2_SBL)


@pytest.fixture(scope="session")
def composed_gc(zunion_z2_spec):
    return sl.compose(zunion_z2_spec)


@pytest.fixture(scope="session")
def corpus_small():
    """Full canonical corpora of orders 1 through 3."""
    return enumerate_semirings(1) + enumerate_semirings(2) + enumerate_semirings(3)


@pytest.fixture(scope="session")
def corpus_order4():
    return sample_in_full(4, 500, 20260810)


@pytest.fixture(scope="session")
def corpus_order5():
    return sample_in_full(5, 120, 20260810)


@pytest.fixture(scope="session")
def corpus(corpus_small, corpus_order4):
    return corpus_small + corpus_order4


Z3_SRT = """\
elements: t0 t1 t2
add:
t0 t1 t2
t1 t2 t0
t2 t0 t1
mul:
t0 t0 t0
t0 t1 t2
t0 t2 t1
"""

TWO_CHAIN_Y = """\
elements: p q
add:
p q
q q
mul:
p p
p q
"""

# the 3-element quasi skew-ring embedded under an isomorphic copy on a 2-chain
QSR3_CHAIN_SBL = (
    "blattice:\n" + TWO_CHAIN_Y
    + "component p:\n" + QSR3_TEXT
    + "component q:\nelements: A B O\nadd:\nB O O\nO O O\nO O O\nmul:\nB O O\nO O O\nO O O\n"
    + "map p q:\na -> A\nb -> B\n0 -> O\n"
)

ZUNION_QSR3_SBL = (
    "blattice:\n" + TWO_CHAIN_Y
    + "component p:\nelements: w\nadd:\nw\nmul:\nw\n"
    + "component q:\n" + QSR3_TEXT
    + "map p q:\nw -> 0\n"
)

NIL2_CHAIN_SBL = (
    "blattice:\n" + TWO_CHAIN_Y
    + "component p:\nelements: x z\nadd:\nz z\nz z\nmul:\nz z\nz z\n"
    + "component q:\nelements: X Z\nadd:\nZ Z\nZ Z\nmul:\nZ Z\nZ Z\n"
    + "map p q:\nx -> X\nz -> Z\n"
)

ZUNION_Z3_SBL = (
    "blattice:\n" + TWO_CHAIN_Y
    + "component p:\nelements: w\nadd:\nw\nmul:\nw\n"
    + "component q:\n" + Z3_SRT
    + "map p q:\nw -> t0\n"
)

# multiplication on the index b-lattice is max here: cross products route to
# the top component, where the diagonal image need not be an ideal
Z2_INTO_Z2Z2_SBL = (
    "blattice:\nelements: p q\nadd:\np q\nq q\nmul:\np q\nq q\n"
    + "component p:\nelements: g0 g1\nadd:\ng0 g1\ng1 g0\nmul:\ng0 g0\ng0 g1\n"
    + "component q:\nelements: h00 h01 h10 h11\n"
    + "add:\nh00 h01 h10 h11\nh01 h00 h11 h10\nh10 h11 h00 h01\nh11 h10 h01 h00\n"
    + "mul:\nh00 h00 h00 h00\nh00 h01 h00 h01\nh00 h00 h10 h10\nh00 h01 h10 h11\n"
    + "map p q:\ng0 -> h00\ng1 -> h11\n"
)

THREE_CHAIN_SBL = """\
blattice:
elements: p q r
add:
p q r
q q r
r r r
mul:
p p p
p q q
p q r
component p:
elements: u1
add:
u1
mul:
u1
component q:
elements: u2
add:
u2
mul:
u2
component r:
elements: u3
add:
u3
mul:
u3
map p q:
u1 -> u2
map p r:
u1 -> u3
map q r:
u2 -> u3
"""

DIAMOND_SBL = """\
blattice:
elements: b l r t
add:
b l r t
l l t t
r t r t
t t t t
mul:
b b b b
b l b l
b b r r
b l r t
component b:
elements: zb
add:
zb
mul:
zb
component l:
elements: zl
add:
zl
mul:
zl
component r:
elements: zr
add:
zr
mul:
zr
component t:
elements: zt
add:
zt
mul:
zt
map b l:
zb -> zl
map b r:
zb -> zr
map b t:
zb -> zt
map l t:
zl -> zt
map r t:
zr -> zt
"""

HAND_SBL_TEXTS = {
    "zunion-z2": ZUNION_Z2_SBL,
    "qsr3-chain": QSR3_CHAIN_SBL,
    "zunion-qsr3": ZUNION_QSR3_SBL,
    "nil2-chain": NIL2_CHAIN_SBL,
    "zunion-z3": ZUNION_Z3_SBL,
    "z2-into-z2z2": Z2_INTO_Z2Z2_SBL,
    "three-chain": THREE_CHAIN_SBL,
    "diamond": DIAMOND_SBL,
}


def derive_spec_text(s):
    """Decompose, search for a presenting family, reserialize as .sbl."""
    from semiringlab.blattice import family_spec
    from semiringlab.structure import is_strongly_additively_quasi_completely_inverse

    if not is_strongly_additively_quasi_completely_inverse(s):
        return None
    try:
        d = sl.decompose(s)
    except sl.errors.SemiringError:
        return None
    m = sl.search_structure_maps(s)
    if m is None:
        return None
    return sl.serialize_sbl(family_spec(d, m))


@pytest.fixture(scope="session")
def generated_sbl_texts(corpus_small):
    """At least ten machine-derived .sbl specs, multi-class members first."""
    candidates = [s for s in corpus_small if s.order >= 2]
    candidates.sort(key=lambda s: -sl.green_star_plus(s, "H").num_blocks)
    texts = []
    for s in candidates:
        text = derive_spec_text(s)
        if text is not None:
            texts.append(text)
        if len(texts) >= 12:
            break
    return texts


@pytest.fixture(scope="session")
def spec_test_set(generated_sbl_texts):
    texts = list(HAND_SBL_TEXTS.values()) + generated_sbl_texts
    return [sl.parse_sbl(text) for text in texts]


@pytest.fixture(scope="session")
def corpus_order6():
    return sample_in_full(6, 40, 20260810)


@pytest.fixture(scope="session")
def corpus_order4_all():
    """The full canonical corpus of order 4."""
    return enumerate_semirings(4)


# The build-based definitions the verifiers once ran: each block, Reg+ and
# composed family is built as a semiring of its own and analysed from
# scratch. They are the oracles of the checks that read the same conditions
# off the tables of s.


def quasi_skew_subsemiring_by_building(s, block):
    """The block is closed and, built as a semiring, a quasi skew-ring."""
    return s.is_closed(block) and sl.quasi_skew_ring_check(s.restrict(block)).skew_ring_absorbs_multiples


def regular_part_inverse_by_building(s):
    """Reg+(S) closed under both operations and, built as a semiring, with an
    inverse additive reduct; the evidence as SAQCI3 (ii) words it."""
    regs = sorted(sl.reg_plus(s))
    regset = frozenset(regs)
    for a in regs:
        for b in regs:
            if s.add[a][b] not in regset:
                return False, f"{s.names[a]}+{s.names[b]} leaves Reg+"
            if s.mul[a][b] not in regset:
                return False, f"{s.names[a]}*{s.names[b]} leaves Reg+"
    t = s.restrict(regset)
    for a in t.elements():
        count = len(sl.additive_inverses(t, a).inverses)
        if count != 1:
            return False, f"Reg+ additive reduct not inverse: {t.names[a]} has {count} additive inverses"
    return True, ""


def _same_by_names(t, s):
    """Do t and s have the same elements and the same tables, read by name?"""
    if set(t.names) != set(s.names):
        return False
    idx = {name: i for i, name in enumerate(t.names)}
    for a in s.elements():
        for b in s.elements():
            ta, tb = idx[s.names[a]], idx[s.names[b]]
            if t.names[t.add[ta][tb]] != s.names[s.add[a][b]]:
                return False
            if t.names[t.mul[ta][tb]] != s.names[s.mul[a][b]]:
                return False
    return True


def _composes_to(make_spec, s):
    """Does `compose` build s, read by names, from the spec `make_spec()`
    returns? A spec that cannot be made, or that compose rejects, builds
    nothing; an InternalTheoremViolation propagates."""
    try:
        composed = sl.compose(make_spec())
    except sl.errors.InternalTheoremViolation:
        raise
    except sl.errors.SemiringError:
        return False
    return _same_by_names(composed, s)


def family_presents_by_compose(s, d, m):
    """Does composing (Y, classes, maps) with `compose` reproduce s exactly?
    A spec compose rejects presents nothing; an InternalTheoremViolation
    propagates."""
    from semiringlab.blattice import family_spec

    return _composes_to(lambda: family_spec(d, m), s)


def kernel_family_presents_by_building(s, d, m):
    """The kernel part of the main theorem's condition (i), by building:
    does composing Y, each kernel built as a semiring and the maps
    restricted to the kernels, in kernel-local indices, reproduce Reg+ of s?
    A map that leaves a kernel presents nothing."""
    kernels = [sorted(kernel) for kernel in d.kernels]
    local = [{r: i for i, r in enumerate(kernel)} for kernel in kernels]
    maps = {}
    for (alpha, beta), f in m.phi.items():
        images = [local[beta].get(f[r]) for r in kernels[alpha]]
        if None in images:
            return False
        maps[alpha, beta] = tuple(images)
    components = tuple(s.restrict(kernel) for kernel in kernels)
    return _composes_to(lambda: sl.StrongBLatticeSpec(d.blattice, components, maps),
                        s.restrict(sl.reg_plus(s)))
