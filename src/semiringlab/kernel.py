"""Finite (partial) semirings as Cayley tables, the axiom checks, and the
memo of the analysis primitives.

Elements are dense indices 0..n-1 carrying display names; all reports speak
in names. Every value here is immutable after construction and every
operation is a pure function.

One law checker, `validate`, serves total and partial tables: it reads an
undefined entry as an absorbing value, so the laws bind wherever defined.
The enumeration's incremental checks (`enumeration._assoc_ok_at`,
`_distrib_ok_at`) are the one exception: they judge the triples of a table
being filled, where a triple with an undefined evaluation passes.

Memo: each primitive decorated with `memo` takes the semiring alone and
computes its result once per value it reads. By default that value is the
whole semiring, `(s.names, s.add, s.mul)`: the complete-regularity vector,
element classes, class reports, quasi skew-ring conditions, decompositions
and the least b-lattice congruence. What reads the addition alone is one
record per addition, `additive_facts`, keyed by that table and built in one
pass over its rows and columns: orbits and their windows, V+, the
additive reduct's flags, E+ and Reg+, least regular multiples, commuting
witnesses, plain and starred Green relations, H+-classes, the
orbit-idempotent partition and the first pair of additive idempotents that
do not commute. The public per-fact functions (`reg_plus`, `green_plus`,
...) return its fields, and a caller that needs several fetches the record
once and passes it down, so a fact costs one memo lookup. The least
relabelling of an addition with the permutations that reach it
(`enumeration._least_addition`) is keyed by the addition too. Results are
element indices, never names, so each caller words its own evidence. The
facts of the multiplicative reduct (`orbits(s, MUL)`, ...) are computed on
each call.

A per-element analysis is memoized as one vector over the whole carrier,
indexed by element (`orbits`, `complete_regularity`, `element_classes`,
...): callers index the vector, and the per-element public names (`orbit`,
`is_completely_regular`, `classify_element`, ...) are accessors that check
the index first.

Equal semirings, and for a per-addition primitive every semiring with that
addition, share their results. The memo keeps the results of the
`_MEMO_SEMIRINGS` values most recently used and drops the least recently
used first. Its newest entry is read without hashing: a call on the very
table objects that entry was read from (names, addition and multiplication
for a whole-semiring primitive, the addition alone for a per-addition one)
reads its cache directly and moves nothing. A semiring's entry also keeps
the per-addition results of that semiring: the first such call reads the
addition's own entry, like any other lookup, and the later ones stay in
the semiring's entry, so one semiring's analysis does not alternate
between two entries. `clear_memo` drops every entry and the pointer to the
newest.

Memoized results are immutable values (tuples, frozensets, named tuples,
read-only mappings). No key is a semiring object and no
result references the semiring it was computed for, so the memo keeps no
analysed semiring alive: `decompose` caches every field of a
`Decomposition` but its `base`, which it sets to the caller's own object.
Exceptions are never cached.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from enum import Enum
from itertools import compress, product
from types import MappingProxyType
from typing import NamedTuple

from .errors import DimensionMismatch, OutOfRange

Row = tuple[int, ...]
Table = tuple[Row, ...]

ADD = "add"
MUL = "mul"

LAW_ADD_ASSOC = "add-associativity"
LAW_MUL_ASSOC = "mul-associativity"
LAW_LEFT_DIST = "left-distributivity"
LAW_RIGHT_DIST = "right-distributivity"


# how many values the memo keeps results for; the least recently used is
# dropped first
_MEMO_SEMIRINGS = 16
# value read -> {primitive: result}, least recently used first
_CACHES: dict[tuple, dict] = {}
_MISSING = object()
# the last entry of `_CACHES`: (that dict, names, addition, multiplication,
# cache), the objects its value was read from; names and multiplication are
# None for the entry of an addition
_NO_ENTRY = (None, None, None, None, None)
_newest = _NO_ENTRY


def clear_memo() -> None:
    """Drop every memo entry and the pointer to the newest."""
    global _newest
    _newest = _NO_ENTRY
    _CACHES.clear()


def _renew(s, addition: bool) -> dict:
    """The cache of s's value, or with `addition` of its addition's, moved
    (or added) to the end of `_CACHES` and made the newest entry; values
    past the bound are dropped, the least recently used first."""
    global _newest
    caches = _CACHES
    names, add, mul = (None, s.add, None) if addition else (s.names, s.add, s.mul)
    read = add if addition else (names, add, mul)
    cache = caches.pop(read, None)
    if cache is None:
        cache = {}
    caches[read] = cache
    kept = len(caches)
    if kept > _MEMO_SEMIRINGS:
        # a snapshot and pop(key, None): other threads may evict too
        for old in list(caches)[:-_MEMO_SEMIRINGS]:
            caches.pop(old, None)
    # a dict that keeps no entry gets no newest entry either
    if kept:
        _newest = (caches, names, add, mul, cache)
    return cache


def _read(cache: dict, fn, wrapper, s):
    """fn(s) from cache, computed and stored there on a miss."""
    value = cache.get(fn, _MISSING)
    if value is _MISSING:
        # the body is looked up on a miss, so a test can count its runs
        value = cache[fn] = wrapper.__wrapped__(s)
    return value


def memo(fn=None, *, addition=False):
    """Cache fn(s), a primitive of one semiring, keyed by fn in the cache of
    the value it reads.

    By default that value is the semiring's; with `addition`, the value of
    its addition table instead: the body must read nothing else of s and
    return no names."""
    if fn is None:
        return functools.partial(memo, addition=addition)

    @functools.wraps(fn)
    def wrapper(s):
        caches, names, add, mul, cache = _newest
        # the newest entry serves a call on the very table objects it was
        # read from, with no hashing and no move; the entry of a semiring
        # serves its addition's primitives too
        if caches is _CACHES and add is s.add and (addition or names is s.names and mul is s.mul):
            value = cache.get(fn, _MISSING)
            if value is not _MISSING:
                return value
            if addition and names is not None:
                # read once from the addition's own entry, then kept here
                cache[fn] = value = _read(_renew(s, True), fn, wrapper, s)
                return value
        else:
            cache = _renew(s, addition)
        return _read(cache, fn, wrapper, s)

    return wrapper


def freeze_table(rows) -> Table:
    return tuple(tuple(row) for row in rows)


def check_table(table: Table, n: int, what: str, undefined: bool = False) -> None:
    """Shape and range of a Cayley table; `undefined` also admits None, for
    the tables of a PartialSemiring."""
    if len(table) != n:
        raise DimensionMismatch(f"{what} table has {len(table)} rows, expected {n}")
    for i, row in enumerate(table):
        if len(row) != n:
            raise DimensionMismatch(f"{what} table row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            if not (isinstance(v, int) and 0 <= v < n or undefined and v is None):
                raise OutOfRange(
                    f"{what} table entry at ({i},{j}) is {v!r}, expected 0..{n - 1}"
                    + (" or undefined" if undefined else "")
                )


def check_names(names: tuple[str, ...]) -> None:
    if len(names) == 0:
        raise DimensionMismatch("carrier must be nonempty")
    seen = set()
    for name in names:
        # '#' starts a comment in .srt and .sbl; split() is [name] iff name is nonempty without whitespace
        if "#" in name or name.split() != [name]:
            raise ValueError(f"element name {name!r} must be nonempty, without whitespace or '#'")
        if name == "->":
            raise ValueError("element name '->' is reserved for .sbl map entries")
        if name in seen:
            raise ValueError(f"duplicate element name {name!r}")
        seen.add(name)


# The records of this package are named tuples and `__slots__` classes, not
# dataclasses: importing `dataclasses` takes about 10 ms and creating each
# frozen dataclass about 1 ms more, which every CLI run would pay.
_set = object.__setattr__


class _Tables:
    """Carrier names plus two Cayley tables, fixed at construction. Equal
    only to an object of the same class with equal fields; a field cannot be
    assigned or deleted."""

    __slots__ = ("names", "add", "mul", "__weakref__")

    def __init__(self, names, add, mul):
        _set(self, "names", tuple(names))
        _set(self, "add", freeze_table(add))
        _set(self, "mul", freeze_table(mul))
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.names, self.add, self.mul) == (other.names, other.add, other.mul)

    def __hash__(self):
        return hash((self.names, self.add, self.mul))

    def __reduce__(self):
        return self.__class__, (self.names, self.add, self.mul)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{self.__class__.__name__}(names={self.names!r}, add={self.add!r}, mul={self.mul!r})"

    @property
    def order(self) -> int:
        return len(self.names)


class FiniteSemiring(_Tables):
    """Carrier plus two total Cayley tables (row = left operand).

    Construction checks shapes, ranges and names; the semiring *laws* are
    checked separately by validate_semiring, so candidate tables can be
    represented before being judged.
    """

    __slots__ = ()

    names: tuple[str, ...]
    add: Table
    mul: Table

    def __post_init__(self):
        check_names(self.names)
        n = len(self.names)
        check_table(self.add, n, "add")
        check_table(self.mul, n, "mul")

    @classmethod
    def _from_checked(cls, names: tuple[str, ...], add: Table, mul: Table) -> FiniteSemiring:
        """A semiring of a names tuple and two frozen tables that are known to
        pass `check_names` and `check_table`, built without checking them
        again."""
        s = object.__new__(cls)
        _set(s, "names", names)
        _set(s, "add", add)
        _set(s, "mul", mul)
        return s

    def elements(self) -> range:
        return range(len(self.names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise OutOfRange(f"unknown element name {name!r}") from None

    def table(self, which: str) -> Table:
        if which == ADD:
            return self.add
        if which == MUL:
            return self.mul
        raise ValueError(f"expected {ADD!r} or {MUL!r}, got {which!r}")

    def is_closed(self, subset) -> bool:
        sub = frozenset(subset)
        return all(self.add[a][b] in sub and self.mul[a][b] in sub for a in sub for b in sub)

    def restrict(self, subset) -> FiniteSemiring:
        """Subsemiring on a closed subset, carrier order preserved."""
        sub = sorted(set(subset))
        if not self.is_closed(sub):
            raise ValueError(f"subset {sorted(self.names[i] for i in sub)} is not closed")
        back = {old: new for new, old in enumerate(sub)}
        return FiniteSemiring(
            names=tuple(self.names[i] for i in sub),
            add=tuple(tuple(back[self.add[a][b]] for b in sub) for a in sub),
            mul=tuple(tuple(back[self.mul[a][b]] for b in sub) for a in sub),
        )

    def relabel(self, perm) -> FiniteSemiring:
        """Isomorphic copy with new index i holding old element perm[i]."""
        n = self.order
        perm = tuple(perm)
        if sorted(perm) != list(range(n)):
            raise OutOfRange(f"not a permutation of 0..{n - 1}: {perm!r}")
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        return FiniteSemiring(
            names=tuple(self.names[p] for p in perm),
            add=tuple(tuple(inv[self.add[perm[i]][perm[j]]] for j in range(n)) for i in range(n)),
            mul=tuple(tuple(inv[self.mul[perm[i]][perm[j]]] for j in range(n)) for i in range(n)),
        )

    def __repr__(self):
        return f"FiniteSemiring({'/'.join(self.names)})"


class PartialSemiring(_Tables):
    """Cayley tables with possibly-undefined (None) entries.

    Models the nil part of a quasi skew-ring; no closure is attempted, an
    undefined cell simply stays undefined.
    """

    __slots__ = ()

    names: tuple[str, ...]
    add: tuple[tuple[int | None, ...], ...]
    mul: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        n = len(self.names)
        if n:
            check_names(self.names)
        check_table(self.add, n, ADD, undefined=True)
        check_table(self.mul, n, MUL, undefined=True)


class LawFailure(NamedTuple):
    law: str
    witness: tuple[str, ...]


class ValidationReport(NamedTuple):
    verdict: bool
    failures: tuple[LawFailure, ...]

    @staticmethod
    def from_failures(failures) -> ValidationReport:
        failures = tuple(failures)
        return ValidationReport(verdict=not failures, failures=failures)


def validate_semiring(elements, add, mul) -> ValidationReport:
    """Check both associativity laws and both distributivity laws on all
    triples; the first witness per law, in row-major (a, b, c) order."""
    s = FiniteSemiring(names=tuple(elements), add=freeze_table(add), mul=freeze_table(mul))
    return validate(s)


def validate(s: FiniteSemiring | PartialSemiring) -> ValidationReport:
    """The semiring laws of a total or partial table, wherever defined.

    An undefined (None) entry reads as an absorbing value u = n, added as a
    row and column only when a table holds one. An associative law then
    fails when its two groupings differ, also when only one of them is
    defined; a distributive law fails only when both of its sides are
    defined and differ. On total tables these are the plain laws. Each
    failed law reports its first witness in row-major (a, b, c) order."""
    n = s.order
    add, mul, names = s.add, s.mul, s.names
    u = n
    if any(None in row for row in add + mul):
        pad = (u,) * (n + 1)
        add, mul = (
            tuple(tuple(u if v is None else v for v in row) + (u,) for row in table) + (pad,)
            for table in (add, mul)
        )
    r = range(n)
    scans = (
        (LAW_ADD_ASSOC, ((a, b, c) for a in r for b in r for c in r
                         if add[add[a][b]][c] != add[a][add[b][c]])),
        (LAW_MUL_ASSOC, ((a, b, c) for a in r for b in r for c in r
                         if mul[mul[a][b]][c] != mul[a][mul[b][c]])),
        (LAW_LEFT_DIST, ((a, b, c) for a in r for b in r for c in r
                         if (lhs := mul[a][add[b][c]]) != (rhs := add[mul[a][b]][mul[a][c]])
                         and u not in (lhs, rhs))),
        (LAW_RIGHT_DIST, ((a, b, c) for a in r for b in r for c in r
                          if (lhs := mul[add[b][c]][a]) != (rhs := add[mul[b][a]][mul[c][a]])
                          and u not in (lhs, rhs))),
    )
    failures = []
    for law, witnesses in scans:
        witness = next(witnesses, None)
        if witness is not None:
            failures.append(LawFailure(law, tuple(names[x] for x in witness)))
    return ValidationReport.from_failures(failures)


class ReductFlag(Enum):
    GROUP = "group"
    BAND = "band"
    SEMILATTICE = "semilattice"
    INVERSE = "inverse"
    PLAIN = "plain"


def _inverses(table: Table, r: range) -> tuple[frozenset[int], ...]:
    return tuple([
        frozenset([x for x, ax in enumerate(row) if table[ax][a] == a and table[table[x][a]][x] == x])
        for a, row in zip(r, table)
    ])


# the flag set of each verdict on the first four flags, in their order
_FLAG_SETS = {holds: frozenset(compress(ReductFlag, holds)) or frozenset({ReductFlag.PLAIN})
              for holds in product((False, True), repeat=4)}


def _flags(table: Table, cols: Table, r: range, inv) -> frozenset[ReductFlag]:
    """The flags of a reduct, off its rows and its columns `cols`."""
    band = all(table[a][a] == a for a in r)
    ident = tuple(r)
    e = next((e for e in r if table[e] == ident and cols[e] == ident), None)
    # a+x = e = x+a reads row a and column a at x
    group = e is not None and all(any(u == e == v for u, v in zip(row, col)) for row, col in zip(table, cols))
    return _FLAG_SETS[group, band, band and table == cols, all(len(v) == 1 for v in inv)]


def _orbit(col: Row, a: int) -> Orbit:
    """The orbit of a, off column a of its table: x + a is col[x]."""
    values = [a]
    while (nxt := col[values[-1]]) not in values:
        values.append(nxt)
    mu = values.index(nxt)
    return Orbit(tuple(values), mu, len(values) - mu)


def inverses(s: FiniteSemiring, which: str) -> tuple[frozenset[int], ...]:
    """V(a) = {x : a*x*a = a and x*a*x = x} for every element a of the
    chosen reduct, by index. V(a) is nonempty exactly when a is regular: if
    a*x*a = a, then x*a*x lies in V(a)."""
    return additive_facts(s).inverses if which == ADD else _inverses(s.table(which), s.elements())


def reduct_kind(s: FiniteSemiring, which: str) -> frozenset[ReductFlag]:
    """All structural flags of the chosen reduct; {PLAIN} when none hold."""
    if which == ADD:
        return additive_facts(s).flags
    table = s.table(which)
    return _flags(table, tuple(zip(*table)), s.elements(), _inverses(table, s.elements()))


def orbits(s: FiniteSemiring, which: str) -> tuple[Orbit, ...]:
    """The orbit of every element under the chosen operation, by index."""
    if which == ADD:
        return additive_facts(s).orbits
    return tuple(_orbit(col, a) for a, col in enumerate(zip(*s.table(which))))


def is_idempotent_semiring(s: FiniteSemiring) -> bool:
    """Both reducts are bands (commutativity of addition not required)."""
    return all(s.add[a][a] == a == s.mul[a][a] for a in s.elements())


def is_b_lattice(s: FiniteSemiring) -> bool:
    """Additive reduct a semilattice and multiplicative reduct a band."""
    add = s.add
    return is_idempotent_semiring(s) and all(add[a][b] == add[b][a] for a in s.elements() for b in range(a))


class Orbit(NamedTuple):
    """The eventually periodic sequence a, 2a, 3a, ... (or powers under MUL).

    values[i] holds the (i+1)-fold combination; preperiod mu and period lam
    satisfy mu + lam == len(values), so indices 0..mu+lam-1 cover every
    distinct multiple and each predicate over "some positive n" is decided
    completely by scanning that window.
    """

    values: tuple[int, ...]
    mu: int
    lam: int

    def value_at(self, k: int) -> int:
        # k is 1-based: value_at(1) == a
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        i = k - 1
        if i < len(self.values):
            return self.values[i]
        return self.values[self.mu + (i - self.mu) % self.lam]


def _dense(ids) -> list[int]:
    """Each id renumbered by its first occurrence: 0, 1, 2, ..."""
    relabel = {}
    return [relabel.setdefault(b, len(relabel)) for b in ids]


class Partition:
    """Equivalence relation on 0..n-1, given by a block id per element. The
    ids may be any hashable values in any iterable; construction renumbers
    them densely by first occurrence, so equal partitions compare equal.
    Equal only to a Partition; `block_of` cannot be assigned. `blocks()` is
    split once and kept, unseen by equality, hash, repr and pickling."""

    __slots__ = ("block_of", "_blocks")

    block_of: tuple[int, ...]

    def __init__(self, block_of):
        _set(self, "block_of", tuple(_dense(block_of)))

    @classmethod
    def _of_dense(cls, block_of: list[int]) -> Partition:
        """Ids already numbered as construction numbers them, kept as given."""
        p = object.__new__(cls)
        _set(p, "block_of", tuple(block_of))
        return p

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.block_of == other.block_of

    def __hash__(self):
        return hash((self.block_of,))

    def __reduce__(self):
        return Partition, (self.block_of,)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"Partition(block_of={self.block_of!r})"

    @staticmethod
    def identity(n: int) -> Partition:
        return Partition(range(n))

    @property
    def n(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1 if self.block_of else 0

    def blocks(self) -> tuple[frozenset[int], ...]:
        if not hasattr(self, "_blocks"):
            out = [[] for _ in range(self.num_blocks)]
            for x, b in enumerate(self.block_of):
                out[b].append(x)
            _set(self, "_blocks", tuple(map(frozenset, out)))
        return self._blocks

    def same(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def refines(self, other: Partition) -> bool:
        """self finer-or-equal: every self-block sits inside an other-block."""
        if self.n != other.n:
            raise ValueError("partitions of different carriers")
        rep = {}
        for x, b in enumerate(self.block_of):
            if b in rep and other.block_of[rep[b]] != other.block_of[x]:
                return False
            rep.setdefault(b, x)
        return True


GREEN_KINDS = ("L", "R", "H", "D", "J")


class AdditiveFacts(NamedTuple):
    """Every fact of a semiring that reads its addition alone, by element
    index. The starred relations are the plain ones pulled back through the
    least regular multiples: a ~* b iff pa ~ qb."""

    orbits: tuple[Orbit, ...]  # a, 2a, 3a, ... for each a
    windows: tuple[frozenset[int], ...]  # the elements of each orbit
    inverses: tuple[frozenset[int], ...]  # V+(a)
    flags: frozenset[ReductFlag]
    idempotents: frozenset[int]  # E+
    regular: frozenset[int]  # Reg+
    least_regular_multiples: tuple[tuple[int, int], ...]  # (p, pa), p least with pa regular
    witnesses: tuple[int | None, ...]  # the x in V+(a) with a+x = x+a, or None
    several_witnesses: tuple[int, tuple[int, ...]] | None  # the first a with more than one
    green: Mapping[str, Partition]  # every kind
    green_star: Mapping[str, Partition]  # H, D and J
    h_classes: tuple[frozenset[int], ...]  # the H+-class of each a
    partition: Partition  # P: a ~ b iff their orbits hold the same idempotent
    noncommuting_idempotents: tuple[int, int] | None  # the first pair, or None


def _principal_sets(s: FiniteSemiring, kind: str, cols: Table) -> tuple[frozenset[int], ...]:
    """Principal additive left ("L") or right ("R") ideals with a formal
    identity adjoined, so x itself always belongs to its own ideal even
    without additive idempotents: S + x is column x of the addition, given
    as `cols`, and x + S is row x."""
    return tuple([frozenset((x, *line)) for x, line in enumerate(cols if kind == "L" else s.add)])


@memo(addition=True)
def additive_facts(s: FiniteSemiring) -> AdditiveFacts:
    """The record of the addition; its L, R, H and J ids are numbered densely as made."""
    add = s.add
    r = range(len(add))
    cols = tuple(zip(*add))
    inv = _inverses(add, r)
    left_sets, right_sets = (_principal_sets(s, kind, cols) for kind in "LR")
    orbs, windows, idem_of, least, witnesses, idems, regular = [], [], [], [], [], [], []
    several = None
    # L, R and H ids numbered densely by first occurrence, as they are met
    left_ids, right_ids, h_ids = {}, {}, {}
    left, right, h = [], [], []
    # D = L o R, which on a finite semigroup is J: a and b are D-related iff
    # their L-classes meet the same R-classes (the egg-box lemma), here a
    # bitmask of R-ids per L-id
    met = [0] * len(add)
    for a, row, col, v in zip(r, add, cols, inv):
        orb = _orbit(col, a)
        values, mu, lam = orb
        orbs.append(orb)
        windows.append(frozenset(values))
        # a finite additive orbit always holds a regular element, its
        # idempotent ka, k the least multiple of the period past the preperiod
        idem_of.append(values[lam * (mu // lam + 1) - 1])
        if v:
            regular.append(a)
            least.append((1, a))
            hits = [x for x in sorted(v) if row[x] == col[x]]
            witnesses.append(hits[0] if hits else None)
            if several is None and len(hits) > 1:
                several = a, tuple(hits)
        else:
            least.append(next((i, x) for i, x in enumerate(values, 1) if inv[x]))
            witnesses.append(None)
        if row[a] == a:
            idems.append(a)
        lid = left_ids.setdefault(left_sets[a], len(left_ids))
        rid = right_ids.setdefault(right_sets[a], len(right_ids))
        left.append(lid)
        right.append(rid)
        met[lid] |= 1 << rid
        h.append(h_ids.setdefault((lid, rid), len(h_ids)))
    h = Partition._of_dense(h)
    j = Partition._of_dense(_dense([met[lid] for lid in left]))
    # the pullback preserves meets, so H* is L* meet R*, and D* = J*
    hstar = Partition([h.block_of[v] for _, v in least])
    jstar = Partition([j.block_of[v] for _, v in least])
    h_blocks = h.blocks()
    return AdditiveFacts(
        orbits=tuple(orbs),
        windows=tuple(windows),
        inverses=inv,
        flags=_flags(add, cols, r, inv),
        idempotents=frozenset(idems),
        regular=frozenset(regular),
        least_regular_multiples=tuple(least),
        witnesses=tuple(witnesses),
        several_witnesses=several,
        green=MappingProxyType({"L": Partition._of_dense(left), "R": Partition._of_dense(right),
                                "H": h, "D": j, "J": j}),
        green_star=MappingProxyType({"H": hstar, "D": jstar, "J": jstar}),
        h_classes=tuple(h_blocks[b] for b in h.block_of),
        partition=Partition(idem_of),
        noncommuting_idempotents=next(((e, f) for i, e in enumerate(idems) for f in idems[i + 1:]
                                       if add[e][f] != cols[e][f]), None),
    )


def check_element(s: FiniteSemiring, a) -> None:
    """Raise OutOfRange unless a indexes an element of s; a bool, an int to
    isinstance, indexes none."""
    if not (isinstance(a, int) and not isinstance(a, bool) and 0 <= a < s.order):
        raise OutOfRange(f"element index {a!r} outside 0..{s.order - 1}")


def orbit(s: FiniteSemiring, a: int, which: str = ADD) -> Orbit:
    check_element(s, a)
    return orbits(s, which)[a]


def repeat(s: FiniteSemiring, a: int, k: int, which: str = ADD) -> int:
    """k-fold sum ka (or power a^k); cycle detection keeps k unbounded."""
    return orbit(s, a, which).value_at(k)
