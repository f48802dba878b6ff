"""Exhaustive generation of small semirings up to isomorphism, a sampling
mode for orders where the full sweep is out of reach, corpus persistence,
and counterexample search over class implications.

Every table comes from one backtracking fill (`_tables`) that checks
associativity, and optionally distributivity over a given addition, at each
new cell. The exhaustive search fills row-major in ascending value order; the
sampler grows the leading block in a seeded value order and takes the first
completion.

Exhaustive generation works over additive isomorphism classes. The
additions are the semigroups up to isomorphism: the row-major fill, given
every carrier permutation, keeps only the tables that are the least encoding
of their orbit under relabelling (the lex-leader constraint of Distler and
Kelsey), and prunes a partial table as soon as a permutation carries its
filled prefix to a smaller one. The labeled associative tables are the
orbits of these representatives. Distributivity needs no search: x(y+z) =
xy+xz for all y, z exactly when row x of the multiplication is an
endomorphism of (S,+), and the right law says the same of column x. So each
row or column that occurs among the labeled tables is tested once per
representative, and the representative's hits are the tables that hold no
row or column failing the test, read off one bitset per map. Labeled counts
follow from the same pass: each representative's hits count once per member
of its orbit.

Canonicalization relabels one table at a time, through one byte gather per
carrier permutation; the gathers are built once per order up to
`SAMPLE_BOUND` and cached. The canonical encoding puts the addition first, so
its minimum over all carrier permutations is reached exactly at the
permutations that carry the addition onto its least relabelling, and only
those compete on the multiplication. Those permutations and the least
addition are memoized per addition, so the members of a corpus, sorted
addition first, share them. The exhaustive search keeps each representative
addition as it is and relabels its hits by the automorphisms of the
addition alone, which gives the same bytes as `canonical_form`. When every
permutation is an automorphism (the left- and right-zero additions), the
least relabelling of a multiplication is the least member of its orbit,
which the orbit pass has already recorded.
"""

from __future__ import annotations

import random
import warnings
from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from typing import NamedTuple

from .errors import BoundExceeded, DimensionMismatch, OutOfRange, SampleShortfallWarning, UnknownClassName
from .kernel import FiniteSemiring, Table, memo
from .classify import CLASS_KEYS, classify

FULL_ENUMERATION_BOUND = 4
SAMPLE_BOUND = 6
CANONICAL_BOUND = 8


@lru_cache(maxsize=None)
def _element_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def _flat(table) -> bytes:
    """Row-major encoding of an n x n table."""
    return bytes([v for row in table for v in row])


def _relabelling(p):
    """The map from the row-major encoding of an n x n table to the encoding
    of the same table relabelled by the carrier permutation p, as
    `FiniteSemiring.relabel` does: entry (i, j) becomes p^-1(t[p[i]][p[j]])."""
    n = len(p)
    inv = bytearray(256)
    for i, x in enumerate(p):
        inv[x] = i
    # the leading 0 keeps the gathered entries a tuple when there is one cell
    gather = itemgetter(0, *(a * n + b for a in p for b in p))
    return lambda enc: bytes(gather(enc))[1:].translate(inv)


@lru_cache(maxsize=None)
def _cached_relabellings(n: int) -> tuple:
    """The relabellings of an n x n encoding by every carrier permutation, in
    lexicographic order of the permutation, built once per order (720 at
    order 6, about 0.7 MB). Only orders up to `SAMPLE_BOUND` come here; the
    40320 of order 8 would take about 50 MB."""
    return tuple(map(_relabelling, permutations(range(n))))


@memo(addition=True)
def _least_addition(s: FiniteSemiring) -> tuple[bytes, tuple]:
    """The least relabelling of s's addition, as a row-major encoding, and
    the relabellings that carry the addition onto it, for an order up to
    `SAMPLE_BOUND`. When the addition is itself least, they are its
    automorphisms."""
    add = _flat(s.add)
    least, reach = None, []
    for relabel in _cached_relabellings(len(s.add)):
        image = relabel(add)
        if least is None or image < least:
            least, reach = image, [relabel]
        elif image == least:
            reach.append(relabel)
    return least, tuple(reach)


def canonical_form(s: FiniteSemiring) -> bytes:
    """Minimal byte encoding of (add, mul) over all carrier permutations; two
    semirings share it exactly when some single bijection carries both tables
    onto each other. The addition comes first, so the form is the least
    relabelled addition followed by the least multiplication among the
    permutations that carry the addition onto it; each table is relabelled
    on its own."""
    n = s.order
    if n > CANONICAL_BOUND:
        raise BoundExceeded(f"order {n} exceeds canonicalization bound {CANONICAL_BOUND}")
    mul = _flat(s.mul)
    if n <= SAMPLE_BOUND:
        least, reach = _least_addition(s)
        return bytes([n]) + least + min(relabel(mul) for relabel in reach)
    # above SAMPLE_BOUND the relabellings are built as they are consumed and
    # never held all at once
    add = _flat(s.add)
    least = best = None
    for relabel in map(_relabelling, permutations(range(n))):
        image = relabel(add)
        if least is None or image < least:
            least, best = image, relabel(mul)
        elif image == least:
            best = min(best, relabel(mul))
    return bytes([n]) + least + best


def canonical_hash(s: FiniteSemiring) -> str:
    import hashlib  # here, the one place that hashes: it costs about 5 ms of import

    return hashlib.sha256(canonical_form(s)).hexdigest()[:16]


def _semirings_from_canonical(forms) -> list[FiniteSemiring]:
    """The semirings of canonical forms, unchecked: `canonical_form` encodes
    checked tables, so the names and tables are in shape and range. Each
    distinct table encoding, addition or multiplication, is decoded once per
    call, and each distinct row once, so members share every equal table
    and row object and one names tuple per order, and the memo finds an
    equal table by identity. The 7652 members of order 4 hold 188 distinct
    additions, 1019 multiplications and 111 rows."""
    tables, rows = {}, {}

    def decoded(enc: bytes, n: int) -> Table:
        table = tables.get(enc)
        if table is None:
            table = tables[enc] = tuple(
                rows.setdefault(row, tuple(row)) for row in (enc[i:i + n] for i in range(0, n * n, n)))
        return table

    out = []
    for form in forms:
        n = form[0]
        cut = 1 + n * n
        add, mul = decoded(form[1:cut], n), decoded(form[cut:], n)
        out.append(FiniteSemiring._from_checked(_element_names(n), add, mul))
    return out


class _BudgetExhausted(Exception):
    pass


_NODE_BUDGET = 40_000


def _tables(n: int, cells, rng: random.Random | None = None, add=None,
            budget: int | None = None, symmetries=None):
    """Every associative n x n table, filling `cells` in order, as soon as it
    is complete. Values go in ascending order, or shuffled by `rng` at each
    node. With `add`, a table must also distribute over it. With
    `symmetries`, carrier permutations, the cells must be row-major and a
    table is kept only when none of them relabels it to a smaller row-major
    encoding (the lex-leader constraint). Past `budget` nodes,
    `_BudgetExhausted` is raised. Candidates die as soon as any completed
    triple fails, or a permutation carries the filled prefix to a smaller
    one."""
    t = [[None] * n for _ in range(n)]
    if add is not None:
        # value -> the (b, c) pairs summing to it
        add_pre = [[] for _ in range(n)]
        for b in range(n):
            for c in range(n):
                add_pre[add[b][c]].append((b, c))
    # the identity relabels every table to itself
    identity = tuple(range(n))
    pending = [(*_lex_steps(p), 0) for p in symmetries or () if tuple(p) != identity]
    nodes = 0

    def fill(k: int, pending):
        nonlocal nodes
        if k == len(cells):
            yield tuple(tuple(row) for row in t)
            return
        if budget is not None:
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
        i, j = cells[k]
        values = list(range(n))
        if rng is not None:
            rng.shuffle(values)
        for v in values:
            t[i][j] = v
            if _assoc_ok_at(t, n, i, j) and (add is None or _distrib_ok_at(add, t, n, i, j, add_pre)):
                left = _lex_undecided(t, k, pending) if pending else pending
                if left is not None:
                    yield from fill(k + 1, left)
        t[i][j] = None

    return fill(0, pending)


def _lex_steps(p) -> tuple[list[int], tuple]:
    """p^-1, and per row-major position (a, b) of a table relabelled by the
    carrier permutation p: the cell (p[a], p[b]) whose entry it relabels,
    the cell (a, b) itself, and the row-major position of the first."""
    n = len(p)
    inv = [0] * n
    for i, x in enumerate(p):
        inv[x] = i
    return inv, tuple((p[a], p[b], a, b, p[a] * n + p[b]) for a in range(n) for b in range(n))


def _lex_undecided(t, k: int, pending):
    """Compare t, filled row-major up to position k, with its relabelling by
    each pending permutation, resuming where the last comparison stopped.
    None when a relabelling is smaller; otherwise the permutations that are
    still equal up to an undetermined entry, each with the position reached.
    A relabelling found greater is dropped: it stays greater below this
    node."""
    left = []
    for inv, steps, pos in pending:
        image = entry = 0
        while pos <= k:
            c, d, a, b, src = steps[pos]
            if src > k:
                break
            image, entry = inv[t[c][d]], t[a][b]
            if image != entry:
                break
            pos += 1
        if image < entry:
            return None
        if image == entry:
            left.append((inv, steps, pos))
    return left


def _semigroups(n: int):
    """The semigroups of order n up to isomorphism: the associative tables
    that are the least row-major encoding of their orbit under relabelling,
    in ascending order."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    return _tables(n, cells, symmetries=permutations(range(n)))


def _block_cells(n: int) -> list[tuple[int, int]]:
    # grow the leading k x k block; contradictions surface far earlier than
    # with row-major fill
    cells = []
    for k in range(n):
        for j in range(k + 1):
            cells.append((k, j))
        for i in range(k):
            cells.append((i, k))
    return cells


def _random_table(n: int, rng: random.Random, add=None):
    """The first table of a seeded fill over `_block_cells`, or None when the
    node budget runs out (the caller restarts; random backtracking has
    heavy-tailed runtimes)."""
    try:
        return next(_tables(n, _block_cells(n), rng, add, _NODE_BUDGET), None)
    except _BudgetExhausted:
        return None


def _assoc_ok_at(t, n: int, i: int, j: int) -> bool:
    """Associativity of the partial table restricted to triples whose
    evaluation can involve the newly set cell (i, j)."""

    def ok(a, b, c):
        ab = t[a][b]
        if ab is None:
            return True
        bc = t[b][c]
        if bc is None:
            return True
        left = t[ab][c]
        right = t[a][bc]
        return left is None or right is None or left == right

    for c in range(n):
        if not ok(i, j, c) or not ok(c, i, j):
            return False
    for a in range(n):
        row = t[a]
        for b in range(n):
            if row[b] == i and not ok(a, b, j):
                return False
    for b in range(n):
        tb = t[b]
        for c in range(n):
            if tb[c] == j and not ok(i, b, c):
                return False
    return True


def _distrib_ok_at(add, mul, n: int, i: int, j: int, add_pre) -> bool:
    """Both distributive laws restricted to triples whose evaluation can
    involve the newly set multiplication cell (i, j); add_pre maps a value to
    the (b, c) pairs summing to it."""

    def ok_left(a, b, c):
        m_ab = mul[a][b]
        if m_ab is None:
            return True
        m_ac = mul[a][c]
        if m_ac is None:
            return True
        lhs = mul[a][add[b][c]]
        return lhs is None or lhs == add[m_ab][m_ac]

    def ok_right(a, b, c):
        m_ba = mul[b][a]
        if m_ba is None:
            return True
        m_ca = mul[c][a]
        if m_ca is None:
            return True
        lhs = mul[add[b][c]][a]
        return lhs is None or lhs == add[m_ba][m_ca]

    for c in range(n):
        if not ok_left(i, j, c) or not ok_left(i, c, j):
            return False
        if not ok_right(j, i, c) or not ok_right(j, c, i):
            return False
    for b, c in add_pre[j]:
        if not ok_left(i, b, c):
            return False
    for b, c in add_pre[i]:
        if not ok_right(j, b, c):
            return False
    return True


def _distributive_classes(n: int):
    """Per semigroup representative, in ascending order: its encoding, the
    size of its orbit under relabelling, the encodings of the labeled
    associative multiplications distributing over it, and the map from such
    a multiplication to its least relabelling by an automorphism of the
    representative. A multiplication distributes exactly when its rows and
    columns are all endomorphisms of the addition."""
    relabellings = _cached_relabellings(n)
    reps = list(_semigroups(n))
    # the labeled associative tables are the orbits of the representatives,
    # each as the map from its members to the representative
    least = {}
    for add in reps:
        enc = _flat(add)
        least.update(dict.fromkeys([relabel(enc) for relabel in relabellings], enc))
    labeled = list(least)
    # each row or column that occurs, as a map of the carrier -> the bitset
    # of the labeled tables that hold it
    holders = {}
    for bit, enc in enumerate(labeled):
        for f in {enc[i:i + n] for i in range(0, n * n, n)} | {enc[j::n] for j in range(n)}:
            holders[f] = holders.get(f, 0) | 1 << bit
    everything = (1 << len(labeled)) - 1
    for add in reps:
        sums = [(x, y, add[x][y]) for x in range(n) for y in range(n)]
        misses = 0
        for f, bits in holders.items():
            if not all(f[xy] == add[f[x]][f[y]] for x, y, xy in sums):
                misses |= bits
        mask = everything & ~misses
        hits = []
        while mask:
            low = mask & -mask
            hits.append(labeled[low.bit_length() - 1])
            mask ^= low
        # a representative is the least encoding of its orbit, so the
        # relabellings that fix it are its automorphisms
        enc = _flat(add)
        aut = tuple(relabel for relabel in relabellings if relabel(enc) == enc)
        if len(aut) == len(relabellings):
            # every permutation fixes the addition: the least relabelling of
            # a multiplication is the least member of its orbit
            canon = least.__getitem__
        else:
            def canon(mul, aut=aut):
                return min(relabel(mul) for relabel in aut)
        yield enc, len(relabellings) // len(aut), hits, canon


def _check_nonempty(n: int) -> None:
    # below order 1 there is nothing to enumerate, and a counterexample
    # search over no orders would report a vacuous survival
    if n < 1:
        raise DimensionMismatch("carrier must be nonempty")


def _class_key(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if key not in CLASS_KEYS:
        raise UnknownClassName(f"unknown class {name!r}; expected one of {', '.join(CLASS_KEYS)}")
    return key


def enumerate_semirings(n: int, filter_class: str | None = None) -> list[FiniteSemiring]:
    """Canonical representatives of all semirings of order n, sorted by
    canonical form."""
    _check_nonempty(n)
    if n > FULL_ENUMERATION_BOUND:
        raise BoundExceeded(
            f"full enumeration is bounded at order {FULL_ENUMERATION_BOUND}; "
            f"use sampling for larger orders"
        )
    key = _class_key(filter_class) if filter_class is not None else None
    canons = set()
    for add, _, hits, canon in _distributive_classes(n):
        canons.update(bytes([n]) + add + canon(mul) for mul in hits)
    reps = _semirings_from_canonical(sorted(canons))
    if key is not None:
        reps = [s for s in reps if classify(s).holds(key)]
    return reps


def count_labeled_semirings(n: int) -> int:
    """Number of valid (add, mul) table pairs on n labeled elements, not up to
    isomorphism: each additive representative's distributive multiplications,
    weighted by the size of its orbit."""
    _check_nonempty(n)
    if n > FULL_ENUMERATION_BOUND:
        raise BoundExceeded(f"full enumeration is bounded at order {FULL_ENUMERATION_BOUND}")
    return sum(size * len(hits) for _, size, hits, _ in _distributive_classes(n))


def sample_semirings(n: int, count: int, seed: int = 0,
                     filter_class: str | None = None) -> list[FiniteSemiring]:
    """Deterministic seeded sample of distinct canonical semirings of order
    n; the draw is not uniform, just varied. When the attempt budget runs out
    before `count` distinct members are found, the shorter list is returned
    and a `SampleShortfallWarning` gives both counts."""
    if n > SAMPLE_BOUND:
        raise BoundExceeded(f"sampling is bounded at order {SAMPLE_BOUND}")
    if count < 1:
        raise OutOfRange(f"sample count must be at least 1, got {count}")
    key = _class_key(filter_class) if filter_class is not None else None
    rng = random.Random(seed)
    names = _element_names(n)
    canons = set()
    attempts = 0
    max_attempts = max(200, count * 200)
    while len(canons) < count and attempts < max_attempts:
        attempts += 1
        add = _random_table(n, rng)
        if add is None:
            continue
        mul = _random_table(n, rng, add)
        if mul is None:
            continue
        s = FiniteSemiring(names=names, add=add, mul=mul)
        form = canonical_form(s)
        if key is not None and not classify(_semirings_from_canonical([form])[0]).holds(key):
            continue
        canons.add(form)
    if len(canons) < count:
        warnings.warn(
            SampleShortfallWarning(
                f"sampled {len(canons)} of {count} requested semirings of order {n}: "
                f"all {max_attempts} attempts used",
                requested=count,
                returned=len(canons),
            ),
            stacklevel=2,
        )
    return _semirings_from_canonical(sorted(canons))


class ImplicationQuery(NamedTuple):
    premise: str
    conclusion: str
    max_order: int


def find_counterexample(query: ImplicationQuery) -> FiniteSemiring | None:
    """First canonical semiring satisfying the premise class but not the
    conclusion class, orders ascending; None when the implication survives."""
    premise = _class_key(query.premise)
    conclusion = _class_key(query.conclusion)
    _check_nonempty(query.max_order)
    if query.max_order > FULL_ENUMERATION_BOUND:
        raise BoundExceeded(
            f"counterexample search sweeps full enumerations, bounded at order "
            f"{FULL_ENUMERATION_BOUND}"
        )
    for n in range(1, query.max_order + 1):
        for s in enumerate_semirings(n):
            report = classify(s)
            if report.holds(premise) and not report.holds(conclusion):
                return s
    return None


def manifest_line(s: FiniteSemiring) -> str:
    flags = classify(s).true_classes()
    return f"{canonical_hash(s)} {s.order} {','.join(flags) if flags else '-'}"


def write_corpus(semirings, outdir) -> str:
    """Persist one .srt per semiring named by canonical hash, plus the
    manifest text (also written to MANIFEST); returns the manifest."""
    import os

    from .formats import save_srt

    # paths as strings: pathlib would intern every part of every path
    os.makedirs(outdir, exist_ok=True)
    lines = []
    for s in semirings:
        line = manifest_line(s)
        digest = line.split(" ", 1)[0]
        save_srt(s, os.path.join(outdir, f"{digest}.srt"))
        lines.append(line)
    manifest = "\n".join(lines) + ("\n" if lines else "")
    with open(os.path.join(outdir, "MANIFEST"), "w", encoding="utf-8") as fh:
        fh.write(manifest)
    return manifest
