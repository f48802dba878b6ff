"""Exhaustive generation of small semirings up to isomorphism, a sampling
mode for orders where the full sweep is out of reach, corpus persistence,
and counterexample search over class implications.

Exhaustive generation works over additive isomorphism classes. The
associative tables, built with associativity pruning, are grouped into
orbits under relabelling; each orbit is represented by its lexicographically
least row-major encoding. A vectorized distributivity filter pairs every
representative addition with every associative multiplication, and each
surviving multiplication is canonicalized over the automorphisms of its
addition only. Because the canonical encoding puts the addition first, the
minimum over all carrier permutations is reached exactly at the
permutations that carry the addition onto its representative, so this gives
the same bytes as `canonical_form`. Labeled counts follow from the same pass:
each representative's hits count once per member of its orbit.
"""

from __future__ import annotations

import hashlib
import random
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import BoundExceeded, SampleShortfallWarning, UnknownClassName
from .kernel import FiniteSemiring
from .classify import CLASS_KEYS, classify

FULL_ENUMERATION_BOUND = 4
SAMPLE_BOUND = 6
CANONICAL_BOUND = 8


def _element_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def canonical_form(s: FiniteSemiring) -> bytes:
    """Minimal byte encoding of (add, mul) over all carrier permutations; two
    semirings share it exactly when some single bijection carries both tables
    onto each other."""
    n = s.order
    if n > CANONICAL_BOUND:
        raise BoundExceeded(f"order {n} exceeds canonicalization bound {CANONICAL_BOUND}")
    best = None
    for p in permutations(range(n)):
        inv = [0] * n
        for i in range(n):
            inv[p[i]] = i
        enc = bytearray([n])
        for table in (s.add, s.mul):
            for i in range(n):
                row = table[p[i]]
                enc.extend(inv[row[p[j]]] for j in range(n))
        enc = bytes(enc)
        if best is None or enc < best:
            best = enc
    return best


def canonical_hash(s: FiniteSemiring) -> str:
    return hashlib.sha256(canonical_form(s)).hexdigest()[:16]


def _semiring_from_canonical(form: bytes) -> FiniteSemiring:
    n = form[0]
    flat = list(form[1:])
    add = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
    mul = tuple(tuple(flat[n * n + i * n:n * n + (i + 1) * n]) for i in range(n))
    return FiniteSemiring(names=_element_names(n), add=add, mul=mul)


@lru_cache(maxsize=None)
def _assoc_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All associative tables on n elements, lexicographic in row-major
    order. Candidates die as soon as any completed triple fails."""
    out = []
    t = [[None] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]

    def fill(k: int):
        if k == len(cells):
            out.append(tuple(tuple(row) for row in t))
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = v
            if _assoc_ok_at(t, n, i, j):
                fill(k + 1)
        t[i][j] = None

    fill(0)
    return tuple(out)


def _distributive_mask(add, muls: np.ndarray) -> np.ndarray:
    """Boolean mask over a stack of multiplication tables: which satisfy both
    distributivity laws against the given addition table. The right law is
    the left law for the transposed table, checked only where the left holds."""
    a = np.asarray(add, dtype=np.int64)

    def left_ok(ms):
        # m[k, x, a[y, z]] == a[m[k, x, y], m[k, x, z]]
        return (ms[:, :, a] == a[ms[:, :, :, None], ms[:, :, None, :]]).all(axis=(1, 2, 3))

    ok = left_ok(muls)
    left = np.flatnonzero(ok)
    ok[left[~left_ok(muls[left].transpose(0, 2, 1))]] = False
    return ok


def _class_key(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if key not in CLASS_KEYS:
        raise UnknownClassName(f"unknown class {name!r}; expected one of {', '.join(CLASS_KEYS)}")
    return key


def _relabelled(tables: np.ndarray, p) -> np.ndarray:
    """Every table of a (k, n, n) stack relabelled as `FiniteSemiring.relabel`
    does with permutation p, flattened row-major to shape (k, n * n)."""
    k, n = tables.shape[:2]
    p = np.asarray(p)
    inv = np.empty(n, dtype=np.uint8)
    inv[p] = np.arange(n, dtype=np.uint8)
    return inv[tables[:, p][:, :, p]].reshape(k, n * n)


def _min_relabellings(tables: np.ndarray, perms) -> np.ndarray:
    """Per table of a (k, n, n) stack, the lexicographically least row-major
    encoding among its relabellings by the given permutations."""
    rows = np.arange(tables.shape[0])
    best = None
    for p in perms:
        enc = _relabelled(tables, p)
        if best is None:
            best = enc
            continue
        diff = enc != best
        first = np.argmax(diff, axis=1)
        take = enc[rows, first] < best[rows, first]
        best[take] = enc[take]
    return best


def _additive_orbits(assocs: np.ndarray) -> list[tuple[np.ndarray, int, list]]:
    """A (k, n, n) stack of all associative tables grouped into orbits under
    relabelling, as (representative, orbit size, automorphisms of the
    representative) sorted by representative. The representative is the
    orbit's least row-major encoding, reshaped to an n x n table."""
    n = assocs.shape[1]
    perms = list(permutations(range(n)))
    reps, sizes = np.unique(_min_relabellings(assocs, perms), axis=0, return_counts=True)
    orbits = []
    for enc, size in zip(reps, sizes):
        rep = enc.reshape(n, n)
        aut = [p for p in perms if (_relabelled(rep[None], p) == enc).all()]
        orbits.append((rep, int(size), aut))
    return orbits


def enumerate_semirings(n: int, filter_class: str | None = None) -> list[FiniteSemiring]:
    """Canonical representatives of all semirings of order n, sorted by
    canonical form."""
    if n > FULL_ENUMERATION_BOUND:
        raise BoundExceeded(
            f"full enumeration is bounded at order {FULL_ENUMERATION_BOUND}; "
            f"use sampling for larger orders"
        )
    key = _class_key(filter_class) if filter_class is not None else None
    muls = np.array(_assoc_tables(n), dtype=np.int64)
    canons = set()
    for rep, _, aut in _additive_orbits(muls):
        hits = muls[_distributive_mask(rep, muls)]
        if hits.size:
            prefix = bytes([n]) + rep.tobytes()
            canons.update(prefix + row.tobytes() for row in _min_relabellings(hits, aut))
    reps = [_semiring_from_canonical(form) for form in sorted(canons)]
    if key is not None:
        reps = [s for s in reps if classify(s).holds(key)]
    return reps


def count_labeled_semirings(n: int) -> int:
    """Number of valid (add, mul) table pairs on n labeled elements, not up to
    isomorphism: each additive representative's distributive multiplications,
    weighted by the size of its orbit."""
    if n > FULL_ENUMERATION_BOUND:
        raise BoundExceeded(f"full enumeration is bounded at order {FULL_ENUMERATION_BOUND}")
    muls = np.array(_assoc_tables(n), dtype=np.int64)
    return sum(
        size * int(_distributive_mask(rep, muls).sum())
        for rep, size, _ in _additive_orbits(muls)
    )


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


class _BudgetExhausted(Exception):
    pass


_NODE_BUDGET = 40_000


def _random_assoc_table(n: int, rng: random.Random, budget: int = _NODE_BUDGET):
    """One random associative table, or None when the node budget runs out
    (the caller restarts; random backtracking has heavy-tailed runtimes)."""
    t = [[None] * n for _ in range(n)]
    cells = _block_cells(n)
    nodes = 0

    def fill(k: int):
        nonlocal nodes
        if k == len(cells):
            return tuple(tuple(row) for row in t)
        nodes += 1
        if nodes > budget:
            raise _BudgetExhausted
        i, j = cells[k]
        values = list(range(n))
        rng.shuffle(values)
        for v in values:
            t[i][j] = v
            if _assoc_ok_at(t, n, i, j):
                got = fill(k + 1)
                if got is not None:
                    return got
        t[i][j] = None
        return None

    try:
        return fill(0)
    except _BudgetExhausted:
        return None


def _random_compatible_mul(add, n: int, rng: random.Random, budget: int = _NODE_BUDGET):
    add_pre = [[] for _ in range(n)]
    for b in range(n):
        for c in range(n):
            add_pre[add[b][c]].append((b, c))
    t = [[None] * n for _ in range(n)]
    cells = _block_cells(n)
    nodes = 0

    def fill(k: int):
        nonlocal nodes
        if k == len(cells):
            return tuple(tuple(row) for row in t)
        nodes += 1
        if nodes > budget:
            raise _BudgetExhausted
        i, j = cells[k]
        values = list(range(n))
        rng.shuffle(values)
        for v in values:
            t[i][j] = v
            if _assoc_ok_at(t, n, i, j) and _distrib_ok_at(add, t, n, i, j, add_pre):
                got = fill(k + 1)
                if got is not None:
                    return got
        t[i][j] = None
        return None

    try:
        return fill(0)
    except _BudgetExhausted:
        return None


def sample_semirings(n: int, count: int, seed: int = 0,
                     filter_class: str | None = None) -> list[FiniteSemiring]:
    """Deterministic seeded sample of distinct canonical semirings of order
    n; the draw is not uniform, just varied. When the attempt budget runs out
    before `count` distinct members are found, the shorter list is returned
    and a `SampleShortfallWarning` gives both counts."""
    if n > SAMPLE_BOUND:
        raise BoundExceeded(f"sampling is bounded at order {SAMPLE_BOUND}")
    key = _class_key(filter_class) if filter_class is not None else None
    rng = random.Random(seed)
    names = _element_names(n)
    canons = set()
    attempts = 0
    max_attempts = max(200, count * 200)
    while len(canons) < count and attempts < max_attempts:
        attempts += 1
        add = _random_assoc_table(n, rng)
        if add is None:
            continue
        mul = _random_compatible_mul(add, n, rng)
        if mul is None:
            continue
        s = FiniteSemiring(names=names, add=add, mul=mul)
        form = canonical_form(s)
        if key is not None and not classify(_semiring_from_canonical(form)).holds(key):
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
    return [_semiring_from_canonical(form) for form in sorted(canons)]


@dataclass(frozen=True)
class ImplicationQuery:
    premise: str
    conclusion: str
    max_order: int


def find_counterexample(query: ImplicationQuery) -> FiniteSemiring | None:
    """First canonical semiring satisfying the premise class but not the
    conclusion class, orders ascending; None when the implication survives."""
    premise = _class_key(query.premise)
    conclusion = _class_key(query.conclusion)
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
    from pathlib import Path

    from .formats import save_srt

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    for s in semirings:
        line = manifest_line(s)
        digest = line.split(" ", 1)[0]
        save_srt(s, outdir / f"{digest}.srt")
        lines.append(line)
    manifest = "\n".join(lines) + ("\n" if lines else "")
    (outdir / "MANIFEST").write_text(manifest, encoding="utf-8")
    return manifest
