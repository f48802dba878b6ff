"""Rings the benchmark builds itself: Z_n and direct products.

They are plain Cayley tables, so they go through the program only as inputs
(.srt text or FiniteSemiring values), never through its own generators.
"""

from __future__ import annotations


def zn_tables(n: int):
    """Names and (add, mul) tables of the ring of integers modulo n."""
    names = tuple(f"z{i}" for i in range(n))
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    return names, add, mul


def product_tables(left, right):
    """Direct product of two (names, add, mul) triples, componentwise."""
    lnames, ladd, lmul = left
    rnames, radd, rmul = right
    m = len(rnames)
    pairs = [(a, b) for a in range(len(lnames)) for b in range(m)]
    names = tuple(f"{lnames[a]}_{rnames[b]}" for a, b in pairs)

    def table(lt, rt):
        return tuple(
            tuple(lt[a][c] * m + rt[b][d] for c, d in pairs) for a, b in pairs
        )

    return names, table(ladd, radd), table(lmul, rmul)


def srt_text(names, add, mul) -> str:
    """The .srt serialization of a (names, add, mul) triple."""
    lines = ["elements: " + " ".join(names), "add:"]
    lines += [" ".join(names[v] for v in row) for row in add]
    lines.append("mul:")
    lines += [" ".join(names[v] for v in row) for row in mul]
    return "\n".join(lines) + "\n"


def zn_srt(n: int) -> str:
    return srt_text(*zn_tables(n))


def product_srt(a: int, b: int) -> str:
    """Z_a x Z_b as .srt text."""
    return srt_text(*product_tables(zn_tables(a), zn_tables(b)))
