"""Line-based structure file formats.

.srt holds one finite semiring: an `elements:` line, then an `add:` section
with n rows of n names, then a `mul:` section likewise. '#' starts a comment
to end of line. Parsing is strict: unknown names, ragged rows and missing
sections are errors carrying the offending line number.

.sbl holds a strong b-lattice spec: a `blattice:` block in .srt syntax, one
`component <name>:` block per index, and one `map <a> <b>:` block per
comparable pair with lines `x -> y`.
"""

from __future__ import annotations

from .errors import ParseError
from .kernel import FiniteSemiring, check_names
from .blattice import StrongBLatticeSpec, comparable_pairs


def _logical_lines(text: str):
    """(line_number, content) with comments stripped and blanks dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def _parse_srt_lines(lines, source, terminators=()):
    """Parse one semiring from an iterable of logical lines; a line after it
    must start with one of the terminators."""
    lines = iter(lines)

    def next_line():
        return next(lines, None)

    item = next_line()
    if item is None:
        raise ParseError("missing 'elements:' line", source=source)
    lineno, content = item
    if not content.startswith("elements:"):
        raise ParseError(f"expected 'elements:', got {content!r}", line=lineno, source=source)
    names = tuple(content[len("elements:"):].split())
    if not names:
        raise ParseError("empty element list", line=lineno, source=source)
    if len(set(names)) != len(names):
        raise ParseError("duplicate element names", line=lineno, source=source)
    try:
        check_names(names)
    except ValueError as exc:  # a reserved name
        raise ParseError(str(exc), line=lineno, source=source) from None
    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    tables = {}
    for section in ("add", "mul"):
        item = next_line()
        if item is None:
            raise ParseError(f"missing '{section}:' section", source=source)
        lineno, content = item
        if content != f"{section}:":
            raise ParseError(f"expected '{section}:', got {content!r}", line=lineno, source=source)
        rows = []
        for _ in range(n):
            item = next_line()
            if item is None:
                raise ParseError(
                    f"'{section}:' section ended after {len(rows)} of {n} rows",
                    source=source,
                )
            lineno, content = item
            tokens = content.split()
            if len(tokens) != n:
                raise ParseError(
                    f"row has {len(tokens)} entries, expected {n}", line=lineno, source=source
                )
            row = []
            for tok in tokens:
                if tok not in index:
                    raise ParseError(f"unknown element name {tok!r}", line=lineno, source=source)
                row.append(index[tok])
            rows.append(tuple(row))
        tables[section] = tuple(rows)
    item = next_line()
    if item is not None:
        lineno, content = item
        if not any(content.startswith(t) for t in terminators):
            raise ParseError(f"unexpected trailing content {content!r}", line=lineno, source=source)
    # the names are checked above and every entry indexes one of them
    return FiniteSemiring._from_checked(names, tables["add"], tables["mul"])


def parse_srt(text: str, source: str = "<string>") -> FiniteSemiring:
    return _parse_srt_lines(_logical_lines(text), source)


def load_srt(path) -> FiniteSemiring:
    with open(path, encoding="utf-8") as fh:
        return parse_srt(fh.read(), source=str(path))


def serialize_srt(s: FiniteSemiring) -> str:
    lines = ["elements: " + " ".join(s.names)]
    for section, table in (("add", s.add), ("mul", s.mul)):
        lines.append(f"{section}:")
        lines.extend(" ".join(s.names[v] for v in row) for row in table)
    return "\n".join(lines) + "\n"


def save_srt(s: FiniteSemiring, path) -> None:
    """Write the serialization as UTF-8 bytes, in one binary write."""
    with open(path, "wb") as fh:
        fh.write(serialize_srt(s).encode())


_SBL_HEADS = ("blattice:", "component ", "map ")


def _map_entry(content: str) -> tuple[str, str] | None:
    """(x, y) for a line of the serialized shape `x -> y`, else None. Such a
    line is an entry even when it also starts like a block head, as it does
    for an element named `map` or `component`; no head has this shape,
    because no element may be named `->`."""
    tokens = content.split()
    if len(tokens) == 3 and tokens[1] == "->":
        return tokens[0], tokens[2]
    return None


def parse_sbl(text: str, source: str = "<string>") -> StrongBLatticeSpec:
    lines = list(_logical_lines(text))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else None

    item = peek()
    if item is None or item[1] != "blattice:":
        raise ParseError(
            "expected 'blattice:' block",
            line=item[0] if item else None,
            source=source,
        )
    pos += 1
    blattice = _parse_srt_lines(lines[pos:], source, terminators=_SBL_HEADS)
    # an .srt block spans 1 + (1 + n) + (1 + n) logical lines
    pos += 1 + 2 * (blattice.order + 1)

    components: dict[str, FiniteSemiring] = {}
    maps: dict[tuple[str, str], dict[str, str]] = {}
    while True:
        item = peek()
        if item is None:
            break
        lineno, content = item
        if content.startswith("component ") and content.endswith(":"):
            alpha = content[len("component "):-1].strip()
            if alpha not in blattice.names:
                raise ParseError(f"unknown b-lattice element {alpha!r}", line=lineno, source=source)
            if alpha in components:
                raise ParseError(f"duplicate component block for {alpha!r}", line=lineno, source=source)
            pos += 1
            comp = _parse_srt_lines(lines[pos:], source, terminators=_SBL_HEADS)
            components[alpha] = comp
            pos += 1 + 2 * (comp.order + 1)
        elif content.startswith("map ") and content.endswith(":"):
            head = content[len("map "):-1].split()
            if len(head) != 2:
                raise ParseError("map header needs two b-lattice elements", line=lineno, source=source)
            a, b = head
            for name in (a, b):
                if name not in blattice.names:
                    raise ParseError(f"unknown b-lattice element {name!r}", line=lineno, source=source)
            if (a, b) in maps:
                raise ParseError(f"duplicate map block for {a!r} -> {b!r}", line=lineno, source=source)
            entries: dict[str, str] = {}
            pos += 1
            while True:
                item = peek()
                if item is None or (
                    _map_entry(item[1]) is None and any(item[1].startswith(h) for h in _SBL_HEADS)
                ):
                    break
                entry_lineno, entry = item
                parts = _map_entry(entry) or [p.strip() for p in entry.split("->")]
                if len(parts) != 2 or not all(parts):
                    raise ParseError(f"expected 'x -> y', got {entry!r}", line=entry_lineno, source=source)
                if parts[0] in entries:
                    raise ParseError(f"duplicate map entry for {parts[0]!r}", line=entry_lineno, source=source)
                entries[parts[0]] = parts[1]
                pos += 1
            maps[(a, b)] = entries
        else:
            raise ParseError(f"unexpected content {content!r}", line=lineno, source=source)

    for name in blattice.names:
        if name not in components:
            raise ParseError(f"missing component block for {name!r}", source=source)
    comp_tuple = tuple(components[name] for name in blattice.names)

    index_maps: dict[tuple[int, int], tuple[int, ...]] = {}
    for (a, b), entries in maps.items():
        alpha, beta = blattice.index(a), blattice.index(b)
        dom, cod = comp_tuple[alpha], comp_tuple[beta]
        images = []
        for x in dom.names:
            if x not in entries:
                raise ParseError(f"map {a!r} -> {b!r} misses element {x!r}", source=source)
        for x, yname in entries.items():
            if x not in dom.names:
                raise ParseError(f"map {a!r} -> {b!r} lists foreign element {x!r}", source=source)
            if yname not in cod.names:
                raise ParseError(f"map {a!r} -> {b!r} targets unknown element {yname!r}", source=source)
        for x in dom.names:
            images.append(cod.index(entries[x]))
        index_maps[(alpha, beta)] = tuple(images)

    spec = StrongBLatticeSpec(blattice=blattice, components=comp_tuple, maps=index_maps)
    for alpha, beta in comparable_pairs(blattice):
        spec.component_map(alpha, beta)  # raises MissingMap when a block is absent
    return spec


def load_sbl(path) -> StrongBLatticeSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_sbl(fh.read(), source=str(path))


def serialize_sbl(spec: StrongBLatticeSpec) -> str:
    out = ["blattice:"]
    body = serialize_srt(spec.blattice).rstrip("\n").splitlines()
    out.extend(body)
    for alpha, comp in enumerate(spec.components):
        out.append(f"component {spec.blattice.names[alpha]}:")
        out.extend(serialize_srt(comp).rstrip("\n").splitlines())
    for (alpha, beta) in sorted(spec.maps):
        out.append(f"map {spec.blattice.names[alpha]} {spec.blattice.names[beta]}:")
        comp_a, comp_b = spec.components[alpha], spec.components[beta]
        for x, img in enumerate(spec.maps[(alpha, beta)]):
            out.append(f"{comp_a.names[x]} -> {comp_b.names[img]}")
    return "\n".join(out) + "\n"
