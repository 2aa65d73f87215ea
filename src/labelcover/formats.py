"""Versioned text formats for instances, assignments, decompositions,
tilings and coloring graphs.

All formats are line oriented, whitespace separated, and diff friendly.
Lines starting with '#' and blank lines are ignored on input and never
produced on output, so emit(parse(text)) is byte identical for canonical
files.

A `labelcover v1` text is read one of two ways, to the same game or the
same ParseError.  A canonical text, exactly the bytes emit_labelcover
writes, is read in bulk: whole rows are turned into ints through a table
of decimal strings bounded by the file's own field count.  Any other text
(comments, blank lines, CR or tab, other spacing, leading zeros or signs,
no final newline) takes the line-by-line path.  The CLI's instance_digest
is the sha256 of the canonical text either way; for a canonical file it is
taken from the file's own bytes.
"""

from __future__ import annotations

import re

from .core import Assignment, LabelCoverError, ProjectionGame, _validated_game
from .exact import TreeDecomposition
from .reductions import (
    ColoringGraph,
    MatrixTiling,
    build_coloring_graph,
    build_matrix_tiling,
)


class ParseError(LabelCoverError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str):
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield num, line


def _ints(num: int, line: str, expected: int | None = None) -> tuple[int, ...]:
    try:
        values = tuple(map(int, line.split()))
    except ValueError:
        raise ParseError(num, f"expected integers, got {line!r}")
    if expected is not None and len(values) != expected:
        raise ParseError(num, f"expected {expected} fields, got {len(values)}")
    return values


def _header(lines, want: str):
    try:
        num, line = next(lines)
    except StopIteration:
        raise ParseError(1, f"empty file, expected {want!r} header")
    if line != want:
        raise ParseError(num, f"expected {want!r} header, got {line!r}")


def _size_line(lines, expected: int) -> tuple[int, list[int]]:
    """The size line after the header: its number and its fields, every
    one a nonnegative integer."""
    try:
        num, line = next(lines)
    except StopIteration:
        raise ParseError(2, "missing size line")
    values = _ints(num, line, expected)
    if min(values) < 0:
        raise ParseError(num, f"size line values must be nonnegative, got {line!r}")
    return num, values


def _rows(lines, num: int, *sections: tuple[int, str]):
    """Yield ``(kind, number, line)`` for the counted rows after line
    ``num``: ``count`` rows of each ``(count, kind)`` section in turn.  A
    row missing at the end, or any content after the last row, is a
    ParseError."""
    for count, kind in sections:
        for _ in range(count):
            try:
                num, line = next(lines)
            except StopIteration:
                raise ParseError(num + 1, f"expected {count} {kind} lines, file ended early")
            yield kind, num, line
    for num, _ in lines:
        raise ParseError(num, "trailing content after the declared lines")


def _built(build, what: str, at: list[int]):
    """Call a builder; its error becomes a ParseError at the line of the
    edge or cell it names ("edge 3: ..." is at ``at[4]``), else at ``at[0]``."""
    try:
        return build()
    except LabelCoverError as exc:
        named = re.match(r"(?:edge|cell) (\d+):", str(exc))
        line = at[int(named[1]) + 1] if named else at[0]
        raise ParseError(line, f"invalid {what}: {exc}") from exc


def parse_labelcover(text: str) -> ProjectionGame:
    """Read the `labelcover v1` format.

    Line 1: header.  Line 2: nA nB kA kB m.  Then m lines, each
    ``a b t_0 .. t_{kA-1}`` giving an edge and its full projection table.
    """
    return _read_labelcover(text)[0]


_CANONICAL_SIZES = re.compile(r"(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*)){4}")


def _read_labelcover(text: str) -> tuple[ProjectionGame, bool]:
    """parse_labelcover's game, and whether the text was read in bulk, in
    which case it is canonical: ``emit_labelcover(game) == text``."""
    parts = text.split("\n", 2) if text.isascii() else ()
    if (
        len(parts) < 3
        or parts[0] != "labelcover v1"
        or not _CANONICAL_SIZES.fullmatch(parts[1])
    ):
        return _parse_lines(text), False
    _, sizes, body = parts
    n_a, n_b, k_a, k_b, m = map(int, sizes.split(" "))
    lines = body.split("\n")
    if len(lines) != m + 1 or lines.pop():
        return _parse_lines(text), False
    # the decimals below the largest bound any field can meet, cut at the
    # file's field count so that huge declared counts build no huge table
    size = min(max(n_a, n_b, k_b), body.count(" ") + m)
    get = dict(zip(map(str, range(size)), range(size))).__getitem__
    try:
        rows = [tuple(map(get, line.split(" "))) for line in lines]
    except KeyError:  # not a canonical decimal below the table's size
        return _parse_lines(text), False
    if rows and set(map(len, rows)) != {2 + k_a}:
        return _parse_lines(text), False
    return _game(n_a, n_b, k_a, k_b, rows, range(2, m + 3)), True


def _parse_lines(text: str) -> ProjectionGame:
    """Read any `labelcover v1` text line by line."""
    lines = _content_lines(text)
    _header(lines, "labelcover v1")
    num, (n_a, n_b, k_a, k_b, m) = _size_line(lines, 5)
    at = [num]
    rows = []
    for _, num, line in _rows(lines, num, (m, "edge")):
        row = _ints(num, line)
        if len(row) != 2 + k_a:
            raise ParseError(
                num, f"edge line needs {2 + k_a} fields, got {len(row)}"
            )
        rows.append(row)
        at.append(num)
    return _game(n_a, n_b, k_a, k_b, rows, at)


def _game(n_a, n_b, k_a, k_b, rows, at) -> ProjectionGame:
    """The validated game of edge rows ``a b t_0 ..``, row i from line
    ``at[i + 1]`` and the size line at ``at[0]``."""
    edges = tuple([row[:2] for row in rows])
    tables = tuple([row[2:] for row in rows])
    return _built(
        lambda: _validated_game(n_a, n_b, k_a, k_b, edges, tables), "instance", at
    )


def emit_labelcover(game: ProjectionGame) -> str:
    head = (
        f"labelcover v1\n{game.a_count} {game.b_count} {game.sigma_a} "
        f"{game.sigma_b} {game.edge_count}\n"
    )
    if not game.edges:
        return head
    # stored values are exact ints (int() here, operator.index in
    # build_game), so "%d" prints each one as str() does
    row = " ".join(["%d"] * (2 + len(game.projections[0]))) + "\n"
    return head + "".join(
        [row % (*edge, *table) for edge, table in zip(game.edges, game.projections)]
    )


def parse_assignment(text: str) -> Assignment:
    """`assign v1`: header, then one line of A labels, one of B labels.

    Either label line may be empty for an empty side, but both lines must
    be present, and only blank or comment lines may follow them.
    """
    rows = text.splitlines()
    idx = 0
    while idx < len(rows) and (not rows[idx].strip() or rows[idx].lstrip().startswith("#")):
        idx += 1
    if idx >= len(rows) or rows[idx].strip() != "assign v1":
        raise ParseError(idx + 1, "expected 'assign v1' header")
    data = []
    for off, raw in enumerate(rows[idx + 1:], start=idx + 2):
        if raw.lstrip().startswith("#"):
            continue
        if len(data) < 2:
            data.append((off, raw))
        elif raw.strip():
            raise ParseError(off, "trailing content after the declared lines")
    if len(data) < 2:
        raise ParseError(len(rows), "expected two label lines")
    a_line, b_line = data

    def labels(entry):
        num, raw = entry
        raw = raw.strip()
        if not raw:
            return ()
        return _ints(num, raw)

    return Assignment(labels(a_line), labels(b_line))


def emit_assignment(phi: Assignment) -> str:
    a = " ".join(str(x) for x in phi.a_labels)
    b = " ".join(str(x) for x in phi.b_labels)
    return f"assign v1\n{a}\n{b}\n"


def parse_td(text: str) -> TreeDecomposition:
    """`td v1`: header; `B T` counts; B ``bag ...`` lines; T ``link i j``."""
    lines = _content_lines(text)
    _header(lines, "td v1")
    num, (nbags, nlinks) = _size_line(lines, 2)
    bags = []
    links = []
    for kind, num, line in _rows(lines, num, (nbags, "bag"), (nlinks, "link")):
        word, *fields = line.split()
        if word != kind:
            raise ParseError(num, f"expected {kind!r}, got {word!r}")
        if kind == "bag":
            bags.append(frozenset(_ints(num, " ".join(fields))))
        else:
            links.append(_ints(num, " ".join(fields), 2))
    return TreeDecomposition(tuple(bags), tuple(links))


def emit_td(td: TreeDecomposition) -> str:
    out = ["td v1", f"{len(td.bags)} {len(td.tree)}"]
    for bag in td.bags:
        out.append(" ".join(["bag"] + [str(v) for v in sorted(bag)]))
    for i, j in td.tree:
        out.append(f"link {i} {j}")
    return "\n".join(out) + "\n"


def parse_matrix_tiling(text: str) -> MatrixTiling:
    """`matrixtiling v1`: header; `k n`; then k*k row-major cell lines
    ``i j count x1 y1 .. x_count y_count`` with 1-based coordinates."""
    lines = _content_lines(text)
    _header(lines, "matrixtiling v1")
    num, (k, n) = _size_line(lines, 2)
    at = [num]
    cells = []
    for want, (_, num, line) in enumerate(_rows(lines, num, (k * k, "cell"))):
        vals = _ints(num, line)
        if len(vals) < 3:
            raise ParseError(num, "cell line needs i j count")
        i, j, count = vals[0], vals[1], vals[2]
        if (i - 1) * k + (j - 1) != want:
            raise ParseError(num, f"cell ({i}, {j}) out of row-major order")
        if len(vals) != 3 + 2 * count:
            raise ParseError(num, f"cell ({i}, {j}): expected {count} pairs")
        pairs = [(vals[3 + 2 * p], vals[4 + 2 * p]) for p in range(count)]
        cells.append(pairs)
        at.append(num)
    return _built(lambda: build_matrix_tiling(k, n, cells), "tiling", at)


def emit_matrix_tiling(t: MatrixTiling) -> str:
    out = ["matrixtiling v1", f"{t.grid_size} {t.coord_max}"]
    for idx, cell in enumerate(t.cells):
        i, j = divmod(idx, t.grid_size)
        pairs = sorted(cell)
        flat = " ".join(f"{x} {y}" for x, y in pairs)
        line = f"{i + 1} {j + 1} {len(pairs)}"
        out.append(f"{line} {flat}" if flat else line)
    return "\n".join(out) + "\n"


def parse_coloring_graph(text: str) -> ColoringGraph:
    """`colgraph v1`: header; `n m planar_flag`; then m ``u v`` lines."""
    lines = _content_lines(text)
    _header(lines, "colgraph v1")
    num, (n, m, planar) = _size_line(lines, 3)
    at = [num]
    edges = []
    for _, num, line in _rows(lines, num, (m, "edge")):
        u, v = _ints(num, line, 2)
        edges.append((u, v))
        at.append(num)
    return _built(
        lambda: build_coloring_graph(n, edges, bool(planar)), "graph", at
    )


def emit_coloring_graph(g: ColoringGraph) -> str:
    out = ["colgraph v1", f"{g.vertex_count} {len(g.edges)} {int(g.claimed_planar)}"]
    for u, v in g.edges:
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"
