r"""Versioned text formats for instances, assignments, decompositions,
tilings and coloring graphs.

All five formats are line oriented, diff friendly, and read with one
grammar.  A line ends at '\n', and one '\r' just before it is dropped.
Fields are separated by runs of ASCII space or tab, which may also pad a
line.  A field is one or more ASCII digits 0-9 (leading zeros read as
usual); the only other words are each format's header and td's `bag` and
`link`.  Blank lines and comment lines, whose first character after
padding is '#', are skipped, except that an `assign v1` label line may be
blank for an empty side.

Anything else is a ParseError at its line: a sign ('+1', '-1'), an
underscore ('1_0'), a non-ASCII digit ('\u0663'), other whitespace as a
separator or line end ('\x0b', '\x0c', '\x1c' to '\x1f', '\x85',
'\u00a0', '\u2028'), a lone '\r', or more digits than int() reads
(4300 by default).  No emitter writes these, so emit(parse(text)) is byte
identical for canonical files.  The CLI reads files as UTF-8 with
universal newlines, so there a lone '\r' reaches the parser as '\n'.

A `labelcover v1` text is first read in one pass as the text
emit_labelcover writes: the exact header and size line, then m rows of
kA + 2 fields joined by single spaces, each ending in '\n'.  Every row's
width is checked before anything else is built, and each field is looked
up in its own column's table of the decimals below the column's bound (nA
for A ends, nB for B ends, kB for table entries), cut at the file's field
count so that huge declared counts build no huge table; a field missing
from the table is read when it is the canonical decimal of a number below
its column's bound, so a hit is a field in range.  A game read so is
canonical, and the CLI hashes the text's own bytes for instance_digest.
Any miss (another token, a value out of range, a wrong width, a
duplicate edge, kA or kB of 0) sends the text to the row loop, which
reads any text as the other four formats do: it tokenizes each row with
the grammar above and raises every error as a ParseError at its line.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import TYPE_CHECKING

from .core import Assignment, LabelCoverError, ProjectionGame, build_game
from .reductions import (
    ColoringGraph,
    MatrixTiling,
    build_coloring_graph,
    build_matrix_tiling,
)

if TYPE_CHECKING:  # parse_td imports it when it runs
    from .exact import TreeDecomposition


class ParseError(LabelCoverError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# a line of numbers, already stripped of its padding
_NUMBERS = re.compile(r"[0-9 \t]*")


def _split(text: str) -> list[str]:
    r"""The lines of a text: each ends at '\n', one '\r' just before it is
    dropped, and the empty piece after a final '\n' is not a line."""
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _content_lines(lines: list[str], start: int = 0, blank: bool = False):
    """Yield ``(number, line)``, numbered from 1, for each of
    ``lines[start:]`` with its space and tab padding stripped, skipping
    comment lines, and blank lines unless ``blank``."""
    for num, line in enumerate(islice(lines, start, None), start + 1):
        line = line.strip(" \t")
        if line[:1] != "#" and (line or blank):
            yield num, line


def _ints(num: int, line: str, expected: int | None = None) -> tuple[int, ...]:
    """The numbers on a content line, which holds nothing else."""
    try:
        if not _NUMBERS.fullmatch(line):
            raise ValueError
        values = tuple(map(int, line.split()))
    except ValueError:  # a stray character, or more digits than int() reads
        raise ParseError(num, f"expected nonnegative integers, got {line!r}") from None
    if expected is not None and len(values) != expected:
        raise ParseError(num, f"expected {expected} fields, got {len(values)}")
    return values


def _read(text: str, want: str, sizes: int):
    """Start reading a text whose header is ``want``: its lines, its content
    lines after the header (a generator), and the number and ``sizes``
    values of the size line after the header (the header's number and no
    values when ``sizes`` is 0)."""
    lines = _split(text)
    content = _content_lines(lines)
    try:
        num, line = next(content)
    except StopIteration:
        raise ParseError(1, f"empty file, expected {want!r} header")
    if line != want:
        raise ParseError(num, f"expected {want!r} header, got {line!r}")
    if not sizes:
        return lines, content, num, ()
    try:
        num, line = next(content)
    except StopIteration:
        raise ParseError(2, "missing size line")
    return lines, content, num, _ints(num, line, sizes)


def _end(lines, num: int, read: int, *sections: tuple[int, str]):
    """Check that the counted rows, ``count`` rows of each ``(count, kind)``
    section in turn, are all there: ``read`` rows were read, the last on
    line ``num``.  A row missing at the end, or any content left in
    ``lines``, is a ParseError.  Readers take rows with ``zip(range(count),
    lines)``, which, unlike islice, takes any declared count."""
    for count, kind in sections:
        if read < count:
            raise ParseError(num + 1, f"expected {count} {kind} lines, file ended early")
        read -= count
    for num, line in lines:
        if line:
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


class _Decimals(dict):
    """The decimal strings of the numbers below ``bound`` and their values;
    only those below ``cut`` are stored, so a huge bound builds no huge
    table.  Any other canonical decimal below ``bound`` (ASCII digits, no
    leading zero) is read on lookup; every other string is a KeyError."""

    def __init__(self, bound: int, cut: int):
        size = min(bound, cut)
        super().__init__(zip(map(str, range(size)), range(size)))
        self.bound = bound
        self.width = len(str(bound))

    def __missing__(self, key: str) -> int:
        # "0" is stored whenever it is below the bound; the length check
        # keeps int() off long strings
        if (key.isascii() and key.isdigit() and key[0] != "0"
                and len(key) <= self.width and int(key) < self.bound):
            return int(key)
        raise KeyError(key)


def _read_labelcover(text: str) -> tuple[ProjectionGame, bool]:
    """parse_labelcover's game, and whether the text was read in one pass
    as canonical, that is, whether it is ``emit_labelcover(game)``."""
    game = _read_canonical(text)
    if game is not None:
        return game, True
    return _read_rows(text), False


def _read_canonical(text: str) -> ProjectionGame | None:
    """The game of a canonical `labelcover v1` text, read in one pass, or
    None for any other text, valid or not."""
    # each row's cells, then a "\n" cell; the header's three cells and the
    # size line's six come first, and one empty cell after the last "\n"
    cells = text.replace("\n", " \n ").split(" ")
    if cells[:3] != ["labelcover", "v1", "\n"] or cells[8:9] != ["\n"] or cells.pop():
        return None
    try:
        sizes = n_a, n_b, k_a, k_b, m = tuple(map(int, cells[3:8]))
    except ValueError:
        return None
    if list(map(str, sizes)) != cells[3:8] or min(n_a, n_b, k_a - 1, k_b - 1, m) < 0:
        return None
    del cells[:9]
    # every row is k_a + 2 cells and its "\n", checked before any table is
    # built, so a huge declared count costs nothing
    period = k_a + 3
    if len(cells) != m * period or cells[period - 1 :: period].count("\n") != m:
        return None
    if not m:  # nothing to look up, and no tables to cut into k_a entries
        return ProjectionGame(n_a, n_b, k_a, k_b, (), ())
    # each column's decimals below its bound, stored up to the file's field
    # count (the header's two and the size line's five included) so that
    # huge declared counts build no huge table; a hit is a field in range
    fields = m * (k_a + 2) + 7
    try:
        edges = tuple(zip(
            map(_Decimals(n_a, fields).__getitem__, cells[::period]),
            map(_Decimals(n_b, fields).__getitem__, cells[1::period]),
        ))
        # drop the "\n" cells, then the A ends, then the B ends
        del cells[period - 1 :: period], cells[:: period - 1], cells[:: period - 2]
        tables = tuple(zip(*[map(_Decimals(k_b, fields).__getitem__, cells)] * k_a))
    except KeyError:
        return None
    if len(set(edges)) != m:
        return None
    return ProjectionGame(n_a, n_b, k_a, k_b, edges, tables)


def _read_rows(text: str) -> ProjectionGame:
    """parse_labelcover for any text: each row is tokenized, and every
    error is a ParseError at its line."""
    _, content, num, (n_a, n_b, k_a, k_b, m) = _read(text, "labelcover v1", 5)
    at = [num]
    rows = []
    for _, (num, line) in zip(range(m), content):
        row = _ints(num, line)
        if len(row) != 2 + k_a:
            raise ParseError(num, f"edge line needs {2 + k_a} fields, got {len(row)}")
        rows.append(row)
        at.append(num)
    _end(content, num, len(rows), (m, "edge"))
    edges = tuple([row[:2] for row in rows])
    tables = tuple([row[2:] for row in rows])
    return _built(lambda: build_game(n_a, n_b, k_a, k_b, edges, tables), "instance", at)


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
    lines, _, num, _ = _read(text, "assign v1", 0)
    content = _content_lines(lines, num, blank=True)
    labels = []
    for _, (num, line) in zip(range(2), content):
        labels.append(_ints(num, line))
    _end(content, num, len(labels), (2, "label"))
    return Assignment(*labels)


def emit_assignment(phi: Assignment) -> str:
    a = " ".join(str(x) for x in phi.a_labels)
    b = " ".join(str(x) for x in phi.b_labels)
    return f"assign v1\n{a}\n{b}\n"


def parse_td(text: str) -> TreeDecomposition:
    """`td v1`: header; `B T` counts; B ``bag ...`` lines; T ``link i j``."""
    from .exact import TreeDecomposition

    _, content, num, (nbags, nlinks) = _read(text, "td v1", 2)
    bags = []
    links = []
    for _, (num, line) in zip(range(nbags + nlinks), content):
        kind = "bag" if len(bags) < nbags else "link"
        word, _, fields = line.replace("\t", " ").partition(" ")
        if word != kind:
            raise ParseError(num, f"expected {kind!r}, got {word!r}")
        if kind == "bag":
            bags.append(frozenset(_ints(num, fields)))
        else:
            links.append(_ints(num, fields, 2))
    _end(content, num, len(bags) + len(links), (nbags, "bag"), (nlinks, "link"))
    return TreeDecomposition(tuple(bags), tuple(links))


def emit_td(td: TreeDecomposition) -> str:
    """The `td v1` text of a decomposition, the files `solve dp --td` reads."""
    out = ["td v1", f"{len(td.bags)} {len(td.tree)}"]
    for bag in td.bags:
        out.append(" ".join(["bag"] + [str(v) for v in sorted(bag)]))
    for i, j in td.tree:
        out.append(f"link {i} {j}")
    return "\n".join(out) + "\n"


def parse_matrix_tiling(text: str) -> MatrixTiling:
    """`matrixtiling v1`: header; `k n`; then k*k row-major cell lines
    ``i j count x1 y1 .. x_count y_count`` with 1-based coordinates."""
    _, content, num, (k, n) = _read(text, "matrixtiling v1", 2)
    at = [num]
    cells = []
    for want, (num, line) in zip(range(k * k), content):
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
    _end(content, num, len(cells), (k * k, "cell"))
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
    _, content, num, (n, m, planar) = _read(text, "colgraph v1", 3)
    at = [num]
    edges = []
    for _, (num, line) in zip(range(m), content):
        edges.append(_ints(num, line, 2))
        at.append(num)
    _end(content, num, len(edges), (m, "edge"))
    return _built(
        lambda: build_coloring_graph(n, edges, bool(planar)), "graph", at
    )


def emit_coloring_graph(g: ColoringGraph) -> str:
    out = ["colgraph v1", f"{g.vertex_count} {len(g.edges)} {int(g.claimed_planar)}"]
    for u, v in g.edges:
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"
