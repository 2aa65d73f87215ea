"""The `labelcover v1` load path against its earlier, per-entry form.

``oracle_parse_labelcover``, ``oracle_build_game`` and
``oracle_emit_labelcover`` below are the parser, builder and emitter as
they stood before parsing built each row once and validation ran in a few
whole-input passes.  The oracle reads fields with the earlier grammar
(``int()``, ``str.split()`` and ``splitlines()``), kept below.  On
canonical games and on hypothesis mutations of them, the current code must
return an ``==`` game or raise the same error (class, message and line),
and emit must give the same bytes.  Where the text holds something the one
grammar of ``formats`` rejects and the earlier one read, the current code
must instead raise a ParseError at that line (``first_rejected``).

The one-pass read of canonical texts (``formats._read_labelcover``) is
held to the same oracle on mutations aimed at it, and a text it calls
canonical must be what emit writes for the game.
"""

import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import labelcover as lc
from labelcover import core, formats
from labelcover.core import (
    DuplicateEdge,
    IndexOutOfRange,
    ProjectionGame,
    SymbolOutOfRange,
    TableLengthMismatch,
    _int_rows,
)
from labelcover.formats import ParseError, _built


# the earlier grammar's line helpers, as they stood before formats read
# every format with one grammar

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
    try:
        num, line = next(lines)
    except StopIteration:
        raise ParseError(2, "missing size line")
    values = _ints(num, line, expected)
    if min(values) < 0:
        raise ParseError(num, f"size line values must be nonnegative, got {line!r}")
    return num, values


def _rows(lines, num: int, *sections: tuple[int, str]):
    for count, kind in sections:
        for _ in range(count):
            try:
                num, line = next(lines)
            except StopIteration:
                raise ParseError(num + 1, f"expected {count} {kind} lines, file ended early")
            yield kind, num, line
    for num, _ in lines:
        raise ParseError(num, "trailing content after the declared lines")


def oracle_build_game(a_count, b_count, sigma_a, sigma_b, edges, projections):
    if a_count < 0 or b_count < 0:
        raise IndexOutOfRange("vertex counts must be nonnegative")
    if sigma_a < 1 or sigma_b < 1:
        raise SymbolOutOfRange("alphabet sizes must be positive")
    edges = _int_rows(edges, IndexOutOfRange, "endpoints")
    projections = _int_rows(projections, SymbolOutOfRange, "table entries")
    if len(projections) != len(edges):
        raise TableLengthMismatch(
            f"{len(edges)} edges but {len(projections)} projection tables"
        )
    seen = set()
    for i, edge in enumerate(edges):
        if len(edge) != 2:
            raise IndexOutOfRange(f"edge {i}: {len(edge)} endpoints, expected 2")
        a, b = edge
        if not (0 <= a < a_count and 0 <= b < b_count):
            raise IndexOutOfRange(f"edge {i}: endpoint ({a}, {b}) out of range")
        if (a, b) in seen:
            raise DuplicateEdge(f"edge {i}: duplicate pair ({a}, {b})")
        seen.add((a, b))
        table = projections[i]
        if len(table) != sigma_a:
            raise TableLengthMismatch(
                f"edge {i}: table has {len(table)} entries, expected {sigma_a}"
            )
        for s in table:
            if not 0 <= s < sigma_b:
                raise SymbolOutOfRange(f"edge {i}: table entry {s} not a B symbol")
    return ProjectionGame(a_count, b_count, sigma_a, sigma_b, edges, projections)


def oracle_parse_labelcover(text):
    lines = _content_lines(text)
    _header(lines, "labelcover v1")
    num, (n_a, n_b, k_a, k_b, m) = _size_line(lines, 5)
    at = [num]
    edges = []
    tables = []
    for _, num, line in _rows(lines, num, (m, "edge")):
        vals = _ints(num, line)
        if len(vals) != 2 + k_a:
            raise ParseError(
                num, f"edge line needs {2 + k_a} fields, got {len(vals)}"
            )
        edges.append((vals[0], vals[1]))
        tables.append(tuple(vals[2:]))
        at.append(num)
    return _built(
        lambda: oracle_build_game(n_a, n_b, k_a, k_b, edges, tables), "instance", at
    )


def oracle_emit_labelcover(game):
    out = ["labelcover v1"]
    out.append(
        f"{game.a_count} {game.b_count} {game.sigma_a} {game.sigma_b} "
        f"{game.edge_count}"
    )
    for (a, b), table in zip(game.edges, game.projections):
        out.append(" ".join(str(x) for x in (a, b, *table)))
    return "\n".join(out) + "\n"


def outcome(fn, *args):
    """What a call returns, or the class, message and line of its error."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the oracle decides which errors are right
        return "error", (type(exc), str(exc), getattr(exc, "line", None))


# the one grammar, written apart from formats: lines end at "\n" after
# at most one "\r", and a number is ASCII digits that int() reads
LINE_END = re.compile(r"\r?\n")
NUMBERS = re.compile(r"[0-9]+(?:[ \t]+[0-9]+)*")


def first_rejected(text):
    """The first line, if any, where the one grammar rejects a text that
    the earlier grammar may read, with the words of the error it gives:
    a header or numbers line holding a character outside the grammar or a
    number too long for int(), or content past the declared rows (which
    the earlier grammar may read as a blank line)."""
    lines = LINE_END.split(text)
    content = [
        (num, line.strip(" \t"))
        for num, line in enumerate(lines, 1)
        if line.strip(" \t") and not line.strip(" \t").startswith("#")
    ]
    if not content:
        return None
    if content[0][1] != "labelcover v1":
        return content[0][0], "header"
    numbers = []
    for num, line in content[1:]:
        if numbers and len(numbers) == 1 + numbers[0][4]:
            return num, "trailing content"
        if not NUMBERS.fullmatch(line):
            return num, "nonnegative integers"
        try:
            numbers.append(tuple(map(int, line.split())))
        except ValueError:  # more digits than int() reads
            return num, "nonnegative integers"
        if len(numbers[0]) != 5:
            return None  # both read the size line's wrong field count
    return None


def matches_oracle(got, text):
    """Check a parse outcome against the oracle: the oracle's own outcome
    where both grammars read the text alike, else a ParseError at the first
    line the one grammar rejects, unless the oracle stops at an earlier
    line before it builds the game.  Returns "rejected" for the latter."""
    want = outcome(oracle_parse_labelcover, text)
    bad = first_rejected(text)
    if bad is None or (
        want[0] == "error" and want[1][2] < bad[0] and "invalid instance" not in want[1][1]
    ):
        assert got == want
        return None
    assert got[0] == "error"
    kind, message, line = got[1]
    assert (kind, line) == (ParseError, bad[0])
    assert bad[1] in message
    return "rejected"


# (nA, nB, kA, kB, degree); kA == 1 and an edgeless game included
SHAPES = [
    (1, 1, 1, 1, 1),
    (3, 2, 1, 2, 1),
    (4, 3, 3, 2, 2),
    (5, 4, 2, 3, 2),
    (6, 3, 4, 2, 3),
    (8, 5, 3, 3, 2),
]


def canonical_texts():
    texts = ["labelcover v1\n0 0 1 1 0\n", "labelcover v1\n3 2 2 2 0\n"]
    for i, shape in enumerate(SHAPES):
        for seed in range(3):
            game, _ = lc.gen_random_satisfiable(*shape, seed=10 * i + seed)
            texts.append(oracle_emit_labelcover(game))
    for rows, cols in ((2, 2), (3, 2)):
        game, _ = lc.gen_planar_grid(rows, cols, 3, 2, seed=rows)
        texts.append(oracle_emit_labelcover(game))
    return texts


CANONICAL = canonical_texts()


@pytest.mark.parametrize("text", CANONICAL)
def test_canonical_games_round_trip_like_the_oracle(text):
    game = formats.parse_labelcover(text)
    assert game == oracle_parse_labelcover(text)
    assert formats.emit_labelcover(game) == oracle_emit_labelcover(game) == text


@pytest.mark.parametrize("text", CANONICAL)
def test_canonical_games_are_read_in_bulk(text):
    game, bulk = formats._read_labelcover(text)
    assert bulk
    assert game == oracle_parse_labelcover(text)


def test_emit_matches_oracle_on_single_symbol_and_edgeless_games():
    games = [
        lc.build_game(2, 2, 1, 3, [(0, 1), (1, 0)], [(2,), (0,)]),
        lc.build_game(0, 0, 1, 1, [], []),
        lc.build_game(4, 2, 5, 1, [], []),
        lc.build_game(1, 1, 1, 1, [(0, 0)], [(0,)]),
    ]
    for game in games:
        assert formats.emit_labelcover(game) == oracle_emit_labelcover(game)


TOKENS = ["+1", "01", "1_0", "-1", "x", "0.5", "9", "100", "", "0 0", "\t0",
          "1" * 5000]


def mutate(text, data):
    """Apply a few drawn edits to the lines of a canonical text."""
    lines = text.split("\n")[:-1]
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from([
            "comment", "blank", "tabs", "spaces", "pad", "token", "drop-token",
            "add-token", "endpoint", "trailing", "delete", "duplicate",
            "copy-row", "swap-rows",
        ]))
        at = data.draw(st.integers(0, len(lines)))
        row = min(at, len(lines) - 1)
        if kind == "comment":
            lines.insert(at, data.draw(st.sampled_from(["# note", "  #x 1 2", "#"])))
        elif kind == "blank":
            lines.insert(at, data.draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "tabs":
            lines[row] = lines[row].replace(" ", "\t")
        elif kind == "spaces":
            lines[row] = lines[row].replace(" ", "  ")
        elif kind == "pad":
            lines[row] = " " + lines[row] + " \t"
        elif kind in ("token", "drop-token", "add-token"):
            words = lines[row].split()
            where = data.draw(st.integers(0, len(words)))
            if kind == "add-token" or not words:
                words.insert(where, data.draw(st.sampled_from(TOKENS)))
            elif kind == "drop-token":
                del words[min(where, len(words) - 1)]
            else:
                words[min(where, len(words) - 1)] = data.draw(st.sampled_from(TOKENS))
            lines[row] = " ".join(words)
        elif kind == "endpoint":
            words = lines[row].split()
            if words:
                where = data.draw(st.integers(0, min(1, len(words) - 1)))
                words[where] = data.draw(st.sampled_from(["-1", "9", "100"]))
            lines[row] = " ".join(words)
        elif kind == "trailing":
            lines.append(data.draw(st.sampled_from(["0 0 0", "garbage", "1 1 1 1"])))
        elif kind == "delete":
            del lines[row]
        elif kind == "duplicate":
            lines.insert(at, lines[row])
        elif kind == "copy-row":
            lines[row] = lines[data.draw(st.integers(0, len(lines) - 1))]
        else:
            other = data.draw(st.integers(0, len(lines) - 1))
            lines[row], lines[other] = lines[other], lines[row]
        if not lines:
            lines = [""]
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    end = data.draw(st.sampled_from([newline, ""]))
    return newline.join(lines) + end


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_parse_matches_oracle_on_mutated_inputs(data):
    text = mutate(data.draw(st.sampled_from(CANONICAL)), data)
    got = outcome(formats.parse_labelcover, text)
    matches_oracle(got, text)
    if got[0] == "ok":
        assert formats.emit_labelcover(got[1]) == oracle_emit_labelcover(got[1])


ERROR_WORDS = ("integers", "fields", "out of range", "duplicate", "table entry",
               "trailing", "ended early", "header")


def test_mutations_reach_every_kind_of_outcome():
    """The mutated inputs above include games and each ParseError kind."""
    seen = set()

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def collect(data):
        text = mutate(data.draw(st.sampled_from(CANONICAL)), data)
        kind, result = outcome(oracle_parse_labelcover, text)
        if kind == "ok":
            seen.add("game")
        else:
            seen.update(w for w in ERROR_WORDS if w in result[1])

    collect()
    assert seen == {"game", *ERROR_WORDS}


# characters the table-first read must send to the tokenizer: the one
# grammar rejects the Arabic-Indic three, the other whitespace and a lone
# CR, and reads the rest as comments, leading zeros, padding or separators
# (or rejects them as signs)
STRAY = ["\u0663", "\x0b", "\x0c", "\x1c", "\u00a0", "\u2028", "\t", "\r",
         " ", "\n", "#", "-", "+", "0"]
HUGE = 10**9


def mutate_canonical(text, data):
    """Apply one drawn edit, aimed at the bulk read, to a canonical text."""
    head, sizes, body = text.split("\n", 2)
    sizes = sizes.split(" ")
    rows = [row.split(" ") for row in body.split("\n")[:-1]]
    n_a, n_b, _, k_b, _ = map(int, sizes)
    bound = max(n_a, n_b, k_b)
    fields = sum(map(len, rows))
    kind = data.draw(st.sampled_from(
        ["stray", "separator", "size-form", "size-value", "bound", "huge-count",
         "digit", "column-bound", "duplicate-edge", "shift-field"]
    ))
    if kind == "stray":
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 1))
        return text[:at] + data.draw(st.sampled_from(STRAY)) + text[at + cut:]
    if kind in ("separator", "digit"):
        wanted = " \n" if kind == "separator" else "0123456789"
        at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c in wanted]))
        if kind == "separator":
            return text[:at] + data.draw(st.sampled_from(STRAY)) + text[at + 1:]
        return text[:at] + chr(0x0660 + int(text[at])) + text[at + 1:]
    if kind in ("size-form", "size-value", "huge-count"):
        at = data.draw(st.integers(0, 4))
        if kind == "size-form":
            sizes[at] = data.draw(st.sampled_from(["0", "+"])) + sizes[at]
        elif kind == "size-value":
            sizes[at] = str(max(int(sizes[at]) + data.draw(st.integers(-1, 1)), 0))
        else:
            sizes[at] = str(data.draw(st.sampled_from([HUGE, HUGE**3])))
    elif kind == "bound" and rows:  # a value at or past the lookup table's bound
        row = data.draw(st.integers(0, len(rows) - 1))
        col = data.draw(st.integers(0, len(rows[row]) - 1))
        value = data.draw(st.sampled_from([bound, fields, n_a, n_b, k_b]))
        rows[row][col] = str(max(value + data.draw(st.integers(-1, 1)), 0))
    elif kind == "column-bound" and rows:
        # a field equal to its own column's bound (nA, nB or kB) with
        # another column's bound raised above it: only a table per column
        # misses it
        row = data.draw(st.integers(0, len(rows) - 1))
        col = data.draw(st.integers(0, len(rows[row]) - 1))
        own, other = {0: (0, 1), 1: (1, 0)}.get(col, (3, 0))
        rows[row][col] = sizes[own]
        sizes[other] = str(max(int(sizes[other]), int(sizes[own]) + 1))
    elif len(rows) > 1 and kind in ("duplicate-edge", "shift-field"):
        # an edge repeated, or a field moved from one row to another so
        # that the file's space count is unchanged
        i, j = data.draw(st.lists(
            st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True
        ))
        if kind == "duplicate-edge":
            rows[j][:2] = rows[i][:2]
        else:
            rows[j].append(rows[i].pop())
    return "\n".join(
        [head, " ".join(sizes), *[" ".join(row) for row in rows], ""]
    )


def bulk_outcome(text):
    """The outcome of the table-first read, checked against the oracle, and
    a game it calls canonical must be emitted as the text: "canonical",
    "game" or ("error", message, line)."""
    got = outcome(formats._read_labelcover, text)
    if got[0] == "error":
        matches_oracle(got, text)
        return "error", *got[1][1:]
    game, canonical = got[1]
    matches_oracle(("ok", game), text)
    assert formats.emit_labelcover(game) == oracle_emit_labelcover(game)
    if canonical:
        assert formats.emit_labelcover(game) == text
    return "canonical" if canonical else "game"


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_bulk_read_matches_oracle_on_mutated_canonical_inputs(data):
    bulk_outcome(mutate_canonical(data.draw(st.sampled_from(CANONICAL)), data))


def test_bulk_mutations_reach_both_paths(monkeypatch):
    """The mutations above are read to a canonical game and to one that is
    not, and they fail in the game's validation, at a row tokenized, and
    elsewhere (a header, a size line, a missing or trailing line), so no
    error path is tested only by luck."""
    seen = set()
    tokenized = []
    ints = formats._ints
    monkeypatch.setattr(
        formats, "_ints", lambda num, *rest: tokenized.append(num) or ints(num, *rest)
    )

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def collect(data):
        text = mutate_canonical(data.draw(st.sampled_from(CANONICAL)), data)
        tokenized.clear()
        kind = bulk_outcome(text)
        if kind[0] == "error":
            _, message, line = kind
            # every row is tokenized, so a validation error is at one too
            if "invalid instance" in message:
                kind = "invalid game"
            elif line in tokenized[1:]:  # the first call reads the size line
                kind = "tokenized row"
            else:
                kind = "other error"
        seen.add(kind)

    collect()
    assert seen == {"canonical", "game", "tokenized row", "invalid game", "other error"}


@pytest.mark.parametrize("text", [
    f"labelcover v1\n{HUGE} {HUGE} 1 1 1\n0 0 0\n",
    f"labelcover v1\n1 1 1 {HUGE} 1\n0 0 0\n",
    f"labelcover v1\n{HUGE} 1 1 {HUGE} 0\n",
])
def test_bulk_read_table_is_bounded_by_the_file(text):
    """Huge declared counts cost nothing: the lookup table is cut at the
    file's field count."""
    tracemalloc.start()
    try:
        game, bulk = formats._read_labelcover(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bulk and game == oracle_parse_labelcover(text)
    assert peak < 1_000_000


@pytest.mark.parametrize("text", [
    "labelcover v1\n1 1 1000000000 1 1\n0 0 0\n",
    "labelcover v1\n1 1 0 1 0\n",
    "labelcover v1\n1 1 1 0 0\n",
    f"labelcover v1\n0 0 {HUGE} 1 0\n",
])
def test_bulk_read_of_huge_or_zero_counts_is_bounded_by_the_file(text):
    """A huge declared kA is caught by the width check before any table is
    built (or, with no rows, never needs one), and kA or kB of 0 is a miss
    that the row loop reports like the oracle."""
    tracemalloc.start()
    try:
        got = outcome(formats.parse_labelcover, text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == outcome(oracle_parse_labelcover, text)
    assert peak < 1_000_000


# one canonical game's text, and edits that a single table of the decimals
# below the largest bound would read, so that only the per-column tables,
# the duplicate-edge set and the per-row width check catch them
COLUMN_BASE = "labelcover v1\n3 3 2 2 2\n0 0 1 0\n1 2 0 1\n"


@pytest.mark.parametrize("text", [
    "labelcover v1\n2 3 2 2 2\n0 0 1 0\n2 2 0 1\n",  # a = nA < nB
    "labelcover v1\n3 2 2 2 2\n0 0 1 0\n1 2 0 1\n",  # b = nB < nA
    "labelcover v1\n3 3 2 2 2\n0 0 1 0\n1 2 0 2\n",  # t = kB < nA
    "labelcover v1\n3 3 2 2 2\n1 2 1 0\n1 2 0 1\n",  # a duplicate edge
    "labelcover v1\n3 3 2 2 2\n0 0 1\n1 2 0 1 0\n",  # one row short, one long
    "labelcover v1\n3 3 2 2 2\n0 0 1 0\n1 2 0 1 0 ",  # a last newline made a field
])
def test_bulk_read_misses_what_only_its_own_checks_catch(text):
    assert formats._read_canonical(COLUMN_BASE) is not None
    assert formats._read_canonical(text) is None
    got = outcome(formats._read_labelcover, text)
    assert got[0] == "error" and got == outcome(oracle_parse_labelcover, text)


# a canonical game whose indices and table entries lie far above the
# file's field count, where the lookup tables are cut
SPARSE = ["99 0 199 150 0", "7 98 1 2 3"]


@pytest.mark.parametrize("field", [
    "99", "150", "0", "05", "+5", "-0", "1_0", "\u0663", "1" * 30, "100", "200",
])
@pytest.mark.parametrize("column", range(5))
def test_sparse_texts_are_read_in_one_pass_exactly_when_canonical(field, column):
    """A field missing from its column's table is read when it is the
    canonical decimal of a number below the column's bound; the one-pass
    read ends as the row loop does, and calls a text canonical exactly
    when emit writes it."""
    row = SPARSE[0].split()
    row[column] = field
    text = "\n".join(["labelcover v1", "100 100 3 200 2", " ".join(row), SPARSE[1], ""])
    got = outcome(formats._read_labelcover, text)
    want = outcome(formats._read_rows, text)
    if want[0] == "error":
        assert got == want
        return
    game, canonical = got[1]
    assert game == want[1] == oracle_parse_labelcover(text)
    assert canonical == (formats.emit_labelcover(game) == text)


def generated_games(seed):
    """One game of each generator and reduction, with shapes drawn from
    ``seed``, a grid with kA = 1, and an edgeless game with a huge kA."""
    rng = random.Random(seed)
    k_b = rng.randint(2, 4)
    n_a, n_b, k_a = rng.randint(1, 9), rng.randint(k_b, 9), rng.randint(1, 6)
    degree = rng.randint(k_b, n_b)
    return [
        lc.gen_random_satisfiable(n_a, n_b, k_a, k_b, degree, seed)[0],
        lc.gen_random_satisfiable(
            n_a, n_b, k_b * rng.randint(1, 3), k_b, degree, seed, uniform=True
        )[0],
        lc.gen_smooth(n_a, n_b, k_a, k_b, degree, Fraction(1), seed)[0],
        lc.gen_planar_grid(rng.randint(1, 5), rng.randint(1, 5), k_a, k_b, seed)[0],
        lc.gen_planar_grid(rng.randint(1, 5), rng.randint(1, 5), 1, k_b, seed)[0],
        lc.from_planar_3col(lc.gen_coloring_graph(
            rng.randint(1, 4), rng.randint(1, 4), Fraction(3, 4), seed
        )[0])[0],
        lc.from_matrix_tiling(lc.gen_matrix_tiling(
            rng.randint(2, 3), rng.randint(1, 3), Fraction(1, 2), seed,
            solvable=rng.random() < 0.5,
        ))[0],
        lc.build_game(n_a, n_b, HUGE, k_b, [], []),
    ]


@pytest.mark.parametrize("seed", range(12))
def test_row_loop_reads_emitted_games_like_the_one_pass_read(seed):
    """_read_labelcover reads emitted texts in one pass, so the row loop
    seldom sees one: it is held to the one-pass read, and both to the
    oracle, on emitted texts directly."""
    for game in generated_games(seed):
        text = formats.emit_labelcover(game)
        got = formats._read_rows(text)
        assert got == formats._read_canonical(text) == oracle_parse_labelcover(text)
        assert got == game


ROW_VALUES = [0, 1, 2, 3, -1, 0.5, True, Fraction(1), "1", None]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_build_game_matches_oracle_on_raw_rows(data):
    n_a, n_b = data.draw(st.integers(-1, 3)), data.draw(st.integers(-1, 3))
    k_a, k_b = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    values = st.one_of(st.integers(-1, 3), st.sampled_from(ROW_VALUES))
    mostly_ints = st.one_of(st.integers(0, 3), st.integers(0, 3), values)
    m = data.draw(st.integers(0, 5))
    edges = [
        tuple(data.draw(st.lists(mostly_ints, min_size=1, max_size=3)))
        if data.draw(st.integers(0, 9)) == 0
        else (data.draw(mostly_ints), data.draw(mostly_ints))
        for _ in range(m)
    ]
    width = max(k_a, 0)
    tables = [
        tuple(data.draw(st.lists(mostly_ints, min_size=max(width - 1, 0), max_size=width + 1)))
        if data.draw(st.integers(0, 9)) == 0
        else tuple(data.draw(mostly_ints) for _ in range(width))
        for _ in range(m + (data.draw(st.integers(0, 19)) == 0))
    ]
    got = outcome(lc.build_game, n_a, n_b, k_a, k_b, edges, tables)
    want = outcome(oracle_build_game, n_a, n_b, k_a, k_b, edges, tables)
    assert got == want
    if got[0] == "ok":
        assert formats.emit_labelcover(got[1]) == oracle_emit_labelcover(got[1])


def test_build_game_first_error_order_is_the_oracle_s():
    """Two bad edges: the earlier one is reported, whatever its kind.  An
    edge that is not a pair is an IndexOutOfRange at its place."""
    good = [((0, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 1))]
    bad = [((5, 0), (0, 1)), ((0, 0), (0, 1)), ((1, 1), (0,)), ((1, 1), (0, 7)),
           ((0, 0, 0), (0, 0)), ((0,), (0, 0))]
    for i in range(len(good) + 1):
        for first in bad:
            for second in bad:
                rows = good[:i] + [first] + good[i:] + [second]
                edges = [e for e, _ in rows]
                tables = [t for _, t in rows]
                got = outcome(lc.build_game, 2, 2, 2, 2, edges, tables)
                want = outcome(oracle_build_game, 2, 2, 2, 2, edges, tables)
                assert got == want and got[0] == "error"
    for edge, count in (((0, 0, 0), 3), ((0,), 1)):
        with pytest.raises(IndexOutOfRange, match=f"^edge 0: {count} endpoints, expected 2$"):
            lc.build_game(2, 2, 2, 2, [edge], [(0, 0)])


def test_preimage_masks_per_edge():
    game = lc.build_game(
        3, 2, 3, 2, [(0, 0), (1, 0), (2, 1)], [(0, 1, 0), (0, 1, 0), (1, 1, 0)]
    )
    masks = game.preimage_masks
    assert masks == ((0b101, 0b010), (0b101, 0b010), (0b100, 0b011))


def test_draw_threshold_draws_like_the_fraction_compare():
    """``random() < _draw_threshold(p)`` draws as ``random() < p``."""
    ps = [
        Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4),
        Fraction(1, 2**60), Fraction(2**60 - 1, 2**60), Fraction(5, 4),
        Fraction(-1, 7),
    ]
    for p in ps:
        cut = core._draw_threshold(p)
        for seed in range(200):
            want, got = random.Random(seed), random.Random(seed)
            assert [want.random() < p for _ in range(20)] == [
                got.random() < cut for _ in range(20)
            ]
        # every draw is k / 2**53; check the draws next to the threshold
        k = int(p * 2**53)
        for j in range(max(k - 2, 0), min(k + 3, 2**53)):
            x = j / 2**53
            assert (x < p) == (x < cut)
    assert core._draw_threshold(0.3) == 0.3
