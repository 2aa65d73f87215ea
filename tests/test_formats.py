import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import labelcover as lc
from labelcover import formats

from conftest import fixture_text


def test_labelcover_round_trip_single_edge():
    text = "labelcover v1\n1 1 2 2 1\n0 0 0 1\n"
    game = formats.parse_labelcover(text)
    assert game.edge_count == 1
    assert formats.emit_labelcover(game) == text


def test_labelcover_round_trip_tiny1():
    text = fixture_text("tiny1.lc")
    assert formats.emit_labelcover(formats.parse_labelcover(text)) == text


def test_labelcover_comments_and_blanks_ignored():
    text = "# a comment\nlabelcover v1\n\n1 1 2 2 1\n# another\n0 0 0 1\n"
    game = formats.parse_labelcover(text)
    assert game.edge_count == 1


def test_labelcover_truncated_table_names_line():
    text = "labelcover v1\n1 1 2 2 1\n0 0 0\n"
    with pytest.raises(formats.ParseError) as err:
        formats.parse_labelcover(text)
    assert "line 3" in str(err.value)


def test_labelcover_bad_header():
    with pytest.raises(formats.ParseError) as err:
        formats.parse_labelcover("labelcover v2\n1 1 2 2 0\n")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (formats.parse_labelcover, "labelcover v1\n1 1 2 2 1\n0 0 0 1\n9 9 9 9\n", 4),
        (formats.parse_td, "td v1\n1 0\nbag 0 1\n# c\nbag 2\n", 5),
        (formats.parse_matrix_tiling,
         "matrixtiling v1\n2 2\n1 1 1 1 1\n1 2 0\n2 1 0\n2 2 0\n3 1 0\n", 7),
        (formats.parse_coloring_graph, "colgraph v1\n3 1 0\n0 1\n1 2\n0 2\n", 4),
        (formats.parse_assignment, "assign v1\n0 0 0\n0 0 0 0\n\ngarbage here\n", 5),
    ],
    ids=["labelcover", "td", "tiling", "colgraph", "assign"],
)
def test_trailing_content_is_parse_error(parse, text, line):
    with pytest.raises(formats.ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert "trailing content" in str(err.value)


def test_labelcover_semantic_error_becomes_parse_error():
    text = "labelcover v1\n1 1 2 2 1\n0 0 0 5\n"
    with pytest.raises(formats.ParseError):
        formats.parse_labelcover(text)


def test_assignment_round_trip():
    phi = lc.Assignment((0, 2, 1), (1, 0))
    text = formats.emit_assignment(phi)
    assert formats.parse_assignment(text) == phi


def test_assignment_empty_side():
    phi = lc.Assignment((), (0, 1))
    assert formats.parse_assignment(formats.emit_assignment(phi)) == phi


def test_assignment_allows_blank_and_comment_lines_after_labels():
    text = "assign v1\n0 1\n2\n\n# note\n  \n"
    assert formats.parse_assignment(text) == lc.Assignment((0, 1), (2,))


def test_td_round_trip():
    td = lc.TreeDecomposition(
        (frozenset({0, 2}), frozenset({1, 2}), frozenset()), ((0, 1), (1, 2))
    )
    text = formats.emit_td(td)
    back = formats.parse_td(text)
    assert back.bags == td.bags
    assert back.tree == td.tree
    assert formats.emit_td(back) == text


def test_matrix_tiling_round_trip():
    t = lc.gen_matrix_tiling(3, 2, 0.5, seed=2, solvable=True)
    text = formats.emit_matrix_tiling(t)
    back = formats.parse_matrix_tiling(text)
    assert back == t
    assert formats.emit_matrix_tiling(back) == text


def test_matrix_tiling_order_enforced():
    text = "matrixtiling v1\n2 2\n1 2 0\n1 1 0\n2 1 0\n2 2 0\n"
    with pytest.raises(formats.ParseError) as err:
        formats.parse_matrix_tiling(text)
    assert "order" in str(err.value)


def test_coloring_graph_round_trip():
    g, _ = lc.gen_coloring_graph(3, 3, Fraction(1, 2), seed=4)
    text = formats.emit_coloring_graph(g)
    back = formats.parse_coloring_graph(text)
    assert back == g
    assert formats.emit_coloring_graph(back) == text


def test_coloring_graph_rejects_self_loop():
    with pytest.raises(formats.ParseError):
        formats.parse_coloring_graph("colgraph v1\n2 1 0\n1 1\n")


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (formats.parse_labelcover, "labelcover v1\n1 1 2 2 -1\n", 2),
        (formats.parse_labelcover, "# c\nlabelcover v1\n\n-1 1 2 2 0\n", 4),
        (formats.parse_td, "td v1\n-1 0\n", 2),
        (formats.parse_td, "td v1\n1 -1\nbag 0\n", 2),
        (formats.parse_matrix_tiling, "matrixtiling v1\n-2 2\n", 2),
        (formats.parse_coloring_graph, "colgraph v1\n2 -2 0\n", 2),
    ],
)
def test_negative_size_line_is_parse_error(parse, text, line):
    with pytest.raises(formats.ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert "nonnegative" in str(err.value)


@pytest.mark.parametrize(
    "parse, text, line, words",
    [
        (formats.parse_labelcover, "labelcover v1\n1 1 2 2 1\n0 5 0 1\n", 3,
         "edge 0: endpoint (0, 5) out of range"),
        (formats.parse_labelcover,
         "# c\nlabelcover v1\n2 2 2 2 2\n0 0 0 1\n\n0 0 1 1\n", 6,
         "edge 1: duplicate pair"),
        (formats.parse_labelcover, "labelcover v1\n1 1 2 2 1\n0 0 0 5\n", 3,
         "edge 0: table entry 5"),
        (formats.parse_labelcover, "labelcover v1\n1 1 0 2 0\n", 2,
         "alphabet sizes must be positive"),
        (formats.parse_coloring_graph, "colgraph v1\n3 2 0\n0 1\n# c\n1 1\n", 5,
         "edge 1: self loop"),
        (formats.parse_coloring_graph, "colgraph v1\n2 1 0\n0 2\n", 3,
         "edge 0: endpoint (0, 2) out of range"),
        (formats.parse_matrix_tiling,
         "matrixtiling v1\n2 2\n1 1 0\n1 2 1 1 3\n2 1 0\n2 2 0\n", 4,
         "cell 1: pair (1, 3) out of range"),
        (formats.parse_matrix_tiling, "matrixtiling v1\n0 2\n", 2,
         "must be positive"),
    ],
    ids=["lc-endpoint", "lc-duplicate", "lc-table-entry", "lc-alphabet",
         "colgraph-self-loop", "colgraph-endpoint", "tiling-pair", "tiling-size"],
)
def test_builder_error_names_offending_line(parse, text, line, words):
    with pytest.raises(formats.ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: invalid ")
    assert words in str(err.value)


def _canonical_texts():
    """Canonical texts of the four other formats, as their emitters write
    them: (parse, emit, texts)."""
    assigns = [lc.Assignment((0, 2, 1), (1, 0)), lc.Assignment((), (0, 1)),
               lc.Assignment((3,), ()), lc.Assignment((), ())]
    games = [lc.gen_random_satisfiable(6, 4, 3, 2, 2, seed=s)[0] for s in range(2)]
    games.append(lc.gen_planar_grid(3, 3, 3, 2, seed=1)[0])
    graphs = [lc.gen_coloring_graph(r, c, Fraction(3, 4), seed=r)[0]
              for r, c in ((2, 2), (3, 2), (1, 1))]
    tilings = [lc.gen_matrix_tiling(k, n, 0.5, seed=k, solvable=k > 1)
               for k, n in ((1, 1), (2, 2), (3, 2))]
    return [
        (formats.parse_assignment, formats.emit_assignment,
         [formats.emit_assignment(phi) for phi in assigns]),
        (formats.parse_td, formats.emit_td,
         [formats.emit_td(lc.heuristic_decomposition(g)) for g in games]),
        (formats.parse_coloring_graph, formats.emit_coloring_graph,
         [formats.emit_coloring_graph(g) for g in graphs]),
        (formats.parse_matrix_tiling, formats.emit_matrix_tiling,
         [formats.emit_matrix_tiling(t) for t in tilings]),
    ]


OTHER_FORMATS = _canonical_texts()
OTHER_IDS = ["assign", "td", "colgraph", "matrixtiling"]


@pytest.mark.parametrize("parse, emit, texts", OTHER_FORMATS, ids=OTHER_IDS)
def test_other_formats_round_trip_canonical_texts(parse, emit, texts):
    for text in texts:
        assert emit(parse(text)) == text


# pieces a mutation puts into a text: separators, comment and sign marks,
# numbers at and past every bound, a number too long for int(), and
# characters that int(), split() or splitlines() treat specially
PIECES = [" ", "  ", "\t", "\n", "\r\n", "\r", "#", "# c\n", "-", "+", "0", "1",
          "-1", "9", "100", "1_0", "1" * 5000, "bag", "link", "x", "\u0663",
          "\x0b", "\x0c", "\x1c", "\u00a0", "\u2028", "\x85"]


def _mutate(text, data):
    """Apply a few drawn character or line edits to a text."""
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["insert", "replace", "delete", "lines"]))
        at = data.draw(st.integers(0, len(text)))
        if kind == "lines":
            lines = text.split("\n")
            i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            lines.insert(i, lines[j])
            if data.draw(st.booleans()):
                del lines[j + (i <= j)]
            text = "\n".join(lines)
            continue
        end = at + data.draw(st.integers(0, 3)) if kind != "insert" else at
        piece = "" if kind == "delete" else data.draw(st.sampled_from(PIECES))
        text = text[:at] + piece + text[end:]
    return text


@pytest.mark.parametrize("parse, emit, texts", OTHER_FORMATS, ids=OTHER_IDS)
def test_other_formats_mutated_inputs_raise_only_parse_error(parse, emit, texts):
    """Any mutation of a canonical text is read or is a ParseError, and what
    is read emits a text that reads back to the same value."""
    outcomes = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        text = _mutate(data.draw(st.sampled_from(texts)), data)
        try:
            value = parse(text)
        except formats.ParseError:
            outcomes.add("error")
            return
        outcomes.add("read")
        again = emit(value)
        assert parse(again) == value
        assert emit(parse(again)) == again

    check()
    assert outcomes == {"read", "error"}


# one text per format, and the line whose last field or separator the
# grammar tests below replace
GRAMMAR_TEXTS = [
    (formats.parse_labelcover, "labelcover v1\n2 2 2 2 2\n0 0 0 1\n1 1 1 0\n", 4),
    (formats.parse_assignment, "assign v1\n0 1\n1 0\n", 3),
    (formats.parse_td, "td v1\n2 1\nbag 0 1\nbag 1 2\nlink 0 1\n", 4),
    (formats.parse_coloring_graph, "colgraph v1\n3 2 0\n0 1\n1 2\n", 4),
    (formats.parse_matrix_tiling, "matrixtiling v1\n1 2\n1 1 1 2 1\n", 3),
]
GRAMMAR_IDS = ["labelcover", "assign", "td", "colgraph", "matrixtiling"]
# fields that int() read and separators that str.split() or splitlines()
# took, which the one grammar rejects
REJECTED_FIELDS = ["+1", "-1", "1_0", "\u0663"]
REJECTED_SEPARATORS = ["\u00a0", "\u2028", "\x0b", "\x0c", "\x1c", "\x85", "\r"]


@pytest.mark.parametrize("parse, text, line", GRAMMAR_TEXTS, ids=GRAMMAR_IDS)
@pytest.mark.parametrize("piece", REJECTED_FIELDS + REJECTED_SEPARATORS)
def test_grammar_rejects_what_no_emitter_writes(parse, text, line, piece):
    lines = text.split("\n")
    head, _, last = lines[line - 1].rpartition(" ")
    if piece in REJECTED_FIELDS:
        lines[line - 1] = f"{head} {piece}"
    else:
        lines[line - 1] = f"{head}{piece}{last}"
    with pytest.raises(formats.ParseError) as err:
        parse("\n".join(lines))
    assert err.value.line == line
    assert "nonnegative integers" in str(err.value)


def _body(edit):
    """An edit of a text's lines after its header."""
    def apply(text):
        head, _, rest = text.partition("\n")
        return f"{head}\n{edit(rest)}"
    return apply


ACCEPTED_FORMS = {
    "tabs": _body(lambda t: t.replace(" ", "\t")),
    "space-runs": _body(lambda t: t.replace(" ", "   ").replace("\n", " \n\t ")),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "comments": lambda t: "# a\n" + t.replace("\n", "\n  # b 1 2\n", 2) + "#",
    "blank-lines": lambda t: "\n \t\n" + t + "\n\t\n",
    "leading-zeros": _body(lambda t: re.sub(r"\b([0-9])", r"00\1", t)),
    "no-final-newline": lambda t: t[:-1],
}


@pytest.mark.parametrize("parse, text, line", GRAMMAR_TEXTS, ids=GRAMMAR_IDS)
@pytest.mark.parametrize("form", ACCEPTED_FORMS)
def test_grammar_reads_every_accepted_form_like_the_canonical_text(parse, text, line, form):
    variant = ACCEPTED_FORMS[form](text)
    assert variant != text
    assert parse(variant) == parse(text)
    if parse is formats.parse_labelcover:
        assert formats._read_labelcover(variant) == (parse(text), False)
