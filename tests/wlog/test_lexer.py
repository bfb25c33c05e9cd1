"""Tests for the WLog tokenizer."""

import pytest

from repro.common.errors import WLogSyntaxError
from repro.wlog.lexer import tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]  # drop EOF


class TestBasics:
    def test_atoms_and_vars(self):
        assert kinds("foo Bar _baz") == [("ATOM", "foo"), ("VAR", "Bar"), ("VAR", "_baz")]

    def test_numbers(self):
        assert kinds("42 3.14") == [("NUM", 42.0), ("NUM", 3.14)]

    def test_quoted_atoms(self):
        assert kinds("'m1.small'") == [("ATOM", "m1.small")]

    def test_quoted_escapes(self):
        assert kinds(r"'a\'b'") == [("ATOM", "a'b")]

    def test_punctuation(self):
        values = [v for _, v in kinds("f(X, Y) :- g(X).")]
        assert values == ["f", "(", "X", ",", "Y", ")", ":-", "g", "(", "X", ")", "."]

    def test_operators(self):
        assert [v for _, v in kinds("X =< Y")] == ["X", "=<", "Y"]
        assert [v for _, v in kinds("X \\== Y")] == ["X", "\\==", "Y"]
        assert [v for _, v in kinds("X =\\= Y")] == ["X", "=\\=", "Y"]

    def test_clause_terminator_vs_decimal(self):
        toks = kinds("x(1.5).")
        assert toks == [("ATOM", "x"), ("PUNCT", "("), ("NUM", 1.5), ("PUNCT", ")"), ("END", ".")]


class TestWLogLiterals:
    def test_percent_literal(self):
        assert kinds("95%") == [("PERCENT", 95.0)]

    def test_fractional_percent(self):
        assert kinds("99.9%") == [("PERCENT", 99.9)]

    def test_duration_hours(self):
        assert kinds("10h") == [("NUM", 36000.0)]

    def test_duration_minutes_seconds_days(self):
        assert kinds("2m 45s 1d") == [("NUM", 120.0), ("NUM", 45.0), ("NUM", 86400.0)]

    def test_unit_requires_word_boundary(self):
        # '10hz' is a number followed by the atom 'hz', not 10 hours.
        assert kinds("10hz") == [("NUM", 10.0), ("ATOM", "hz")]

    def test_deadline_call(self):
        toks = kinds("deadline(95%, 10h)")
        assert ("PERCENT", 95.0) in toks
        assert ("NUM", 36000.0) in toks


class TestComments:
    def test_block_comment_skipped(self):
        assert kinds("a /* hidden */ b") == [("ATOM", "a"), ("ATOM", "b")]

    def test_multiline_comment_tracks_lines(self):
        toks = tokenize("/* one\ntwo */ x")
        assert toks[0].line == 2

    def test_unterminated_comment(self):
        with pytest.raises(WLogSyntaxError):
            tokenize("a /* never closed")


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(WLogSyntaxError) as exc:
            tokenize("a @ b")
        assert "@" in str(exc.value)

    def test_unterminated_quote(self):
        with pytest.raises(WLogSyntaxError):
            tokenize("'oops")

    def test_position_reported(self):
        with pytest.raises(WLogSyntaxError) as exc:
            tokenize("abc\n  @")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == "EOF"


class TestUnicodeDigits:
    def test_non_decimal_digit_is_a_syntax_error(self):
        # '²'.isdigit() is true, but float('²') raises ValueError.
        with pytest.raises(WLogSyntaxError) as exc:
            tokenize("x(A) :- A is ².")
        assert exc.value.base_message == "unexpected character '²'"
        assert (exc.value.line, exc.value.column) == (1, 14)

    def test_non_decimal_digit_ends_a_number(self):
        with pytest.raises(WLogSyntaxError) as exc:
            tokenize("12²")
        assert (exc.value.line, exc.value.column) == (1, 3)

    def test_non_decimal_digit_after_a_dot(self):
        with pytest.raises(WLogSyntaxError) as exc:
            tokenize("a .²")
        assert exc.value.base_message == "unexpected character '²'"

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert kinds("٣.٥") == [("NUM", 3.5)]  # Arabic-Indic 3.5

    def test_non_decimal_digit_inside_a_word(self):
        assert kinds("x² Y½") == [("ATOM", "x²"), ("VAR", "Y½")]


class TestPositionsAfterEscapedNewline:
    SOURCE = "p('a\\\nb').\nq(X) :- r(@)."

    def test_escaped_newline_counts_as_a_line(self):
        toks = tokenize(self.SOURCE.replace("@", "a"))
        assert toks[2].value == "a\nb"
        assert (toks[3].value, toks[3].line, toks[3].column) == (")", 2, 3)
        assert (toks[5].value, toks[5].line, toks[5].column) == ("q", 3, 1)

    def test_error_after_it_points_at_the_right_line(self):
        with pytest.raises(WLogSyntaxError) as exc:
            tokenize(self.SOURCE)
        assert (exc.value.line, exc.value.column) == (3, 11)
        assert "q(X) :- r(@)." in str(exc.value)
        assert "b')." not in str(exc.value)
