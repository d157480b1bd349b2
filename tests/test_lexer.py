"""Unit tests for the PMLang lexer."""

import hashlib

import pytest

from repro.errors import PMLangSyntaxError
from repro.pmlang.lexer import tokenize
from repro.pmlang.tokens import EOF, FLOAT, INT, KEYWORD, NAME, OP, STRING, Token
from repro.workloads import END_TO_END, SINGLE_DOMAIN, get_workload


def kinds(source):
    return [token.kind for token in tokenize(source)]


def texts(source):
    return [token.text for token in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == EOF

    def test_identifier(self):
        token = tokenize("ctrl_mdl")[0]
        assert token.kind == NAME
        assert token.text == "ctrl_mdl"

    def test_keywords_are_not_names(self):
        for word in ("input", "output", "state", "param", "index", "float",
                     "reduction", "unroll", "RBT", "GA", "DSP", "DA", "DL"):
            assert tokenize(word)[0].kind == KEYWORD, word

    def test_identifier_with_keyword_prefix_is_name(self):
        assert tokenize("inputs")[0].kind == NAME
        assert tokenize("indexer")[0].kind == NAME

    def test_underscore_leading_identifier(self):
        assert tokenize("_tmp1")[0].text == "_tmp1"


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.kind == INT
        assert token.text == "42"

    def test_float_with_point(self):
        assert tokenize("3.25")[0].kind == FLOAT

    def test_float_with_exponent(self):
        assert tokenize("1e-3")[0].kind == FLOAT
        assert tokenize("2.5E+4")[0].kind == FLOAT

    def test_leading_dot_float(self):
        token = tokenize(".5")[0]
        assert token.kind == FLOAT
        assert token.text == ".5"

    def test_integer_followed_by_range_colon(self):
        assert texts("i[0:9]") == ["i", "[", "0", ":", "9", "]"]


class TestOperators:
    def test_multi_char_operators_are_single_tokens(self):
        for op in ("==", "!=", "<=", ">=", "&&", "||"):
            tokens = tokenize(f"a {op} b")
            assert tokens[1].kind == OP and tokens[1].text == op

    def test_adjacent_single_char_ops(self):
        assert texts("a[i+1]") == ["a", "[", "i", "+", "1", "]"]

    def test_ternary_punctuation(self):
        assert texts("a ? b : c") == ["a", "?", "b", ":", "c"]

    def test_caret_power(self):
        assert texts("2^s") == ["2", "^", "s"]


class TestCommentsAndStrings:
    def test_line_comment_is_skipped(self):
        assert texts("a // trailing comment\nb") == ["a", "b"]

    def test_comment_only_line(self):
        assert kinds("// nothing here") == [EOF]

    def test_string_literal(self):
        token = tokenize('"hello world"')[0]
        assert token.kind == STRING
        assert token.text == "hello world"

    def test_string_with_escaped_quote(self):
        assert tokenize(r'"say \"hi\""')[0].text == 'say "hi"'

    def test_unterminated_string_raises(self):
        with pytest.raises(PMLangSyntaxError):
            tokenize('"oops')

    def test_unterminated_string_at_newline_raises(self):
        with pytest.raises(PMLangSyntaxError):
            tokenize('"oops\nmore"')


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(PMLangSyntaxError) as excinfo:
            tokenize("a\n@b")
        assert excinfo.value.line == 2

    def test_unexpected_character(self):
        with pytest.raises(PMLangSyntaxError):
            tokenize("a $ b")


#: sha256 over ``kind, text, line, column`` of every token of each ledger
#: program's source — literals of the commit before the lexer became one
#: regular expression.
TOKEN_STREAM_DIGESTS = {
    "MobileRobot": "fdd5f5cbb9ba7a42aab2474f0f340ad7230beb4b8aabcbdd1947fd3bd72e7eb5",
    "Hexacopter": "570126e49a2cfba8ee43a0fe893286b878026678ba7d6d9858c8c63055e86e12",
    "Twitter-BFS": "0254cdada94ff7c4687861b0665f60a36633197f695789010dc5e74efa05ffc9",
    "Wiki-BFS": "30433610ebee34d6d0803921ad32f5a33437ec7b3d38275cf988a226f91c7e5f",
    "LiveJourn-SSP": "d1e7eac48296556b19a8dab4de1e93b73049ef5a91deb27175d6c8edb54c60ab",
    "MovieL-20M": "38c9f8ef2470c72255d5fa557c11181d437821ddc8eac73a12965547d299785d",
    "MovieL-100K": "a65672da7aa22fdf3edaedb5eb4821c74ff9d782704df3b2c5161fd07e2a6ab6",
    "DigitCluster": "9cb11c5e91713b55bdb33dec0908053564448cc351b75a19b3fae19143dc77de",
    "ElecUse": "57a72362852040f7d34e401a3c1ca37acc90290cf9f971c59a94842c1d9f06a4",
    "FFT-8192": "9a99b0f3120e3f92eda13fbaafad1f1898d642785d237bac23dbffd2b5ceeab7",
    "FFT-16384": "fcb02fcc82b1c10595609c44b550c6bd40e1e32b21213753786613540256deab",
    "DCT-1024": "5cc06f2c8ce41bb51ecd983835649943595f06b2ff2342df513fc739c626fd8a",
    "DCT-2048": "4a972a3a9dbc01b3f598ebdb36702762d02530adc236700adac4503cdb45df89",
    "ResNet-18": "f170fb46268d13935e21f43ca64343d47c04f3125ee80cf79afaaaacdcc57748",
    "MobileNet": "0ad5255ebe17281f5d391c0caa59ffb57d0c0138a2f6eb67d72e65071508f6f4",
    "BrainStimul": "d7e6c03feea1bdf707ce4740bcfd17b1ea45115cd49baa2ff43e94ef289de7d5",
    "OptionPricing": "e9b2ee9e14ccbeba6af7f14b04b4d619876898f48dc4c7a268154621810dce00",
}


def token_stream_digest(source):
    return hashlib.sha256("".join(
        f"{token.kind}\t{token.text}\t{token.line}\t{token.column}\n"
        for token in tokenize(source)
    ).encode()).hexdigest()


class TestWorkloadTokenStreams:
    def test_every_workload_is_pinned(self):
        assert set(TOKEN_STREAM_DIGESTS) == set(SINGLE_DOMAIN + END_TO_END)

    @pytest.mark.parametrize("name", sorted(TOKEN_STREAM_DIGESTS))
    def test_token_stream_unchanged(self, name):
        source = get_workload(name).source()
        assert token_stream_digest(source) == TOKEN_STREAM_DIGESTS[name]


class TestTokenValues:
    def test_tokens_compare_by_value(self):
        first, second = tokenize("a a")[:2]
        assert first != second  # columns differ
        assert Token(NAME, "a", 1, 1) == first
        assert hash(Token(NAME, "a", 1, 1)) == hash(first)
        assert first != (NAME, "a", 1, 1)

    def test_eof_sits_before_a_trailing_comment(self):
        eof = tokenize("a  // note")[-1]
        assert (eof.kind, eof.line, eof.column) == (EOF, 1, 4)
        eof = tokenize("a // note\n b")[-1]
        assert (eof.line, eof.column) == (2, 3)

    def test_unterminated_string_reports_its_opening_quote(self):
        with pytest.raises(PMLangSyntaxError, match="unterminated") as excinfo:
            tokenize('a\n  "open\n"')
        assert (excinfo.value.line, excinfo.value.column) == (2, 3)

    def test_lone_backslash_stays_literal(self):
        assert tokenize(r'"a\b"')[0].text == "a\\b"
        with pytest.raises(PMLangSyntaxError, match="unterminated"):
            tokenize('"a\\"')
