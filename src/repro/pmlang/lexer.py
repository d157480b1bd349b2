"""Regular-expression lexer for PMLang.

One compiled pattern, one alternative per token class, scanned with
``finditer``: the regex engine does the character loop, and Python code
runs once per token instead of once per character. Comments use ``//`` to
the end of the line (as in the paper's Fig 4 listings).

Lexical rules the pattern encodes:

* an identifier is a word character that is not a decimal digit,
  followed by word characters (``str.isalnum`` or ``_``); a reserved word
  becomes a ``KEYWORD`` token;
* a number is decimal digits with an optional fraction and an optional
  exponent, or a fraction alone (``.5``); it is a ``FLOAT`` when it has a
  point or an exponent, else an ``INT``;
* a string is double-quoted on one line, with ``\\"`` and ``\\\\`` as its
  only escapes;
* operators are matched longest first, so ``<=`` never lexes as ``<``.

A character no alternative accepts is an error at its own position; an
unterminated string is an error at its opening quote.
"""

from __future__ import annotations

import re

from ..errors import PMLangSyntaxError
from .tokens import (
    EOF,
    FLOAT,
    INT,
    KEYWORD,
    KEYWORDS,
    MULTI_CHAR_OPS,
    NAME,
    OP,
    SINGLE_CHAR_OPS,
    STRING,
    Token,
)

_EXPONENT = r"[eE][+-]?\d+"

#: Group name -> token kind, or a lexeme the lexer consumes itself.
_SCANNER = re.compile("|".join((
    r"(?P<SKIP>[ \t\r]+)",
    r"(?P<COMMENT>//[^\n]*)",
    r"(?P<NEWLINE>\n)",
    rf"(?P<{NAME}>[^\W\d]\w*)",
    rf"(?P<{FLOAT}>\d+\.\d*(?:{_EXPONENT})?|\d+{_EXPONENT}|\.\d+(?:{_EXPONENT})?)",
    rf"(?P<{INT}>\d+)",
    # An escape is a backslash before a quote or backslash; any other
    # backslash is literal, so there is exactly one way to match.
    rf'(?P<{STRING}>"(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*")',
    rf"(?P<{OP}>{'|'.join(re.escape(op) for op in MULTI_CHAR_OPS)}"
    rf"|[{re.escape(SINGLE_CHAR_OPS)}])",
    r"(?P<ERROR>.)",
))).finditer

_ESCAPE = re.compile(r'\\(["\\])')


def tokenize(source):
    """Convert PMLang *source* text into a list of :class:`Token`.

    The returned list always ends with a single EOF token. Raises
    :class:`PMLangSyntaxError` on any character that cannot start a token.
    """
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    end = len(source)  # where the EOF token sits: before a trailing comment
    for match in _SCANNER(source):
        kind = match.lastgroup
        start = match.start()
        if kind == "SKIP":
            continue
        if kind == "COMMENT":
            end = start
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = start + 1
            end = len(source)
            continue
        text = match.group()
        column = start - line_start + 1
        if kind == NAME:
            append(Token(KEYWORD if text in KEYWORDS else NAME, text, line, column))
        elif kind == STRING:
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(r"\1", body)
            append(Token(STRING, body, line, column))
        elif kind == "ERROR":
            if text == '"':
                message = "unterminated string literal"
            else:
                message = f"unexpected character {text!r}"
            raise PMLangSyntaxError(message, line=line, column=column)
        else:
            append(Token(kind, text, line, column))
    append(Token(EOF, "", line, end - line_start + 1))
    return tokens
