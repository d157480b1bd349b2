"""Token definitions shared by the PMLang lexer and parser."""

from __future__ import annotations

# Token kinds. Keywords get their own kind so the parser never has to
# compare identifier text against reserved words.
NAME = "NAME"
INT = "INT"
FLOAT = "FLOAT"
STRING = "STRING"
OP = "OP"  # punctuation / operators, exact text in Token.text
EOF = "EOF"
KEYWORD = "KEYWORD"

#: PMLang type modifiers (Table I of the paper).
TYPE_MODIFIERS = ("input", "output", "state", "param")

#: PMLang scalar element types (Table I).
ELEMENT_TYPES = ("bin", "int", "float", "str", "complex")

#: Domain annotation keywords for component instantiations (§II-D).
DOMAINS = ("RBT", "GA", "DSP", "DA", "DL")

#: All reserved words.
KEYWORDS = frozenset(
    TYPE_MODIFIERS
    + ELEMENT_TYPES
    + DOMAINS
    + ("index", "reduction", "unroll")
)

#: Multi-character operators, longest first so the lexer is greedy.
MULTI_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||")

#: Single-character operators and punctuation.
SINGLE_CHAR_OPS = "+-*/%^<>=!?:;,()[]{}."


class Token:
    """A single lexeme with its source position (1-based line/column).

    A plain slotted class rather than a frozen dataclass: a program is
    thousands of tokens, and construction is most of what the lexer
    spends on each. Tokens are values — compared and hashed by all four
    fields — and nothing assigns to one after the lexer made it.
    """

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def _fields(self):
        return (self.kind, self.text, self.line, self.column)

    def __eq__(self, other):
        if not isinstance(other, Token):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def is_op(self, text):
        """Return True when this token is the operator/punctuation *text*."""
        return self.kind == OP and self.text == text

    def is_keyword(self, text):
        """Return True when this token is the keyword *text*."""
        return self.kind == KEYWORD and self.text == text

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"
