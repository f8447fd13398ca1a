"""Parser for the textual expression grammar.

Grammar (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := 'sum' IDENT+ ':' term
              | [RATIONAL ['*']] factor ('*' factor)*
              | RATIONAL
    factor   := 'tr' '(' loopterm [';' word] ')' | '(' expr ')'
    word     := ('O' IDENT [','])+
    loopterm := loopatom (('.' ['~']) loopatom)*
    loopatom := IDENT | '(' loopterm ')'
    RATIONAL := ['-'] INT ['/' INT]

``sum i j:`` binds index names for the rest of the term; an index used
outside any binder is a positioned parse error.  All bound indices are
summation indices over 1..7.  Parenthesised exprs and loop terms, ``sum``
binders and ``.``/``.~`` links together nest at most 100 deep; deeper input
is a positioned parse error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import Composite, Expression, Loop, LoopTerm, Monomial, TraceAtom, ZERO, atom_expr

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<punct>[().;:+*/,~-]))")

_KEYWORDS = {"sum", "tr", "O"}

# far deeper input overflows Python's recursion limit here or in Composite.__str__
_MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        self.pos = pos
        snippet = text[max(0, pos - 12): pos + 12]
        super().__init__(f"parse error at offset {pos} near {snippet!r}: {message}")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []  # (kind, value, pos)
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                rest = text[pos:].lstrip()
                if rest:
                    raise ParseError("unexpected character", len(text) - len(rest), text)
                break
            if m.group("int") is not None:
                self.items.append(("int", m.group("int"), m.start("int")))
            elif m.group("ident") is not None:
                self.items.append(("ident", m.group("ident"), m.start("ident")))
            else:
                self.items.append(("punct", m.group("punct"), m.start("punct")))
            pos = m.end()
        self.k = 0

    def peek(self):
        if self.k >= len(self.items):
            return ("eof", "", len(self.text))
        return self.items[self.k]

    def next(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1]!r}", tok[2], self.text)
        return tok


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokens(text)
        self.text = text
        self.scopes: list[dict] = []
        self.next_id = 0
        self.nesting = 0

    # -- helpers -----------------------------------------------------------
    def _lookup(self, name: str, pos: int) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise ParseError(f"unbound index {name!r} (missing 'sum {name}:')", pos, self.text)

    def _fresh(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def _nest(self, pos: int):
        """Open one nesting level at ``pos``; its construct closes it when done."""
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", pos, self.text)

    # -- grammar -----------------------------------------------------------
    def end(self, result):
        """``result``, after checking that no input is left."""
        tok = self.toks.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], self.text)
        return result

    def expr(self) -> Expression:
        out = self.term()
        while True:
            tok = self.toks.peek()
            if tok[0] == "punct" and tok[1] in "+-":
                self.toks.next()
                nxt = self.term()
                out = out + (nxt if tok[1] == "+" else nxt.scale(-1))
            else:
                return out

    def _binder_term(self) -> Expression:
        tok = self.toks.expect("ident", "sum")
        scope = {}
        while self.toks.peek()[0] == "ident" and self.toks.peek()[1] not in _KEYWORDS:
            name = self.toks.next()[1]
            scope[name] = self._fresh()
        if not scope:
            raise ParseError("'sum' needs at least one index name", tok[2], self.text)
        self.toks.expect("punct", ":")
        self._nest(tok[2])
        self.scopes.append(scope)
        out = self.term()
        self.scopes.pop()
        self.nesting -= 1
        return out

    def term(self) -> Expression:
        tok = self.toks.peek()
        if tok[0] == "ident" and tok[1] == "sum":
            return self._binder_term()

        coeff = Fraction(1)
        sign = 1
        if tok[0] == "punct" and tok[1] == "-":
            self.toks.next()
            sign = -1
            tok = self.toks.peek()
        if tok[0] == "int":
            coeff = self.rational()
            if self.toks.peek()[0:2] == ("punct", "*"):
                self.toks.next()
            tok = self.toks.peek()
            if tok[0] == "ident" and tok[1] == "sum":
                return self._binder_term().scale(sign * coeff)
            if not self._starts_factor(tok):
                return Expression((Monomial(sign * coeff),))
        out = self.factor()
        while self.toks.peek()[0:2] == ("punct", "*"):
            self.toks.next()
            out = out * self.factor()
        return out.scale(sign * coeff)

    @staticmethod
    def _starts_factor(tok) -> bool:
        return (tok[0] == "ident" and tok[1] == "tr") or tok[0:2] == ("punct", "(")

    def rational(self) -> Fraction:
        num = int(self.toks.expect("int")[1])
        if self.toks.peek()[0:2] == ("punct", "/"):
            self.toks.next()
            den_tok = self.toks.expect("int")
            den = int(den_tok[1])
            if den == 0:
                raise ParseError("zero denominator", den_tok[2], self.text)
            return Fraction(num, den)
        return Fraction(num)

    def factor(self) -> Expression:
        tok = self.toks.peek()
        if tok[0] == "ident" and tok[1] == "tr":
            self.toks.next()
            self.toks.expect("punct", "(")
            loop = self.loopterm()
            word = ()
            if self.toks.peek()[0:2] == ("punct", ";"):
                self.toks.next()
                word = self.word()
            self.toks.expect("punct", ")")
            return atom_expr(TraceAtom(loop, word))
        if tok[0:2] == ("punct", "("):
            self.toks.next()
            self._nest(tok[2])
            inner = self.expr()
            self.toks.expect("punct", ")")
            self.nesting -= 1
            return inner
        raise ParseError(f"expected 'tr(' or '(', found {tok[1]!r}", tok[2], self.text)

    def word(self) -> tuple:
        letters = []
        while True:
            tok = self.toks.peek()
            if tok[0] == "ident" and tok[1] == "O":
                self.toks.next()
                name_tok = self.toks.expect("ident")
                letters.append(self._lookup(name_tok[1], name_tok[2]))
                if self.toks.peek()[0:2] == ("punct", ","):
                    self.toks.next()
            else:
                break
        if not letters:
            raise ParseError("expected at least one 'O <index>'", tok[2], self.text)
        return tuple(letters)

    def loopterm(self):
        left = self.loopatom()
        links = 0
        while self.toks.peek()[0:2] == ("punct", "."):
            self._nest(self.toks.next()[2])
            links += 1
            invert = False
            if self.toks.peek()[0:2] == ("punct", "~"):
                self.toks.next()
                invert = True
            right = self.loopatom()
            left = Composite(left, right, invert)
        self.nesting -= links
        return left

    def loopatom(self):
        tok = self.toks.next()
        if tok[0] == "ident":
            if tok[1] in _KEYWORDS:
                raise ParseError(f"{tok[1]!r} is reserved", tok[2], self.text)
            return Loop(tok[1])
        if tok[0:2] == ("punct", "("):
            self._nest(tok[2])
            inner = self.loopterm()
            self.toks.expect("punct", ")")
            self.nesting -= 1
            return inner
        raise ParseError(f"expected a loop name, found {tok[1]!r}", tok[2], self.text)


def parse_expr(text: str) -> Expression:
    """Parse the grammar above into an Expression (or raise ParseError)."""
    if not text.strip():
        return ZERO
    parser = _Parser(text)
    return parser.end(parser.expr())


def parse_loop(text: str) -> LoopTerm:
    """Parse one loop term such as ``(a.~b)`` (or raise ParseError)."""
    parser = _Parser(text)
    return parser.end(parser.loopterm())
