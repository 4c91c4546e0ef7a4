"""Formula syntax: AST types, parser, renderer, desugaring, NNF.

Formulas are quantifier prefixes over trace variables plus an LTL body.
Atoms carry an optional trace variable; a plain LTL formula is simply a
HyperFormula with an empty prefix and unindexed atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, WellFormednessError


# ---------------------------------------------------------------------------
# AST


class Formula:
    """Base class for LTL formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str
    trace: str | None = None


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class WeakUntil(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True)
class Globally(Formula):
    operand: Formula


FORALL = "forall"
EXISTS = "exists"


@dataclass(frozen=True)
class HyperFormula:
    """Prenex formula: quantifier prefix (possibly empty) plus LTL body."""

    prefix: tuple[tuple[str, str], ...]
    body: Formula


TRUE = Const(True)
FALSE = Const(False)

RESERVED = {"X", "F", "G", "U", "W", "R", FORALL, EXISTS, "true", "false"}


# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOLS = (
    ("<->", "IFF"),
    ("->", "IMPLIES"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("!", "NOT"),
    ("&", "AND"),
    ("|", "OR"),
    (".", "DOT"),
)


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((kind, sym, i))
                i += len(sym)
                break
        else:
            if _is_ident_start(c):
                j = i + 1
                while j < n and _is_ident_char(text[j]):
                    j += 1
                tokens.append(("IDENT", text[i:j], i))
                i = j
            else:
                raise ParseError(i, f"unexpected character {c!r}")
    tokens.append(("EOF", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
#
# Precedence, tightest first:  ! X F G  >  U W R (right)  >  &  >  |
# >  -> (right)  >  <-> (right).  U, W and R share one level.
# Quantifiers are only legal in the prefix; the names in RESERVED are
# keywords and cannot be used as propositions or trace variables.


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], bound: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.bound = bound

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], f"expected {kind}, found {tok[1]!r}")
        return self.advance()

    def parse_formula(self) -> Formula:
        return self.parse_iff()

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        if self.peek()[0] == "IFF":
            self.advance()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.peek()[0] == "IMPLIES":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek()[0] == "OR":
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_temporal()
        while self.peek()[0] == "AND":
            self.advance()
            left = And(left, self.parse_temporal())
        return left

    def parse_temporal(self) -> Formula:
        left = self.parse_unary()
        kind, text, _ = self.peek()
        if kind == "IDENT" and text in ("U", "W", "R"):
            self.advance()
            right = self.parse_temporal()
            if text == "U":
                return Until(left, right)
            if text == "W":
                return WeakUntil(left, right)
            return Release(left, right)
        return left

    def parse_unary(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "NOT":
            self.advance()
            return Not(self.parse_unary())
        if kind == "IDENT" and text in ("X", "F", "G"):
            self.advance()
            operand = self.parse_unary()
            if text == "X":
                return Next(operand)
            if text == "F":
                return Eventually(operand)
            return Globally(operand)
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        kind, text, pos = self.advance()
        if kind == "LPAREN":
            inner = self.parse_formula()
            self.expect("RPAREN")
            return inner
        if kind != "IDENT":
            raise ParseError(pos, f"expected a formula, found {text!r}")
        if text in (FORALL, EXISTS):
            raise WellFormednessError(
                "quantifiers must form a prefix; found one inside the body"
            )
        if text == "true":
            return TRUE
        if text == "false":
            return FALSE
        if text in RESERVED:
            raise ParseError(pos, f"{text!r} is a keyword, not a proposition")
        return self._make_atom(text)

    def _make_atom(self, text: str) -> Atom:
        # name_var is an indexed atom only when var is bound in the prefix;
        # split points are tried right to left so names may contain '_'.
        cut = len(text)
        while True:
            cut = text.rfind("_", 0, cut)
            if cut < 0:
                break
            if text[cut + 1 :] in self.bound and cut > 0:
                return Atom(text[:cut], text[cut + 1 :])
        return Atom(text)


def parse_hyperltl(text: str) -> HyperFormula:
    """Parse a formula; raises ParseError or WellFormednessError."""
    tokens = _tokenize(text)
    prefix = []
    seen = set()
    pos = 0
    while tokens[pos][0] == "IDENT" and tokens[pos][1] in (FORALL, EXISTS):
        quant = tokens[pos][1]
        pos += 1
        kind, var, at = tokens[pos]
        if kind != "IDENT" or var in RESERVED:
            raise ParseError(at, f"expected a trace variable, found {var!r}")
        if var in seen:
            raise WellFormednessError(f"duplicate trace variable {var!r}")
        seen.add(var)
        pos += 1
        if tokens[pos][0] != "DOT":
            raise ParseError(tokens[pos][2], "expected '.' after trace variable")
        pos += 1
        prefix.append((quant, var))

    parser = _Parser(tokens, tuple(var for _, var in prefix))
    parser.pos = pos
    body = parser.parse_formula()
    kind, text_, at = parser.peek()
    if kind != "EOF":
        raise ParseError(at, f"unexpected trailing input {text_!r}")

    formula = HyperFormula(tuple(prefix), body)
    check_well_formed(formula)
    return formula


def check_well_formed(formula: HyperFormula) -> None:
    """Prefix variables distinct; atoms indexed iff the prefix is non-empty;
    every index bound."""
    bound = [v for _, v in formula.prefix]
    if len(bound) != len(set(bound)):
        raise WellFormednessError("duplicate trace variable in prefix")
    for quant, _ in formula.prefix:
        if quant not in (FORALL, EXISTS):
            raise WellFormednessError(f"unknown quantifier {quant!r}")
    free: set[str] = set()
    plain = indexed = None  # the first unindexed and first indexed atom
    for atom in _atoms(formula.body):
        if atom.trace is None:
            if plain is None:
                plain = atom
        else:
            free.add(atom.trace)
            if indexed is None:
                indexed = atom
    if formula.prefix:
        unbound = free - set(bound)
        if unbound:
            raise WellFormednessError(
                f"unbound trace variable {sorted(unbound)[0]!r}"
            )
        if plain is not None:
            raise WellFormednessError(
                f"atom {plain.name!r} lacks a trace index in a "
                "quantified formula"
            )
    elif indexed is not None:
        raise WellFormednessError(
            f"indexed atom {indexed.name!r} in an unquantified formula"
        )


_UNARY = (Not, Next, Eventually, Globally)
_BINARY = (And, Or, Implies, Iff, Until, Release, WeakUntil)


def _atoms(formula: Formula):
    """The atoms of the formula, left to right, with an explicit stack so
    that deep formulas cost linear time and no recursion."""
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            yield f
        elif isinstance(f, _BINARY):
            stack.append(f.right)
            stack.append(f.left)
        elif isinstance(f, _UNARY):
            stack.append(f.operand)
        elif not isinstance(f, Const):
            raise TypeError(f"not a formula node: {f!r}")


def free_trace_variables(formula: Formula) -> set[str]:
    return {a.trace for a in _atoms(formula) if a.trace is not None}


def atom_names(formula: Formula) -> set[str]:
    return {a.name for a in _atoms(formula)}


# ---------------------------------------------------------------------------
# Rendering.  Compound nodes are fully parenthesized so that
# parse(render(f)) == f without consulting precedence.


def render(formula) -> str:
    if isinstance(formula, HyperFormula):
        head = "".join(f"{q} {v}. " for q, v in formula.prefix)
        return head + render(formula.body)
    match formula:
        case Atom(name, None):
            return name
        case Atom(name, trace):
            return f"{name}_{trace}"
        case Const(value):
            return "true" if value else "false"
        case Not(e):
            return f"(! {render(e)})"
        case Next(e):
            return f"(X {render(e)})"
        case Eventually(e):
            return f"(F {render(e)})"
        case Globally(e):
            return f"(G {render(e)})"
        case And(a, b):
            return f"({render(a)} & {render(b)})"
        case Or(a, b):
            return f"({render(a)} | {render(b)})"
        case Implies(a, b):
            return f"({render(a)} -> {render(b)})"
        case Iff(a, b):
            return f"({render(a)} <-> {render(b)})"
        case Until(a, b):
            return f"({render(a)} U {render(b)})"
        case WeakUntil(a, b):
            return f"({render(a)} W {render(b)})"
        case Release(a, b):
            return f"({render(a)} R {render(b)})"
        case _:
            raise TypeError(f"not a formula node: {formula!r}")


# ---------------------------------------------------------------------------
# Desugaring and negation normal form


def desugar(formula: Formula) -> Formula:
    """Rewrite F, G, W, ->, <-> into the core !, &, |, X, U, R connectives."""
    match formula:
        case Atom() | Const():
            return formula
        case Not(e):
            return Not(desugar(e))
        case And(a, b):
            return And(desugar(a), desugar(b))
        case Or(a, b):
            return Or(desugar(a), desugar(b))
        case Implies(a, b):
            return Or(Not(desugar(a)), desugar(b))
        case Iff(a, b):
            da, db = desugar(a), desugar(b)
            return And(Or(Not(da), db), Or(Not(db), da))
        case Next(e):
            return Next(desugar(e))
        case Until(a, b):
            return Until(desugar(a), desugar(b))
        case Release(a, b):
            return Release(desugar(a), desugar(b))
        case WeakUntil(a, b):
            da, db = desugar(a), desugar(b)
            return Or(Until(da, db), Release(FALSE, da))
        case Eventually(e):
            return Until(TRUE, desugar(e))
        case Globally(e):
            return Release(FALSE, desugar(e))
        case _:
            raise TypeError(f"not a formula node: {formula!r}")


def to_nnf(formula: Formula) -> Formula:
    """Push negations to the atoms.  Input must be desugared."""
    return _nnf(formula, False)


def _nnf(formula: Formula, neg: bool) -> Formula:
    match formula:
        case Atom():
            return Not(formula) if neg else formula
        case Const(value):
            return Const(value != neg)
        case Not(e):
            return _nnf(e, not neg)
        case And(a, b):
            if neg:
                return Or(_nnf(a, True), _nnf(b, True))
            return And(_nnf(a, False), _nnf(b, False))
        case Or(a, b):
            if neg:
                return And(_nnf(a, True), _nnf(b, True))
            return Or(_nnf(a, False), _nnf(b, False))
        case Next(e):
            return Next(_nnf(e, neg))
        case Until(a, b):
            if neg:
                return Release(_nnf(a, True), _nnf(b, True))
            return Until(_nnf(a, False), _nnf(b, False))
        case Release(a, b):
            if neg:
                return Until(_nnf(a, True), _nnf(b, True))
            return Release(_nnf(a, False), _nnf(b, False))
        case _:
            raise TypeError(f"to_nnf expects a desugared formula: {formula!r}")


def node_count(formula: Formula) -> int:
    match formula:
        case Atom() | Const():
            return 1
        case Not(e) | Next(e) | Eventually(e) | Globally(e):
            return 1 + node_count(e)
        case (
            And(a, b)
            | Or(a, b)
            | Implies(a, b)
            | Iff(a, b)
            | Until(a, b)
            | Release(a, b)
            | WeakUntil(a, b)
        ):
            return 1 + node_count(a) + node_count(b)
        case _:
            raise TypeError(f"not a formula node: {formula!r}")


# ---------------------------------------------------------------------------
# Structural helpers used across the package


def map_atoms(formula: Formula, fn) -> Formula:
    """Rebuild the formula with every atom replaced by fn(atom)."""
    match formula:
        case Atom():
            return fn(formula)
        case Const():
            return formula
        case Not(e):
            return Not(map_atoms(e, fn))
        case Next(e):
            return Next(map_atoms(e, fn))
        case Eventually(e):
            return Eventually(map_atoms(e, fn))
        case Globally(e):
            return Globally(map_atoms(e, fn))
        case And(a, b):
            return And(map_atoms(a, fn), map_atoms(b, fn))
        case Or(a, b):
            return Or(map_atoms(a, fn), map_atoms(b, fn))
        case Implies(a, b):
            return Implies(map_atoms(a, fn), map_atoms(b, fn))
        case Iff(a, b):
            return Iff(map_atoms(a, fn), map_atoms(b, fn))
        case Until(a, b):
            return Until(map_atoms(a, fn), map_atoms(b, fn))
        case Release(a, b):
            return Release(map_atoms(a, fn), map_atoms(b, fn))
        case WeakUntil(a, b):
            return WeakUntil(map_atoms(a, fn), map_atoms(b, fn))
        case _:
            raise TypeError(f"not a formula node: {formula!r}")


def rename_trace_variable(formula: Formula, old: str, new: str) -> Formula:
    return map_atoms(
        formula, lambda a: Atom(a.name, new) if a.trace == old else a
    )
