"""Formula syntax: AST types, parser, renderer, desugaring, NNF.

Formulas are quantifier prefixes over trace variables plus an LTL body.
Atoms carry an optional trace variable; a plain LTL formula is simply a
HyperFormula with an empty prefix and unindexed atoms.

No pass over a formula recurses, so the depth of an input is bounded by
memory, not by the interpreter's recursion limit:

* The parser reads the text with one C-level regular-expression scan into
  token strings, then runs one loop over them with an operand stack and an
  operator stack.  Two tables keyed by token text drive it: the prefix
  operators ``! X F G``, and the infix operators ``<-> -> | & U W R``,
  each with a precedence, an associativity and a constructor.  Each
  distinct identifier text becomes one Atom object per parse, checked to
  start with a letter or '_' when it is made, and the closing
  well-formedness check reads those atoms instead of walking the tree.
  Positions are found only when parsing fails: the positioned tokenizer
  then runs over the whole text, so a bad character anywhere is still the
  error reported, and otherwise it gives the failing token's position.
* Rewrites (desugar, map_atoms) share one walk in two phases.  Phase one
  lists the nodes in pre-order with a list stack, together with the value
  of each leaf; phase two folds that list backwards with a value stack and
  a table from node type to builder.  A node whose builder is its own type
  and whose operands came back as the same objects is kept, not rebuilt,
  so desugar returns a core formula itself and rebuilds only the sugar
  nodes and their ancestors.  The atom walk and node_count read the same
  listing; render writes from its own stack.
* Node hashes are cached and computed bottom-up, and equality compares
  node pairs from an explicit stack.
* core_table compiles a formula into one hash-consed post-order table of
  rows, expanding each node once, and on request F, G, W, -> and <-> into
  core rows by steps read off desugar's rules; compile_formula checks a
  formula from that table.  to_nnf builds every row in both polarities,
  so its result shares equal subformulas; the tableau closure and the
  evaluator also start from the table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .errors import ParseError, WellFormednessError


# ---------------------------------------------------------------------------
# AST


class Formula:
    """Base class for LTL formula nodes.

    Equality is structural.  A node's hash is computed once, from its
    operands' cached hashes, and stored on the node."""

    __slots__ = ()
    _hash: int | None = None

    def __hash__(self) -> int:
        if self._hash is not None:
            return self._hash
        stack = [self]
        while self._hash is None:
            f = stack[-1]
            if f._hash is not None:  # a shared operand, already done
                stack.pop()
                continue
            t = type(f)
            arity = _ARITY[t]
            if arity == 2:
                left, right = f.left._hash, f.right._hash
                if left is None or right is None:
                    stack += [k for k in (f.left, f.right) if k._hash is None]
                    continue
                h = hash((t, left, right))
            elif arity == 1:
                operand = f.operand._hash
                if operand is None:
                    stack.append(f.operand)
                    continue
                h = hash((t, operand))
            elif t is Atom:
                h = hash((t, f.name, f.trace))
            else:
                h = hash((t, f.value))
            stack.pop()
            object.__setattr__(f, "_hash", h)
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        # Every node below either root has its hash cached by now.
        stack = [self, other]
        while stack:
            b = stack.pop()
            a = stack.pop()
            if a is b:
                continue
            t = type(a)
            if type(b) is not t or a._hash != b._hash:
                return False
            arity = _ARITY[t]
            if arity == 2:
                stack += (a.left, b.left, a.right, b.right)
            elif arity == 1:
                stack += (a.operand, b.operand)
            elif t is Atom:
                if a.name != b.name or a.trace != b.trace:
                    return False
            elif a.value != b.value:
                return False
        return True


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str
    trace: str | None = None


@dataclass(frozen=True, eq=False)
class Const(Formula):
    value: bool


@dataclass(frozen=True, eq=False)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class WeakUntil(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class Globally(Formula):
    operand: Formula


# Operand count of each node type; every walk dispatches on it.
_ARITY = {
    Atom: 0, Const: 0,
    Not: 1, Next: 1, Eventually: 1, Globally: 1,
    And: 2, Or: 2, Implies: 2, Iff: 2, Until: 2, Release: 2, WeakUntil: 2,
}

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

_SYMBOLS = {
    "<->": "IFF",
    "->": "IMPLIES",
    "(": "LPAREN",
    ")": "RPAREN",
    "!": "NOT",
    "&": "AND",
    "|": "OR",
    ".": "DOT",
}
# A symbol, a word, or any other non-space character (an error).  \w also
# matches digits and characters such as '²', so a word must still start
# with a letter or '_'.
_TOKEN = re.compile(r"(<->|->|[()!&|.])|(\w+)|(\S)")
# The same tokens as plain strings, for the parser's one C-level scan.
_TOKEN_TEXT = re.compile(r"<->|->|[()!&|.]|\w+|\S")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        word = match.group()
        at = match.start()
        if match.lastindex == 1:
            tokens.append((_SYMBOLS[word], word, at))
        elif match.lastindex == 2 and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("IDENT", word, at))
        else:
            raise ParseError(at, f"unexpected character {word[0]!r}")
    tokens.append(("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
#
# Precedence, tightest first:  ! X F G  >  U W R (right)  >  &  >  |
# >  -> (right)  >  <-> (right).  U, W and R share one level.
# Quantifiers are only legal in the prefix; the names in RESERVED are
# keywords and cannot be used as propositions or trace variables.

_PREFIX = {"!": Not, "X": Next, "F": Eventually, "G": Globally}
# token text -> (precedence, right-associative, constructor)
_INFIX = {
    "<->": (1, True, Iff),
    "->": (2, True, Implies),
    "|": (3, False, Or),
    "&": (4, False, And),
    "U": (5, True, Until),
    "W": (5, True, WeakUntil),
    "R": (5, True, Release),
}
_CONSTANTS = {"true": TRUE, "false": FALSE}
# Operator-stack entries are (precedence, constructor).  An open
# parenthesis sits below every operator; a prefix operator above all.
_OPEN = (0, None)
_PREFIX_LEVEL = 6
# What an operand's place on the stack gets from '(' or a prefix operator.
_OPENERS = {"(": _OPEN} | {
    op: (_PREFIX_LEVEL, t) for op, t in _PREFIX.items()
}
# What an infix operator reduces the stack to before it is pushed, and its
# entry.  Equal precedence binds to the left unless right-associative.
_INFIX_STEPS = {
    op: (precedence - (not right), (precedence, t))
    for op, (precedence, right, t) in _INFIX.items()
}


def _make_atom(text: str, at: int, bound: tuple[str, ...]) -> Atom:
    """The atom named by token number at, the first occurrence of its text;
    raises ParseError, giving the token number, or WellFormednessError if
    the token names no atom."""
    if not (text[:1].isalpha() or text[:1] == "_"):
        raise ParseError(at, f"expected a formula, found {text!r}")
    if text in (FORALL, EXISTS):
        raise WellFormednessError(
            "quantifiers must form a prefix; found one inside the body"
        )
    if text in RESERVED:
        raise ParseError(at, f"{text!r} is a keyword, not a proposition")
    # name_var is an indexed atom only when var is bound in the prefix;
    # split points are tried right to left so names may contain '_'.
    cut = len(text)
    while True:
        cut = text.rfind("_", 0, cut)
        if cut < 0:
            break
        if text[cut + 1 :] in bound and cut > 0:
            return Atom(text[:cut], text[cut + 1 :])
    return Atom(text)


def _reduce(operands: list, operators: list, floor: int) -> None:
    """Apply the stacked infix operators above precedence floor."""
    while operators[-1][0] > floor:
        right = operands.pop()
        operands[-1] = operators.pop()[1](operands[-1], right)


def _parse_body(
    tokens: list[str], pos: int, bound: tuple[str, ...]
) -> tuple[Formula, dict[str, Atom]]:
    """The formula body from tokens[pos] on, by operator precedence, and
    its atoms by identifier text in first-occurrence order."""
    operands: list[Formula] = []
    operators: list[tuple] = [_OPEN]  # operators[0] is the whole body
    atoms: dict[str, Atom] = {}  # identifier text -> its atom
    while True:
        # An operand is due: prefix operators and '(' stack up before it.
        text = tokens[pos]
        pos += 1
        opener = _OPENERS.get(text)
        if opener is not None:
            operators.append(opener)
            continue
        operand = atoms.get(text) or _CONSTANTS.get(text)
        if operand is None:
            operand = atoms[text] = _make_atom(text, pos - 1, bound)
        operands.append(operand)
        # An operator is due.  Each finished operand takes the prefix
        # operators before it, and ')' finishes the group it closes.
        while True:
            while operators[-1][0] == _PREFIX_LEVEL:
                operands[-1] = operators.pop()[1](operands[-1])
            text = tokens[pos]
            pos += 1
            if text != ")":
                break
            _reduce(operands, operators, 0)
            if len(operators) == 1:  # no '(' left to close
                raise ParseError(pos - 1, "unexpected trailing input ')'")
            operators.pop()
        infix = _INFIX_STEPS.get(text)
        if infix is not None:
            floor, entry = infix
            if operators[-1][0] > floor:
                _reduce(operands, operators, floor)
            operators.append(entry)
        elif _OPEN in operators[1:]:
            raise ParseError(pos - 1, f"expected RPAREN, found {text!r}")
        elif text:
            raise ParseError(pos - 1, f"unexpected trailing input {text!r}")
        else:
            _reduce(operands, operators, 0)
            return operands[0], atoms


def _parse(tokens: list[str]) -> HyperFormula:
    """The formula of a token list.  A ParseError raised here gives the
    failing token's number in place of its position."""
    prefix = []
    seen = set()
    pos = 0
    while tokens[pos] in (FORALL, EXISTS):
        quant, var = tokens[pos : pos + 2]
        pos += 1
        if not (var[:1].isalpha() or var[:1] == "_") or var in RESERVED:
            raise ParseError(pos, f"expected a trace variable, found {var!r}")
        if var in seen:
            raise WellFormednessError(f"duplicate trace variable {var!r}")
        seen.add(var)
        pos += 1
        if tokens[pos] != ".":
            raise ParseError(pos, "expected '.' after trace variable")
        pos += 1
        prefix.append((quant, var))

    body, atoms = _parse_body(tokens, pos, tuple(var for _, var in prefix))
    _check_atoms(prefix, atoms.values())
    return HyperFormula(tuple(prefix), body)


def parse_hyperltl(text: str) -> HyperFormula:
    """Parse a formula; raises ParseError or WellFormednessError."""
    tokens = _TOKEN_TEXT.findall(text)
    tokens.append("")  # the end of the text
    try:
        return _parse(tokens)
    except ParseError as e:
        # A bad character anywhere in the text is reported first, as the
        # positioned tokens are made; else they give the token's position.
        raise ParseError(_tokenize(text)[e.position][2], e.message) from None
    except WellFormednessError:
        _tokenize(text)
        raise


def check_well_formed(formula: HyperFormula) -> None:
    """Prefix variables distinct; atoms indexed iff the prefix is non-empty;
    every index bound."""
    _check_prefix(formula.prefix)
    _check_atoms(formula.prefix, _atoms(formula.body))


def compile_formula(formula: HyperFormula):
    """The body's core_table with its sugar expanded; raises what
    check_well_formed raises, in the same order, reading the atom rows."""
    _check_prefix(formula.prefix)
    table = core_table(formula.body, expand=True)
    atoms = [f for f, op in zip(*table[:2]) if op == ATOM]
    _check_atoms(formula.prefix, atoms)
    return table


def _check_prefix(prefix) -> None:
    bound = [v for _, v in prefix]
    if len(bound) != len(set(bound)):
        raise WellFormednessError("duplicate trace variable in prefix")
    for quant, _ in prefix:
        if quant not in (FORALL, EXISTS):
            raise WellFormednessError(f"unknown quantifier {quant!r}")


def _check_atoms(prefix, atoms) -> None:
    """The well-formedness rule on a body's atoms, given left to right
    (repeats make no difference)."""
    free: set[str] = set()
    plain = indexed = None  # the first unindexed and first indexed atom
    for atom in atoms:
        if atom.trace is None:
            if plain is None:
                plain = atom
        else:
            free.add(atom.trace)
            if indexed is None:
                indexed = atom
    if prefix:
        unbound = free - {v for _, v in prefix}
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


# ---------------------------------------------------------------------------
# The walk: phase one lists, phase two folds.


def _itself(leaf: Formula) -> Formula:
    return leaf


def _listing(formula: Formula, leaf=_itself) -> tuple[list, list]:
    """Phase one: every node in pre-order (each node before its operands,
    left before right), and leaf(node) for each leaf, left to right."""
    nodes = []
    leaves = []
    stack = [formula]
    while stack:
        f = stack.pop()
        arity = _ARITY.get(type(f))
        if arity is None:
            raise TypeError(f"not a formula node: {f!r}")
        nodes.append(f)
        if arity == 2:
            stack += (f.right, f.left)
        elif arity:
            stack.append(f.operand)
        else:
            leaves.append(leaf(f))
    return nodes, leaves


def _fold(nodes: list, leaves: list, build: dict):
    """Phase two: fold a listing bottom-up with a value stack.  build maps
    each compound node type to a function of its operands' values.  Where
    that function is the type itself and the operands came back as the
    same objects, the node is kept instead of rebuilt."""
    values = []
    for f in reversed(nodes):
        t = type(f)
        arity = _ARITY[t]
        if not arity:
            values.append(leaves.pop())
        elif arity == 1:
            operand = values[-1]
            if build[t] is not t or operand is not f.operand:
                f = build[t](operand)
            values[-1] = f
        else:
            left = values.pop()
            right = values[-1]
            if build[t] is not t or left is not f.left or right is not f.right:
                f = build[t](left, right)
            values[-1] = f
    return values[0]


def _atoms(formula: Formula) -> list[Atom]:
    """The atoms of the formula, left to right."""
    return [f for f in _listing(formula)[1] if type(f) is Atom]


def free_trace_variables(formula: Formula) -> set[str]:
    return {a.trace for a in _atoms(formula) if a.trace is not None}


def atom_names(formula: Formula) -> set[str]:
    return {a.name for a in _atoms(formula)}


def node_count(formula: Formula) -> int:
    return len(_listing(formula)[0])


# ---------------------------------------------------------------------------
# Rendering.  Compound nodes are fully parenthesized so that
# parse(render(f)) == f without consulting precedence.  One pre-order walk
# emits the pieces, which are joined once, so rendering is linear in size.

# What a node writes before its operand, or between its operands.
_PREFIX_TEXT = {t: "(" + op + " " for op, t in _PREFIX.items()}
_INFIX_TEXT = {t: " " + op + " " for op, (_, _, t) in _INFIX.items()}


def render(formula) -> str:
    if isinstance(formula, HyperFormula):
        head = "".join(f"{q} {v}. " for q, v in formula.prefix)
        return head + render(formula.body)
    pieces = []
    stack = [formula]  # nodes still to write, and text written after them
    while stack:
        f = stack.pop()
        t = type(f)
        if t is str:
            pieces.append(f)
        elif t in _INFIX_TEXT:
            pieces.append("(")
            stack += (")", f.right, _INFIX_TEXT[t], f.left)
        elif t in _PREFIX_TEXT:
            pieces.append(_PREFIX_TEXT[t])
            stack += (")", f.operand)
        elif t is Atom:
            pieces.append(f.name if f.trace is None else f"{f.name}_{f.trace}")
        elif t is Const:
            pieces.append("true" if f.value else "false")
        else:
            raise TypeError(f"not a formula node: {f!r}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Desugaring

_REBUILD = {t: t for t, arity in _ARITY.items() if arity}
_DESUGAR = _REBUILD | {
    Implies: lambda a, b: Or(Not(a), b),
    Iff: lambda a, b: And(Or(Not(a), b), Or(Not(b), a)),
    WeakUntil: lambda a, b: Or(Until(a, b), Release(FALSE, a)),
    Eventually: lambda e: Until(TRUE, e),
    Globally: lambda e: Release(FALSE, e),
}


def desugar(formula: Formula) -> Formula:
    """Rewrite F, G, W, ->, <-> into the core !, &, |, X, U, R connectives."""
    return _fold(*_listing(formula), _DESUGAR)


# ---------------------------------------------------------------------------
# Structural helpers used across the package


def map_atoms(formula: Formula, fn) -> Formula:
    """Rebuild the formula with every atom replaced by fn(atom)."""

    def leaf(f: Formula) -> Formula:
        return fn(f) if type(f) is Atom else f

    return _fold(*_listing(formula, leaf), _REBUILD)


def rename_trace_variable(formula: Formula, old: str, new: str) -> Formula:
    return map_atoms(
        formula, lambda a: Atom(a.name, new) if a.trace == old else a
    )


# ---------------------------------------------------------------------------
# The core node table, and negation normal form read from it

# Operation codes of the core connectives, in the rank order of the
# canonical formula order.
ATOM, CONST, NOT, NEXT, AND, OR, UNTIL, RELEASE = range(8)
_CORE = {
    Atom: ATOM, Const: CONST, Not: NOT, Next: NEXT,
    And: AND, Or: OR, Until: UNTIL, Release: RELEASE,
}


def _expansion(t: type) -> tuple:
    """core_table's steps for sugar type t's rewrite in _DESUGAR: the root's
    operation code, and the steps above it, an operand as its field name."""
    stack = [_DESUGAR[t](*[Atom(field.name) for field in fields(t)])]
    steps = []
    while stack:
        f = stack.pop()
        op = _CORE[type(f)]
        if op > CONST:
            steps.append((op, None))
            stack += (f.left, f.right) if op > NEXT else (f.operand,)
        else:
            steps.append(f.name if op == ATOM else (None, f))
    return steps[0][0], steps[1:]


_EXPANSIONS = {t: _expansion(t) for t in _DESUGAR.keys() - _CORE.keys()}


def core_table(formula: Formula, expand: bool = False):
    """A formula as a hash-consed table: (nodes, ops, lhs, rhs, root).  Row
    i has operation code ops[i] and was first made for nodes[i]; a compound
    row holds its operand rows in lhs and rhs (rhs None for NOT and NEXT),
    an atom row its name and trace, and a constant row its value and None.
    Structurally equal subformulas share one row, and rows come in
    first-encounter post-order, so operands precede the rows that use
    them.  root is the formula's row.  Sugar raises ValueError unless
    expand is set; then the rows are those of desugar(formula), a row made
    below the root of an expansion has no node (None), and a node that is
    no formula raises TypeError."""
    rows: dict[int, int] = {}  # id(node) -> row
    by_key: dict[tuple, int] = {}  # (op, lhs, rhs) -> row
    nodes: list = []
    ops: list[int] = []
    lhs: list = []
    rhs: list = []
    values: list[int] = []  # the rows of the operands made so far
    # A step (None, node) walks the node; (op, node) makes its row from the
    # operand rows on top of values, and sits below the operands' walks.
    stack = [(None, formula)]
    while stack:
        op, f = stack.pop()
        if op is not None:
            right = values.pop() if op > NEXT else None
            key = (op, values.pop(), right)
        elif id(f) in rows:
            values.append(rows[id(f)])
            continue
        else:
            op = _CORE.get(type(f))
            if op == ATOM:
                key = (op, f.name, f.trace)
            elif op == CONST:
                key = (op, f.value, None)
            elif op is not None:
                stack.append((op, f))
                if op <= NEXT:
                    stack.append((None, f.operand))
                else:
                    stack += ((None, f.right), (None, f.left))
                continue
            elif not expand:
                raise ValueError(
                    "the core node table expects a desugared formula, "
                    f"found {f!r}"
                )
            elif type(f) not in _EXPANSIONS:
                raise TypeError(f"not a formula node: {f!r}")
            else:
                op, steps = _EXPANSIONS[type(f)]
                stack.append((op, f))
                stack += [
                    (None, getattr(f, s)) if type(s) is str else s
                    for s in steps
                ]
                continue
        row = by_key.get(key)
        if row is None:
            row = by_key[key] = len(ops)
            nodes.append(f)
            ops.append(op)
            lhs.append(key[1])
            rhs.append(key[2])
        if f is not None:
            rows[id(f)] = row
        values.append(row)
    return nodes, ops, lhs, rhs, values[0]


# The node type of each operation code; a negated AND, OR, UNTIL or
# RELEASE becomes the type at code op ^ 1.
_TYPES = list(_CORE)


def to_nnf(formula: Formula) -> Formula:
    """Push negations to the atoms.  Input must be desugared.

    Each row of the formula's core table is built in both polarities,
    operands first: a NOT row swaps its operand's pair, a negated NEXT
    stays NEXT, and a negated binary connective becomes its dual.  Equal
    subformulas share one node in the result."""
    nodes, ops, lhs, rhs, root = core_table(formula)
    positive: list[Formula] = []
    negative: list[Formula] = []
    for f, op, left, right in zip(nodes, ops, lhs, rhs):
        if op == ATOM:
            pos, neg = f, Not(f)
        elif op == CONST:
            pos, neg = f, Const(not left)
        elif op == NOT:
            pos, neg = negative[left], positive[left]
        elif op == NEXT:
            pos, neg = Next(positive[left]), Next(negative[left])
        else:
            pos = _TYPES[op](positive[left], positive[right])
            neg = _TYPES[op ^ 1](negative[left], negative[right])
        positive.append(pos)
        negative.append(neg)
    return positive[root]
