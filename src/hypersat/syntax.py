"""Formula syntax: AST types, parser, renderer, desugaring, NNF.

Formulas are quantifier prefixes over trace variables plus an LTL body.
Atoms carry an optional trace variable; a plain LTL formula is simply a
HyperFormula with an empty prefix and unindexed atoms.

No pass over a formula recurses, so the depth of an input is bounded by
memory, not by the interpreter's recursion limit:

* A table is (ops, lhs, rhs, root): one row per subformula, operands
  first.  An atom row holds its name and trace, a constant row its value,
  and a compound row its operand rows; core_table's are hash-consed, one
  row per distinct subformula, sugar included.  The parser, the row passes
  and pcp.encode_pcp make tables, not nodes.  A formula node is made only
  when a body is read, by one loop over the rows (_nodes), so equal rows
  make one node; parsing, encoding, rendering and evaluating make none.
* The parser reads the text with one C-level regular-expression scan into
  token strings, then runs one loop over them with an operand stack and an
  operator stack.  Two tables keyed by token text drive it: the prefix
  operators ``! X F G``, and the infix operators ``<-> -> | & U W R``,
  each with a precedence, an associativity and a node type.  It meets the
  nodes in post-order, as core_table's walk does, and builds the body's
  table on its operand stack of rows: each distinct identifier text makes
  one constant or atom row, and each reduction one hash-consed row with
  its own operation code, sugar included.  The returned HyperFormula
  keeps the table; its body is made on first read.  The closing
  well-formedness check reads the atom rows.  Positions are found only
  when parsing fails: the positioned scan then runs over the whole text,
  so a bad character anywhere is still the error reported, and otherwise
  it gives the failing token's position.
* A formula is passed from the parser to the tableau as one table.  The
  row passes read a table's rows and make the next table: _relabelled
  relabels atom rows for the reductions, _desugared expands the sugar
  rows for desugar, and _nnf_table walks the rows from the root, once
  per polarity reached, into hash-consed rows, each sugar row expanded
  once on the way.  A HyperFormula carries the table from one pass to
  the next and makes its body only when the body is read; desugar,
  to_nnf and node_count read its table, and the tableau reads to_nnf's.
* A bare Formula is walked once into core_table's table, one loop over
  its distinct node objects, operands first, so a formula with shared
  subformulas costs its distinct nodes, not its size as a tree.
* render writes a formula's text from its table's rows, a HyperFormula's
  own or core_table's of a bare Formula, in one pre-order walk from an
  explicit stack: a row used twice is written at each use.
* A node's hash is computed on first use, in one explicit-stack pass
  that hashes every node below it that has none yet, operands first, and
  keeps each; equality compares the two hashes, then each pair of nodes
  once, from an explicit stack.
* check_well_formed checks a formula from the atom rows of its own
  table, or of a walk's over any other formula's body, and returns that
  table, which the evaluator reads; atom_names reads a table's atom rows
  too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import compress

from .errors import ParseError, WellFormednessError


# ---------------------------------------------------------------------------
# AST


class Formula:
    """Base class for LTL formula nodes.

    Equality is structural.  A node's hash is computed on first use, in
    one pass that hashes every node below it that has none yet, operands
    first, and stores each in its _hash slot, past the frozen __setattr__:
    a later hash of any of them is one read.  The node types are frozen,
    slotted dataclasses that declare their own fields.  An operand that is
    no formula makes hashing, and so equality, raise TypeError."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        stack: list = [self]
        while stack:
            f = stack[-1]
            t = type(f)
            arity = _ARITY.get(t)
            try:
                if arity == 2:
                    key = t, f.left._hash, f.right._hash
                elif arity == 1:
                    key = t, f.operand._hash
                elif t is Atom:
                    key = t, f.name, f.trace
                elif t is Const:
                    key = t, f.value
                else:
                    raise TypeError(f"not a formula node: {f!r}")
            except AttributeError:
                # An operand has no hash yet: hash it first, then come back.
                stack += (f.right, f.left) if arity == 2 else (f.operand,)
                continue
            stack.pop()
            object.__setattr__(f, "_hash", hash(key))
        return self._hash

    def __repr__(self) -> str:
        """The dataclass text, such as `Not(operand=Atom(name='a',
        trace=None))`, written from an explicit stack, so a formula of any
        depth prints without recursion.  Shared operands print in full at
        each use, as a tree."""
        out = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Formula):
                out.append(item)
                continue
            parts = [type(item).__qualname__ + "("]
            for k, field in enumerate(fields(item)):
                value = getattr(item, field.name)
                parts.append((", " if k else "") + field.name + "=")
                parts.append(
                    value if isinstance(value, Formula) else repr(value)
                )
            parts.append(")")
            stack += reversed(parts)
        return "".join(out)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        # A pair of compound nodes is compared once, however many paths
        # reach it.
        stack = [self, other]
        seen = {}  # id(a) -> the node b it was last compared with
        while stack:
            b = stack.pop()
            a = stack.pop()
            if a is b:
                continue
            t = type(a)
            if type(b) is not t or a._hash != b._hash:
                return False
            arity = _ARITY[t]
            if not arity:
                if t is Atom:
                    if a.name != b.name or a.trace != b.trace:
                        return False
                elif a.value != b.value:
                    return False
            elif seen.get(id(a)) is not b:
                seen[id(a)] = b
                if arity == 2:
                    stack += (a.left, b.left, a.right, b.right)
                else:
                    stack += (a.operand, b.operand)
        return True


# The dataclass decorator of a node type: fields, __init__,
# __match_args__, slots and the frozen __setattr__ and __delattr__.  The
# repr, equality and hash are Formula's own, which do not recurse.
_node = dataclass(frozen=True, eq=False, repr=False, slots=True)


@_node
class Atom(Formula):
    name: str
    trace: str | None = None


@_node
class Const(Formula):
    value: bool


@_node
class Not(Formula):
    operand: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Next(Formula):
    operand: Formula


@_node
class Until(Formula):
    left: Formula
    right: Formula


@_node
class Release(Formula):
    left: Formula
    right: Formula


@_node
class WeakUntil(Formula):
    left: Formula
    right: Formula


@_node
class Eventually(Formula):
    operand: Formula


@_node
class Globally(Formula):
    operand: Formula


# Operand count of each node type; hashing and equality dispatch on it.
_ARITY = {
    Atom: 0, Const: 0,
    Not: 1, Next: 1, Eventually: 1, Globally: 1,
    And: 2, Or: 2, Implies: 2, Iff: 2, Until: 2, Release: 2, WeakUntil: 2,
}

# The node type of each operation code: the core connectives in the rank
# order of the canonical formula order, each binary one's dual at op ^ 1,
# then the sugar.
(ATOM, CONST, NOT, NEXT, AND, OR, UNTIL, RELEASE,
 IMPLIES, IFF, WEAK_UNTIL, EVENTUALLY, GLOBALLY) = range(13)
_TYPES = [Atom, Const, Not, Next, And, Or, Until, Release,
          Implies, Iff, WeakUntil, Eventually, Globally]
_CODES = {t: op for op, t in enumerate(_TYPES)}
_BINARY = [_ARITY[t] == 2 for t in _TYPES]


FORALL = "forall"
EXISTS = "exists"


@dataclass(frozen=True)
class HyperFormula:
    """Prenex formula: quantifier prefix (possibly empty) plus LTL body.

    parse_hyperltl returns one whose body is made on first read, from the
    parser's table, and so do pcp.encode_pcp, from its table, and the
    reductions, desugar and to_nnf, from the tables of their row passes;
    until then vars() shows no body.  The fields, constructor, repr,
    equality, hashing, pickling and dataclasses.replace are as if the body
    were there from the start."""

    prefix: tuple[tuple[str, str], ...]
    body: Formula
    # The body's table, in the layout of core_table(body), which
    # parse_hyperltl builds as it parses, encode_pcp builds as it encodes
    # and each row pass makes from another; a row pass may leave equal
    # rows apart, which to_nnf's pass and the tableau's index merge.  It
    # is no field: a formula made any other way, dataclasses.replace
    # included, has none and is compiled by a walk.
    _table = None


class _TableBody:
    """HyperFormula.body of a formula made with a table, which has no body
    until it is first read: it is made then from the table's rows, and put
    in the instance dict, where every later read finds it without calling
    this.  A shallow copy shares the table, so it reads an equal body.  A
    non-data descriptor, installed after the dataclass decorator, so that
    the decorator sees a field with no default and the instance dict takes
    precedence over it."""

    def __get__(self, formula, owner=None):
        if formula is None:
            return self
        table = formula._table
        if table is None:
            raise AttributeError(
                f"{type(formula).__name__!r} object has no attribute 'body'"
            )
        body = _nodes(table)[table[3]]
        object.__setattr__(formula, "body", body)
        return body


HyperFormula.body = _TableBody()


TRUE = Const(True)
FALSE = Const(False)

RESERVED = {"X", "F", "G", "U", "W", "R", FORALL, EXISTS, "true", "false"}


# ---------------------------------------------------------------------------
# Tokens

# A symbol, a word, or any other non-space character (an error).  \w also
# matches digits and characters such as '²', so a word must still start
# with a letter or '_'.
_TOKEN_TEXT = re.compile(r"<->|->|[()!&|.]|\w+|\S")
_SYMBOLS = ("<->", "->", "(", ")", "!", "&", "|", ".")


def _positions(text: str) -> list[int]:
    """The position of each token of the text, and then of its end; raises
    ParseError at the first token that is no symbol and no word."""
    positions = []
    for match in _TOKEN_TEXT.finditer(text):
        word = match.group()
        if not (word[0].isalpha() or word[0] == "_" or word in _SYMBOLS):
            raise ParseError(
                match.start(), f"unexpected character {word[0]!r}"
            )
        positions.append(match.start())
    positions.append(len(text))
    return positions


# ---------------------------------------------------------------------------
# Parser
#
# Precedence, tightest first:  ! X F G  >  U W R (right)  >  &  >  |
# >  -> (right)  >  <-> (right).  U, W and R share one level.
# Quantifiers are only legal in the prefix; the names in RESERVED are
# keywords and cannot be used as propositions or trace variables.

_PREFIX = {"!": Not, "X": Next, "F": Eventually, "G": Globally}
# token text -> (precedence, right-associative, node type)
_INFIX = {
    "<->": (1, True, Iff),
    "->": (2, True, Implies),
    "|": (3, False, Or),
    "&": (4, False, And),
    "U": (5, True, Until),
    "W": (5, True, WeakUntil),
    "R": (5, True, Release),
}
_CONSTANTS = {"true": True, "false": False}
# Operator-stack entries are (precedence, operation code).  An open
# parenthesis sits below every operator; a prefix operator above all.
_OPEN = (0, None)
_PREFIX_LEVEL = 6
# What an operand's place on the stack gets from '(' or a prefix operator.
_OPENERS = {"(": _OPEN} | {
    op: (_PREFIX_LEVEL, _CODES[t]) for op, t in _PREFIX.items()
}
# What an infix operator reduces the stack to before it is pushed, and its
# entry.  Equal precedence binds to the left unless right-associative.
_INFIX_STEPS = {
    op: (precedence - (not right), (precedence, _CODES[t]))
    for op, (precedence, right, t) in _INFIX.items()
}


def _make_atom(text: str, at: int, bound: tuple[str, ...]) -> tuple:
    """The (name, trace) of the atom named by token number at, the first
    occurrence of its text; raises ParseError, giving the token number, or
    WellFormednessError if the token names no atom."""
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
            return text[:cut], text[cut + 1 :]
    return text, None


def _leaf(text: str, at: int, bound: tuple[str, ...], make) -> int:
    """The row of the constant or atom named by token number at, the first
    occurrence of its text."""
    value = _CONSTANTS.get(text)
    if value is not None:
        return make(CONST, value, None)
    return make(ATOM, *_make_atom(text, at, bound))


def _parse_body(tokens: list[str], pos: int, bound: tuple[str, ...]) -> tuple:
    """The formula body from tokens[pos] on, by operator precedence, as its
    core_table(body).  The parser meets the nodes in post-order, as
    core_table's walk does, so it makes each node's row when it reduces
    the node, from its operands' rows."""
    by_key, make, finish = _new_table()
    rows: list[int] = []  # the row of each operand
    operators: list[tuple] = [_OPEN]  # operators[0] is the whole body
    leaves: dict[str, int] = {}  # identifier text -> its row
    while True:
        # An operand is due: prefix operators and '(' stack up before it.
        text = tokens[pos]
        pos += 1
        opener = _OPENERS.get(text)
        if opener is not None:
            operators.append(opener)
            continue
        row = leaves.get(text)
        if row is None:
            row = leaves[text] = _leaf(text, pos - 1, bound, make)
        rows.append(row)
        # An operator is due.  It reduces the stacked operators that bind
        # tighter, the prefix operators first; ')' and the end reduce all
        # of them down to the group they finish.
        while True:
            text = tokens[pos]
            pos += 1
            infix = _INFIX_STEPS.get(text)
            if infix is not None:
                floor, entry = infix
            elif text == ")":
                floor = 0
            elif _OPEN in operators[1:]:
                raise ParseError(pos - 1, f"expected RPAREN, found {text!r}")
            elif text:
                raise ParseError(
                    pos - 1, f"unexpected trailing input {text!r}"
                )
            else:
                floor = 0
            while operators[-1][0] > floor:
                op = operators.pop()[1]
                right = rows.pop() if _BINARY[op] else None
                key = op, rows[-1], right
                rows[-1] = by_key.setdefault(key, len(by_key))
            if infix is not None:
                operators.append(entry)
                break
            if not text:
                return finish(rows[0])
            if len(operators) == 1:  # no '(' left to close
                raise ParseError(pos - 1, "unexpected trailing input ')'")
            operators.pop()


def _parse(tokens: list[str]) -> HyperFormula:
    """The formula of a token list, with its table; its body is made on
    first read.  A ParseError raised here gives the failing token's
    number in place of its position."""
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

    table = _parse_body(tokens, pos, tuple(var for _, var in prefix))
    _check_atoms(prefix, _atom_rows(table))
    return _from_table(tuple(prefix), table)


def parse_hyperltl(text: str) -> HyperFormula:
    """Parse a formula; raises ParseError or WellFormednessError."""
    tokens = _TOKEN_TEXT.findall(text)
    tokens.append("")  # the end of the text
    try:
        return _parse(tokens)
    except ParseError as e:
        # A bad character anywhere in the text is reported first, as the
        # positions are found; else they give the token's position.
        raise ParseError(_positions(text)[e.position], e.message) from None
    except WellFormednessError:
        _positions(text)
        raise


def check_well_formed(formula: HyperFormula):
    """Prefix variables distinct; atoms indexed iff the prefix is non-empty;
    every index bound.  Checks the prefix, then the atom rows, raising
    WellFormednessError at the first fault, and returns the table it
    checked, sugar included: the one parse_hyperltl or a row pass made
    with the formula, or else one walk's.  A formula's own table is shared
    by every call, so callers read it and do not write into it."""
    _check_prefix(formula.prefix)
    table = _table_of(formula)
    _check_atoms(formula.prefix, _atom_rows(table))
    return table


def _atom_rows(table) -> list[tuple]:
    """The (name, trace) of a table's atom rows, in row order."""
    ops, lhs, rhs, _ = table
    return list(compress(zip(lhs, rhs), map(ATOM.__eq__, ops)))


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
    for name, trace in atoms:
        if trace is None:
            if plain is None:
                plain = name
        else:
            free.add(trace)
            if indexed is None:
                indexed = name
    if prefix:
        unbound = free - {v for _, v in prefix}
        if unbound:
            raise WellFormednessError(
                f"unbound trace variable {sorted(unbound)[0]!r}"
            )
        if plain is not None:
            raise WellFormednessError(
                f"atom {plain!r} lacks a trace index in a "
                "quantified formula"
            )
    elif indexed is not None:
        raise WellFormednessError(
            f"indexed atom {indexed!r} in an unquantified formula"
        )


def atom_names(formula: Formula) -> set[str]:
    return {name for name, _ in _atom_rows(core_table(formula))}


def node_count(formula) -> int:
    """The size as a tree of a formula or a HyperFormula's body, read from
    its table: shared nodes count once per use."""
    ops, lhs, rhs, root = _table_of(formula)
    size: list[int] = []
    for op, left, right in zip(ops, lhs, rhs):
        size.append(
            1 if op <= CONST else
            1 + size[left] + (0 if right is None else size[right])
        )
    return size[root]


# ---------------------------------------------------------------------------
# Rendering.  Compound rows are fully parenthesized so that
# parse(render(f)) == f without consulting precedence.  One pre-order walk
# over the rows emits the pieces, which are joined once, so rendering is
# linear in the size of the formula as a tree.

# What a row of each operation code writes before its operand, or between
# its operands.
_OPERATOR_TEXT = {_CODES[t]: "(" + op + " " for op, t in _PREFIX.items()} | {
    _CODES[t]: " " + op + " " for op, (_, _, t) in _INFIX.items()
}


def render(formula) -> str:
    """The text of a formula or a HyperFormula, written from its table's
    rows; a row used twice is written at each use."""
    head = ""
    if isinstance(formula, HyperFormula):
        head = "".join(f"{q} {v}. " for q, v in formula.prefix)
    ops, lhs, rhs, root = _table_of(formula)
    pieces = [head]
    stack: list = [root]  # rows still to write, and text written after them
    while stack:
        i = stack.pop()
        if type(i) is str:
            pieces.append(i)
            continue
        op = ops[i]
        if op == ATOM:
            trace = rhs[i]
            pieces.append(lhs[i] if trace is None else f"{lhs[i]}_{trace}")
        elif op == CONST:
            pieces.append("true" if lhs[i] else "false")
        elif _BINARY[op]:
            pieces.append("(")
            stack += (")", rhs[i], _OPERATOR_TEXT[op], lhs[i])
        else:
            pieces.append(_OPERATOR_TEXT[op])
            stack += (")", lhs[i])
    return "".join(pieces)


# ---------------------------------------------------------------------------
# The core node table, and the row passes over tables


def _new_table():
    """A new hash-consed table: its rows by key (op, left, right),
    make(op, left, right), which gives the row of the key, made if it is
    new, and finish(root), which gives the table (ops, lhs, rhs, root)."""
    by_key: dict[tuple, int] = {}  # (op, lhs, rhs) -> row, in row order

    def make(op, left, right=None):
        return by_key.setdefault((op, left, right), len(by_key))

    def finish(root):
        ops, lhs, rhs = map(list, zip(*by_key))
        return ops, lhs, rhs, root

    return by_key, make, finish


def core_table(formula: Formula):
    """A formula as a hash-consed table: (ops, lhs, rhs, root).  Row i has
    operation code ops[i]; a compound row holds its operand rows in lhs
    and rhs (rhs None for NOT, NEXT, F and G), an atom row its name and
    trace, and a constant row its value and None.  Structurally equal
    subformulas share one row, and rows come in first-encounter
    post-order, so operands precede the rows that use them.  root is the
    formula's row.  F, G, W, -> and <-> are rows of their own, and a node
    that is no formula raises TypeError."""
    by_key, _, finish = _new_table()
    done: dict[int, int] = {}  # id(node) -> its row
    rows: list[int] = []  # the rows of the operands walked so far
    # A node on the stack is still to walk; a step (op, node) makes the
    # node's row from the operand rows on top of rows, and sits below the
    # operands' walks.
    stack = [formula]
    while stack:
        f = stack.pop()
        if type(f) is tuple:
            op, f = f
            right = rows.pop() if _BINARY[op] else None
            left = rows.pop()
        elif id(f) in done:
            rows.append(done[id(f)])
            continue
        else:
            op = _CODES.get(type(f))
            if op is None:
                raise TypeError(f"not a formula node: {f!r}")
            if op == ATOM:
                left, right = f.name, f.trace
            elif op == CONST:
                left, right = f.value, None
            else:
                stack.append((op, f))
                if _BINARY[op]:
                    stack += (f.right, f.left)
                else:
                    stack.append(f.operand)
                continue
        row = done[id(f)] = by_key.setdefault((op, left, right), len(by_key))
        rows.append(row)
    return finish(rows[0])


def _table_of(formula):
    """The table of a formula, sugar included: a HyperFormula's own, or
    core_table's walk over its body or over a bare Formula.  Callers read
    it and do not write into it."""
    if isinstance(formula, HyperFormula):
        if formula._table is not None:
            return formula._table
        formula = formula.body
    return core_table(formula)


def _from_table(prefix: tuple, table) -> HyperFormula:
    """The formula with this prefix whose body is the table's root: made
    on first read, as a parsed formula's body is."""
    formula = object.__new__(HyperFormula)
    vars(formula).update(prefix=prefix, _table=table)
    return formula


def _nodes(table) -> list[Formula]:
    """The node of each row of a table, in one loop over its rows: equal
    rows make equal nodes, and a row used twice gives one node."""
    nodes: list[Formula] = []
    for op, left, right in zip(*table[:3]):
        if op == ATOM:
            nodes.append(Atom(left, right))
        elif op == CONST:
            nodes.append(TRUE if left else FALSE)
        elif right is None:
            nodes.append(_TYPES[op](nodes[left]))
        else:
            nodes.append(_TYPES[op](nodes[left], nodes[right]))
    return nodes


# Each sugar operation code's core rows, made by make(op, left, right)
# over its operand rows (None for F's and G's second).
_DESUGAR = {
    IMPLIES: lambda make, a, b: make(OR, make(NOT, a), b),
    IFF: lambda make, a, b: make(
        AND, make(OR, make(NOT, a), b), make(OR, make(NOT, b), a)
    ),
    WEAK_UNTIL: lambda make, a, b: make(
        OR, make(UNTIL, a, b), make(RELEASE, make(CONST, False), a)
    ),
    EVENTUALLY: lambda make, e, _: make(UNTIL, make(CONST, True), e),
    GLOBALLY: lambda make, e, _: make(RELEASE, make(CONST, False), e),
}


def _desugared(table):
    """The core table of a table, in one pass over its rows, operands
    first: each sugar row becomes its core rows, by its rule in _DESUGAR,
    and every other row is copied over its operands' new rows.  Nothing
    is hash-consed; to_nnf's pass merges equal rows."""
    ops, lhs, rhs, root = table
    new_ops, new_lhs, new_rhs = [], [], []

    def make(op, left, right=None):
        new_ops.append(op)
        new_lhs.append(left)
        new_rhs.append(right)
        return len(new_ops) - 1

    rows: list[int] = []  # the new row of each row
    for op, left, right in zip(ops, lhs, rhs):
        if op > CONST:
            left = rows[left]
            if right is not None:
                right = rows[right]
        rows.append(
            _DESUGAR[op](make, left, right) if op > RELEASE
            else make(op, left, right)
        )
    return new_ops, new_lhs, new_rhs, rows[root]


def _relabelled(table, atom):
    """The table with each atom row's (name, trace) relabelled by
    atom(name, trace), row for row: every row keeps its number and
    operands, and nothing is merged."""
    ops, lhs, rhs, root = table
    lhs, rhs = list(lhs), list(rhs)
    for i, op in enumerate(ops):
        if op == ATOM:
            lhs[i], rhs[i] = atom(lhs[i], rhs[i])
    return ops, lhs, rhs, root


def desugar(formula):
    """Rewrite F, G, W, ->, <-> into the core !, &, |, X, U, R connectives,
    in one row pass.  A HyperFormula comes back with its prefix and the
    new table, and a Formula as a tree; either comes back as itself if it
    has no sugar."""
    table = _table_of(formula)
    if max(table[0]) <= RELEASE:
        return formula
    table = _desugared(table)
    if isinstance(formula, HyperFormula):
        return _from_table(formula.prefix, table)
    return _nodes(table)[table[3]]


def _nnf_table(table):
    """The negation normal form of a table, hash-consed, made by one walk
    over its rows from the root, each (row, polarity) that the root
    reaches once, operands first, left before right: a NOT row walks its
    operand in the other polarity, a negated atom is a NOT row over it, a
    negated constant the other constant, a negated NEXT stays NEXT, and a
    negated binary connective becomes its dual.  A sugar row is expanded
    once, by its rule in _DESUGAR, into core rows appended to a copy of
    the columns, and walked as its expansion's top row; so the walk takes
    the steps it takes over _desugared's table, row for row.  The new
    rows come in the order core_table's walk makes them for the same
    formula as a tree, so the tableau decides its branches in that order
    too."""
    ops, lhs, rhs, root = table
    ops, lhs, rhs = list(ops), list(lhs), list(rhs)
    expanded: dict[int, int] = {}  # sugar row -> its expansion's top row

    def append(op, left, right=None):
        ops.append(op)
        lhs.append(left)
        rhs.append(right)
        return len(ops) - 1

    by_key, make, finish = _new_table()
    done: dict[tuple, int] = {}  # (row, negated) -> its new row
    values: list[int] = []  # the new rows of the operands walked so far
    # A (row, negated) pair is still to walk; a (~row, negated) step makes
    # the row's new row from its operands' on top of values.
    stack: list[tuple] = [(root, False)]
    while stack:
        i, negated = entry = stack.pop()
        if i < 0:
            i = ~i
            op = ops[i]
            if op == NEXT:
                key = NEXT, values.pop(), None
            else:
                right = values.pop()
                key = op ^ negated, values.pop(), right
            row = by_key.setdefault(key, len(by_key))
        elif entry in done:
            values.append(done[entry])
            continue
        elif (op := ops[i]) == NOT:
            stack.append((lhs[i], not negated))
            continue
        elif op > RELEASE:
            top = expanded.get(i)
            if top is None:
                top = expanded[i] = _DESUGAR[op](append, lhs[i], rhs[i])
            stack.append((top, negated))
            continue
        elif op == ATOM:
            row = make(ATOM, lhs[i], rhs[i])
            if negated:
                row = make(NOT, row)
        elif op == CONST:
            row = make(CONST, lhs[i] != negated)
        else:
            stack.append((~i, negated))
            if op != NEXT:
                stack.append((rhs[i], negated))
            stack.append((lhs[i], negated))
            continue
        done[i, negated] = row
        values.append(row)
    return finish(values[0])


def to_nnf(formula):
    """Push negations to the atoms of a formula, expanding its sugar on the
    way, in the one walk of _nnf_table.  A HyperFormula comes back with its
    prefix and the new table, and a Formula as a tree in which equal
    subformulas share one node."""
    table = _nnf_table(_table_of(formula))
    if isinstance(formula, HyperFormula):
        return _from_table(formula.prefix, table)
    return _nodes(table)[table[3]]
