"""Cut and projection expression language over schema'd events.

Text grammar (whitespace-insensitive, case-sensitive keywords):

    expr        := or
    or          := and ("or" and)*
    and         := unary ("and" unary)*
    unary       := "not" unary | comparison
    comparison  := sum (("<" | "<=" | ">" | ">=" | "==" | "!=") sum)?
    sum         := term (("+" | "-") term)*
    term        := factor (("*" | "/") factor)*
    factor      := "-" factor | atom
    atom        := NUMBER | "true" | "false" | call | path | "(" expr ")"
    call        := "size" "(" path ")"
                 | "count" "(" path "," expr ")"          element predicate over `it`
                 | ("max" | "min" | "sum") "(" path "," "it" "." NAME ")"
    path        := NAME ("." NAME)*

Semantics, pinned so that evaluation is total and deterministic:

  * comparisons operate on f64 after widening (i32/i64/f32 -> f64); every
    comparison involving NaN is false, including `!=`; `>` and `<` are strict
  * arithmetic is f64; division follows IEEE-754 (x/0 = +-inf, 0/0 = NaN)
  * `count`/`size` yield i64, `max`/`min`/`sum` yield f64
  * `max`/`min`/`sum` over an empty collection yield 0.0 -- guard with
    `size(...)` or `count(...)` when 0.0 is a meaningful value
  * element predicates may reference only `it.<field>` and constants

Type checking happens once against a schema and produces an immutable
compiled form; evaluation holds no mutable state and never raises on a
schema-conforming event.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

from .errors import NonScalarProjection, ParseError, TypeMismatch, UnknownField
from .schema import Array, Primitive, Record, Schema

NUMERIC_KINDS = frozenset({"f64", "f32", "i64", "i32"})


# -- abstract syntax ----------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: object
    kind: str  # "i64" | "f64" | "bool"


@dataclass(frozen=True)
class Field:
    path: tuple[str, ...]  # a leading "it" segment refers to the element


@dataclass(frozen=True)
class Compare:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Not:
    item: "Expr"


@dataclass(frozen=True)
class Arith:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    item: "Expr"


@dataclass(frozen=True)
class Size:
    coll: tuple[str, ...]


@dataclass(frozen=True)
class Count:
    coll: tuple[str, ...]
    pred: "Expr"


@dataclass(frozen=True)
class Reduce:
    op: str  # "max" | "min" | "sum"
    coll: tuple[str, ...]
    field: str


Expr = Union[Const, Field, Compare, BoolOp, Not, Arith, Neg, Size, Count, Reduce]


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|==|!=|[<>+\-*/(),.])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "true", "false", "size", "count", "max", "min", "sum", "it"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        if m.lastgroup == "num":
            tokens.append(("num", m.group(), pos))
        elif m.lastgroup == "name":
            word = m.group()
            tokens.append(("kw" if word in _KEYWORDS else "name", word, pos))
        else:
            tokens.append(("op", m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, text, pos = self.next()
        if text != value or kind == "end":
            what = "end of input" if kind == "end" else repr(text)
            raise ParseError(f"expected {value!r} at offset {pos}, found {what}")

    def fail(self, msg: str) -> None:
        _, text, pos = self.peek()
        found = repr(text) if text else "end of input"
        raise ParseError(f"{msg} at offset {pos}, found {found}")

    # grammar rules, in descending precedence of binding

    def parse(self) -> Expr:
        node = self.or_expr()
        if self.peek()[0] != "end":
            self.fail("unexpected trailing input")
        return node

    def or_expr(self) -> Expr:
        items = [self.and_expr()]
        while self.peek()[1] == "or":
            self.next()
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else BoolOp("or", tuple(items))

    def and_expr(self) -> Expr:
        items = [self.unary()]
        while self.peek()[1] == "and":
            self.next()
            items.append(self.unary())
        return items[0] if len(items) == 1 else BoolOp("and", tuple(items))

    def unary(self) -> Expr:
        if self.peek()[1] == "not":
            self.next()
            return Not(self.unary())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.sum_expr()
        if self.peek()[1] in ("<", "<=", ">", ">=", "==", "!="):
            op = self.next()[1]
            right = self.sum_expr()
            return Compare(op, left, right)
        return left

    def sum_expr(self) -> Expr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = Arith(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = Arith(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek()[1] == "-":
            self.next()
            inner = self.factor()
            if isinstance(inner, Const) and inner.kind in ("i64", "f64"):
                return Const(-inner.value, inner.kind)
            return Neg(inner)
        return self.atom()

    def atom(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "num":
            self.next()
            if re.fullmatch(r"\d+", text):
                return Const(int(text), "i64")
            return Const(float(text), "f64")
        if text == "(":
            self.next()
            node = self.or_expr()
            self.expect(")")
            return node
        if text in ("true", "false"):
            self.next()
            return Const(text == "true", "bool")
        if text == "size":
            self.next()
            self.expect("(")
            coll = self.path()
            self.expect(")")
            return Size(coll)
        if text == "count":
            self.next()
            self.expect("(")
            coll = self.path()
            self.expect(",")
            pred = self.or_expr()
            self.expect(")")
            return Count(coll, pred)
        if text in ("max", "min", "sum"):
            op = self.next()[1]
            self.expect("(")
            coll = self.path()
            self.expect(",")
            self.expect("it")
            self.expect(".")
            fkind, fname, fpos = self.next()
            if fkind not in ("name", "kw"):
                raise ParseError(f"expected field name at offset {fpos}")
            self.expect(")")
            return Reduce(op, coll, fname)
        if kind == "name" or text == "it":
            return Field(self.path())
        self.fail("expected a value")
        raise AssertionError("unreachable")

    def path(self) -> tuple[str, ...]:
        kind, text, pos = self.next()
        if kind not in ("name", "kw") or (kind == "kw" and text != "it"):
            raise ParseError(f"expected a field path at offset {pos}, found {text!r}")
        parts = [text]
        while self.peek()[1] == ".":
            self.next()
            kind, text, pos = self.next()
            if kind != "name":
                raise ParseError(f"expected a field name at offset {pos}, found {text!r}")
            parts.append(text)
        return tuple(parts)


def parse_expr(text: str) -> Expr:
    """Parse expression text to its AST; raises ParseError with an offset."""
    return _Parser(text).parse()


# -- type checking and compilation ---------------------------------------------

def _ieee_div(a: float, b: float) -> float:
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.inf if (a > 0.0) == (math.copysign(1.0, b) > 0.0) else -math.inf


def _ne(a: float, b: float) -> bool:
    return a != b and a == a and b == b


_CMP_FNS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": _ne,
}

_ARITH_FNS: dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _ieee_div,
}


class _Checker:
    """Single pass producing (closure, result kind) per node.

    `element` is the record type of `it` inside count/reduce arguments, or
    None at event level. Every schema path the compiled nodes read is
    recorded in `paths`: a scalar's path, a collection's path for its size,
    and the collection's path plus the field for an element field.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.paths: set[tuple[str, ...]] = set()
        self._coll: tuple[str, ...] = ()  # the collection `it` ranges over

    @property
    def leaves(self) -> frozenset[tuple[str, ...]]:
        """The recorded paths, less those that end at a collection some
        longer path reads below: reading an element field gives the size."""
        paths = self.paths
        return frozenset(
            p for p in paths if not any(len(q) > len(p) and q[:len(p)] == p for q in paths)
        )

    def compile(self, node: Expr, element: Record | None = None):
        method = getattr(self, "_c_" + type(node).__name__.lower())
        return method(node, element)

    # field access -------------------------------------------------------

    def _resolve_value(self, path: tuple[str, ...], element: Record | None):
        """Resolve a path to (getter, schema node)."""
        if path[0] == "it":
            if element is None:
                raise UnknownField("'it' is only valid inside count()/max()/min()/sum()")
            if len(path) == 1:
                raise UnknownField("'it' must be followed by a field name")
            rec: object = element
            rest = path[1:]
        else:
            if element is not None:
                raise UnknownField(
                    f"{'.'.join(path)}: element predicates may only reference "
                    "'it.<field>' and constants"
                )
            rec = self.schema.root
            rest = path
        node = rec
        for i, part in enumerate(rest):
            if not isinstance(node, Record):
                raise TypeMismatch(
                    f"{'.'.join(path[:len(path) - len(rest) + i])} is not a record; "
                    f"cannot resolve {'.'.join(path)}"
                )
            try:
                node = node.field(part)
            except KeyError:
                raise UnknownField(f"unknown field {'.'.join(path)}") from None
        if len(rest) == 1:
            key = rest[0]
            getter = lambda obj, k=key: obj[k]  # noqa: E731
        elif len(rest) == 2:
            k1, k2 = rest
            getter = lambda obj, a=k1, b=k2: obj[a][b]  # noqa: E731
        else:
            keys = tuple(rest)

            def getter(obj, ks=keys):
                for k in ks:
                    obj = obj[k]
                return obj

        return getter, node

    def _resolve_collection(self, path: tuple[str, ...], element: Record | None):
        if path[0] == "it":
            raise TypeMismatch("nested collection operations over 'it' are not supported")
        getter, node = self._resolve_value(path, element)
        if not isinstance(node, Array):
            raise TypeMismatch(f"{'.'.join(path)} is not a collection")
        return getter, node.element

    # node kinds -----------------------------------------------------------

    def _c_const(self, node: Const, element):
        v = node.value
        return (lambda ev, c=v: c), node.kind

    def _c_field(self, node: Field, element):
        getter, snode = self._resolve_value(node.path, element)
        if not isinstance(snode, Primitive):
            raise TypeMismatch(
                f"{'.'.join(node.path)} is not a scalar; collections are reached "
                "through size()/count()/max()/min()/sum()"
            )
        path = node.path
        self.paths.add(self._coll + path[1:] if path[0] == "it" else path)
        return getter, snode.kind

    def _c_compare(self, node: Compare, element):
        lf, lk = self.compile(node.left, element)
        rf, rk = self.compile(node.right, element)
        if lk not in NUMERIC_KINDS or rk not in NUMERIC_KINDS:
            raise TypeMismatch(f"comparison {node.op!r} needs numeric operands, got {lk}/{rk}")
        op = _CMP_FNS[node.op]
        return (lambda ev, l=lf, r=rf, o=op: o(float(l(ev)), float(r(ev)))), "bool"

    def _c_boolop(self, node: BoolOp, element):
        fns = []
        for item in node.items:
            f, k = self.compile(item, element)
            if k != "bool":
                raise TypeMismatch(f"{node.op!r} needs boolean operands, got {k}")
            fns.append(f)
        fns = tuple(fns)
        if node.op == "and":
            def fn(ev, fs=fns):
                for f in fs:
                    if not f(ev):
                        return False
                return True
        else:
            def fn(ev, fs=fns):
                for f in fs:
                    if f(ev):
                        return True
                return False
        return fn, "bool"

    def _c_not(self, node: Not, element):
        f, k = self.compile(node.item, element)
        if k != "bool":
            raise TypeMismatch(f"'not' needs a boolean operand, got {k}")
        return (lambda ev, f=f: not f(ev)), "bool"

    def _c_arith(self, node: Arith, element):
        lf, lk = self.compile(node.left, element)
        rf, rk = self.compile(node.right, element)
        if lk not in NUMERIC_KINDS or rk not in NUMERIC_KINDS:
            raise TypeMismatch(f"arithmetic {node.op!r} needs numeric operands, got {lk}/{rk}")
        op = _ARITH_FNS[node.op]
        return (lambda ev, l=lf, r=rf, o=op: o(float(l(ev)), float(r(ev)))), "f64"

    def _c_neg(self, node: Neg, element):
        f, k = self.compile(node.item, element)
        if k not in NUMERIC_KINDS:
            raise TypeMismatch(f"unary '-' needs a numeric operand, got {k}")
        return (lambda ev, f=f: -float(f(ev))), "f64"

    def _c_size(self, node: Size, element):
        getter, _ = self._resolve_collection(node.coll, element)
        self.paths.add(node.coll)
        return (lambda ev, g=getter: len(g(ev))), "i64"

    def _c_count(self, node: Count, element):
        getter, elem = self._resolve_collection(node.coll, element)
        if not isinstance(elem, Record):
            raise TypeMismatch(f"count() needs a collection of records: {'.'.join(node.coll)}")
        self.paths.add(node.coll)
        self._coll = node.coll
        try:
            pred, pk = self.compile(node.pred, elem)
        finally:
            self._coll = ()
        if pk != "bool":
            raise TypeMismatch(f"count() predicate must be boolean, got {pk}")

        def fn(ev, g=getter, p=pred):
            n = 0
            for item in g(ev):
                if p(item):
                    n += 1
            return n

        return fn, "i64"

    def _c_reduce(self, node: Reduce, element):
        getter, elem = self._resolve_collection(node.coll, element)
        if not isinstance(elem, Record):
            raise TypeMismatch(f"{node.op}() needs a collection of records: {'.'.join(node.coll)}")
        try:
            fnode = elem.field(node.field)
        except KeyError:
            raise UnknownField(f"unknown element field it.{node.field}") from None
        if not isinstance(fnode, Primitive) or fnode.kind not in NUMERIC_KINDS:
            raise TypeMismatch(f"{node.op}() needs a numeric element field: it.{node.field}")
        key = node.field
        self.paths.add(node.coll + (key,))
        if node.op == "sum":
            def fn(ev, g=getter, k=key):
                total = 0.0
                for item in g(ev):
                    total += item[k]
                return total
        elif node.op == "max":
            def fn(ev, g=getter, k=key):
                best = None
                for item in g(ev):
                    v = item[k]
                    if best is None or v > best:
                        best = v
                return float(best) if best is not None else 0.0
        else:
            def fn(ev, g=getter, k=key):
                best = None
                for item in g(ev):
                    v = item[k]
                    if best is None or v < best:
                        best = v
                return float(best) if best is not None else 0.0
        return fn, "f64"


# -- compiled, shareable forms ---------------------------------------------------

# Each compiled form carries `leaves`, the schema paths its evaluation
# reads. A path that ends at a collection reads only its size;
# `count(jets, it.pt > 30.0)` reads ("jets", "pt").

@dataclass(frozen=True)
class TypedCut:
    """A boolean expression compiled against a schema."""

    source: str
    _fn: Callable[[dict], bool]
    leaves: frozenset[tuple[str, ...]]

    def evaluate(self, event: dict) -> bool:
        return self._fn(event)


@dataclass(frozen=True)
class TypedValue:
    """A numeric expression compiled against a schema."""

    source: str
    _fn: Callable[[dict], object]
    leaves: frozenset[tuple[str, ...]]

    def evaluate(self, event: dict):
        return self._fn(event)


@dataclass(frozen=True)
class TypedProjection:
    """An ordered list of scalar columns compiled against a schema."""

    columns: tuple[tuple[str, str], ...]  # (name, kind)
    _fns: tuple[Callable[[dict], object], ...]
    leaves: frozenset[tuple[str, ...]]

    def evaluate(self, event: dict) -> tuple:
        return tuple(fn(event) for fn in self._fns)


_PROJECTION_NODES = (Const, Field, Arith, Neg, Size, Count, Reduce)


def typecheck_cut(expr: str | Expr, schema: Schema) -> TypedCut:
    """Type-check a cut against a schema and compile it for evaluation."""
    node = parse_expr(expr) if isinstance(expr, str) else expr
    checker = _Checker(schema)
    fn, kind = checker.compile(node)
    if kind != "bool":
        raise TypeMismatch(f"cut must be boolean, got {kind}")
    source = expr if isinstance(expr, str) else repr(expr)
    return TypedCut(source, fn, checker.leaves)


def typecheck_value(expr: str | Expr, schema: Schema) -> TypedValue:
    """Type-check a numeric expression against a schema and compile it for
    evaluation."""
    node = parse_expr(expr) if isinstance(expr, str) else expr
    checker = _Checker(schema)
    fn, kind = checker.compile(node)
    if kind not in NUMERIC_KINDS:
        raise TypeMismatch(f"value must be numeric, got {kind}")
    source = expr if isinstance(expr, str) else repr(expr)
    return TypedValue(source, fn, checker.leaves)


def typecheck_projection(columns, schema: Schema) -> TypedProjection:
    """Type-check projection columns [(name, expr), ...] against a schema.

    Only scalar-valued expression forms are allowed (field paths, numeric
    constants, arithmetic, and collection aggregates); comparisons and
    boolean operators are rejected.
    """
    checker = _Checker(schema)
    names: list[str] = []
    kinds: list[str] = []
    fns = []
    for name, expr in columns:
        if name in names:
            raise NonScalarProjection(f"duplicate projection column {name!r}")
        node = parse_expr(expr) if isinstance(expr, str) else expr
        _reject_non_scalar(node, name)
        fn, kind = checker.compile(node)
        if kind == "bool":
            raise NonScalarProjection(f"column {name!r} is boolean, not a scalar value")
        names.append(name)
        kinds.append(kind)
        fns.append(fn)
    return TypedProjection(tuple(zip(names, kinds)), tuple(fns), checker.leaves)


def _reject_non_scalar(node: Expr, column: str) -> None:
    if not isinstance(node, _PROJECTION_NODES):
        raise NonScalarProjection(
            f"column {column!r}: {type(node).__name__.lower()} expressions are not "
            "scalar-valued"
        )
    if isinstance(node, (Arith, Neg)):
        children = (node.left, node.right) if isinstance(node, Arith) else (node.item,)
        for child in children:
            _reject_non_scalar(child, column)

