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

Compiling writes Python source, not a tree of closures, and compiles it
once with `exec`, as the codec does. `compile_kernel` writes one loop
per skim over the column sets of a column codec (`storage.codec`): for
each block, one `zip` over the scalar columns and collection offsets the
skim reads, so every field is a local bound once per event, and each
element column it reads turned into a list once. For each event the
loop adds the weight to a Kahan sum, tests the cut's top-level `and`
clauses in source order up to the first that fails, and appends each
projected value to its column's typed `array`, building no row. A
collection's elements are the slice between adjacent offsets of its
element columns, and the aggregates over one collection share one loop
over them. User text enters that source only as the `repr()` of a
parsed constant or of a field name the schema has checked, and every
local name is generated.

A compiled cut's and a compiled projection's `evaluate(event)` run the
same loop over a one-event column set, made by encoding the event and
decoding it to columns, both compiled on its first call. So an event
dict that does not conform to the whole schema (a missing field, a value
of the wrong type) raises `SchemaViolation`, even in a field the
expression does not read. A compiled value (`typecheck_value`) has no
`evaluate`: the kernel sums it as a skim's weight.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Union, get_args

from .errors import ArityMismatch, NonScalarProjection, ParseError, TypeMismatch, UnknownField
from .schema import Array, Primitive, Record, Schema
from .storage.codec import ColumnSet, EventCodec, leaf_set

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
_NODE_TYPES = get_args(Expr)


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


# -- type checking and code generation ----------------------------------------------

def _ieee_div(a: float, b: float) -> float:
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.inf if (a > 0.0) == (math.copysign(1.0, b) > 0.0) else -math.inf


def _ne(a: float, b: float) -> bool:
    return a != b and a == a and b == b


_COMPARE_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
_ARITH_OPS = frozenset({"+", "-", "*", "/"})
_FLOAT_KINDS = frozenset({"f64", "f32"})
_CONST_TYPES = {"i64": int, "f64": float, "bool": bool}


def _check_fields(node) -> None:
    """TypeMismatch unless `node` is an expression node whose fields hold
    what their types say: a path is a non-empty tuple of str, `items` a
    non-empty tuple, and an operator, kind or element field a str. The
    subtrees are checked as they are compiled."""
    if type(node) not in _NODE_TYPES:
        raise TypeMismatch(f"not an expression node: {node!r}")
    for name, value in vars(node).items():
        if name in ("path", "coll"):
            ok = type(value) is tuple and value != () and all(type(p) is str for p in value)
        elif name == "items":
            ok = type(value) is tuple and value != ()
        else:
            ok = name not in ("op", "kind", "field") or type(value) is str
        if not ok:
            raise TypeMismatch(f"malformed {type(node).__name__}.{name}: {value!r}")


def _float_of(value) -> float | None:
    """float(value), or None when that overflows."""
    try:
        return float(value)
    except OverflowError:
        return None


class _Loop:
    """One loop over the elements of a collection, computing every
    aggregate of it that a prelude needs."""

    def __init__(self, coll: tuple[str, ...], lo: str, hi: str):
        self.coll = coll
        self.lo, self.hi = lo, hi  # the locals holding the element bounds
        self.reads: dict[str, str] = {}  # element column's list -> loop variable
        self.init: list[str] = []
        self.body: list[str] = []
        self.post: list[str] = []

    def lines(self) -> list[str]:
        lists = [f"{lst}[{self.lo}:{self.hi}]" for lst in self.reads]
        names = ", ".join(self.reads.values())
        if not lists:
            head = f"for _ in range({self.lo}, {self.hi}):"
        elif len(lists) == 1:
            head = f"for {names} in {lists[0]}:"
        else:
            head = f"for {names} in zip({', '.join(lists)}):"
        return [*self.init, head, *("    " + line for line in self.body), *self.post]


class _Checker:
    """Single pass that type-checks each node and writes the Python source
    evaluating it over a column set; `compile` returns (source expression,
    result kind).

    An event-level field, and the two bounds of a collection (adjacent
    offsets), are loop variables of the per-event `zip` over `zipped`
    (loop variable, column source); an element field is read from a list
    that `block` makes once per column set. The aggregates over one
    collection share one loop, whose statements collect in the current
    prelude, which `prelude()` returns and clears; the caller places them
    before the expressions compiled since the last call. A local, once
    assigned, serves every later prelude, so a field or an aggregate that
    the cut and the projection share is computed once. Every local name
    is generated; a field name enters the source only as the `repr()` of
    a name the schema has checked, and a constant only as the `repr()` of
    its parsed value (or, if not finite, by reference).

    `element` is the record type of `it` inside count/reduce arguments,
    or None at event level. Every schema path the compiled nodes read is
    recorded in `paths`: a scalar's path, a collection's path for its
    size, and the collection's path plus the field for an element field.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.paths: set[tuple[str, ...]] = set()
        self.consts: dict[str, object] = {"div": _ieee_div, "ne": _ne}
        self.zipped: list[tuple[str, str]] = []  # (per-event local, column source)
        self.block: list[str] = []  # statements run once per column set
        self._coll: tuple[str, ...] = ()  # the collection `it` ranges over
        self._loop: _Loop | None = None  # the loop that binds `it`
        self._memo: dict[object, str] = {}  # field path or aggregate node -> local
        self._offsets: dict[tuple[str, ...], tuple[str, str]] = {}  # collection -> bounds
        self._lists: dict[tuple[str, ...], str] = {}  # element column key -> list
        self._loops: dict[tuple[str, ...], _Loop] = {}
        self._k = 0

    def compile(self, node: Expr, element: Record | None = None) -> tuple[str, str]:
        _check_fields(node)
        method = getattr(self, "_c_" + type(node).__name__.lower())
        return method(node, element)

    def prelude(self) -> list[str]:
        """The statements the expressions compiled since the last call need."""
        lines = [line for loop in self._loops.values() for line in loop.lines()]
        self._loops = {}
        return lines

    def clauses(self, node: Expr) -> list[tuple[list[str], str]]:
        """A cut's top-level `and` clauses in source order, each as
        (its prelude, its source)."""
        _check_fields(node)
        items = node.items if isinstance(node, BoolOp) and node.op == "and" else (node,)
        out = []
        for item in items:
            src, kind = self.compile(item)
            if kind != "bool":
                raise TypeMismatch(
                    f"'and' needs boolean operands, got {kind}" if len(items) > 1
                    else f"cut must be boolean, got {kind}"
                )
            out.append((self.prelude(), src))
        return out

    def _fresh(self, prefix: str) -> str:
        self._k += 1
        return f"{prefix}{self._k}"

    def _constant(self, value) -> str:
        """Source of a constant: its repr, or a name bound to it when the
        repr is not a literal (inf, nan)."""
        if isinstance(value, float) and not math.isfinite(value):
            name = self._fresh("k")
            self.consts[name] = value
            return name
        text = repr(value)
        return f"({text})" if text.startswith("-") else text

    def _column(self, key: tuple[str, ...]) -> str:
        return f"cs[{key!r}]"

    def _field(self, path: tuple[str, ...]) -> str:
        """The per-event local holding the event's value at `path`."""
        var = self._memo.get(path)
        if var is None:
            var = self._memo[path] = self._fresh("v")
            self.zipped.append((var, self._column(path)))
        return var

    def _bounds(self, coll: tuple[str, ...]) -> tuple[str, str]:
        """The per-event locals holding the collection's element bounds."""
        bounds = self._offsets.get(coll)
        if bounds is None:
            bounds = self._offsets[coll] = (self._fresh("lo"), self._fresh("hi"))
            offsets = self._column(coll)
            self.zipped += [(bounds[0], offsets), (bounds[1], f"{offsets}[1:]")]
        return bounds

    def _read(self, loop: _Loop, path: tuple[str, ...]) -> str:
        """The loop variable holding the current element's value at `path`."""
        key = loop.coll + path
        lst = self._lists.get(key)
        if lst is None:
            lst = self._lists[key] = self._fresh("L")
            self.block.append(f"{lst} = {self._column(key)}.tolist()")
        var = loop.reads.get(lst)
        if var is None:
            var = loop.reads[lst] = self._fresh("x")
        return var

    def _loop_over(self, coll: tuple[str, ...]) -> _Loop:
        loop = self._loops.get(coll)
        if loop is None:
            loop = self._loops[coll] = _Loop(coll, *self._bounds(coll))
        return loop

    def _float(self, node: Expr, src: str, kind: str) -> str:
        """Source of `float(value)` for an operand: a constant folded, and
        a float field or computed value, always a float already, left as
        it is."""
        if isinstance(node, Const):
            value = _float_of(node.value)
            # a constant too large for f64 raises when evaluated, as it always has
            return f"float({src})" if value is None else self._constant(value)
        if kind in _FLOAT_KINDS:
            return src
        return f"float({src})"

    # field access -------------------------------------------------------

    def _resolve_value(self, path: tuple[str, ...], element: Record | None):
        """Resolve a path to its schema node."""
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
        return node

    def _resolve_collection(self, path: tuple[str, ...], element: Record | None) -> Record:
        """The element record type of the collection at `path`."""
        if path[0] == "it":
            raise TypeMismatch("nested collection operations over 'it' are not supported")
        node = self._resolve_value(path, element)
        if not isinstance(node, Array):
            raise TypeMismatch(f"{'.'.join(path)} is not a collection")
        return node.element

    # node kinds -----------------------------------------------------------

    def _c_const(self, node: Const, element):
        if type(node.value) is not _CONST_TYPES.get(node.kind):
            raise TypeMismatch(f"constant {node.value!r} is not of kind {node.kind!r}")
        return self._constant(node.value), node.kind

    def _c_field(self, node: Field, element):
        snode = self._resolve_value(node.path, element)
        if not isinstance(snode, Primitive):
            raise TypeMismatch(
                f"{'.'.join(node.path)} is not a scalar; collections are reached "
                "through size()/count()/max()/min()/sum()"
            )
        path = node.path
        if path[0] == "it":
            self.paths.add(self._coll + path[1:])
            return self._read(self._loop, path[1:]), snode.kind
        self.paths.add(path)
        return self._field(path), snode.kind

    def _c_compare(self, node: Compare, element):
        if node.op not in _COMPARE_OPS:
            raise TypeMismatch(f"unknown comparison {node.op!r}")
        left, lk = self.compile(node.left, element)
        right, rk = self.compile(node.right, element)
        if lk not in NUMERIC_KINDS or rk not in NUMERIC_KINDS:
            raise TypeMismatch(f"comparison {node.op!r} needs numeric operands, got {lk}/{rk}")
        a = self._float(node.left, left, lk)
        b = self._float(node.right, right, rk)
        if node.op == "!=":  # false when either side is NaN
            return f"ne({a}, {b})", "bool"
        return f"({a} {node.op} {b})", "bool"

    def _c_boolop(self, node: BoolOp, element):
        if node.op not in ("and", "or"):
            raise TypeMismatch(f"unknown boolean operator {node.op!r}")
        srcs = []
        for item in node.items:
            src, k = self.compile(item, element)
            if k != "bool":
                raise TypeMismatch(f"{node.op!r} needs boolean operands, got {k}")
            srcs.append(src)
        return "(" + f" {node.op} ".join(srcs) + ")", "bool"

    def _c_not(self, node: Not, element):
        src, k = self.compile(node.item, element)
        if k != "bool":
            raise TypeMismatch(f"'not' needs a boolean operand, got {k}")
        return f"(not {src})", "bool"

    def _c_arith(self, node: Arith, element):
        if node.op not in _ARITH_OPS:
            raise TypeMismatch(f"unknown arithmetic operator {node.op!r}")
        left, lk = self.compile(node.left, element)
        right, rk = self.compile(node.right, element)
        if lk not in NUMERIC_KINDS or rk not in NUMERIC_KINDS:
            raise TypeMismatch(f"arithmetic {node.op!r} needs numeric operands, got {lk}/{rk}")
        a = self._float(node.left, left, lk)
        b = self._float(node.right, right, rk)
        if node.op == "/" and not (
            isinstance(node.right, Const) and _float_of(node.right.value) not in (None, 0.0)
        ):
            return f"div({a}, {b})", "f64"
        return f"({a} {node.op} {b})", "f64"

    def _c_neg(self, node: Neg, element):
        src, k = self.compile(node.item, element)
        if k not in NUMERIC_KINDS:
            raise TypeMismatch(f"unary '-' needs a numeric operand, got {k}")
        return f"(-{self._float(node.item, src, k)})", "f64"

    def _c_size(self, node: Size, element):
        self._resolve_collection(node.coll, element)
        self.paths.add(node.coll)
        lo, hi = self._bounds(node.coll)
        return f"({hi} - {lo})", "i64"

    def _c_count(self, node: Count, element):
        elem = self._resolve_collection(node.coll, element)
        if not isinstance(elem, Record):
            raise TypeMismatch(f"count() needs a collection of records: {'.'.join(node.coll)}")
        var = self._memo.get(node)
        if var is not None:  # the same count, already compiled
            return var, "i64"
        self.paths.add(node.coll)
        loop = self._loop_over(node.coll)
        self._coll, self._loop = node.coll, loop
        try:
            pred, pk = self.compile(node.pred, elem)
        finally:
            self._coll, self._loop = (), None
        if pk != "bool":
            raise TypeMismatch(f"count() predicate must be boolean, got {pk}")
        var = self._memo[node] = self._fresh("c")
        loop.init.append(f"{var} = 0")
        loop.body.append(f"if {pred}: {var} += 1")
        return var, "i64"

    def _c_reduce(self, node: Reduce, element):
        elem = self._resolve_collection(node.coll, element)
        if not isinstance(elem, Record):
            raise TypeMismatch(f"{node.op}() needs a collection of records: {'.'.join(node.coll)}")
        if node.op not in ("max", "min", "sum"):
            raise TypeMismatch(f"unknown reduction {node.op!r}")
        try:
            fnode = elem.field(node.field)
        except KeyError:
            raise UnknownField(f"unknown element field it.{node.field}") from None
        if not isinstance(fnode, Primitive) or fnode.kind not in NUMERIC_KINDS:
            raise TypeMismatch(f"{node.op}() needs a numeric element field: it.{node.field}")
        var = self._memo.get(node)
        if var is not None:  # the same reduction, already compiled
            return var, "f64"
        self.paths.add(node.coll + (node.field,))
        loop = self._loop_over(node.coll)
        item = self._read(loop, (node.field,))
        var = self._memo[node] = self._fresh("r")
        if node.op == "sum":
            # in element order from 0.0, so an int field is added as float
            loop.init.append(f"{var} = 0.0")
            loop.body.append(f"{var} += {item}")
        else:
            # the first extreme in element order; a NaN is kept only if first
            loop.init.append(f"{var} = None")
            op = ">" if node.op == "max" else "<"
            loop.body.append(f"if {var} is None or {item} {op} {var}: {var} = {item}")
            loop.post.append(f"{var} = 0.0 if {var} is None else float({var})")
        return var, "f64"


def _function(checker: _Checker, name: str, args: str, body: list[str]) -> Callable:
    """Compile `def name(args): body` once, over the checker's constants."""
    source = "\n".join([f"def {name}({args}):", *("    " + line for line in body), ""])
    namespace = dict(checker.consts)
    exec(source, namespace)
    return namespace[name]


# -- compiled, shareable forms ---------------------------------------------------

# Each compiled form keeps its syntax tree and schema, from which
# `compile_kernel` writes a skim's loop, and carries `leaves`, the schema
# paths its evaluation reads, written by `storage.codec.leaf_set`: a path
# that ends at a collection reads only its size, and goes when an element
# field is read, so `count(jets, it.pt > 30.0)` reads ("jets", "pt").
# A cut's or a projection's `evaluate` runs the same kernel over one event,
# compiled on first call.


def _evaluator(form, **parts) -> Callable[[dict, list], tuple[float, int]]:
    """`run(event, columns)`: the kernel of `parts` over the one-event
    column set of `event`, encoded (which raises SchemaViolation unless it
    conforms) and decoded to the columns of `form.leaves`."""
    kernel = compile_kernel(**parts)
    codec = EventCodec(form.schema, form.leaves)

    def run(event: dict, columns: list) -> tuple[float, int]:
        return kernel((codec.decode_block(codec.encode(event), 1),), columns)

    return run

@dataclass(frozen=True)
class TypedCut:
    """A boolean expression compiled against a schema."""

    node: Expr
    schema: Schema
    leaves: frozenset[tuple[str, ...]]

    @cached_property
    def _kernel(self) -> Callable:
        return _evaluator(self, cut=self)

    def evaluate(self, event: dict) -> bool:
        return self._kernel(event, ())[1] == 1


@dataclass(frozen=True)
class TypedValue:
    """A numeric expression compiled against a schema."""

    node: Expr
    schema: Schema
    leaves: frozenset[tuple[str, ...]]


@dataclass(frozen=True)
class TypedProjection:
    """An ordered list of scalar columns compiled against a schema."""

    columns: tuple[tuple[str, str], ...]  # (name, kind)
    nodes: tuple[Expr, ...]
    schema: Schema
    leaves: frozenset[tuple[str, ...]]

    @cached_property
    def _kernel(self) -> Callable:
        return _evaluator(self, projection=self)

    def evaluate(self, event: dict) -> tuple:
        # plain lists take every value as it is computed, uncoerced
        columns = [[] for _ in self.nodes]
        self._kernel(event, columns)
        return tuple(column[0] for column in columns)


def typecheck_cut(expr: str | Expr, schema: Schema) -> TypedCut:
    """Type-check a cut against a schema and compile it for evaluation."""
    node = parse_expr(expr) if isinstance(expr, str) else expr
    checker = _Checker(schema)
    checker.clauses(node)
    return TypedCut(node, schema, leaf_set(checker.paths))


def typecheck_value(expr: str | Expr, schema: Schema) -> TypedValue:
    """Type-check a numeric expression against a schema, for a kernel to
    sum as a weight (`compile_kernel`)."""
    node = parse_expr(expr) if isinstance(expr, str) else expr
    checker = _Checker(schema)
    _, kind = checker.compile(node)
    if kind not in NUMERIC_KINDS:
        raise TypeMismatch(f"value must be numeric, got {kind}")
    return TypedValue(node, schema, leaf_set(checker.paths))


def typecheck_projection(columns, schema: Schema) -> TypedProjection:
    """Type-check projection columns [(name, expr), ...] against a schema.

    Only numeric columns are allowed: a boolean column raises
    `NonScalarProjection`, and a boolean inside arithmetic `TypeMismatch`.
    """
    checker = _Checker(schema)
    names: list[str] = []
    kinds: list[str] = []
    nodes: list[Expr] = []
    for name, expr in columns:
        if name in names:
            raise NonScalarProjection(f"duplicate projection column {name!r}")
        node = parse_expr(expr) if isinstance(expr, str) else expr
        _, kind = checker.compile(node)
        if kind == "bool":
            raise NonScalarProjection(f"column {name!r} is boolean, not a scalar value")
        names.append(name)
        kinds.append(kind)
        nodes.append(node)
    return TypedProjection(tuple(zip(names, kinds)), tuple(nodes), schema, leaf_set(checker.paths))


# -- the skim kernel -----------------------------------------------------------------


def compile_kernel(
    cut: TypedCut | None = None,
    projection: TypedProjection | None = None,
    weight: TypedValue | None = None,
) -> Callable[[Iterable[ColumnSet], list], tuple[float, int]]:
    """Write and compile one skim's loop: `kernel(blocks, columns)` runs
    over the events of `blocks`, column sets that hold at least the
    columns of the leaves the three read (`storage.codec`), and returns
    (the Kahan-compensated sum of `weight` over every event, 0.0 without
    a weight; the number of events that pass the cut) and appends each
    projected value of every event that passes the cut to its column in
    `columns`, one `array` per projection column in projection order, of
    the column's NTU typecode. For each event it first adds the weight,
    then tests the cut's top-level `and` clauses in source order, each
    computing only what it reads and stopping at the first that fails,
    and then appends the projected values, computed from what the clauses
    already read plus the rest. No cut passes every event; no projection
    appends nothing. A value that its column cannot hold (an integer
    constant beyond i64, say) raises `ArityMismatch`, as `NtuWriter` does."""
    parts = [part for part in (cut, projection, weight) if part is not None]
    if not parts:
        raise TypeMismatch("a kernel needs a cut, a projection or a weight")
    schema = parts[0].schema
    if any(part.schema != schema for part in parts):
        raise TypeMismatch("the cut, projection and weight were compiled against different schemas")
    checker = _Checker(schema)
    setup = ["total = 0.0", "comp = 0.0", "n = 0"]
    body: list[str] = []
    if weight is not None:
        src, _ = checker.compile(weight.node)
        body += checker.prelude()
        body += [f"y = {src} - comp", "t = total + y", "comp = (t - total) - y", "total = t"]
    if cut is not None:
        for prelude, test in checker.clauses(cut.node):
            body += prelude + [f"if not {test}:", "    continue"]
    body.append("n += 1")
    if projection is not None and projection.nodes:
        srcs = [checker.compile(node)[0] for node in projection.nodes]
        body += checker.prelude()
        appends = []
        for i, (node, src) in enumerate(zip(projection.nodes, srcs)):
            setup.append(f"put{i} = columns[{i}].append")
            if isinstance(node, (Arith, Neg)):
                # computed before the appends: only arithmetic can raise
                # while computing a value, and that error stays its own
                body.append(f"p{i} = {src}")
                src = f"p{i}"
            appends.append(f"put{i}({src})")
        body += [
            "try:",
            *("    " + line for line in appends),
            "except (TypeError, OverflowError) as exc:",
            "    raise ArityMismatch(f'row value does not match column kind: {exc}') from exc",
        ]
        checker.consts["ArityMismatch"] = ArityMismatch
    names = [var for var, _ in checker.zipped]
    if not names:
        head = "for _ in range(cs.count):"
    elif len(names) == 1:
        head = f"for {names[0]} in {checker.zipped[0][1]}:"
    else:
        head = f"for {', '.join(names)} in zip({', '.join(src for _, src in checker.zipped)}):"
    return _function(checker, "kernel", "blocks, columns", [
        *setup,
        "for cs in blocks:",
        *("    " + line for line in checker.block),
        "    " + head,
        *("        " + line for line in body),
        "return total, n",
    ])
