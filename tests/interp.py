"""A direct interpreter of expression syntax trees, for tests only.

Written from the semantics the grammar pins (see the `skimflow.expr`
module docstring), not from the code that compiles expressions:

  * a comparison widens both operands to f64 first; any comparison
    involving NaN is false, `!=` included
  * arithmetic widens both operands to f64; x/0 follows IEEE-754
  * `count` and `size` are ints; `max`/`min`/`sum` are f64, and 0.0 over an
    empty collection
  * `sum` adds the element values in order, starting from 0.0
  * `max`/`min` fold over the elements in order, keeping the running
    extreme unless a later value compares strictly beyond it (so, as every
    comparison with NaN is false, a NaN is kept only when it comes first)
  * a field path yields the stored value as it is
"""

from __future__ import annotations

import math
import operator

from skimflow.expr import Arith, BoolOp, Compare, Const, Count, Field, Neg, Not, Reduce, Size

_COMPARE = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def _divide(a: float, b: float) -> float:
    if b != 0.0:
        return a / b
    if math.isnan(a) or a == 0.0:
        return math.nan
    # a nonzero over a signed zero: infinite, with the product of the signs
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _lookup(value, path):
    for name in path:
        value = value[name]
    return value


def interpret(node, event: dict, item: dict | None = None):
    """The value of `node` for `event`; `item` is the element `it` names."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Field):
        if node.path[0] == "it":
            return _lookup(item, node.path[1:])
        return _lookup(event, node.path)
    if isinstance(node, Compare):
        a = float(interpret(node.left, event, item))
        b = float(interpret(node.right, event, item))
        if math.isnan(a) or math.isnan(b):
            return False
        return _COMPARE[node.op](a, b)
    if isinstance(node, BoolOp):
        if node.op == "and":
            return all(interpret(x, event, item) for x in node.items)
        return any(interpret(x, event, item) for x in node.items)
    if isinstance(node, Not):
        return not interpret(node.item, event, item)
    if isinstance(node, Arith):
        a = float(interpret(node.left, event, item))
        b = float(interpret(node.right, event, item))
        return _ARITH[node.op](a, b)
    if isinstance(node, Neg):
        return -float(interpret(node.item, event, item))
    if isinstance(node, Size):
        return len(_lookup(event, node.coll))
    if isinstance(node, Count):
        return sum(1 for x in _lookup(event, node.coll) if interpret(node.pred, event, x))
    if isinstance(node, Reduce):
        values = [x[node.field] for x in _lookup(event, node.coll)]
        if node.op == "sum":
            total = 0.0
            for v in values:
                total = total + v
            return total
        if not values:
            return 0.0
        beyond = operator.gt if node.op == "max" else operator.lt
        best = values[0]
        for v in values[1:]:
            if beyond(v, best):
                best = v
        return float(best)
    raise TypeError(f"not an expression node: {node!r}")
