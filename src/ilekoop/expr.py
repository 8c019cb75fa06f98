"""Expression parsing and exact sparse polynomial algebra in two variables.

The grammar is deliberately small:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := number | variable | '(' expr ')' | '-' atom

No implicit multiplication and no function calls, so every expression that
parses lowers to an exact polynomial.  Sums and products are flat n-ary nodes,
and parentheses plus unary minus nest at most ``MAX_NESTING`` deep, so no
input exhausts the stack.  Polynomials are stored sparsely as a
map from exponent pairs to float coefficients.  Each operation adds its
coefficients in order and then drops those below ``CANONICAL_ZERO`` once, at
the end, which makes exact algebraic cancellations test as exactly zero; a
flat sum of n terms is one operation.  ``Poly2.evaluate`` runs generated
straight-line code, one kernel per term structure (:func:`_kernel_factory`);
:func:`_compile` compiles it and every other generated function of the
package.  ``format_float`` (17-digit output) lives here, away from numpy.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from itertools import accumulate, repeat

from .errors import NumericalError

# Coefficients below this magnitude are treated as exact zeros.
CANONICAL_ZERO = 1e-12

# to_polynomial refuses expansions beyond this total degree.
MAX_TOTAL_DEGREE = 64

# parse_expression refuses parentheses and unary minus nested deeper than this.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or lowering error; ``offset`` is the byte position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class _Record:
    """Base of the package's value records.  Each subclass lists its fields
    in ``__slots__`` and assigns them in ``__init__``; equality, hash and repr
    follow the fields, in the form a dataclass gives.  Records are immutable
    by convention, as ``Poly2`` is."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"


class Num(_Record):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class Var(_Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Neg(_Record):
    __slots__ = ("operand",)

    def __init__(self, operand: Expression):
        self.operand = operand


class Sum(_Record):
    """``first`` followed by ``rest``, a tuple of ``("+" | "-", term)`` pairs,
    applied left to right."""

    __slots__ = ("first", "rest")

    def __init__(self, first: Expression, rest: tuple):
        self.first = first
        self.rest = rest


class Product(_Record):
    """A tuple of two or more factors, multiplied left to right."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors


class Pow(_Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expression, exponent: int):
        self.base = base
        self.exponent = exponent


Expression = Num | Var | Neg | Sum | Product | Pow


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# One token after optional whitespace.  Any other character, and every
# non-ASCII one, is a "bad" token that raises only when the parser reaches it.
_TOKEN_RE = re.compile(r"""[ \t\r\n]*(?:
    (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op>[-+*^()])
  | (?P<end>\Z)
  | (?P<bad>.))""", re.ASCII | re.VERBOSE | re.DOTALL)


class _Tokens:
    """Token stream over the input text.  Tokens are (kind, text, offset),
    each scanned once."""

    def __init__(self, text: str):
        self.text = text
        self.next = self._scan(0)

    def _scan(self, pos: int):
        m = _TOKEN_RE.match(self.text, pos)
        kind = m.lastgroup
        return kind, m.group(kind), m.start(kind)

    def peek(self):
        kind, tok, offset = self.next
        if kind == "bad":
            raise ParseError("non-ASCII character" if not tok.isascii()
                             else f"unexpected character {tok!r}", offset)
        return self.next

    def take(self):
        token = self.peek()
        self.next = self._scan(token[2] + len(token[1]))
        return token


def parse_expression(text: str, variables: tuple[str, ...] = ("x", "y")) -> Expression:
    """Parse ``text`` into an AST.

    ``variables`` lists the admissible variable names (default ``x`` and
    ``y``); any other identifier is rejected.  Raises :class:`ParseError`
    with the byte offset of the offending token.
    """
    if not text:
        raise ParseError("empty expression", 0)
    toks = _Tokens(text)
    node = _parse_sum(toks, variables, 0)
    kind, tok, offset = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {tok!r}", offset)
    return node


def _parse_sum(toks, variables, depth):
    first, rest = _parse_term(toks, variables, depth), []
    while toks.peek()[:2] in (("op", "+"), ("op", "-")):
        rest.append((toks.take()[1], _parse_term(toks, variables, depth)))
    return Sum(first, tuple(rest)) if rest else first


def _parse_term(toks, variables, depth):
    factors = [_parse_factor(toks, variables, depth)]
    while toks.peek()[:2] == ("op", "*"):
        toks.take()
        factors.append(_parse_factor(toks, variables, depth))
    return Product(tuple(factors)) if len(factors) > 1 else factors[0]


def _parse_factor(toks, variables, depth):
    node = _parse_atom(toks, variables, depth)
    if toks.peek()[:2] == ("op", "^"):
        toks.take()
        kind, tok, offset = toks.peek()
        if kind == "op" and tok == "-":
            raise ParseError("negative exponent", offset)
        if kind != "num":
            raise ParseError("expected integer exponent after '^'", offset)
        if not tok.isdigit():
            raise ParseError("exponent must be a non-negative integer literal", offset)
        # A larger exponent fails the degree cap on any non-constant base,
        # and on a constant one it would only cost time.
        if len(tok.lstrip("0")) > 3 or int(tok) > MAX_TOTAL_DEGREE:
            raise ParseError(f"exponent exceeds the total degree cap {MAX_TOTAL_DEGREE}", offset)
        toks.take()
        node = Pow(node, int(tok))
    return node


def _parse_atom(toks, variables, depth):
    kind, tok, offset = toks.peek()
    if kind == "num":
        toks.take()
        value = float(tok)
        if not math.isfinite(value):
            raise ParseError(f"number {tok!r} overflows a double", offset)
        return Num(value)
    if kind == "name":
        if tok not in variables:
            raise ParseError(f"unknown identifier {tok!r}", offset)
        toks.take()
        return Var(tok)
    if kind == "op" and tok in "(-" and depth >= MAX_NESTING:
        raise ParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING}", offset)
    if kind == "op" and tok == "(":
        toks.take()
        node = _parse_sum(toks, variables, depth + 1)
        kind, tok, offset = toks.peek()
        if not (kind == "op" and tok == ")"):
            raise ParseError("expected ')'", offset)
        toks.take()
        return node
    if kind == "op" and tok == "-":
        toks.take()
        return Neg(_parse_atom(toks, variables, depth + 1))
    raise ParseError(f"expected number, variable, '(' or '-', got {tok!r}", offset)


# ---------------------------------------------------------------------------
# Printing and evaluation of ASTs
# ---------------------------------------------------------------------------

def to_text(e: Expression) -> str:
    """Render an AST so that re-parsing reproduces the same structure."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _operand(e.operand, (Num, Var, Neg))
    if isinstance(e, Pow):
        return _operand(e.base, (Num, Var, Neg)) + "^" + str(e.exponent)
    if isinstance(e, Product):
        return "*".join(_operand(f, (Num, Var, Neg, Pow)) for f in e.factors)
    if isinstance(e, Sum):
        terms = (Num, Var, Neg, Pow, Product)
        return _operand(e.first, terms) + "".join(f" {op} {_operand(t, terms)}" for op, t in e.rest)
    raise TypeError(f"not an expression node: {e!r}")


def _operand(e: Expression, bare: tuple) -> str:
    # Node types outside ``bare`` are parenthesized so that re-parsing
    # reproduces the same tree.
    return to_text(e) if isinstance(e, bare) else "(" + to_text(e) + ")"


def eval_expression(e: Expression, env: dict[str, float]) -> float:
    """Evaluate an AST directly, without lowering to a polynomial."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -eval_expression(e.operand, env)
    if isinstance(e, Sum):
        out = eval_expression(e.first, env)
        for op, term in e.rest:
            value = eval_expression(term, env)
            out = out + value if op == "+" else out - value
        return out
    if isinstance(e, Product):
        return functools.reduce(operator.mul, (eval_expression(f, env) for f in e.factors))
    if isinstance(e, Pow):
        return eval_expression(e.base, env) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Sparse bivariate polynomials
# ---------------------------------------------------------------------------

def _canon(terms: dict) -> dict:
    # NaN is kept, not dropped, so that non-finite results stay visible.
    return {ij: c for ij, c in terms.items() if not abs(c) < CANONICAL_ZERO}


def _collect(pairs=(), out: dict | None = None) -> "Poly2":
    """The one place where coefficients are summed: add the ``((i, j), c)``
    pairs into ``out`` (a new dict by default, else one the caller hands
    over) in order, then drop the sums below ``CANONICAL_ZERO`` once and wrap
    the result as a ``Poly2`` without copying it again."""
    out = {} if out is None else out
    for ij, c in pairs:
        out[ij] = out.get(ij, 0.0) + c
    p = Poly2.__new__(Poly2)
    p._terms, p._kernel = _canon(out), None
    return p


def _shape(terms) -> tuple[tuple[int, int, bool], ...]:
    """Code-generator cache key of sorted ``((i, j), c)`` terms."""
    return tuple((i, j, c == 1.0) for (i, j), c in terms)


def _eval_lines(shapes, outs, xv: str, yv: str) -> list[str]:
    """Source that evaluates component m into ``outs[m]`` at ``(xv, yv)``:
    power ladders shared by all components (x2 = x*x, x3 = x2*x, ...), then
    0.0 + c*x^i*y^j in sorted term order with factors of exactly 1.0 left
    out (which changes no bit), 64 terms per statement at most so that the
    compiler's nesting stays shallow.  Every statement is also valid C."""
    lines = [f"{v}{k} = {v}{k - 1 if k > 2 else ''} * {v}" for d, v in enumerate((xv, yv))
             for k in range(2, max((t[d] for s in shapes for t in s), default=0) + 1)]
    for m, (out, shape) in enumerate(zip(outs, shapes)):
        parts = ["0.0"] + [" * ".join(([] if unit else [f"c{m}_{n}"]) + [
            f"{v}{e if e > 1 else ''}" for v, e in ((xv, i), (yv, j)) if e] or ["1.0"])
            for n, (i, j, unit) in enumerate(shape)]
        lines += [f"{out} = {out + ' + ' if k else ''}{' + '.join(parts[k:k + 64])}"
                  for k in range(0, len(parts), 64)]
    return lines


def _compile(shapes: tuple, head: str, body: list, **names):
    """The one place where generated source is compiled: a factory that binds
    the coefficients c<m>_<n> of the term structures ``shapes`` in a closure,
    so they never enter the source, and returns the function ``head`` whose
    statements are ``body``.  ``names`` are the globals the body calls."""
    args = [f"c{m}_{n}" for m, shape in enumerate(shapes) for n in range(len(shape))]
    src = (f"def factory({', '.join(args)}):\n    def {head}:\n"
           + "".join(f"        {line}\n" for line in body)
           + f"    return {head[:head.index('(')]}\n")
    exec(compile(src, "<ilekoop generated>", "exec"), names)
    return names["factory"]


@functools.lru_cache(maxsize=256)
def _kernel_factory(shapes: tuple):
    """The factory of ``kernel(x, y)``, the straight-line code (see
    :func:`_eval_lines`) of the one term structure in ``shapes``."""
    return _compile(shapes, "kernel(x, y)", _eval_lines(shapes, ["s"], "x", "y") + ["return s"])


class Poly2:
    """Sparse polynomial in two variables with float coefficients.

    Terms map ``(i, j)`` to the coefficient of ``x^i * y^j``.  Instances are
    immutable by convention: every operation returns a new polynomial.
    """

    __slots__ = ("_terms", "_kernel")

    def __init__(self, terms: dict | None = None):
        self._terms = _canon(terms) if terms else {}
        self._kernel = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def constant(cls, c: float) -> "Poly2":
        return cls({(0, 0): float(c)})

    @classmethod
    def x(cls) -> "Poly2":
        return cls({(1, 0): 1.0})

    @classmethod
    def y(cls) -> "Poly2":
        return cls({(0, 1): 1.0})

    @classmethod
    def monomial(cls, i: int, j: int, c: float = 1.0) -> "Poly2":
        return cls({(int(i), int(j)): float(c)})

    # -- inspection --------------------------------------------------------

    def items_sorted(self) -> list[tuple[tuple[int, int], float]]:
        return sorted(self._terms.items())

    def coefficients(self) -> dict[tuple[int, int], float]:
        return dict(self._terms)

    def coeff(self, i: int, j: int) -> float:
        return self._terms.get((i, j), 0.0)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def max_coeff_diff(self, other: "Poly2") -> float:
        keys = set(self._terms) | set(other._terms)
        return max((abs(self.coeff(*ij) - other.coeff(*ij)) for ij in keys), default=0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.items_sorted()))

    def __repr__(self):
        return f"Poly2({dict(self.items_sorted())!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        return _collect(other._terms.items(), dict(self._terms))

    def __sub__(self, other: "Poly2") -> "Poly2":
        out = dict(self._terms)
        for ij, c in other._terms.items():
            out[ij] = out.get(ij, 0.0) - c
        return _collect(out=out)

    def __neg__(self) -> "Poly2":
        return _collect(out={ij: -c for ij, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly2):
            return _collect(out={ij: c * other for ij, c in self._terms.items()})
        out: dict = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                ij = (i1 + i2, j1 + j2)
                out[ij] = out.get(ij, 0.0) + c1 * c2
        return _collect(out=out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Poly2":
        """``p ** n`` as lowering expands it (:func:`_power`): past total
        degree ``MAX_TOTAL_DEGREE`` it raises ValueError."""
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n)

    def diff(self, var: str) -> "Poly2":
        """Exact partial derivative with respect to ``"x"`` or ``"y"``."""
        # distinct terms have distinct derivatives, so nothing is summed
        if var == "x":
            return _collect(out={(i - 1, j): c * i for (i, j), c in self._terms.items() if i})
        if var == "y":
            return _collect(out={(i, j - 1): c * j for (i, j), c in self._terms.items() if j})
        raise ValueError(f"unknown variable {var!r}")

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x, y=0.0):
        """Value at ``(x, y)``: floats give a float, float arrays an array
        (a float if the polynomial is free of both, which broadcasts).

        Both run the same generated kernel (see :func:`_kernel_factory`),
        built on first use, so per-element results are bit-identical."""
        kernel = self._kernel
        if kernel is None:
            terms = self.items_sorted()
            kernel = self._kernel = _kernel_factory((_shape(terms),))(*(c for _, c in terms))
        return kernel(x, y)

    # Kept only for bench/layers.py, which patches this name; ROADMAP item 6
    # deletes it with that patch.
    eval_array = evaluate

    # -- substitution ---------------------------------------------------------

    def affine_substitute(self, m, b) -> "Poly2":
        """Return ``p(m11*X + m12*Y + b1, m21*X + m22*Y + b2)`` expanded in the
        new variables ``(X, Y)``.  ``m`` may be singular."""
        (m11, m12), (m21, m22) = m
        b1, b2 = b
        lin_x = Poly2({(1, 0): float(m11), (0, 1): float(m12), (0, 0): float(b1)})
        lin_y = Poly2({(1, 0): float(m21), (0, 1): float(m22), (0, 0): float(b2)})
        max_i = max((i for i, _ in self._terms), default=0)
        max_j = max((j for _, j in self._terms), default=0)
        px = list(accumulate(repeat(lin_x, max_i), operator.mul, initial=Poly2.constant(1.0)))
        py = list(accumulate(repeat(lin_y, max_j), operator.mul, initial=Poly2.constant(1.0)))
        return _collect(term for (i, j), c in self.items_sorted()
                        for term in (c * (px[i] * py[j]))._terms.items())

    # -- serialization ---------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        return [{"i": i, "j": j, "c": c} for (i, j), c in self.items_sorted()]

    @classmethod
    def from_json_terms(cls, items) -> "Poly2":
        """Inverse of :meth:`to_json_terms`.  Raises ValueError unless every
        term has int exponents ``i, j >= 0`` with ``i + j <= MAX_TOTAL_DEGREE``
        and the summed coefficients are finite numbers."""
        terms = []
        for item in items:
            i, j, c = (item.get(k) for k in "ijc") if isinstance(item, dict) else (None,) * 3
            if not all(type(e) is int and e >= 0 for e in (i, j)):
                raise ValueError(f"field term needs non-negative integers i and j: {item!r}")
            if i + j > MAX_TOTAL_DEGREE:
                raise ValueError(f"term degree exceeds {MAX_TOTAL_DEGREE}: {item!r}")
            c = float(c) if type(c) is int and abs(c) < 2**1023 else c
            if type(c) is not float:
                raise ValueError(f"term coefficient must be a finite number: {item!r}")
            terms.append(((i, j), c))
        return _finite(_collect(terms))


def to_polynomial(e: Expression, variables: tuple[str, ...] = ("x", "y")) -> Poly2:
    """Lower an AST to a fully expanded canonical polynomial.

    The first entry of ``variables`` maps to the x-slot, the second (if any)
    to the y-slot.  Expansions past total degree ``MAX_TOTAL_DEGREE`` are
    rejected.
    """
    slots = {name: idx for idx, name in enumerate(variables)}

    def lower(node: Expression) -> Poly2:
        if isinstance(node, Num):
            return Poly2.constant(node.value)
        if isinstance(node, Var):
            idx = slots[node.name]
            return Poly2.x() if idx == 0 else Poly2.y()
        if isinstance(node, Neg):
            return -lower(node.operand)
        if isinstance(node, Sum):
            return _collect((ij, c if op == "+" else -c)
                            for op, term in (("+", node.first), *node.rest)
                            for ij, c in lower(term)._terms.items())
        if isinstance(node, Product):
            return functools.reduce(_checked_product, map(lower, node.factors))
        if isinstance(node, Pow):
            return _power(lower(node.base), node.exponent)
        raise TypeError(f"not an expression node: {node!r}")

    return _finite(lower(e))


def _checked_product(a: Poly2, b: Poly2) -> Poly2:
    p = a * b
    if p.degree() > MAX_TOTAL_DEGREE:
        raise ValueError(f"polynomial expansion exceeds total degree {MAX_TOTAL_DEGREE}")
    return p


def _power(p: Poly2, n: int) -> Poly2:
    """Fold ``_checked_product`` over n copies of ``p`` from 1.0; a lone term skips Poly2s."""
    if len(p._terms) != 1:
        return functools.reduce(_checked_product, repeat(p, n), Poly2.constant(1.0))
    ((i, j), c), = p._terms.items()
    r = 1.0
    for k in range(1, n + 1):
        r *= c  # 0.0 + r * c differs only at -0.0, which falls below the cutoff
        if abs(r) < CANONICAL_ZERO:
            return Poly2()
        if k * (i + j) > MAX_TOTAL_DEGREE:
            raise ValueError(f"polynomial expansion exceeds total degree {MAX_TOTAL_DEGREE}")
    return _collect(out={(n * i, n * j): r})


def _finite(p: Poly2) -> Poly2:
    if not all(math.isfinite(c) for c in p._terms.values()):
        raise ValueError(f"polynomial has a non-finite coefficient: {p!r}")
    return p


def parse_polynomial(text: str, variables: tuple[str, ...] = ("x", "y")) -> Poly2:
    """Parse and lower in one step."""
    return to_polynomial(parse_expression(text, variables), variables)


def format_float(v: float) -> str:
    """17 significant digits, enough to reproduce any double exactly."""
    if not math.isfinite(v):
        raise NumericalError(f"a result is not finite ({v!r})")
    return f"{v:.17g}"
