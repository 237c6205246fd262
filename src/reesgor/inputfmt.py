"""Line-oriented input documents and flat key-value reports.

Grammar (one directive per line, blank lines and #-comments ignored):

    ring <name>
    char <p>            (0 means exact rationals)
    vars x:2 y:1 ...
    ideal f1, f2, ...
    params p1, p2
    power <n>

Polynomial expressions use + - * ^ with integer coefficients and
parentheses.  Every integer is ASCII digits, in a directive after an
optional minus (`read_int`).  Parse errors carry 1-based line and column
positions.  A document is checked before any ring is built: ring, char
and power appear at most once, the characteristic is 0 or a prime,
variable names are distinct, the power is 1 to MAX_POWER, every
generator is homogeneous and no ideal generator is a nonzero constant.
"""

import re
from math import comb, lcm

from .errors import InputError
from .fields import DEFAULT_PRIME, PRIME_BOUND, Field
from .polys import PolyRing
from . import rings


# the oracle at power n presents R(q^n) on every degree-n monomial of q:
# `oracle` on two_planes took 0.4 s at n = 6, 2.7 s at 8, 9.2 s at 9 and
# 25 s at 10, and on hochster_roberts 0.5 s, 3.4 s, 11 s and 33 s (wall
# time, CPython 3.11, one core)
MAX_POWER = 10


class InputDocument:
    def __init__(self):
        self.name = None
        self.char = DEFAULT_PRIME
        self.vars = []            # list of (name, weight)
        self.ideal_exprs = []     # raw strings, kept for round-tripping
        self.param_exprs = []
        self.power = None
        self.ideal_pos = []       # source (line, col) per expression,
        self.param_pos = []       # when parsed

    def build(self, char_override=None):
        """Materialize (PresentedGradedRing, q: Ideal, power or None)."""
        if not self.vars:
            raise InputError("no vars directive")
        char = self.char if char_override is None else char_override
        names, weights = zip(*self.vars)
        ambient = PolyRing(names, weights, _field(char))
        # _generators tests each generator homogeneous first, where its
        # position is known, for the error message
        A = rings.PresentedGradedRing(
            ambient, _generators(ambient, self.ideal_exprs, self.ideal_pos,
                                 proper=True), label=self.name)
        params = _generators(ambient, self.param_exprs, self.param_pos)
        q = rings.Ideal(A, params) if params else None
        return A, q, self.power


def _field(char, line=None, col=None):
    """The coefficient field of characteristic char: QQ for 0, else GF,
    which `Field` tests prime; InputError, at line and col when given,
    otherwise."""
    try:
        return Field(char)
    except ValueError as err:
        if char >= PRIME_BOUND:
            raise InputError("characteristic %d is too large: %s"
                             % (char, err), line, col) from None
        raise InputError("characteristic must be 0 or a prime, got %d"
                         % char, line, col) from None


def _generators(ring, exprs, positions, proper=False):
    """The expressions parsed into ring, each checked homogeneous and,
    when proper, not a nonzero constant, which generates the unit ideal."""
    out = []
    for e, (line, col) in zip(exprs, positions or [(None, 1)] * len(exprs)):
        f = parse_poly(e, ring, line=line, col=col)
        if not f.is_homogeneous():
            raise InputError("inhomogeneous generator %s" % e, line, col)
        if proper and not f.is_zero() and f.lead_exp() == ring.zero_exp:
            raise InputError("constant generator %s makes the ideal the "
                             "unit ideal" % e, line, col)
        out.append(f)
    return out


def read_int(text):
    """The value of ASCII digits after an optional minus; a ValueError for
    all else, such as `1_0`, `+1`, ` 1` or `\uff13`, which int() accepts."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError("invalid int value: %r" % text)
    return int(text)


def _items(raw, key, pattern):
    """(item, 1-based column) of each match of pattern after the directive
    key in the raw line, comments left out."""
    body = raw.split("#", 1)[0]
    end = body.index(key) + len(key)
    return [(m.group().rstrip(), end + m.start() + 1)
            for m in re.finditer(pattern, body[end:])]


def parse_document(text):
    doc = InputDocument()
    once = set()    # the single-valued directives read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        col = raw.index(key) + 1
        if key in once:
            raise InputError("duplicate %s directive" % key, lineno, col)
        once |= {key} & {"ring", "char", "power"}
        if key == "ring":
            doc.name = rest.strip()
        elif key == "char":
            try:
                doc.char = read_int(rest.strip())
            except ValueError:
                raise InputError("char expects an integer", lineno, col)
            _field(doc.char, lineno, col)
        elif key == "vars":
            for item, icol in _items(raw, key, r"\S+"):
                if ":" in item:
                    name, _, w = item.partition(":")
                    try:
                        weight = read_int(w)
                    except ValueError:
                        raise InputError("bad weight in %r" % item, lineno,
                                         icol)
                else:
                    name, weight = item, 1
                if not name.isidentifier():
                    raise InputError("bad variable name %r" % name, lineno,
                                     icol)
                if name in dict(doc.vars):
                    raise InputError("duplicate variable %r" % name, lineno,
                                     icol)
                if weight <= 0:
                    raise InputError("weight must be positive", lineno, icol)
                doc.vars.append((name, weight))
        elif key in ("ideal", "params"):
            exprs, pos = ((doc.ideal_exprs, doc.ideal_pos) if key == "ideal"
                          else (doc.param_exprs, doc.param_pos))
            for expr, icol in _items(raw, key, r"[^,\s][^,]*"):
                exprs.append(expr)
                pos.append((lineno, icol))
        elif key == "power":
            try:
                doc.power = read_int(rest.strip())
            except ValueError:
                raise InputError("power expects an integer", lineno, col)
            if doc.power < 1:
                raise InputError("power must be at least 1", lineno, col)
            if doc.power > MAX_POWER:
                raise InputError("power above %d" % MAX_POWER, lineno, col)
        else:
            raise InputError("unknown directive %r" % key, lineno, col)
    return doc


def print_document(doc):
    out = []
    if doc.name:
        out.append("ring %s" % doc.name)
    out.append("char %d" % doc.char)
    out.append("vars %s" % " ".join("%s:%d" % (n, w) for n, w in doc.vars))
    if doc.ideal_exprs:
        out.append("ideal %s" % ", ".join(doc.ideal_exprs))
    if doc.param_exprs:
        out.append("params %s" % ", ".join(doc.param_exprs))
    if doc.power is not None:
        out.append("power %d" % doc.power)
    return "\n".join(out) + "\n"


# -- polynomial expression parsing ----------------------------------------

_TOKEN = re.compile(r"([0-9]+(?:/[0-9]+)?)|([^\W\d]\w*)|([-+*^()])|(\S)")
MAX_NESTING = 100
MAX_POWER_TERMS = 500
# x^N*y reduced by a linear parameter passes through N-term intermediates:
# `check` on k[x,y,z]/(x^N*y) with q = (x+y, z) took 0.25 s at N = 1000
# and 1.9 s and 37 MB at N = 10^4 (CPython 3.11, one core), and grows with
# N; 1000 keeps every such reduction short and still reads `x^1000`
MAX_EXPONENT = 1000
# CPython converts at most 4300 digits between int and str: a 5000-digit
# literal ended `invariants`, and over QQ a parameter x + (3^1000)^10*u
# ended `check`, in a ValueError traceback; ((2^1000)^1000)^100 took 0.91 s
# and 70 MB to form, and a 1000-bit coefficient's 14th power still prints
MAX_DIGITS = 100
MAX_COEFF_BITS = 1000


def parse_poly(expr, ring, line=None, col=1):
    """Parse a polynomial expression into the given ring; `col` is the
    expression's column in its line.  _TOKEN reads an ASCII integer or
    fraction c/d (c d^-1 over GF(p), where d must not vanish), a name, an
    operator or any other character, which is an error; parentheses nest
    at most MAX_NESTING deep; a power f^n of a k-term f, with up to
    comb(n + k - 1, n) terms, and a product f*g, with up to len(f) *
    len(g) terms, each have at most MAX_POWER_TERMS; no written exponent,
    and no exponent of a variable in the result, exceeds MAX_EXPONENT; no
    literal has over MAX_DIGITS digits and, over QQ, no numerator or
    denominator of a power or product can pass 2^MAX_COEFF_BITS."""
    index = {name: i for i, name in enumerate(ring.names)}
    rational = not ring.field.p

    def err(msg, pos):
        raise InputError(msg, line or 1, pos + col)

    toks = []
    for m in _TOKEN.finditer(expr):
        num, name, op, other = m.groups()
        if other is not None:
            err("unexpected character %r" % other, m.start())
        if num is not None and len(num) > MAX_DIGITS:
            err("integer longer than %d digits" % MAX_DIGITS, m.start())
        c, _, d = (num or "").partition("/")
        if d and not ring.field.of(int(d)):
            err("zero denominator", m.start() + len(c) + 1)
        toks.append((op, op, m.start()) if op is not None
                    else ("name", name, m.start()) if name is not None
                    else ("int", int(c), m.start()) if not d
                    else ("c/d", int(c) * ring.field.inv(int(d)), m.start()))
    toks.append(("end", None, len(expr)))
    toks.reverse()      # a stack: the next token is last
    depth = 0

    def atom():
        nonlocal depth
        kind, val, pos = toks.pop()
        if kind in ("int", "c/d"):
            return ring.const(val)
        if kind == "name":
            if val not in index:
                err("unknown variable %r" % val, pos)
            return ring.gen(index[val])
        if kind == "(":
            if depth == MAX_NESTING:
                err("parentheses nested deeper than %d" % MAX_NESTING, pos)
            depth += 1
            f = expr_sum()
            depth -= 1
            kind2, _, pos2 = toks.pop()
            if kind2 != ")":
                err("expected ')'", pos2)
            return f
        if kind == "end":
            err("unexpected end of expression", pos)
        err("unexpected token %r" % (val,), pos)

    def bits(f):    # log2 of D |D f|_1, D the lcm of the denominators: it
        if not rational:    # bounds every numerator and denominator of f
            return 0        # and is additive under *
        D = lcm(*(c.denominator for _, c in f.terms))
        return int(D * D * sum(abs(c) for _, c in f.terms) - 1).bit_length()

    def bounded(f, pos):
        if max((max(e) for e, _ in f.terms), default=0) > MAX_EXPONENT:
            err("exponent above %d" % MAX_EXPONENT, pos)
        return f

    def power():
        f = atom()
        while toks[-1][0] == "^":
            toks.pop()
            kind, val, pos = toks.pop()
            if kind != "int":
                err("exponent must be an integer", pos)
            if val > MAX_EXPONENT:
                err("exponent above %d" % MAX_EXPONENT, pos)
            k = len(f.terms)
            if k > 1 and comb(val + k - 1, val) > MAX_POWER_TERMS:
                err("power expands past %d terms" % MAX_POWER_TERMS, pos)
            if val * bits(f) > MAX_COEFF_BITS:
                err("power has coefficients past %d bits" % MAX_COEFF_BITS,
                    pos)
            f = bounded(f ** val, pos)
        return f

    def product():
        f = power()
        while True:
            kind, _, pos = toks[-1]
            if kind == "*":
                toks.pop()
            elif kind not in ("name", "(", "int", "c/d"):  # 2x, x y
                return f
            g = power()
            if len(f.terms) * len(g.terms) > MAX_POWER_TERMS:
                err("product expands past %d terms" % MAX_POWER_TERMS, pos)
            if bits(f) + bits(g) > MAX_COEFF_BITS:
                err("product has coefficients past %d bits" % MAX_COEFF_BITS,
                    pos)
            f = bounded(f * g, pos)

    def expr_sum():
        sign = toks.pop()[0] if toks[-1][0] in ("+", "-") else "+"
        f = product() if sign == "+" else -product()
        while toks[-1][0] in ("+", "-"):
            sign = toks.pop()[0]
            f = f + product() if sign == "+" else f - product()
        return f

    f = expr_sum()
    kind, val, pos = toks[-1]
    if kind != "end":
        err("trailing input %r" % (val,), pos)
    return f


# -- report serialization --------------------------------------------------

def format_report(pairs, narrative):
    """Flat one-fact-per-line document from (key, value) pairs, then a
    blank line and each narrative line as a `#` comment."""
    lines = []
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append("%s = %s" % (key, value))
    lines += [""] + ["# %s" % ln for ln in narrative]
    return "\n".join(lines) + "\n"


def parse_report(text):
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" = ")
        out[key] = value
    return out
