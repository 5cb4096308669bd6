"""Batch front end: a small declaration language with deterministic output.

A script declares a ring, binds ideals or modules, and runs commands against
the bindings.  A name starts with a letter or `_` and goes on with letters,
digits and `_`; an integer is a run of ASCII digits; `//` starts a comment
that runs to the end of the line; a string is double-quoted on one line.
Blanks, tabs and carriage returns only separate tokens.

Output is readable text or a JSON array with one object per command, each a
{"command", "input"} record that its verb extends with text from
`decompose.rendered_generators`, so no JSON reader can lose precision.  It
always runs seed 0.  Exit codes: 0 success, 1 parse or input error (such as a
`--bound` below 1 or an input term of degree 2^62), 2 computational failure
(such as a computed term of degree 2^62).
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .decompose import (
    DecompositionError,
    localize_module,
    min_ass,
    primary_decomposition,
    rendered_generators,
)
from .groebner import annihilator, buchberger, canonical
from .homology import HomologyError, equidim_hull
from .polyring import (
    DEGREVLEX,
    LEX,
    FreeElement,
    MonomialOrder,
    RingContext,
    RingError,
    Submodule,
    _Value,
    ideal,
)
from .verify import validate_decomposition


class ScriptError(Exception):
    """Input-level failure: syntax, unknown identifier, unusable file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

# one alternative per token kind, tried in order, and last the one character
# that begins no token; a word led by an ASCII digit reads as an integer first
_TOKEN = re.compile(
    r'(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>//.*)|"(?P<string>[^"\n]*)"'
    r"|(?P<int>[0-9]+)|(?P<name>\w+)|(?P<sym>[=,;()\[\]+\-*^/.])|(?P<bad>.)"
)
# each parenthesis costs the recursive-descent parser four stack frames
_MAX_NESTING = 100


Token = namedtuple("Token", "kind text line col")


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start, m = 1, 0, None
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        # \w, like str.isalnum, takes numerals such as '²' that start no name
        elif kind == "bad" or kind == "name" and not (m[0][0].isalpha() or m[0][0] == "_"):
            ch = m[0][0]
            message = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
            raise ScriptError(message, line, m.start() - line_start + 1)
        elif kind != "blank" and kind != "comment":
            toks.append(Token(kind, m[kind], line, m.start() - line_start + 1))
    # the end of input after a comment sits where the comment starts
    stop = m.start() if m is not None and m.lastgroup == "comment" else len(source)
    toks.append(Token("end", "", line, stop - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class Command(_Value):
    __slots__ = _fields = ("verb", "shown_input", "module", "extra_module", "file_arg")

    def __init__(self, verb, shown_input, module, extra_module=None, file_arg=None):
        self._fill(verb, shown_input, module, extra_module, file_arg)


class Script(_Value):
    # the commands in script order; declarations only bind names while parsing
    __slots__ = _fields = ("statements",)

    def __init__(self, statements: tuple[Command, ...]):
        self._fill(statements)


# wp, and only wp, reads one positive weight per variable
_ORDERS = {"dp": DEGREVLEX, "lp": LEX, "wp": None}
_COMMAND_VERBS = ("primdec", "hull", "minass", "localize", "validate")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.depth = 0
        self.ring: RingContext | None = None
        self.bindings: dict[str, Submodule] = {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == text

    def expect_sym(self, text: str) -> Token:
        t = self.advance()
        if t.kind != "sym" or t.text != text:
            raise ScriptError(f"expected {text!r}", t.line, t.col)
        return t

    def expect_name(self) -> Token:
        t = self.advance()
        if t.kind != "name":
            raise ScriptError("expected an identifier", t.line, t.col)
        return t

    def expect_int(self) -> int:
        t = self.advance()
        if t.kind != "int":
            raise ScriptError("expected an integer", t.line, t.col)
        return int(t.text)

    def comma_list(self, read_item) -> list:
        """One or more items read by read_item, separated by commas."""
        items = [read_item()]
        while self.at_sym(","):
            self.advance()
            items.append(read_item())
        return items

    def require_ring(self, tok: Token) -> RingContext:
        if self.ring is None:
            raise ScriptError("no ring declared yet", tok.line, tok.col)
        return self.ring

    def lookup(self, tok: Token) -> Submodule:
        if tok.text not in self.bindings:
            raise ScriptError(f"unknown identifier {tok.text!r}", tok.line, tok.col)
        return self.bindings[tok.text]

    # -- polynomials --------------------------------------------------------

    def parse_polynomial(self) -> FreeElement:
        ring = self.require_ring(self.peek())
        sign = 1
        if self.at_sym("+") or self.at_sym("-"):
            if self.advance().text == "-":
                sign = -1
        acc = self._parse_term(ring)
        if sign < 0:
            acc = -acc
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance().text
            term = self._parse_term(ring)
            acc = acc + term if op == "+" else acc - term
        return acc

    def _parse_term(self, ring: RingContext) -> FreeElement:
        start = self.peek()
        try:
            acc = self._parse_factor(ring)
            while self.at_sym("*"):
                self.advance()
                acc = acc * self._parse_factor(ring)
        except RingError as exc:  # a degree beyond the order keys' bound
            raise ScriptError(str(exc), start.line, start.col) from None
        return acc

    def _parse_factor(self, ring: RingContext) -> FreeElement:
        base = self._parse_base(ring)
        if self.at_sym("^"):
            self.advance()
            return base ** self.expect_int()
        return base

    def _parse_base(self, ring: RingContext) -> FreeElement:
        t = self.advance()
        if t.kind == "name":
            try:
                return ring.variable(ring.var_index(t.text))
            except KeyError:
                raise ScriptError(f"unknown variable {t.text!r}", t.line, t.col)
        if t.kind == "int":
            num = int(t.text)
            if self.at_sym("/"):
                self.advance()
                den = self.expect_int()
                if den == 0:
                    raise ScriptError("zero denominator", t.line, t.col)
                return ring.constant(Fraction(num, den))
            return ring.constant(num)
        if t.kind == "sym" and t.text == "(":
            if self.depth == _MAX_NESTING:
                raise ScriptError(
                    f"parentheses nested deeper than {_MAX_NESTING}", t.line, t.col
                )
            self.depth += 1
            p = self.parse_polynomial()
            self.expect_sym(")")
            self.depth -= 1
            return p
        raise ScriptError("expected a polynomial", t.line, t.col)

    def _parse_vector(self) -> FreeElement:
        self.expect_sym("[")
        comps = self.comma_list(self.parse_polynomial)
        self.expect_sym("]")
        return FreeElement(self.ring, tuple(comps))

    def _parse_weight(self) -> int:
        t = self.peek()
        weight = self.expect_int()
        if weight == 0:
            raise ScriptError("weights must be positive", t.line, t.col)
        return weight

    # -- statements ---------------------------------------------------------

    def parse_ring(self) -> None:
        name = self.expect_name()
        self.expect_sym("=")
        char = self.advance()
        if char.kind != "int" or char.text != "0":
            raise ScriptError("only characteristic 0 supported", char.line, char.col)
        self.expect_sym(",")
        self.expect_sym("(")
        names = self.comma_list(self.expect_name)
        varnames = [t.text for t in names]
        self.expect_sym(")")
        for i, t in enumerate(names):
            if t.text in varnames[:i]:
                raise ScriptError("duplicate variable name", t.line, t.col)
        self.expect_sym(",")
        order_tok = self.expect_name()
        if order_tok.text not in _ORDERS:
            *names, last = _ORDERS
            raise ScriptError(
                f"unknown order {order_tok.text!r} (expected {', '.join(names)} or {last})",
                order_tok.line,
                order_tok.col,
            )
        order = _ORDERS[order_tok.text]
        if order is None:
            self.expect_sym("(")
            weights = self.comma_list(self._parse_weight)
            self.expect_sym(")")
            if len(weights) != len(varnames):
                raise ScriptError(
                    "weight count does not match variable count",
                    order_tok.line,
                    order_tok.col,
                )
            order = MonomialOrder(kind="degrevlex", weights=tuple(weights))
        self.expect_sym(";")
        self.ring = RingContext(tuple(varnames), order)
        self.bindings = {}

    def parse_binding(self, keyword: str) -> None:
        """`ideal NAME = p1, ...;` or `module NAME = [p1, ...], ...;`: an ideal
        is the submodule of R^1 that its polynomials generate."""
        name = self.expect_name()
        ring = self.require_ring(name)
        self.expect_sym("=")
        read = self._parse_vector if keyword == "module" else self.parse_polynomial
        vectors = self.comma_list(read)
        self.expect_sym(";")
        rank = vectors[0].rank
        if any(v.rank != rank for v in vectors):
            raise ScriptError("module generators have mixed lengths", name.line, name.col)
        self.bindings[name.text] = Submodule(ring, rank, vectors)

    def parse_file_arg(self) -> str:
        t = self.peek()
        if t.kind == "string":
            self.advance()
            return t.text
        pieces = []
        while not self.at_sym(";") and self.peek().kind != "end":
            tok = self.advance()
            # a piece starts where the last one ended, at end = (line, column);
            # a string token's text leaves out its two quotes
            if pieces and (tok.line, tok.col) != end:
                raise ScriptError("a file name with spaces must be quoted", tok.line, tok.col)
            pieces.append(tok.text)
            end = (tok.line, tok.col + len(tok.text) + 2 * (tok.kind == "string"))
        if not pieces:
            raise ScriptError("expected a file name", t.line, t.col)
        return "".join(pieces)

    def parse_command(self, verb: Token) -> Command:
        name = self.expect_name()
        self.require_ring(name)
        module = self.lookup(name)
        shown, prime, file_arg = name.text, None, None
        if verb.text == "localize":
            self.expect_sym(",")
            prime_tok = self.expect_name()
            prime = self.lookup(prime_tok)
            if prime.ambient_rank != 1:
                raise ScriptError(
                    "localize expects an ideal as second argument",
                    prime_tok.line,
                    prime_tok.col,
                )
            shown += f", {prime_tok.text}"
        elif verb.text == "validate":
            self.expect_sym(",")
            file_arg = self.parse_file_arg()
            shown += f", {file_arg}"
        self.expect_sym(";")
        return Command(verb.text, shown, module, prime, file_arg)

    def parse_script(self) -> Script:
        commands = []
        while True:
            t = self.peek()
            if t.kind == "end":
                break
            if t.kind != "name":
                raise ScriptError("expected a statement", t.line, t.col)
            self.advance()
            if t.text == "ring":
                self.parse_ring()
            elif t.text in ("ideal", "module"):
                self.parse_binding(t.text)
            elif t.text in _COMMAND_VERBS:
                commands.append(self.parse_command(t))
            else:
                raise ScriptError(f"unknown statement {t.text!r}", t.line, t.col)
        return Script(tuple(commands))


def parse_script(source: str) -> Script:
    return _Parser(tokenize(source)).parse_script()


def parse_polynomial(ring: RingContext, text: str) -> FreeElement:
    """Parse a single polynomial in the given ring; used for round trips."""
    parser = _Parser(tokenize(text))
    parser.ring = ring
    p = parser.parse_polynomial()
    t = parser.peek()
    if t.kind != "end":
        raise ScriptError("trailing input after polynomial", t.line, t.col)
    return p


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _read_file(path: Path, shown: str) -> str:
    """The text of a script or JSON file, decoded as UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScriptError(f"cannot read {shown!r}: {exc}")


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _components_from_json(doc, M: Submodule):
    """The (component, prime) pairs of a bare component list, of one result
    object, or of CLI output in which one object carries components."""
    if isinstance(doc, dict):
        doc = doc.get("components")
    elif isinstance(doc, list):
        carriers = [x for x in doc if isinstance(x, dict) and "components" in x]
        if len(carriers) > 1:
            raise ScriptError("expected output holds more than one command")
        if carriers:
            doc = carriers[0]["components"]
    if not isinstance(doc, list):
        raise ScriptError("expected output carries no component list")
    ring = M.ring
    pairs = []
    for entry in doc:
        if not isinstance(entry, dict):
            raise ScriptError("component entries must be objects")
        gens = entry.get("generators")
        prime_gens = entry.get("prime")
        if gens is None or prime_gens is None:
            raise ScriptError("component entries need generators and prime")
        if not isinstance(gens, list):
            raise ScriptError("component generators must be a list")
        if not _is_string_list(prime_gens):
            raise ScriptError("component prime must be a list of strings")
        vectors = []
        for g in gens:
            comps = [g] if M.ambient_rank == 1 else g
            if not _is_string_list(comps):
                raise ScriptError(
                    "ideal generators must be strings, module generators "
                    "lists of strings"
                )
            if len(comps) != M.ambient_rank:
                raise ScriptError("component generator has wrong length")
            vectors.append(
                FreeElement(ring, tuple(parse_polynomial(ring, c) for c in comps))
            )
        prime = ideal(ring, [parse_polynomial(ring, g) for g in prime_gens])
        pairs.append((Submodule(ring, M.ambient_rank, vectors), prime))
    return pairs


def _execute_command(cmd: Command, bound: int, seed: int, base_dir: Path) -> dict:
    M = cmd.module
    out = {"command": cmd.verb, "input": cmd.shown_input}
    if cmd.verb == "primdec":
        res = primary_decomposition(M, bound=bound, seed=seed)
        report = validate_decomposition(M, res.components, seed=seed)
        out["components"] = [
            {
                "generators": rendered_generators(c.module),
                "prime": rendered_generators(c.prime),
                "codim": c.codim,
                "embedded": c.embedded,
            }
            for c in res.components
        ]
        out["validation"] = report.as_dict()
    elif cmd.verb == "hull":
        out["generators"] = rendered_generators(
            M if buchberger(M).is_full() else equidim_hull(M)
        )
    elif cmd.verb == "minass":
        out["primes"] = [rendered_generators(P) for P in min_ass(annihilator(M), seed)]
    elif cmd.verb == "localize":
        J = cmd.extra_module
        if min_ass(J, seed) != [canonical(J)]:
            raise ScriptError("localize expects a prime ideal as second argument")
        out["generators"] = rendered_generators(localize_module(M, J, seed))
    elif cmd.verb == "validate":
        path = Path(cmd.file_arg)
        if not path.is_absolute():
            path = base_dir / path
        text = _read_file(path, cmd.file_arg)
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ScriptError(f"cannot parse {cmd.file_arg!r}: {exc}")
        pairs = _components_from_json(doc, M)
        out["validation"] = validate_decomposition(M, pairs, seed=seed).as_dict()
    else:
        raise ScriptError(f"unknown command {cmd.verb!r}")
    return out


def run_script(
    script: Script, bound: int = 50, seed: int = 0, base_dir: Path | None = None
) -> list[dict]:
    base = base_dir if base_dir is not None else Path.cwd()
    return [_execute_command(cmd, bound, seed, base) for cmd in script.statements]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _gens_line(gens) -> str:
    parts = []
    for g in gens:
        if isinstance(g, list):
            parts.append("[" + ", ".join(g) + "]")
        else:
            parts.append(g)
    return ", ".join(parts) if parts else "(none)"


def render_json(results: list[dict]) -> str:
    return json.dumps(results, indent=2) + "\n"


def render_text(results: list[dict]) -> str:
    lines: list[str] = []
    for obj in results:
        lines.append(f"{obj['command']} {obj['input']}:")
        if "components" in obj:
            if not obj["components"]:
                lines.append("  no components (input is the full module)")
            for i, comp in enumerate(obj["components"], start=1):
                kind = "embedded" if comp["embedded"] else "isolated"
                lines.append(f"  component {i}: codim {comp['codim']}, {kind}")
                lines.append(f"    generators: {_gens_line(comp['generators'])}")
                lines.append(f"    prime: {_gens_line(comp['prime'])}")
        if "generators" in obj:
            lines.append(f"  generators: {_gens_line(obj['generators'])}")
        if "primes" in obj:
            if not obj["primes"]:
                lines.append("  no associated primes (input is the full module)")
            for P in obj["primes"]:
                lines.append(f"  prime: {_gens_line(P)}")
        if "validation" in obj:
            rep = obj["validation"]
            if rep["ok"]:
                lines.append("  validation: ok")
            else:
                lines.append(
                    "  validation: FAILED (" + "; ".join(rep["messages"]) + ")"
                )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _run_file(path_text: str, bound: int, json_mode: bool) -> str:
    path = Path(path_text)
    script = parse_script(_read_file(path, path_text))
    results = run_script(script, bound=bound, base_dir=path.parent)
    return render_json(results) if json_mode else render_text(results)


def main(argv=None) -> int:
    import argparse  # here, not at the top: only main parses arguments

    ap = argparse.ArgumentParser(
        prog="primarydec",
        description="primary decomposition of ideals and submodules over Q",
    )
    sub = ap.add_subparsers(dest="mode", required=True)
    rp = sub.add_parser("run", help="execute a script file")
    rp.add_argument("file")
    rp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    rp.add_argument(
        "--bound",
        type=int,
        default=50,
        help="primary component iteration bound, at least 1 (default 50)",
    )
    vp = sub.add_parser("validate", help="run a script and compare JSON output")
    vp.add_argument("file")
    vp.add_argument("expected")
    try:
        args = ap.parse_args(argv)
        if args.mode == "run" and args.bound < 1:
            rp.error(f"--bound must be at least 1, got {args.bound}")
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.mode == "run":
            sys.stdout.write(_run_file(args.file, args.bound, args.json))
            return 0
        output = _run_file(args.file, 50, True)
        expected = _read_file(Path(args.expected), args.expected)
        if output.strip() == expected.strip():
            sys.stdout.write("ok\n")
            return 0
        got_lines = output.strip().splitlines()
        want_lines = expected.strip().splitlines()
        where = len(want_lines)
        for i, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
            if a != b:
                where = i
                break
        sys.stderr.write(f"output differs from expected (first at line {where})\n")
        return 2
    except ScriptError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (DecompositionError, HomologyError, RingError) as exc:
        # RingError here: a computed term reached the order keys' degree bound
        sys.stderr.write(f"computation failed: {exc}\n")
        return 2
