"""Binary session types: action labels, abstract syntax, parsing and printing.

The term language has success (``1``), n-ary internal choice over output
prefixes (``!a.P (+) !b.Q``), n-ary external choice over input prefixes
(``?a.P + ?b.Q``), guarded recursion (``rec x . P``) and variables.  Two
extra constructors never appear in user-written source: ``Buffer`` (a
one-position buffer holding a pending output) and ``Term0`` (the terminated
process ``0``).  Both arise only while executing the turn-based semantics.

Terms are immutable.  Each keeps its printed forms, and each ``Rec`` its
one-step unfolding, once computed; both are deterministic, so terms stay
safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

OUTPUT = "!"
INPUT = "?"
TICK_NAME = "✓"  # ✓


@dataclass(frozen=True)
class ActionLabel:
    """A named action with a polarity.

    Output actions (``!a``) and input actions (``?a``) over the same name
    are distinct labels; ``co`` swaps polarity.  The distinguished success
    label ``✓`` is an output with no co-action.
    """

    name: str
    polarity: str

    def __post_init__(self) -> None:
        if self.polarity not in (OUTPUT, INPUT):
            raise ValueError(f"polarity must be {OUTPUT!r} or {INPUT!r}, got {self.polarity!r}")

    @property
    def is_output(self) -> bool:
        return self.polarity == OUTPUT

    @property
    def is_tick(self) -> bool:
        return self.polarity == OUTPUT and self.name == TICK_NAME

    def co(self) -> ActionLabel:
        """The complementary action; undefined for ``✓``."""
        if self.is_tick:
            raise ValueError("co(✓) is undefined")
        return ActionLabel(self.name, INPUT if self.is_output else OUTPUT)

    def __str__(self) -> str:
        return TICK_NAME if self.is_tick else f"{self.polarity}{self.name}"

    @staticmethod
    def from_str(text: str) -> ActionLabel:
        if text == TICK_NAME:
            return TICK
        if len(text) >= 2 and text[0] in (OUTPUT, INPUT):
            return ActionLabel(text[1:], text[0])
        raise ValueError(f"not an action label: {text!r}")


TICK = ActionLabel(TICK_NAME, OUTPUT)


def out(name: str) -> ActionLabel:
    return ActionLabel(name, OUTPUT)


def inp(name: str) -> ActionLabel:
    return ActionLabel(name, INPUT)


class SessionType:
    """Base class for session type terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Success(SessionType):
    """The success state ``1``."""


@dataclass(frozen=True)
class InternalChoice(SessionType):
    """``(+)`` over output-prefixed branches; a single prefix is a one-branch choice."""

    branches: tuple[tuple[ActionLabel, SessionType], ...]


@dataclass(frozen=True)
class ExternalChoice(SessionType):
    """``+`` over input-prefixed branches."""

    branches: tuple[tuple[ActionLabel, SessionType], ...]


@dataclass(frozen=True)
class Rec(SessionType):
    var: str
    body: SessionType


@dataclass(frozen=True)
class Var(SessionType):
    name: str


@dataclass(frozen=True)
class Buffer(SessionType):
    """A one-position buffer holding a pending output; runtime-only."""

    action: ActionLabel
    cont: SessionType


@dataclass(frozen=True)
class Term0(SessionType):
    """The terminated process ``0``; runtime-only."""


SUCCESS = Success()
TERM0 = Term0()


def choice(kind: str, branches) -> SessionType:
    cls = InternalChoice if kind == OUTPUT else ExternalChoice
    return cls(tuple(branches))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Raised on malformed input; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        if text.startswith("(+)", i):
            tokens.append(("iop", "(+)", i))
            i += 3
            continue
        ch = text[i]
        if ch == "(":
            tokens.append(("lpar", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(("rpar", ch, i))
            i += 1
        elif ch == "+":
            tokens.append(("eop", ch, i))
            i += 1
        elif ch == ".":
            tokens.append(("dot", ch, i))
            i += 1
        elif ch == "!":
            tokens.append(("bang", ch, i))
            i += 1
        elif ch == "?":
            tokens.append(("query", ch, i))
            i += 1
        elif ch == "1":
            tokens.append(("one", ch, i))
            i += 1
        else:
            m = IDENT_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", i)
            tokens.append(("ident", m.group(), i))
            i = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    """Recursive descent over the grammar.

    ``rec x . P`` takes the longest possible body; prefix continuations bind
    tightly (a choice or rec continuation must be parenthesised); a choice
    level is homogeneous, so mixing ``(+)`` and ``+`` is a parse error.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> SessionType:
        term = self.parse_term()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return term

    def parse_term(self) -> SessionType:
        kind, value, at = self.peek()
        if kind == "ident" and value == "rec":
            self.next()
            var = self.expect("ident")[1]
            self.expect("dot")
            body = self.parse_term()
            return Rec(var, body)
        return self.parse_choice()

    def parse_choice(self) -> SessionType:
        first_at = self.peek()[2]
        first = self.parse_atom()
        op: str | None = None
        parts = [first]
        while self.peek()[0] in ("iop", "eop"):
            kind, value, at = self.next()
            if op is None:
                op = kind
            elif op != kind:
                raise ParseError("cannot mix '(+)' and '+' in one choice", at)
            parts.append(self.parse_atom())
        if op is None:
            return first
        polarity = OUTPUT if op == "iop" else INPUT
        branches: list[tuple[ActionLabel, SessionType]] = []
        for part in parts:
            branch = _as_branch(part, polarity)
            if branch is None:
                raise ParseError(
                    "choice branches must be action prefixes of matching polarity", first_at
                )
            branches.append(branch)
        seen: set[str] = set()
        for label, _ in branches:
            if label.name in seen:
                raise ParseError(f"duplicate action {label} in a choice", first_at)
            seen.add(label.name)
        return choice(polarity, branches)

    def parse_atom(self) -> SessionType:
        kind, value, at = self.next()
        if kind == "one":
            return SUCCESS
        if kind == "lpar":
            inner = self.parse_term()
            self.expect("rpar")
            return inner
        if kind in ("bang", "query"):
            polarity = OUTPUT if kind == "bang" else INPUT
            name = self.expect("ident")[1]
            cont: SessionType = SUCCESS
            if self.peek()[0] == "dot":
                self.next()
                cont = self.parse_atom()
            return choice(polarity, [(ActionLabel(name, polarity), cont)])
        if kind == "ident":
            if value == "rec":
                raise ParseError("'rec' must start a term (parenthesise it here)", at)
            return Var(value)
        raise ParseError(f"unexpected token {value!r}", at)


def _as_branch(term: SessionType, polarity: str) -> tuple[ActionLabel, SessionType] | None:
    """A choice operand must be a one-branch choice of the same polarity."""
    cls = InternalChoice if polarity == OUTPUT else ExternalChoice
    if isinstance(term, cls) and len(term.branches) == 1:
        return term.branches[0]
    return None


def parse(text: str) -> SessionType:
    """Parse source text into a session type term.

    ``!a`` with no continuation abbreviates ``!a.1``; a bare prefix is a
    one-branch choice.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def pretty(term: SessionType) -> str:
    """Render a term so that ``parse(pretty(t)) == t`` for user-level terms."""
    return _pretty(term, top=True)


def _pretty(term: SessionType, top: bool) -> str:
    """The form of ``term`` at the top level or, if not ``top``, as the
    continuation of a prefix; the first call keeps both forms on the term."""
    forms = getattr(term, "_printed", None)
    if forms is None:
        grouped = False
        if isinstance(term, Success):
            text = "1"
        elif isinstance(term, Term0):
            text = "0"
        elif isinstance(term, Var):
            text = term.name
        elif isinstance(term, Rec):
            text = f"rec {term.var} . {_pretty(term.body, True)}"
            grouped = True
        elif isinstance(term, Buffer):
            text = f"[{term.action}]{_pretty(term.cont, False)}"
        elif isinstance(term, (InternalChoice, ExternalChoice)):
            sep = " (+) " if isinstance(term, InternalChoice) else " + "
            text = sep.join([_pretty_branch(label, cont) for label, cont in term.branches])
            grouped = len(term.branches) != 1
        else:
            raise TypeError(f"not a session type: {term!r}")
        forms = (text, f"({text})" if grouped else text)
        object.__setattr__(term, "_printed", forms)  # frozen: write once, past the dataclass guard
    return forms[0] if top else forms[1]


def _pretty_branch(label: ActionLabel, cont: SessionType) -> str:
    head = f"{label.polarity}{label.name}"
    if isinstance(cont, Success):
        return head
    return f"{head}.{_pretty(cont, False)}"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    rule: str
    subterm: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail} in {self.subterm}"


def validate(term: SessionType) -> list[Violation]:
    """Check closedness, guardedness and per-choice action distinctness.

    Violations are data, not failures; an empty report means the term is a
    well-formed user-level session type.
    """
    report: list[Violation] = []
    _validate(term, {}, report)
    return report


def _validate(term: SessionType, guarded: dict[str, bool], report: list[Violation]) -> None:
    # guarded maps in-scope variables to "an action prefix separates us from
    # the binder"; a Var is only legal when its entry exists and is True.
    if isinstance(term, (Success, Term0)):
        if isinstance(term, Term0):
            report.append(Violation("runtime-only-term", pretty(term), "0 is not user syntax"))
        return
    if isinstance(term, Buffer):
        report.append(Violation("runtime-only-term", pretty(term), "buffers are not user syntax"))
        _validate(term.cont, guarded, report)
        return
    if isinstance(term, Var):
        if term.name not in guarded:
            report.append(Violation("free-variable", term.name, f"{term.name} is not bound"))
        elif not guarded[term.name]:
            report.append(
                Violation("unguarded-recursion", term.name,
                          f"{term.name} occurs with no action prefix below its binder")
            )
        return
    if isinstance(term, Rec):
        inner = dict(guarded)
        inner[term.var] = False
        _validate(term.body, inner, report)
        return
    if isinstance(term, (InternalChoice, ExternalChoice)):
        want = OUTPUT if isinstance(term, InternalChoice) else INPUT
        if not term.branches:
            report.append(Violation("empty-choice", pretty(term), "choice has no branches"))
        seen: set[str] = set()
        for label, cont in term.branches:
            if label.polarity != want or label.is_tick:
                report.append(
                    Violation("wrong-polarity", pretty(term), f"branch action {label} has the wrong polarity")
                )
            if label.name in seen:
                report.append(
                    Violation("duplicate-action", pretty(term), f"action {label} appears twice")
                )
            seen.add(label.name)
            _validate(cont, dict.fromkeys(guarded, True), report)
        return
    raise TypeError(f"not a session type: {term!r}")


def assert_valid(term: SessionType, what: str = "session type") -> None:
    problems = validate(term)
    if problems:
        raise ValueError(f"invalid {what}: " + "; ".join(str(v) for v in problems))


# ---------------------------------------------------------------------------
# Substitution and unfolding
# ---------------------------------------------------------------------------

def free_vars(term: SessionType) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, Rec):
        return free_vars(term.body) - {term.var}
    if isinstance(term, (InternalChoice, ExternalChoice)):
        out: frozenset[str] = frozenset()
        for _, cont in term.branches:
            out |= free_vars(cont)
        return out
    if isinstance(term, Buffer):
        return free_vars(term.cont)
    return frozenset()


def _fresh(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def substitute(term: SessionType, var: str, replacement: SessionType) -> SessionType:
    """Capture-avoiding substitution of ``replacement`` for ``var``."""
    if isinstance(term, Var):
        return replacement if term.name == var else term
    if isinstance(term, (Success, Term0)):
        return term
    if isinstance(term, Buffer):
        return Buffer(term.action, substitute(term.cont, var, replacement))
    if isinstance(term, Rec):
        if term.var == var:
            return term
        if term.var in free_vars(replacement) and var in free_vars(term.body):
            fresh = _fresh(term.var, free_vars(term.body) | free_vars(replacement) | {var})
            renamed = substitute(term.body, term.var, Var(fresh))
            return Rec(fresh, substitute(renamed, var, replacement))
        return Rec(term.var, substitute(term.body, var, replacement))
    if isinstance(term, (InternalChoice, ExternalChoice)):
        branches = tuple((label, substitute(cont, var, replacement)) for label, cont in term.branches)
        return type(term)(branches)
    raise TypeError(f"not a session type: {term!r}")


def unfold(term: Rec) -> SessionType:
    """One unfolding of a recursive term: the body with the binder substituted in.

    Each ``Rec`` object is unfolded once and keeps the result, so later
    calls return that same unfolding.
    """
    if not isinstance(term, Rec):
        raise TypeError("unfold expects a rec term")
    unfolded = getattr(term, "_unfolded", None)
    if unfolded is None:
        unfolded = substitute(term.body, term.var, term)
        object.__setattr__(term, "_unfolded", unfolded)
    return unfolded


def unfold_top(term: SessionType) -> SessionType:
    """Unfold leading recursions until a non-rec constructor is on top."""
    while isinstance(term, Rec):
        term = unfold(term)
    return term


def is_recursive(term: SessionType) -> bool:
    if isinstance(term, Rec):
        return True
    if isinstance(term, (InternalChoice, ExternalChoice)):
        return any(is_recursive(cont) for _, cont in term.branches)
    if isinstance(term, Buffer):
        return is_recursive(term.cont)
    return False
