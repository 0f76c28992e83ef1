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

``parse`` reads the grammar only; ``validate`` judges closedness,
guardedness and distinct actions per choice.  ``parse`` scans its text once
with ``re.findall`` over one token rule, which yields the tokens as plain
strings, and descends over those strings.  Only a malformed text is scanned
again, with ``re.finditer`` over the same rule, to find character positions
for the ``ParseError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

OUTPUT = "!"
INPUT = "?"
TICK_NAME = "✓"  # ✓


@dataclass(frozen=True)
class ActionLabel:
    """A named action with a polarity.

    Output actions (``!a``) and input actions (``?a``) over the same name
    are distinct labels; ``co`` swaps polarity.  The distinguished success
    label ``✓`` is an output with no co-action.

    Each label keeps ``is_output``, ``is_tick`` and its printed form
    ``text`` (``str``), formed once at construction.  None is a dataclass
    field, so equality, hashing and ``repr`` read ``name`` and ``polarity``
    only.  Labels are values: ``out`` and ``inp`` make one per name and
    polarity, and ``co`` returns theirs, but any equal label is as good.
    """

    name: str
    polarity: str

    def __post_init__(self) -> None:
        if self.polarity not in (OUTPUT, INPUT):
            raise ValueError(f"polarity must be {OUTPUT!r} or {INPUT!r}, got {self.polarity!r}")
        is_output = self.polarity == OUTPUT
        tick = is_output and self.name == TICK_NAME
        object.__setattr__(self, "is_output", is_output)  # frozen: write once, past the dataclass guard
        object.__setattr__(self, "is_tick", tick)
        object.__setattr__(self, "text", TICK_NAME if tick else self.polarity + self.name)

    def co(self) -> ActionLabel:
        """The complementary action, as ``out`` or ``inp`` makes it; undefined for ``✓``."""
        if self.is_tick:
            raise ValueError("co(✓) is undefined")
        return inp(self.name) if self.is_output else out(self.name)

    def __str__(self) -> str:
        return self.text


@lru_cache(maxsize=None)
def out(name: str) -> ActionLabel:
    """The output label ``!name``, the same object on every call."""
    return ActionLabel(name, OUTPUT)


@lru_cache(maxsize=None)
def inp(name: str) -> ActionLabel:
    """The input label ``?name``, the same object on every call."""
    return ActionLabel(name, INPUT)


TICK = out(TICK_NAME)


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


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Raised on malformed input; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")

# The one token rule: ``(+)``, an identifier, or any other non-space
# character.  Whitespace (what ``str.isspace`` calls whitespace) separates
# tokens.  A character that is neither a symbol of the grammar nor the start
# of an identifier comes out as a token of its own, which no rule accepts.
_TOKEN_RE = re.compile(rf"\(\+\)|{IDENT_RE.pattern}|\S")
_SYMBOLS = frozenset(("(+)", "(", ")", "+", ".", "!", "?", "1"))
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_CHOICE = {OUTPUT: InternalChoice, INPUT: ExternalChoice}
_LABEL = {OUTPUT: out, INPUT: inp}


class _Failure(Exception):
    """A parse error at a token index; ``parse`` turns it into a ``ParseError``."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


class _Descent:
    """Recursive descent over the token strings of one text.

    ``rec x . P`` takes the longest possible body; prefix continuations bind
    tightly (a choice or rec continuation must be parenthesised); a choice
    level is homogeneous, so mixing ``(+)`` and ``+`` is a parse error, and
    its operator fixes its operands' polarity.  Free or unguarded variables
    and repeated actions parse: they are ``validate``'s to judge.

    Each method takes the index of its first token and returns the parsed
    form with the index after it.  ``atom`` returns a prefix as its
    ``(label, continuation)`` branch, which its caller wraps in a one-branch
    choice unless the prefix is an operand of a larger choice.  A prefix
    chain costs one frame per prefix, a parenthesised choice three per level.
    """

    __slots__ = ("tokens",)

    def __init__(self, tokens: list[str]):
        self.tokens = tokens  # ends with "", the end of the input

    def term(self, i: int) -> tuple[SessionType, int]:
        tokens = self.tokens
        if tokens[i] == "rec":
            var = tokens[i + 1]
            if var[:1] not in _LETTERS:
                raise _Failure(f"expected ident, found {var!r}", i + 1)
            if tokens[i + 2] != ".":
                raise _Failure(f"expected dot, found {tokens[i + 2]!r}", i + 2)
            body, i = self.term(i + 3)
            return Rec(var, body), i
        start = i
        first, i = self.atom(i)
        op = tokens[i]
        if op != "(+)" and op != "+":
            return (_one_branch(first) if first.__class__ is tuple else first), i
        branches = [first if first.__class__ is tuple else _as_branch(first)]
        while True:
            part, i = self.atom(i + 1)
            branches.append(part if part.__class__ is tuple else _as_branch(part))
            if tokens[i] != op:
                if tokens[i] == "(+)" or tokens[i] == "+":
                    raise _Failure("cannot mix '(+)' and '+' in one choice", i)
                break
        polarity = OUTPUT if op == "(+)" else INPUT
        for branch in branches:
            if branch is None or branch[0].polarity != polarity:
                raise _Failure("choice branches must be action prefixes of matching polarity", start)
        return _CHOICE[polarity](tuple(branches)), i

    def atom(self, i: int) -> tuple[SessionType | tuple[ActionLabel, SessionType], int]:
        tokens = self.tokens
        tok = tokens[i]
        if tok == "!" or tok == "?":
            name = tokens[i + 1]
            if name[:1] not in _LETTERS:
                raise _Failure(f"expected ident, found {name!r}", i + 1)
            label = _LABEL[tok](name)
            if tokens[i + 2] != ".":
                return (label, SUCCESS), i + 2
            cont, i = self.atom(i + 3)
            return (label, _one_branch(cont) if cont.__class__ is tuple else cont), i
        if tok == "1":
            return SUCCESS, i + 1
        if tok == "(":
            inner, i = self.term(i + 1)
            if tokens[i] != ")":
                raise _Failure(f"expected rpar, found {tokens[i]!r}", i)
            return inner, i + 1
        if tok[:1] in _LETTERS:
            if tok == "rec":
                raise _Failure("'rec' must start a term (parenthesise it here)", i)
            return Var(tok), i + 1
        raise _Failure(f"unexpected token {tok!r}", i)


def _one_branch(branch: tuple[ActionLabel, SessionType]) -> SessionType:
    """A prefix that is not an operand of a larger choice: a one-branch choice."""
    return _CHOICE[branch[0].polarity]((branch,))


def _as_branch(term: SessionType) -> tuple[ActionLabel, SessionType] | None:
    """A parenthesised choice operand must be a one-branch choice."""
    if isinstance(term, (InternalChoice, ExternalChoice)) and len(term.branches) == 1:
        return term.branches[0]
    return None


def parse(text: str) -> SessionType:
    """Parse source text into a session type term.

    ``!a`` with no continuation abbreviates ``!a.1``; a bare prefix is a
    one-branch choice.  Only the grammar is read: ``validate`` judges
    closedness, guardedness and distinct actions in each choice.

    The text is split into token strings by one ``re.findall`` over the
    token rule, and the descent reads those strings.  Character positions
    are found only for an error, by ``re.finditer`` over the same rule; a
    character that can start no token is reported before any other error,
    as if the whole text were scanned first.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    try:
        term, i = _Descent(tokens).term(0)
        if tokens[i]:
            raise _Failure(f"trailing input {tokens[i]!r}", i)
    except (_Failure, RecursionError) as failure:
        starts = []
        for match in _TOKEN_RE.finditer(text):
            tok = match.group()
            if tok not in _SYMBOLS and tok[0] not in _LETTERS:
                raise ParseError(f"unexpected character {tok!r}", match.start()) from None
            starts.append(match.start())
        if isinstance(failure, RecursionError):
            raise
        starts.append(len(text))
        raise ParseError(failure.message, starts[failure.index]) from None
    return term


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def pretty(term: SessionType) -> str:
    """Render a term so that ``parse(pretty(t)) == t`` for user-level terms."""
    return _pretty(term, top=True)


def _pretty(term: SessionType, top: bool) -> str:
    """The form of ``term`` at the top level or, if not ``top``, as the
    continuation of a prefix; the first call keeps both forms on the term.
    It dispatches on the term's exact class, choices and buffers first, and
    calls itself from its branch loop: one frame per nesting level."""
    forms = getattr(term, "_printed", None)
    if forms is None:
        cls = term.__class__
        grouped = False
        if cls is InternalChoice or cls is ExternalChoice:
            parts = []
            for label, cont in term.branches:
                head = label.polarity + label.name
                parts.append(head if cont.__class__ is Success else f"{head}.{_pretty(cont, False)}")
            text = (" (+) " if cls is InternalChoice else " + ").join(parts)
            grouped = len(parts) != 1
        elif cls is Buffer:
            text = f"[{term.action.text}]{_pretty(term.cont, False)}"
        elif cls is Rec:
            text = f"rec {term.var} . {_pretty(term.body, True)}"
            grouped = True
        elif cls is Var:
            text = term.name
        elif cls is Success:
            text = "1"
        elif cls is Term0:
            text = "0"
        else:
            raise TypeError(f"not a session type: {term!r}")
        forms = (text, f"({text})" if grouped else text)
        object.__setattr__(term, "_printed", forms)  # frozen: write once, past the dataclass guard
    return forms[0] if top else forms[1]


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


def _walk(term: SessionType):
    """Yield ``(subterm, scope, depth)`` for every subterm of ``term`` in
    pre-order, each choice's branches in their order.

    ``depth`` counts the action prefixes above the subterm, and ``scope``
    maps each variable bound above it to its binder's ``depth``, so a bound
    variable is guarded exactly when its ``depth`` exceeds its binder's.
    The walk keeps an explicit stack, with no Python frame per nesting
    level; only a ``rec`` copies ``scope``.
    """
    stack = [(term, {}, 0)]
    while stack:
        node = stack.pop()
        yield node
        term, scope, depth = node
        cls = term.__class__
        if cls is InternalChoice or cls is ExternalChoice:
            depth += 1
            stack.extend([(cont, scope, depth) for _, cont in reversed(term.branches)])
        elif cls is Rec:
            stack.append((term.body, {**scope, term.var: depth}, depth))
        elif cls is Buffer:
            stack.append((term.cont, scope, depth))


def validate(term: SessionType) -> list[Violation]:
    """Check closedness, guardedness and per-choice action distinctness.

    Violations are data, not failures; an empty report means the term is a
    well-formed user-level session type.  They are reported in the pre-order
    of the subterms they concern.
    """
    report: list[Violation] = []
    for sub, scope, depth in _walk(term):
        cls = sub.__class__
        if cls is Var:
            name = sub.name
            if name not in scope:
                report.append(Violation("free-variable", name, f"{name} is not bound"))
            elif depth == scope[name]:
                report.append(
                    Violation("unguarded-recursion", name,
                              f"{name} occurs with no action prefix below its binder")
                )
        elif cls is InternalChoice or cls is ExternalChoice:
            want = OUTPUT if cls is InternalChoice else INPUT
            if not sub.branches:
                report.append(Violation("empty-choice", pretty(sub), "choice has no branches"))
            seen: set[str] = set()
            for label, _ in sub.branches:
                if label.polarity != want or label.is_tick:
                    report.append(
                        Violation("wrong-polarity", pretty(sub), f"branch action {label} has the wrong polarity")
                    )
                if label.name in seen:
                    report.append(
                        Violation("duplicate-action", pretty(sub), f"action {label} appears twice")
                    )
                seen.add(label.name)
        elif cls is Buffer:
            report.append(Violation("runtime-only-term", pretty(sub), "buffers are not user syntax"))
        elif cls is Term0:
            report.append(Violation("runtime-only-term", pretty(sub), "0 is not user syntax"))
        elif cls is not Success and cls is not Rec:
            raise TypeError(f"not a session type: {sub!r}")
    return report


def assert_valid(term: SessionType, what: str = "session type") -> None:
    problems = validate(term)
    if problems:
        raise ValueError(f"invalid {what}: " + "; ".join(str(v) for v in problems))


# ---------------------------------------------------------------------------
# Substitution and unfolding
# ---------------------------------------------------------------------------

def free_vars(term: SessionType) -> frozenset[str]:
    return frozenset(t.name for t, scope, _ in _walk(term) if t.__class__ is Var and t.name not in scope)


def substitute(term: SessionType, var: str, replacement: SessionType) -> SessionType:
    """``term`` with ``replacement`` for each free ``var``.  The replacement
    must be closed, so no binder can capture it; an open one is a ``ValueError``."""
    if free_vars(replacement):
        raise ValueError(f"substitute needs a closed replacement, got {pretty(replacement)}")
    return _substitute(term, var, replacement)


def _substitute(term: SessionType, var: str, replacement: SessionType) -> SessionType:
    if isinstance(term, Var):
        return replacement if term.name == var else term
    if isinstance(term, (Success, Term0)):
        return term
    if isinstance(term, Buffer):
        return Buffer(term.action, _substitute(term.cont, var, replacement))
    if isinstance(term, Rec):
        if term.var == var:
            return term
        return Rec(term.var, _substitute(term.body, var, replacement))
    if isinstance(term, (InternalChoice, ExternalChoice)):
        branches = []
        for label, cont in term.branches:
            branches.append((label, _substitute(cont, var, replacement)))
        return type(term)(tuple(branches))
    raise TypeError(f"not a session type: {term!r}")


def unfold(term: Rec) -> SessionType:
    """One unfolding of a closed recursive term: the body with the term
    substituted for its binder; an open term is a ``ValueError``.

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
    """Whether ``term`` contains a ``rec``.  Every ``rec`` prints as
    ``rec x . …``, so a kept printed form without ``rec `` answers at once."""
    stack = [term]
    while stack:
        term = stack.pop()
        forms = getattr(term, "_printed", None)
        if forms is not None and "rec " not in forms[0]:
            continue
        if isinstance(term, Rec):
            return True
        if isinstance(term, (InternalChoice, ExternalChoice)):
            stack.extend(cont for _, cont in term.branches)
        elif isinstance(term, Buffer):
            stack.append(term.cont)
    return False
