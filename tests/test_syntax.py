"""Parser, printer, validation and substitution."""

from __future__ import annotations

from collections import Counter

import pytest
from conftest import (
    DEEP_FAMILIES,
    large_pairs,
    nested_spec,
    oracle_cases,
    reference_event_count,
    reference_free_vars,
    reference_parse,
    reference_validate,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from stgames.denote import _event_count
from stgames.harness import CorpusSpec, _subterms, corpus_pair, dual, random_session_type
from stgames.syntax import (
    SUCCESS,
    TERM0,
    TICK,
    ActionLabel,
    Buffer,
    ExternalChoice,
    InternalChoice,
    ParseError,
    Rec,
    Success,
    Var,
    free_vars,
    inp,
    out,
    parse,
    pretty,
    substitute,
    unfold,
    validate,
)


def test_parse_success():
    assert parse("1") == SUCCESS


def test_parse_internal_choice_with_trailing_one_elided():
    term = parse("!a (+) !b.!a")
    assert term == InternalChoice((
        (out("a"), SUCCESS),
        (out("b"), InternalChoice(((out("a"), SUCCESS),))),
    ))


def test_parse_three_branch_external_choice():
    term = parse("?a.?b + ?b.?a + ?c")
    assert isinstance(term, ExternalChoice)
    assert len(term.branches) == 3
    assert [label.name for label, _ in term.branches] == ["a", "b", "c"]


def test_parse_leaves_duplicate_actions_to_validate():
    # parse reads the grammar; a repeated action in one choice is
    # validate's to judge
    for text in ("!a (+) !a", "?a + ?a"):
        term = parse(text)
        assert len(term.branches) == 2
        assert [v.rule for v in validate(term)] == ["duplicate-action"]


def test_parse_mixed_choice_operators_rejected():
    with pytest.raises(ParseError):
        parse("!a (+) !b + !c")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as excinfo:
        parse("!a (+) $")
    assert excinfo.value.position == "!a (+) $".index("$")


@pytest.mark.parametrize("text,message,position", [
    ("!1", "expected ident, found '1'", 1),
    ("rec x", "expected dot, found ''", 5),
    ("!a.(?b", "expected rpar, found ''", 6),
    ("!a )", "trailing input ')'", 3),
    ("!a (+) !b + ?c", "cannot mix '(+)' and '+' in one choice", 10),
    ("!a (+) ?b", "choice branches must be action prefixes of matching polarity", 0),
    ("!a.rec x . x", "'rec' must start a term (parenthesise it here)", 3),
    ("", "unexpected token ''", 0),
    ("é", "unexpected character 'é'", 0),
    (") $", "unexpected character '$'", 2),
    ("x" * 20000 + "$", "unexpected character '$'", 20000),
    ("!a." * 3000 + "$", "unexpected character '$'", 9000),
], ids=["ident", "dot", "rpar", "trailing", "mix", "polarity", "rec", "empty",
        "non-ascii", "character-first", "long-identifier", "too-deep"])
def test_parse_error_table(text, message, position):
    # a character that starts no token is reported before any error the
    # tokens before it would raise, however long the identifier before it
    # and however deeply nested the text before it
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert (str(excinfo.value), excinfo.value.position) == \
        (f"{message} (at position {position})", position)


def parse_outcome(parser, text):
    """The term, or the message and position of the ``ParseError``."""
    try:
        return parser(text)
    except ParseError as error:
        return str(error), error.position


def test_parse_matches_reference_on_corpus_types():
    # the printed types of the 600 seed-42 acceptance pairs and the large pairs
    specs = [CorpusSpec(seed=42, count=500),
             CorpusSpec(seed=42, count=100, allow_recursion=True, unroll_depth=4)]
    pairs = [corpus_pair(spec, index) for spec in specs for index in range(spec.count)]
    texts = [pretty(term) for pair in pairs + list(large_pairs()) for term in pair]
    assert len(texts) == 1232
    for text in texts:
        assert parse(text) == reference_parse(text), text


# tokens of the grammar, tokens run together and stray characters: whitespace
# str.isspace accepts beyond ASCII, a separator below the space, digits and
# letters outside [a-zA-Z]
_fragments = st.sampled_from([
    "!", "?", ".", "(", ")", "(+)", "+", "1", "rec", "a", "b", "x", "a_1", "b2",
    "(+", "+)", "$", "_", "2", "0", "é", "ß", "Ω",
    " ", "\t", "\n", "\u00a0", "\u2003", "\x1c",
])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(_fragments, max_size=24).map("".join))
def test_parse_matches_reference_on_token_soup(text):
    assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_fragments, max_size=8).map("".join), st.sampled_from([
    "!a (+) !b.(?c + ?d)", "rec x . !a.x", "(!a) (+) !b", "?a.(!b) + ?c", "!a.!b.!c",
]))
def test_parse_matches_reference_on_types_with_stray_text(stray, text):
    # a valid type with stray text put in at every position
    for cut in range(len(text) + 1):
        spliced = text[:cut] + stray + text[cut:]
        assert parse_outcome(parse, spliced) == parse_outcome(reference_parse, spliced)


def test_parse_rec_body_extends_right():
    term = parse("rec x . ?a.x + ?b")
    assert term == Rec("x", ExternalChoice(((inp("a"), Var("x")), (inp("b"), SUCCESS))))


def test_parse_parenthesised_choice_as_continuation():
    term = parse("!a.(?b + ?c)")
    (label, cont), = term.branches
    assert isinstance(cont, ExternalChoice) and len(cont.branches) == 2


def test_rec_continuation_requires_parens():
    with pytest.raises(ParseError):
        parse("!a.rec x . !b.x")
    assert parse("!a.(rec x . !b.x)") == InternalChoice((
        (out("a"), Rec("x", InternalChoice(((out("b"), Var("x")),)))),
    ))


def _branch_labels(term):
    return [label for _, sub in _subterms(term) if isinstance(sub, (InternalChoice, ExternalChoice))
            for label, _ in sub.branches]


def test_co_involution():
    label = out("a")
    assert label.co().co() == label
    assert inp("b").co() == out("b")
    # one label per polarity and name: out, inp and co return the same objects
    assert out("a") is out("a") and inp("a") is inp("a")
    assert inp("a").co() is out("a") and out("a").co() is inp("a")
    assert ActionLabel("a", "?").co() is out("a")
    assert TICK is out("✓")
    term = parse("!a.?b")
    spec = CorpusSpec(seed=3, count=1, allow_recursion=True)
    for source in (term, dual(term), random_session_type(spec, "client"), random_session_type(spec, "server")):
        labels = _branch_labels(source)
        assert labels
        for label in labels:
            assert label is (out if label.is_output else inp)(label.name)


def test_co_of_tick_undefined():
    with pytest.raises(ValueError):
        TICK.co()


def test_action_label_string_roundtrip():
    assert [str(label) for label in (out("a"), inp("x_1"), TICK, ActionLabel("✓", "?"))] == [
        "!a", "?x_1", "✓", "?✓"]


# -- validation --------------------------------------------------------------

def test_validate_unguarded_recursion():
    report = validate(Rec("x", Var("x")))
    assert any(v.rule == "unguarded-recursion" for v in report)


def test_validate_guarded_recursion_clean():
    assert validate(parse("rec x . !a.x")) == []


def test_validate_free_variable():
    report = validate(Var("x"))
    assert [v.rule for v in report] == ["free-variable"]


def test_validate_nested_rec_guard_via_outer_prefix():
    # the inner variable occurrence is guarded by the prefix above the binder chain
    assert validate(parse("rec x . !a.(rec y . ?b.x)")) == []
    report = validate(Rec("x", Rec("y", Var("x"))))
    assert any(v.rule == "unguarded-recursion" for v in report)


def test_validate_duplicate_action_on_hand_built_term():
    term = InternalChoice(((out("a"), SUCCESS), (out("a"), SUCCESS)))
    assert any(v.rule == "duplicate-action" for v in report_rules(term))


def report_rules(term):
    return validate(term)


# -- unfolding against a nameless-term oracle --------------------------------

def to_debruijn(term, scope=()):
    """Nameless representation used only to cross-check substitution."""
    if isinstance(term, Success):
        return ("1",)
    if isinstance(term, Var):
        return ("ix", scope.index(term.name))
    if isinstance(term, Rec):
        return ("rec", to_debruijn(term.body, (term.var,) + scope))
    kind = "ic" if isinstance(term, InternalChoice) else "ec"
    return (kind, tuple((str(label), to_debruijn(cont, scope)) for label, cont in term.branches))


def shift(nameless, amount, cutoff=0):
    tag = nameless[0]
    if tag == "1":
        return nameless
    if tag == "ix":
        index = nameless[1]
        return ("ix", index + amount if index >= cutoff else index)
    if tag == "rec":
        return ("rec", shift(nameless[1], amount, cutoff + 1))
    return (tag, tuple((label, shift(cont, amount, cutoff)) for label, cont in nameless[1]))


def nameless_subst(nameless, depth, replacement):
    tag = nameless[0]
    if tag == "1":
        return nameless
    if tag == "ix":
        index = nameless[1]
        if index == depth:
            return shift(replacement, depth)
        return ("ix", index - 1 if index > depth else index)
    if tag == "rec":
        return ("rec", nameless_subst(nameless[1], depth + 1, replacement))
    return (tag, tuple((label, nameless_subst(cont, depth, replacement)) for label, cont in nameless[1]))


def nameless_unfold(rec_nameless):
    assert rec_nameless[0] == "rec"
    return nameless_subst(rec_nameless[1], 0, rec_nameless)


@pytest.mark.parametrize("source", [
    "rec x . !a.x",
    "rec x . (!a.x (+) !b)",
    "rec x . !a.(rec y . ?b.x)",
    "rec x . !a.(rec y . ?b.x + ?c.y)",
    "rec x . (!a.x (+) !b.x)",
    "rec x . !a.(rec x . ?b.x)",
])
def test_unfold_matches_debruijn_oracle(source):
    term = parse(source)
    assert to_debruijn(unfold(term)) == nameless_unfold(to_debruijn(term))


def _closed_recs(term):
    return [sub for _, sub in _subterms(term) if isinstance(sub, Rec) and not free_vars(sub)]


def test_unfold_matches_debruijn_oracle_under_nested_binders():
    # every closed rec subterm of the nested oracle types and of those
    # subterms' one-step unfoldings, where a binder once open is now closed
    spec = nested_spec()
    recs = {}
    for index in range(spec.count):
        for term in corpus_pair(spec, index):
            for rec in _closed_recs(term):
                recs.setdefault(pretty(rec), rec)
                for inner in _closed_recs(unfold(rec)):
                    recs.setdefault(pretty(inner), inner)
    # in 4 of the 181, unfolding substitutes under a nested binder
    assert len(recs) == 181
    assert sum(any(isinstance(sub, Rec) and rec.var in free_vars(sub) for _, sub in _subterms(rec.body))
               for rec in recs.values()) == 4
    for rec in recs.values():
        assert to_debruijn(unfold(rec)) == nameless_unfold(to_debruijn(rec)), pretty(rec)


def test_unfold_spec_examples():
    assert unfold(parse("rec x . !a.x")) == parse("!a.(rec x . !a.x)")
    assert unfold(parse("rec x . (!a.x (+) !b)")) == parse("!a.(rec x . (!a.x (+) !b)) (+) !b")
    assert unfold(parse("rec x . !a.(rec y . ?b.x)")) == parse(
        "!a.(rec y . ?b.(rec x . !a.(rec y . ?b.x)))"
    )


def test_unfold_is_kept_on_the_term():
    term = parse("rec x . !a.(rec y . ?b.x)")
    assert unfold(term) is unfold(term)


def test_substitute_rejects_open_replacement():
    # a closed replacement has no free variable for a binder to capture, so
    # no binder is renamed; an open one, here a free y to go under a binder
    # for y, is refused, and so is unfolding an open rec
    body = Rec("y", InternalChoice(((out("a"), Var("x")),)))
    with pytest.raises(ValueError, match=r"closed replacement, got !b\.y$"):
        substitute(body, "x", InternalChoice(((out("b"), Var("y")),)))
    closed = parse("rec z . ?c.z")
    assert substitute(body, "x", closed) == Rec("y", InternalChoice(((out("a"), closed),)))
    with pytest.raises(ValueError, match="closed replacement"):
        unfold(Rec("x", InternalChoice(((out("a"), Var("y")),))))


# -- printing ----------------------------------------------------------------

@pytest.mark.parametrize("source", [
    "1",
    "!a (+) !b.!a",
    "?a.?b + ?b.?a + ?c",
    "rec x . ?a.x + ?b",
    "!a.(?b + ?c)",
    "rec x . !a.(rec y . ?b.x + ?c.y)",
])
def test_pretty_round_trips(source):
    term = parse(source)
    assert parse(pretty(term)) == term


@pytest.mark.parametrize("value", [object(), None], ids=["object", "None"])
def test_pretty_rejects_what_is_not_a_term(value):
    with pytest.raises(TypeError, match=r"^not a session type: "):
        pretty(value)


_names = st.sampled_from(["a", "b", "c", "d"])


def _branches(kind, conts):
    def build(pairs):
        seen, branches = set(), []
        make = out if kind == "internal" else inp
        for name, cont in pairs:
            if name not in seen:
                seen.add(name)
                branches.append((make(name), cont))
        cls = InternalChoice if kind == "internal" else ExternalChoice
        return cls(tuple(branches))

    return st.lists(st.tuples(_names, conts), min_size=1, max_size=3).map(build)


def _closed_terms():
    return st.recursive(
        st.just(SUCCESS),
        lambda inner: st.one_of(_branches("internal", inner), _branches("external", inner)),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_closed_terms())
def test_round_trip_property(term):
    assert validate(term) == []
    assert parse(pretty(term)) == term


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_closed_terms())
def test_unfold_preserves_validity(body):
    term = Rec("x", InternalChoice(((out("a"), body), (out("e"), Var("x")))))
    assert validate(term) == []
    assert validate(unfold(term)) == []


# -- the scoped walk against the recursive references ------------------------

def assert_walks_as_references(term):
    """``validate`` (report order included), ``free_vars`` and
    ``_event_count`` agree with the recursive references on ``term`` and
    on the body of each ``rec`` in it, where the binder's variable is free."""
    for sub in [term, *(rec.body for _, rec in _subterms(term) if isinstance(rec, Rec))]:
        assert validate(sub) == reference_validate(sub), pretty(sub)
        assert free_vars(sub) == reference_free_vars(sub), pretty(sub)
        assert _event_count(sub) == reference_event_count(sub), pretty(sub)


def test_walk_matches_references_on_corpus_types():
    # both acceptance corpora, the nested-recursion oracle pairs, the
    # deep-unroll families and the check-large style pairs
    pairs = [case[:2] for kind in ("finite", "recursive", "nested") for case in oracle_cases(kind)]
    families = [parse(source) for source, _ in DEEP_FAMILIES]
    pairs += [(client, dual(client)) for client in families]
    pairs += large_pairs()
    for pair in pairs:
        for term in pair:
            assert_walks_as_references(term)


_vars = st.sampled_from(["x", "y", "z"])


def _open_terms():
    """Terms the parser can produce, with free and unguarded variables."""
    return st.recursive(
        st.one_of(st.just(SUCCESS), _vars.map(Var)),
        lambda inner: st.one_of(_branches("internal", inner), _branches("external", inner),
                                st.builds(Rec, _vars, inner)),
        max_leaves=16,
    )


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_open_terms())
def test_walk_matches_references_on_parser_shaped_terms(term):
    assert parse(pretty(term)) == term
    assert_walks_as_references(term)


_labels = st.sampled_from([out("a"), inp("a"), out("b"), inp("b"), TICK])


def _arbitrary_terms():
    """Terms no parse yields: ``0``, buffers, wrong polarity, duplicate
    actions and empty choices."""
    def choice(cls, inner):
        return st.lists(st.tuples(_labels, inner), max_size=3).map(lambda branches: cls(tuple(branches)))

    return st.recursive(
        st.one_of(st.just(SUCCESS), st.just(TERM0), _vars.map(Var)),
        lambda inner: st.one_of(choice(InternalChoice, inner), choice(ExternalChoice, inner),
                                st.builds(Rec, _vars, inner), st.builds(Buffer, _labels, inner)),
        max_leaves=16,
    )


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_arbitrary_terms())
def test_walk_reports_as_references_on_arbitrary_terms(term):
    # the walk reports a choice's own violations before those below it,
    # where the reference interleaves them branch by branch
    assert Counter(validate(term)) == Counter(reference_validate(term))
    assert free_vars(term) == reference_free_vars(term)


def test_walk_handles_a_deep_term():
    # 5,000 levels, a rec every tenth: the walk keeps its own stack, where a
    # recursive fold needs a Python frame per level
    term = Var("x0")
    for level in reversed(range(5000)):
        term = Rec(f"x{level}", term) if level % 10 == 0 else InternalChoice(((out("a"), term),))
    assert validate(term) == []
    assert free_vars(term) == frozenset()
    assert _event_count(term) == 4500
