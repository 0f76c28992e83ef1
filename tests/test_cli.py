"""Command-line behaviour: exit codes, JSON shape, exports."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stgames
from stgames import cli
from stgames.cli import main
from stgames.denote import DEFAULT_UNROLL_DEPTH
from stgames.estructure import es_to_json, ets, ets_to_dot
from stgames.game import compose_session_contracts
from stgames.harness import turn_lts
from stgames.opsem import LIVELOCK_NOTE
from stgames.syntax import parse

EXAMPLE = ["!a (+) !b.!a", "?a.?b + ?b.?a + ?c"]
# a recursion using its variable twice: its export doubles with each depth
DOUBLING = ["rec x . (!a.x (+) !b.x)", "rec x . (?a.x + ?b.x)"]


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_check_compliant_exit_zero():
    code, text = run(["check", *EXAMPLE])
    assert code == 0
    data = json.loads(text)
    assert data["reduction"]["verdict"] == "compliant"
    assert data["turn_based"]["verdict"] == "compliant"
    assert data["agree"] is True


def test_check_non_compliant_exit_one():
    code, text = run(["check", "!payCash (+) !payCC", "?payCash"])
    assert code == 1
    data = json.loads(text)
    assert data["reduction"]["verdict"] == "non-compliant"
    assert data["reduction"]["witness"]


def test_check_parse_error_exit_two(capsys):
    code, _ = run(["check", "!a (+) ?b", "?a"])
    assert code == 2
    assert capsys.readouterr().err == ("error: parse error: choice branches must be action "
                                       "prefixes of matching polarity (at position 0)\n")


def test_check_duplicate_action_is_an_invalid_type_exit_two(capsys):
    # the type parses; validation reports the repeated action
    assert run(["check", "!a.!a (+) !a", "?a"]) == (2, "")
    assert capsys.readouterr().err == ("error: invalid session type: duplicate-action: "
                                       "action !a appears twice in !a.!a (+) !a\n")


def test_check_indeterminate_exit_two():
    code, text = run(["check", "rec x . !a.x", "rec y . ?a.y", "--limit", "2"])
    assert code == 2
    data = json.loads(text)
    assert data["reduction"]["verdict"] == "indeterminate"
    assert data["reduction"]["truncated"] is True


def test_check_livelock_note_under_both_semantics():
    # a recursive pair still has its cycle found, and reported, by each checker
    code, text = run(["check", "rec x . !a.x", "rec y . ?a.y"])
    assert code == 0
    data = json.loads(text)
    assert data["reduction"]["note"] == data["turn_based"]["note"] == LIVELOCK_NOTE


def test_agree_eager_client_wins():
    code, text = run(["agree", *EXAMPLE])
    assert code == 0
    data = json.loads(text)
    assert data["winning"] is True and data["strategy"] == "eager"


def test_agree_eager_server_loses_with_counterexample():
    code, text = run(["agree", *EXAMPLE, "--participant", "B"])
    assert code == 1
    data = json.loads(text)
    assert data["counterexample"] == ["e1", "e2", "e3"]


def test_agree_search_finds_branch_avoiding_strategy():
    code, text = run(["agree", "!a.!c (+) !b", "?a + ?b", "--strategy", "search"])
    assert code == 0
    data = json.loads(text)
    assert data["winning"] is True
    assert {"prefix": [], "prescribe": ["e7"]} in data["prescriptions"]


def test_agree_search_rows_in_event_id_order():
    # six branches number the server's outputs e2 to e22: rows compare their
    # prefixes id by id in event-id order (e2 before e10), not as strings
    code, text = run(["agree", "?a + ?b + ?c + ?d + ?e + ?f", "!a (+) !b (+) !c (+) !d (+) !e (+) !f",
                      "--strategy", "search"])
    assert code == 0
    prefixes = [row["prefix"] for row in json.loads(text)["prescriptions"]]
    assert [p for p in prefixes if len(p) == 1] == [["e2"], ["e6"], ["e10"], ["e14"], ["e18"], ["e22"]]
    numbered = [[int(eid[1:]) for eid in prefix] for prefix in prefixes]
    assert numbered == sorted(numbered)


def test_agree_bounded_note_printed():
    code, text = run(["agree", "rec x . !a.x", "rec y . ?a.y", "--depth", "3"])
    data = json.loads(text)
    assert data["bounded_depth"] == 3


def test_agree_empty_counterexample_is_an_empty_list():
    # nothing is ever playable, so the losing stop is the empty play: written
    # as [], not as the null of a winning verdict
    code, text = run(["agree", "?a", "?b"])
    assert code == 1
    data = json.loads(text)
    assert data["winning"] is False and data["counterexample"] == []


@pytest.mark.parametrize("client, depth, bounded", [
    ("rec x . !a", "6", None),      # the binder is never used: exact
    ("rec x . !a.x", "6", 6),
    ("rec x . !a", "0", 0),         # depth 0 drops every recursion body
], ids=["unused-binder", "used-binder", "depth-0"])
def test_agree_bounded_only_when_a_recursion_is_cut(client, depth, bounded):
    for strategy in ("eager", "search"):
        _, text = run(["agree", client, "?a", "--depth", depth, "--strategy", strategy])
        data = json.loads(text)
        assert data["bounded_depth"] == bounded
        if strategy == "eager":
            assert data.get("note") == (None if bounded is None else f"bounded at depth {bounded}")


def test_export_has_no_format_option():
    with pytest.raises(SystemExit) as exc:
        run(["export", "!a", "?a", "--format", "json"])
    assert exc.value.code == 2


def test_corpus_defaults_are_the_spec_defaults():
    args = cli.build_parser().parse_args(["corpus"])
    spec = stgames.CorpusSpec(seed=0, count=0)
    assert (args.unroll_depth, args.max_depth, args.max_branch) == (
        spec.unroll_depth, spec.max_depth, spec.max_branch,
    ) == (4, 3, 3)


def test_export_es_lists_couplings():
    code, text = run(["export", *EXAMPLE, "--what", "es"])
    assert code == 0
    data = json.loads(text)
    assert len(data["enablings"]) == 18
    assert len(data["events"]) == 13
    assert sorted(data["conflicts"]) == [
        ["e1", "e5"], ["e2", "e14"], ["e2", "e8"], ["e8", "e14"]
    ]


def test_export_es_trivial_pair():
    code, text = run(["export", "1", "1", "--what", "es"])
    assert code == 0
    data = json.loads(text)
    assert [e["label"] for e in data["events"]] == ["✓", "✓"]
    assert data["enablings"] == [
        {"premise": [], "target": "e1"},
        {"premise": [], "target": "e2"},
    ]


def test_export_ets_dot():
    code, text = run(["export", *EXAMPLE, "--what", "ets"])
    assert code == 0
    assert text.startswith("digraph")
    assert "e5 / !b" in text


def test_export_ts_dot():
    code, text = run(["export", *EXAMPLE, "--what", "ts"])
    assert code == 0
    assert text.startswith("digraph")
    assert "!b" in text and "✓" in text


@pytest.mark.parametrize("what", ["ts", "ets"])
def test_export_truncated_system_exit_two(what, capsys):
    # the truncated system is still written as before, but the exit code and
    # stderr say that it is only a prefix of the real one
    p, q = parse("!a"), parse("?a")
    if what == "ts":
        expected = turn_lts(p, q, 1).to_dot(name="ts")
    else:
        es = compose_session_contracts(p, "A", q, "B").es
        expected = ets_to_dot(es, ets(es, step_bound=1))
    code, text = run(["export", "!a", "?a", "--what", what, "--limit", "1"])
    assert (code, text) == (2, expected + "\n")
    assert capsys.readouterr().err == "error: state limit 1 reached; the exported system is truncated\n"
    assert run(["export", "!a", "?a", "--what", what])[0] == 0


@pytest.mark.parametrize("pair, depth", [(EXAMPLE, DEFAULT_UNROLL_DEPTH), (DOUBLING, 3)],
                         ids=["example", "doubling"])
def test_export_to_file(tmp_path, pair, depth):
    # stdout, the -o file and the whole-text writer give the same bytes
    argv = ["export", *pair, "--what", "es", "--depth", str(depth)]
    target = tmp_path / "es.json"
    code, text = run(argv)
    assert code == 0
    assert run([*argv, "-o", str(target)]) == (0, "")
    composed = compose_session_contracts(parse(pair[0]), "A", parse(pair[1]), "B", depth).es
    assert target.read_bytes() == text.encode() == (es_to_json(composed) + "\n").encode()
    assert json.loads(text)["events"]


class _CountingSink:
    """A text stream that counts the characters written and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_memory_follows_the_structure_not_its_text():
    # export writes as it goes, expanding one target's generators at a time,
    # so its peak stays a fraction of its text (4 MB here): holding the
    # whole text would exceed the bound fourfold
    sink = _CountingSink()

    def export():
        assert main(["export", *DOUBLING, "--depth", "6"], out=sink) == 0

    export()  # fill the caches before measuring
    p, q = map(parse, DOUBLING)
    size = len(es_to_json(compose_session_contracts(p, "A", q, "B", 6).es)) + 1
    assert _traced_peak(export) <= size / 4
    assert sink.chars == 2 * size


def test_export_to_file_is_utf8_whatever_the_locale(tmp_path):
    # under the C locale with UTF-8 mode off, the locale's encoding is ASCII,
    # which cannot encode the ✓ in either export
    env = {**os.environ, "PYTHONPATH": str(Path(stgames.__file__).parents[1]),
           "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    for what in ("es", "ets"):
        target = tmp_path / f"{what}.out"
        argv = ["export", "!a", "?a", "--what", what]
        done = subprocess.run([sys.executable, "-m", "stgames.cli", *argv, "-o", str(target)],
                              env=env, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b""), what
        code, text = run(argv)
        assert code == 0 and "✓" in text
        assert target.read_bytes() == text.encode("utf-8"), what


@pytest.mark.parametrize("argv", [
    ["export", "!a", "?a", "--what", "es"],
    ["export", "!a", "?a", "--what", "ets"],
    ["check", "!a.!b", "?a", "--format", "text"],
], ids=["es", "ets", "check-text"])
def test_stdout_is_utf8_whatever_the_locale(argv):
    # each output holds a ✓, which the C locale's ASCII cannot encode
    env = {**os.environ, "PYTHONPATH": str(Path(stgames.__file__).parents[1]),
           "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    done = subprocess.run([sys.executable, "-m", "stgames.cli", *argv], env=env, capture_output=True)
    code, text = run(argv)
    assert "✓" in text
    assert (done.returncode, done.stderr) == (code, b"")
    assert done.stdout == text.encode("utf-8")


def test_export_unwritable_path_exit_two():
    code, _ = run(["export", *EXAMPLE, "--what", "es", "-o", "/nonexistent-dir/es.json"])
    assert code == 2


def test_type_from_file(tmp_path):
    client = tmp_path / "p.st"
    client.write_text(EXAMPLE[0], encoding="utf-8")
    code, text = run(["check", f"@{client}", EXAMPLE[1]])
    assert code == 0
    assert json.loads(text)["agree"] is True


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_type_file_with_byte_order_mark(tmp_path, newline):
    # a leading UTF-8 byte-order mark is skipped, not read as a character
    server = tmp_path / "bom.st"
    server.write_bytes(b"\xef\xbb\xbf" + (EXAMPLE[1] + newline).encode("utf-8"))
    inline = run(["check", *EXAMPLE])
    assert inline[0] == 0
    assert run(["check", EXAMPLE[0], f"@{server}"]) == inline


def test_type_file_not_utf8_names_the_file(tmp_path, capsys):
    server = tmp_path / "bad.st"
    server.write_bytes(b"\xff")
    assert run(["check", "!a", f"@{server}"])[0] == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {server}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", *EXAMPLE],
    ["export", *EXAMPLE, "--what", "es"],
    ["export", *EXAMPLE, "--what", "ts"],
    ["export", *EXAMPLE, "--what", "ets"],
], ids=["check", "export-es", "export-ts", "export-ets"])
def test_limit_zero_has_one_wording(argv, capsys):
    assert run([*argv, "--limit", "0"]) == (2, "")
    assert capsys.readouterr().err == "error: state limit must be positive\n"


@pytest.mark.parametrize("argv", [
    ["agree", *EXAMPLE],
    ["export", *EXAMPLE, "--what", "es"],
    ["export", *EXAMPLE, "--what", "ts"],
    ["export", *EXAMPLE, "--what", "ets"],
], ids=["agree", "export-es", "export-ts", "export-ets"])
def test_negative_depth_has_one_wording(argv, capsys):
    # export checks --depth whatever --what is, also for ts, which composes nothing
    assert run([*argv, "--depth", "-1"]) == (2, "")
    assert capsys.readouterr().err == "error: unroll depth must be non-negative\n"


def test_output_byte_stable():
    first = run(["export", *EXAMPLE, "--what", "es"])
    second = run(["export", *EXAMPLE, "--what", "es"])
    assert first == second
    assert run(["check", *EXAMPLE]) == run(["check", *EXAMPLE])
    assert run(["export", *EXAMPLE, "--what", "ets"]) == run(["export", *EXAMPLE, "--what", "ets"])


def test_output_matches_golden_digests():
    # SHA-256 of the stdout of `export --what es|ets`, `agree` and
    # `agree --strategy search` on three fixed pairs, and of `check` and
    # `export --what ts` on three more (one also at a truncating --limit),
    # recorded once, so an output change between versions fails here
    # unless it is deliberate
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
    assert len(golden) == 19
    for case in golden:
        code, text = run(case["argv"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert (code, digest) == (case["exit"], case["sha256"]), case["argv"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: stgames check")


# types the totality property mutates: every kind of term, none that
# compiles to a large structure at the default unroll depth
VALID_TYPES = (
    "1", "0", "!a", "?a", *EXAMPLE, "!payCash (+) !payCC", "?payCash", "!a.!c (+) !b",
    "?a + ?b", "rec x . !a.x", "rec y . ?a.y", "rec x . (!a.!b.x (+) !c)",
    "rec x . !a.(?b.x + ?c) (+) !d",
)

EXTRA_OPTIONS = (
    [], ["--format", "text"], ["--depth", "2"], ["--depth", "-1"], ["--limit", "5"],
    ["--limit", "0"], ["--participant", "B"], ["--strategy", "search"], ["--what", "ets"],
    ["--what", "ts"], ["--participants", "A", "A"],
)

ACCEPTED_OPTIONS = {
    "check": {"--format", "--limit"},
    "agree": {"--format", "--depth", "--participant", "--strategy", "--participants"},
    "export": {"--depth", "--limit", "--what", "--participants"},
}


@st.composite
def mutated_type(draw):
    text = draw(st.sampled_from(VALID_TYPES))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(["", "!", "?", ".", "(", ")", "+", "(+)", "rec", "x", " ", "1", "0"]))
        cut = draw(st.integers(0, 2))
        text = text[:at] + piece + text[at + cut:]
    return text


# text naming a file reads the file system, and a help request exits 0 by
# design (test_help_exits_zero), so the property draws neither
free_text = st.text(max_size=30).filter(
    lambda t: not t.startswith(("@", "-h")) and not (len(t) >= 3 and "--help".startswith(t))
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["check", "agree", "export"]),
    types=st.lists(st.one_of(free_text, mutated_type(), st.sampled_from(VALID_TYPES)),
                   min_size=2, max_size=2),
    extra=st.sampled_from(EXTRA_OPTIONS),
)
def test_main_is_total(command, types, extra):
    # ROADMAP item 4: every input ends in exit 0, 1 or 2, never a traceback;
    # argparse rejects what it cannot parse with SystemExit(2), and only
    # option-like text or an option the command does not take gets that far
    argv = [command, *types, *extra]
    usage_error = (any(t.startswith("-") for t in types)
                   or (extra and extra[0] not in ACCEPTED_OPTIONS[command]))
    try:
        code, _ = run(argv)
    except SystemExit as exc:
        assert exc.code == 2 and usage_error, argv
    else:
        assert code in (0, 1, 2), argv


def test_export_non_ascii_participant_matches_golden_digest():
    # recorded once, like golden_cli.json: "Ä" is written as itself, not
    # as an escape, so the JSON writer's non-ASCII handling is pinned end to end
    code, text = run(["export", *EXAMPLE, "--what", "es", "--participants", "Ä", "B"])
    assert code == 0
    assert '"participant": "Ä"' in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "720aeb582f06bede97ed7ed7bc7f569745c249ad9210db4e6e7152c043e55142"
    )


def test_export_closed_pipe_exit_two():
    # the reader takes one line of a large export and closes the pipe
    env = {**os.environ, "PYTHONPATH": str(Path(stgames.__file__).parents[1])}
    argv = [sys.executable, "-m", "stgames.cli", "export", *DOUBLING, "--depth", "6"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 2
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["export", *EXAMPLE, "--what", "es"],
    ["export", *EXAMPLE, "--what", "ets"],
    ["agree", *EXAMPLE],
], ids=["es", "ets", "agree"])
def test_equal_participants_exit_two(argv, capsys):
    code, text = run([*argv, "--participants", "A", "A"])
    assert (code, text) == (2, "")
    assert "distinct participants" in capsys.readouterr().err


@pytest.mark.parametrize("who", ["C", ""], ids=["named", "empty"])
def test_agree_unknown_participant_fails_before_composing(monkeypatch, capsys, who):
    # an empty name is unknown too, not the default participant
    def compose(*args):
        raise AssertionError("composed before checking --participant")

    monkeypatch.setattr(cli, "compose_session_contracts", compose)
    code, _ = run(["agree", *EXAMPLE, "--participant", who])
    assert code == 2
    assert f"unknown participant {who}\n" in capsys.readouterr().err


def test_deeply_nested_type_exit_two(capsys):
    code, _ = run(["check", "!a." * 3000 + "1", "?a"])
    assert code == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("error", [MemoryError(), SystemError("error return without exception set")],
                         ids=["MemoryError", "frame-SystemError"])
def test_out_of_memory_exit_two(monkeypatch, capsys, error):
    # CPython 3.11 and 3.12 raise the SystemError where a call finds no
    # memory for its frame
    def compose(*args):
        raise error

    monkeypatch.setattr(cli, "compose_session_contracts", compose)
    code, text = run(["agree", *EXAMPLE])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


# nested pair 115 (seed 1001): at depth 4 the compile walk alone needs more
# than 256 MiB
NESTED_115 = ("rec x0 . rec x1 . ?b + ?c.(!a.?d.x1 (+) !c.?d.x1) + ?d.x0",
              "rec x0 . rec x1 . !b (+) !c.(?a.!d.x1 + ?c.!d.x1 + ?d) (+) !d.x0")


def test_out_of_memory_under_an_address_space_cap():
    # a real exhaustion, not a raised stand-in: the message is printed past
    # the handler, whose traceback still holds the failed walk's frames, so
    # printing cannot run out of memory again and dump a traceback
    resource = pytest.importorskip("resource")
    cap = 256 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = run_fresh(["agree", *NESTED_115, "--depth", "4"], preexec_fn=limit)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(b"error: out of memory") and done.stderr.count(b"\n") == 1


def test_other_system_errors_are_not_out_of_memory(monkeypatch):
    def compose(*args):
        raise SystemError("some other internal error")

    monkeypatch.setattr(cli, "compose_session_contracts", compose)
    with pytest.raises(SystemError, match="some other"):
        run(["agree", *EXAMPLE])


def test_check_long_chain_exit_zero():
    # a 300-prefix chain stays within the recursion limit: parsing, printing
    # and exploring take a bounded number of frames per nesting level
    code, _ = run(["check", ".".join(["!a"] * 300), ".".join(["?a"] * 300)])
    assert code == 0


CHAIN = 900
DEEP_PAIRS = {
    "plain": (".".join(["!a"] * CHAIN), ".".join(["?a"] * CHAIN)),
    "rec": ("rec x . " + ".".join(["!a"] * CHAIN) + ".x", "rec x . " + ".".join(["?a"] * CHAIN) + ".x"),
}


def run_fresh(argv, **options):
    """Run the CLI in a fresh interpreter, where pytest's own frames do not
    eat into the recursion limit; ``options`` go to ``subprocess.run``."""
    env = {**os.environ, "PYTHONPATH": str(Path(stgames.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "stgames.cli", *argv], env=env, capture_output=True,
                          **options)


@pytest.mark.parametrize("pair", sorted(DEEP_PAIRS))
@pytest.mark.parametrize("command", [["check"], ["agree"], ["export", "--what", "es"],
                                     ["export", "--what", "ets"], ["export", "--what", "ts"]],
                         ids=["check", "agree", "es", "ets", "ts"])
def test_deep_chain_is_analysed(pair, command):
    # 900-prefix chains, plain and under rec: printing, unfolding and
    # exploring take one frame per nesting level at most.  A recursion is
    # unrolled once (--depth 1), as the default depth nests the chain six
    # times over in the compile walk, and not at all (--depth 0), where the
    # walk only counts the body's events; eager then loses the bounded game,
    # the documented bounded verdict, so agree exits 1 there
    unrolled = pair == "rec" and command[-1] in ("agree", "es", "ets")
    for depth in ("1", "0") if unrolled else (None,):
        done = run_fresh([*command, *DEEP_PAIRS[pair], *(("--depth", depth) if depth else ())])
        expected = 1 if (pair, command[0]) == ("rec", "agree") else 0
        assert (done.returncode, done.stderr) == (expected, b""), depth
        if expected:
            assert f"bounded at depth {depth}".encode() in done.stdout


def test_check_nested_choices_exit_zero():
    # 240 levels of !a.( ... ) (+) !c against the dual stay within the
    # recursion limit; on this shape the parser spends the most frames per level
    client, server = "1", "1"
    for _ in range(240):
        client, server = f"!a.({client}) (+) !c", f"?a.({server}) + ?c"
    code, _ = run(["check", client, server])
    assert code == 0


def test_deep_unroll_exit_two(capsys):
    code, _ = run(["agree", "rec x . !a.x", "rec y . ?a.y", "--depth", "700"])
    assert code == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_deep_unroll_is_decided():
    # the compile walk takes one frame per unrolling, so 450 unrollings of a
    # one-prefix loop stay within the recursion limit
    done = run_fresh(["agree", "rec x . !a.x", "rec y . ?a.y", "--depth", "450"])
    assert (done.returncode, done.stderr) == (1, b"")
    assert b"bounded at depth 450" in done.stdout


def test_corpus_command():
    code, text = run(["corpus", "--seed", "6", "--count", "12"])
    assert code == 0
    data = json.loads(text)
    assert data["pairs"] == 12
    assert data["failures"] == []
    assert data["correspondence_agreements"] == 12


def test_corpus_recursive_command():
    code, text = run([
        "corpus", "--seed", "6", "--count", "5", "--recursive", "--unroll-depth", "3",
    ])
    assert code == 0
    data = json.loads(text)
    assert data["recursive"] is True and data["pairs"] == 5


def test_corpus_recursive_depth_zero_bisimulations_agree():
    # pairs 0 and 2 have the client rec loop . !a.loop; at depth 0 its
    # denotation is empty, and so is its truncation, a stuck empty choice
    code, text = run(["corpus", "--count", "3", "--recursive", "--unroll-depth", "0"])
    assert code == 0
    data = json.loads(text)
    assert data["bisim_agreements"] == 3 and data["failures"] == []


@pytest.mark.parametrize("option", [["--count", "-1"], ["--max-depth", "-2"], ["--max-branch", "0"],
                                    ["--count", "0", "--unroll-depth", "-1"],
                                    ["--count", "3", "--unroll-depth", "-1"]],
                         ids=["count", "max-depth", "max-branch", "unroll-depth-empty",
                              "unroll-depth"])
def test_corpus_out_of_range_exit_two(option, capsys):
    code, text = run(["corpus", *option])
    assert (code, text) == (2, "")
    assert "error: corpus" in capsys.readouterr().err


def test_corpus_rejects_depth(capsys):
    # the corpus's one depth option is --unroll-depth
    with pytest.raises(SystemExit) as exc:
        run(["corpus", "--depth", "3"])
    assert exc.value.code == 2
    assert "--depth" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--depth", "3"], ["--participants", "C", "D"]],
                         ids=["depth", "participants"])
def test_check_rejects_depth(option, capsys):
    # check composes no event structure, so it takes neither option
    with pytest.raises(SystemExit) as exc:
        run(["check", *EXAMPLE, *option])
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["agree", *EXAMPLE], ["corpus"]], ids=["agree", "corpus"])
def test_agree_rejects_limit(argv, capsys):
    # neither agree nor corpus takes a state limit: their explorations read
    # the default one, and a truncation there is only a failure
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--limit", "1"])
    assert exc.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_text_format():
    code, text = run(["check", *EXAMPLE, "--format", "text"])
    assert code == 0
    assert "agree: True" in text
