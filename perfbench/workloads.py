"""The four benchmark workloads: input generation, operations and their references.

Every workload is a pool of *shapes* generated from the seed at set-up.
The timed loop walks the pool in passes of a fixed size.  Each time it
starts over the pool it draws a new order and a new action alphabet, so no
input repeats within a run.  The alphabet is an increasing run of
lower-case letters: renaming actions in order-preserving fashion leaves
every sort order, and hence the work, of an input unchanged, while the
inputs themselves (and every output) differ from seed to seed.

One operation (op) is one call into stgames, timed from call to return.
After the call the benchmark checks the result against a reference from an
independent source and reports ``ok``, ``indeterminate`` or ``failed``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import string
from dataclasses import dataclass, field

from stgames import cli, harness
from stgames.harness import CorpusSpec, dual, truncate
from stgames.opsem import check_compliance
from stgames.syntax import (
    SUCCESS,
    ExternalChoice,
    InternalChoice,
    Rec,
    SessionType,
    Var,
    inp,
    out,
    parse,
    pretty,
)


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def draw_alphabet(rng: random.Random, size: int) -> tuple[str, ...]:
    """An increasing tuple of distinct lower-case letters."""
    return tuple(sorted(rng.sample(string.ascii_lowercase, size)))


@dataclass
class Outcome:
    status: str  # "ok" | "indeterminate" | "failed"
    detail: str = ""
    fingerprint: str = ""


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class CorpusOp:
    """``run_corpus`` on a one-pair corpus; the harness cross-checks are the reference."""

    spec: CorpusSpec
    output_bytes: int = 0  # nothing is printed

    def describe(self) -> str:
        s = self.spec
        return (f"corpus seed={s.seed} depth={s.max_depth} branch={s.max_branch} "
                f"recursive={s.allow_recursion} unroll={s.unroll_depth} actions={''.join(s.actions)}")

    def run(self):
        return harness.run_corpus(self.spec)


    def check(self, summary) -> Outcome:
        text = json.dumps(summary.to_json(), sort_keys=True)
        if summary.pairs != self.spec.count:
            return Outcome("failed", f"{summary.pairs} pairs checked, expected {self.spec.count}")
        if not summary.ok:
            details = "; ".join(f"{f['check']}: {f['detail']}" for f in summary.failures)
            status = "indeterminate" if "indeterminate" in details else "failed"
            return Outcome(status, details)
        return Outcome("ok", fingerprint=fingerprint(text))


@dataclass
class CliOp:
    """One in-process ``stgames`` command; ``expect`` names the reference check."""

    argv: list[str]
    expect: str  # "compliant" | "non-compliant" | "events" | "eager" | "search"
    depth: int | None = None
    events_per_side: int | None = None
    family: str | None = None  # the deep-unroll family, the key of ``reference``
    reference: "ReferenceCache | None" = None
    output_bytes: int = 0

    def describe(self) -> str:
        return "stgames " + " ".join(self.argv)

    def run(self):
        sink = io.StringIO()
        code = cli.main(list(self.argv), out=sink)
        return code, sink.getvalue()

    def pair(self) -> tuple[SessionType, SessionType]:
        return parse(self.argv[1]), parse(self.argv[2])

    def check(self, result) -> Outcome:
        code, text = result
        self.output_bytes = len(text.encode())
        print_ = fingerprint(f"{code}:{text}")
        if self.expect in ("compliant", "non-compliant"):
            return self._check_compliance(code, text, print_)
        if code not in (0, 1):  # export and agree have no indeterminate verdict
            return Outcome("failed", f"exit code {code}")
        if self.expect == "events":
            for who in ("A", "B"):
                found = len(re.findall(rf'"participant":\s*"{who}"', text))
                if found != self.events_per_side:
                    return Outcome("failed", f"{who} has {found} events, expected {self.events_per_side}")
            return Outcome("ok", fingerprint=print_)
        compliant = self.reference.truncated_compliant(self.family, self.pair(), self.depth)
        if compliant is None:
            return Outcome("indeterminate", "truncated compliance is indeterminate")
        if self.expect == "eager" and code != (0 if compliant else 1):
            return Outcome("failed", f"eager exit {code}, truncated types compliant={compliant}")
        if self.expect == "search" and compliant and code != 0:
            return Outcome("failed", "no winning strategy for a compliant truncated pair")
        return Outcome("ok", fingerprint=print_)

    def _check_compliance(self, code: int, text: str, print_: str) -> Outcome:
        if code == 2:
            status = "indeterminate" if "indeterminate" in text else "failed"
            return Outcome(status, "exit code 2")
        verdicts = json.loads(text)
        got = (verdicts["reduction"]["verdict"], verdicts["turn_based"]["verdict"])
        if got != (self.expect, self.expect) or not verdicts["agree"]:
            return Outcome("failed", f"verdicts {got}, expected {self.expect}")
        if code != (0 if self.expect == "compliant" else 1):
            return Outcome("failed", f"exit code {code} for {self.expect}")
        return Outcome("ok", fingerprint=print_)


class ReferenceCache:
    """Reduction compliance of the depth-truncated types, the reference for ``agree``.

    Cached per (family, depth): renaming actions does not change a verdict.
    """

    def __init__(self) -> None:
        self.verdicts: dict[tuple[str, int], bool | None] = {}

    def truncated_compliant(self, family: str, pair: tuple[SessionType, SessionType],
                            depth: int) -> bool | None:
        key = (family, depth)
        if key not in self.verdicts:
            client, server = pair
            verdict = check_compliance(
                truncate(client, depth), truncate(server, depth), validate_inputs=False,
            )
            self.verdicts[key] = None if verdict.status == "indeterminate" else verdict.is_compliant
        return self.verdicts[key]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    tail_percentile: int
    letters: int
    pass_size: int | None = None  # None: a pass is one sweep over the whole pool

    def pool(self, rng: random.Random) -> list:
        raise NotImplementedError

    def make_op(self, shape, alphabet: tuple[str, ...]):
        raise NotImplementedError

    def warmup_ops(self) -> list:
        raise NotImplementedError


@dataclass
class CorpusWorkload(Workload):
    recursive: bool = False
    pool_size: int = 0

    def spec(self, seed: int, alphabet: tuple[str, ...]) -> CorpusSpec:
        return CorpusSpec(seed=seed, count=1, allow_recursion=self.recursive,
                          unroll_depth=4, actions=alphabet)

    def pool(self, rng: random.Random) -> list[int]:
        if self.recursive:
            # A fixed population: 5% of recursive pairs take 70% of the time,
            # so a seed-drawn sample would not give steady figures.
            return list(range(self.pool_size))
        return rng.sample(range(10**6), self.pool_size)

    def make_op(self, shape: int, alphabet: tuple[str, ...]) -> CorpusOp:
        return CorpusOp(self.spec(shape, alphabet))

    def warmup_ops(self) -> list[CorpusOp]:
        return [CorpusOp(self.spec(seed, ("a", "b", "c", "d"))) for seed in (1, 2)]


# A check-large shape is a tree over action *indices*; leaves are "1" or the
# loop variable "x".  Nodes are ("i" | "e", ((index, child), ...)).

def _grow_tree(rng: random.Random, prefixes: int, max_depth: int, max_branch: int,
               letters: int) -> dict:
    root = {"depth": 0, "kind": None, "kids": ()}
    leaves = [root]
    made = 0
    while made < prefixes:
        open_leaves = [leaf for leaf in leaves if leaf["depth"] < max_depth]
        if not open_leaves:
            break
        leaf = rng.choice(open_leaves)
        width = rng.randint(1, min(max_branch, prefixes - made))
        leaf["kind"] = rng.choices("ie", (3, 2))[0]
        leaf["names"] = sorted(rng.sample(range(letters), width))
        leaf["kids"] = tuple({"depth": leaf["depth"] + 1, "kind": None, "kids": ()}
                             for _ in range(width))
        leaves.remove(leaf)
        leaves.extend(leaf["kids"])
        made += width
    return root


def _freeze(node: dict, loops: set[int]):
    if node["kind"] is None:
        return "x" if id(node) in loops else "1"
    return (node["kind"], tuple((name, _freeze(kid, loops))
                                for name, kid in zip(node["names"], node["kids"])))


def _leaves(node: dict) -> list[dict]:
    if node["kind"] is None:
        return [node] if node["depth"] >= 1 else []
    return [leaf for kid in node["kids"] for leaf in _leaves(kid)]


def _drop_targets(shape, path=()) -> list[tuple]:
    """Paths of client internal choices with two or more branches."""
    if isinstance(shape, str):
        return []
    kind, branches = shape
    here = [path] if kind == "i" and len(branches) >= 2 else []
    return here + [t for i, (_, kid) in enumerate(branches) for t in _drop_targets(kid, path + (i,))]


def _render(shape, alphabet, swap: bool, drop: tuple | None = None, drop_index: int = 0,
            path: tuple = ()) -> SessionType:
    if shape == "1":
        return SUCCESS
    if shape == "x":
        return Var("x")
    kind, branches = shape
    internal = (kind == "i") != swap
    make = out if internal else inp
    rendered = tuple(
        (make(alphabet[name]), _render(kid, alphabet, swap, drop, drop_index, path + (i,)))
        for i, (name, kid) in enumerate(branches)
        if not (path == drop and i == drop_index)
    )
    return InternalChoice(rendered) if internal else ExternalChoice(rendered)


@dataclass(frozen=True)
class LargePair:
    tree: object
    recursive: bool
    drop: tuple | None  # the server drops one branch of the client's choice at this path
    drop_index: int


@dataclass
class CheckLargeWorkload(Workload):
    pool_size: int = 0
    # Prefix counts of non-recursive and recursive clients.  A loop back to
    # the root roughly triples the states explored, so recursive clients are
    # smaller: both halves then cost about the same, and the median op does
    # not fall into the gap between two clusters.
    prefixes: tuple[int, int] = (240, 110)

    def shape(self, rng: random.Random, index: int) -> LargePair:
        recursive = index % 2 == 1
        root = _grow_tree(rng, self.prefixes[recursive], 8, 4, self.letters)
        loops = {id(leaf) for leaf in rng.sample(_leaves(root), 2)} if recursive else set()
        tree = _freeze(root, loops)
        targets = _drop_targets(tree)
        drop, drop_index = None, 0
        if index % 4 >= 2 and targets:
            drop = rng.choice(targets)
            node = tree
            for i in drop:
                node = node[1][i][1]
            drop_index = rng.randrange(len(node[1]))
        return LargePair(tree, recursive, drop, drop_index)

    def pool(self, rng: random.Random) -> list[LargePair]:
        return [self.shape(rng, index) for index in range(self.pool_size)]

    def make_op(self, shape: LargePair, alphabet: tuple[str, ...]) -> CliOp:
        client = _render(shape.tree, alphabet, swap=False)
        server = _render(shape.tree, alphabet, swap=True, drop=shape.drop, drop_index=shape.drop_index)
        if shape.recursive:
            client, server = Rec("x", client), Rec("x", server)
        expect = "compliant" if shape.drop is None else "non-compliant"
        return CliOp(["check", pretty(client), pretty(server)], expect)

    def warmup_ops(self) -> list[CliOp]:
        return [CliOp(["check", "!a (+) !b.!a", "?a + ?b.?a"], "compliant"),
                CliOp(["check", "rec x . (!a.x (+) !b)", "rec x . ?a.x"], "non-compliant")]


# Families for deep-unroll: (source, events per side at depth d).
FAMILIES = (
    ("rec x . (!a.!b.x (+) !c)", lambda d: 4 * d),
    ("rec x . (!a.(?b.x + ?c) (+) !d)", lambda d: 6 * d),
    ("rec x . !a.x", lambda d: d),
    ("rec x . (!a.x (+) !b.x)", lambda d: 2 ** (d + 1) - 2),
)

# Depths per (family, command).  The copy tree doubles per level: at depth 7
# `export` alone takes seconds and writes tens of megabytes.
DEPTHS = {
    0: {"es": range(8, 13), "eager": range(8, 13), "search": range(8, 13)},
    1: {"es": range(8, 13), "eager": range(8, 12), "search": range(6, 10)},
    2: {"es": range(8, 13), "eager": range(8, 13), "search": range(8, 13)},
    3: {"es": range(4, 7), "eager": range(3, 6), "search": range(3, 5)},
}

COMMANDS = {
    "es": ["export", "--what", "es"],
    "eager": ["agree"],
    "search": ["agree", "--strategy", "search"],
}


@dataclass
class DeepUnrollWorkload(Workload):
    reference: ReferenceCache = field(default_factory=ReferenceCache)

    def pool(self, rng: random.Random) -> list[tuple[int, str, int]]:
        return [(family, command, depth)
                for family, commands in DEPTHS.items()
                for command, depths in commands.items()
                for depth in depths]

    def make_op(self, shape: tuple[int, str, int], alphabet: tuple[str, ...]) -> CliOp:
        family, command, depth = shape
        source, events = FAMILIES[family]
        rename = dict(zip("abcd", alphabet))
        client = parse(re.sub(r"([!?])([a-d])", lambda m: m.group(1) + rename[m.group(2)], source))
        cmd = COMMANDS[command]
        argv = [cmd[0], pretty(client), pretty(dual(client)), *cmd[1:], "--depth", str(depth)]
        expect = "events" if command == "es" else command
        return CliOp(argv, expect, depth, events(depth), source, self.reference)

    def warmup_ops(self) -> list[CliOp]:
        return [self.make_op((family, command, 2), ("a", "b", "c", "d"))
                for family in (0, 3) for command in COMMANDS]


WORKLOADS = {
    "corpus-finite": CorpusWorkload("corpus-finite", tail_percentile=99, letters=4,
                                    pass_size=256, pool_size=8192),
    "corpus-recursive": CorpusWorkload("corpus-recursive", tail_percentile=95, letters=4,
                                       recursive=True, pool_size=100),
    "check-large": CheckLargeWorkload("check-large", tail_percentile=95, letters=6,
                                      pass_size=32, pool_size=512),
    "deep-unroll": DeepUnrollWorkload("deep-unroll", tail_percentile=95, letters=4),
}


def passes(workload: Workload, pool: list, seed: int):
    """Endless passes of ops; each sweep over the pool gets a new order and alphabet."""
    rng = random.Random(f"{workload.name}/{seed}/passes")
    while True:
        order = list(pool)
        rng.shuffle(order)
        alphabet = draw_alphabet(rng, workload.letters)
        size = workload.pass_size or len(order)
        for start in range(0, len(order), size):
            yield [workload.make_op(shape, alphabet) for shape in order[start:start + size]]


def make_pool(workload: Workload, seed: int) -> list:
    return workload.pool(random.Random(f"{workload.name}/{seed}/pool"))


def inputs_digest(workload: Workload, seed: int, pass_count: int = 2) -> str:
    """Digest of the first passes of generated inputs."""
    stream = passes(workload, make_pool(workload, seed), seed)
    digest = hashlib.sha256()
    for _ in range(pass_count):
        for op in next(stream):
            digest.update(op.describe().encode() + b"\n")
    return digest.hexdigest()

