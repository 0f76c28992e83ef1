"""A small labelled transition system container shared by all semantics."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

# the default bound on the states an exploration or a game arena reaches
DEFAULT_STATE_LIMIT = 10**5


@dataclass(frozen=True)
class Lts:
    """Finite LTS with opaque string state keys and string edge labels.

    ``truncated`` records that exploration hit a state or step limit, so the
    system shown here is only a prefix of the real one.
    """

    states: frozenset[str]
    initial: str
    edges: frozenset[tuple[str, str, str]]
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise ValueError("initial state is not a state")
        states, edges = self.states, self.edges
        if not (states.issuperset(map(itemgetter(0), edges))
                and states.issuperset(map(itemgetter(2), edges))):
            raise ValueError("edge endpoint is not a state")

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(label for _, label, _ in self.edges)

    def successors(self, state: str) -> list[tuple[str, str]]:
        return sorted((label, dst) for src, label, dst in self.edges if src == state)

    def has_cycle(self) -> bool:
        """Whether any cycle exists, reachable from ``initial`` or not: peel
        off states with no incoming edge left (Kahn's algorithm); the states
        that remain lie on or behind a cycle."""
        successors: dict[str, list[str]] = {s: [] for s in self.states}
        indegree = dict.fromkeys(self.states, 0)
        for src, _, dst in self.edges:
            successors[src].append(dst)
            indegree[dst] += 1
        sources = [s for s, n in indegree.items() if not n]
        peeled = 0
        while sources:
            peeled += 1
            for dst in successors[sources.pop()]:
                indegree[dst] -= 1
                if not indegree[dst]:
                    sources.append(dst)
        return peeled < len(self.states)

    def to_dot(self, name: str = "lts", edge_label: dict[str, str] | None = None) -> str:
        """Render as DOT.  ``edge_label`` optionally rewrites labels for display."""
        # the initial state is n0, the others follow in sorted order
        states = [self.initial, *sorted(self.states - {self.initial})]
        index = {state: i for i, state in enumerate(states)}
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for i, state in enumerate(states):
            shape = "doublecircle" if i == 0 else "circle"
            lines.append(f'  n{i} [label="s{i}" shape={shape} tooltip="{_dot_escape(state)}"];')
        for src, label, dst in sorted(self.edges):
            shown = edge_label.get(label, label) if edge_label else label
            lines.append(f'  n{index[src]} -> n{index[dst]} [label="{_dot_escape(shown)}"];')
        lines.append("}")
        return "\n".join(lines)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
