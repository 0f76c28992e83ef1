"""A small labelled transition system container shared by all semantics."""

from __future__ import annotations

from dataclasses import dataclass


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
        for src, _, dst in self.edges:
            if src not in self.states or dst not in self.states:
                raise ValueError("edge endpoint is not a state")

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(label for _, label, _ in self.edges)

    def successors(self, state: str) -> list[tuple[str, str]]:
        return sorted((label, dst) for src, label, dst in self.edges if src == state)

    def has_cycle(self) -> bool:
        adjacency: dict[str, list[str]] = {s: [] for s in self.states}
        for src, _, dst in self.edges:
            adjacency[src].append(dst)
        WHITE, GREY, BLACK = 0, 1, 2
        colour = dict.fromkeys(self.states, WHITE)
        for root in sorted(self.states):
            if colour[root] != WHITE:
                continue
            stack: list[tuple[str, int]] = [(root, 0)]
            colour[root] = GREY
            while stack:
                node, idx = stack[-1]
                if idx < len(adjacency[node]):
                    stack[-1] = (node, idx + 1)
                    nxt = adjacency[node][idx]
                    if colour[nxt] == GREY:
                        return True
                    if colour[nxt] == WHITE:
                        colour[nxt] = GREY
                        stack.append((nxt, 0))
                else:
                    colour[node] = BLACK
                    stack.pop()
        return False

    def to_dot(self, name: str = "lts", edge_label: dict[str, str] | None = None) -> str:
        """Render as DOT.  ``edge_label`` optionally rewrites labels for display."""
        order = {state: i for i, state in enumerate(sorted(self.states))}
        order[self.initial] = -1
        index = {s: i for i, s in enumerate(sorted(self.states, key=lambda s: order[s]))}
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for state in sorted(self.states, key=lambda s: index[s]):
            shape = "doublecircle" if state == self.initial else "circle"
            lines.append(
                f'  n{index[state]} [label="s{index[state]}" shape={shape} tooltip="{_dot_escape(state)}"];'
            )
        for src, label, dst in sorted(self.edges):
            shown = edge_label.get(label, label) if edge_label else label
            lines.append(f'  n{index[src]} -> n{index[dst]} [label="{_dot_escape(shown)}"];')
        lines.append("}")
        return "\n".join(lines)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
