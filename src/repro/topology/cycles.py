"""Cycle bases and the Maxwell cyclomatic number on graphs.

Kirchhoff's second law needs one independent equation per independent
loop; Maxwell's *cyclomatic number* ``|E| - |V| + c`` (``c`` connected
components) counts them (§II-A).  This module derives an explicit
*fundamental cycle basis* from a spanning forest: each non-tree edge
closes exactly one cycle with the tree path between its endpoints.
These cycles are the concrete, independently-processable work units
("holes") behind the paper's Betti-number-aware parallelism.

Graphs here are plain vertex/edge lists so the module works for both
the MEA joint graph and arbitrary circuits; conversion helpers to and
from :class:`~repro.topology.complex.SimplicialComplex` are provided.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


def _normalize(edge: Edge) -> Edge:
    a, b = edge
    if a == b:
        raise ValueError(f"self-loop at {a!r} not allowed")
    return (a, b) if repr(a) <= repr(b) else (b, a)


@dataclass(frozen=True)
class CycleBasis:
    """A fundamental cycle basis.

    Attributes
    ----------
    cycles:
        Each cycle as a tuple of normalised edges.
    tree_edges / chord_edges:
        The spanning-forest partition that generated the basis; cycle
        ``k`` is the unique cycle of ``chord_edges[k]``.
    """

    cycles: tuple[tuple[Edge, ...], ...]
    tree_edges: tuple[Edge, ...]
    chord_edges: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.cycles)


def cyclomatic_number(
    vertices: Sequence[Vertex], edges: Sequence[Edge]
) -> int:
    """``|E| - |V| + c`` for the simple graph ``(vertices, edges)``."""
    vset = set(vertices)
    eset = {_normalize(e) for e in edges}
    for a, b in eset:
        if a not in vset or b not in vset:
            raise ValueError(f"edge ({a!r}, {b!r}) uses unknown vertex")
    comps = _component_count(vset, eset)
    return len(eset) - len(vset) + comps


def _component_count(vset: set[Vertex], eset: set[Edge]) -> int:
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in vset}
    for a, b in eset:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[Vertex] = set()
    comps = 0
    for v in vset:
        if v in seen:
            continue
        comps += 1
        queue = deque([v])
        seen.add(v)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return comps


def fundamental_cycles(
    vertices: Sequence[Vertex], edges: Sequence[Edge]
) -> CycleBasis:
    """Fundamental cycle basis from a BFS spanning forest.

    Deterministic: vertices are scanned in the given order and
    neighbours in sorted order, so the same graph always yields the
    same basis — a requirement for the deterministic work partitioning
    of §IV-C.
    """
    vlist = list(dict.fromkeys(vertices))
    eset = sorted({_normalize(e) for e in edges}, key=repr)
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in vlist}
    for a, b in eset:
        if a not in adj or b not in adj:
            raise ValueError(f"edge ({a!r}, {b!r}) uses unknown vertex")
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort(key=repr)

    parent: dict[Vertex, Vertex | None] = {}
    tree: set[Edge] = set()
    for root in vlist:
        if root in parent:
            continue
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    tree.add(_normalize((u, w)))
                    queue.append(w)

    chords = [e for e in eset if e not in tree]
    cycles: list[tuple[Edge, ...]] = []
    for a, b in chords:
        path_a = _root_path(parent, a)
        path_b = _root_path(parent, b)
        # Trim the common suffix (shared ancestry) to get the tree path.
        ia, ib = len(path_a) - 1, len(path_b) - 1
        while ia > 0 and ib > 0 and path_a[ia - 1] == path_b[ib - 1]:
            ia -= 1
            ib -= 1
        walk = path_a[: ia + 1] + path_b[:ib][::-1]
        cycle_edges = [_normalize((a, b))]
        for u, w in zip(walk, walk[1:]):
            cycle_edges.append(_normalize((u, w)))
        cycles.append(tuple(cycle_edges))
    return CycleBasis(
        cycles=tuple(cycles),
        tree_edges=tuple(sorted(tree, key=repr)),
        chord_edges=tuple(chords),
    )


def _root_path(parent: dict[Vertex, Vertex | None], v: Vertex) -> list[Vertex]:
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def cycle_is_closed(cycle: Sequence[Edge]) -> bool:
    """True iff every vertex of the edge multiset has even degree."""
    degree: dict[Vertex, int] = {}
    for a, b in cycle:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    return all(d % 2 == 0 for d in degree.values())


def graph_to_complex(
    vertices: Sequence[Vertex], edges: Sequence[Edge]
) -> SimplicialComplex:
    """The 1-complex of a graph (for homology cross-checks)."""
    return SimplicialComplex.from_graph(vertices, [_normalize(e) for e in edges])


def complex_to_graph(
    complex_: SimplicialComplex,
) -> tuple[list[Vertex], list[Edge]]:
    """Vertices and 1-simplices of a complex as a graph."""
    verts = complex_.vertices()
    edges = [tuple(s.vertices) for s in complex_.simplices(1)]
    return verts, edges  # type: ignore[return-value]


def cycles_as_chains(
    basis: CycleBasis, complex_: SimplicialComplex
) -> list:
    """Each basis cycle as a 1-chain of ``complex_`` (boundary must be 0)."""
    from repro.topology.chains import Chain

    out = []
    for cyc in basis.cycles:
        out.append(Chain(Simplex(e) for e in cyc))
    return out
