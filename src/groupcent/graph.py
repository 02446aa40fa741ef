"""Graph representation, edge-list parsing, and shortest-path kernels.

Vertices are dense integers ``0..n-1``. Edge weights are positive integers,
so every finite distance is an exact int. ``UNREACHABLE`` (float infinity)
marks missing paths: reciprocals vanish (``1.0/inf == 0.0``) and comparisons
behave, without any "large finite number" sentinel tricks.

Edge-list text format: one edge per line, ``u v [w]`` with integer tokens.
Lines starting with ``%`` or ``#`` and blank lines are ignored. File vertex
ids are arbitrary non-negative integers and are remapped to ``0..n-1`` in
first-appearance order.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections import Counter
from heapq import heappop, heappush

UNREACHABLE = math.inf
# reachable_counts keeps exact vertex bitsets while components x vertices
# stays within this many bits (8 MB); past it the counts are upper bounds.
# ball_table keeps at most this many bits of balls, n per ball.
REACH_MASK_BITS = 1 << 26


class GraphError(ValueError):
    """Invalid graph input."""


class EdgeListFormatError(GraphError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IsolatedVertexError(GraphError):
    pass


class Graph:
    """Immutable weighted graph as per-vertex adjacency lists.

    ``adj[u]`` holds u's out-neighbours in ascending id order and
    ``arcs[u]`` the same arcs as ``(target, weight)`` pairs. An undirected
    edge sits in both endpoints' lists with equal weight. Duplicate edges
    are collapsed keeping the minimum weight and self-loops are dropped, so
    distances are always well defined.
    """

    __slots__ = (
        "n", "directed", "adj", "arcs", "num_edges",
        "min_weight", "max_weight", "unit_weights", "_weight_counts",
    )

    def __init__(self, n: int, edges, directed: bool = False, check_isolated: bool = True):
        if n < 1:
            raise GraphError("empty graph")
        dedup: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if w < 1:
                raise GraphError(f"nonpositive weight {w} on edge ({u},{v})")
            if u == v:
                continue
            key = (u, v) if directed else (min(u, v), max(u, v))
            old = dedup.get(key)
            if old is None or w < old:
                dedup[key] = w
        keys = sorted(dedup)  # the canonical edge order
        if check_isolated:
            touched = set()
            for u, v in keys:
                touched.add(u)
                touched.add(v)
            if len(touched) != n:
                missing = sorted(set(range(n)) - touched)
                raise IsolatedVertexError(f"isolated vertices: {missing}")

        self.n = n
        self.directed = directed
        self.num_edges = len(keys)
        # canonical order appends every list in ascending target order: an
        # undirected u gets its smaller neighbours (edges (x, u), x < u)
        # before its larger ones (edges (u, y)). Equal (target, weight)
        # pairs share one tuple, which on unit weights is one per target.
        adj = [[] for _ in range(n)]
        arcs = [[] for _ in range(n)]
        pairs = {}
        for key in keys:
            u, v = key
            w = dedup[key]
            adj[u].append(v)
            a = v, w
            arcs[u].append(pairs.setdefault(a, a))
            if not directed:
                adj[v].append(u)
                a = u, w
                arcs[v].append(pairs.setdefault(a, a))
        self.adj, self.arcs = adj, arcs
        ws = dedup.values()
        self.min_weight = min(ws) if ws else 1
        self.max_weight = max(ws) if ws else 1
        self.unit_weights = self.max_weight == 1
        self._weight_counts = None

    @property
    def lambda_ratio(self) -> float:
        """Ratio of smallest to largest edge weight (1.0 when unweighted)."""
        return self.min_weight / self.max_weight

    def out_degree(self, u: int) -> int:
        return len(self.adj[u])

    def weight_counts(self):
        """Per vertex, its out-arcs' (weight, how many) pairs; O(m), once."""
        if self._weight_counts is None:
            self._weight_counts = [list(Counter(w for _, w in a).items())
                                   for a in self.arcs]
        return self._weight_counts

    def edges(self):
        """Canonical edge triples (u, v, w), sorted; one per undirected
        edge, as (smaller id, larger id, w)."""
        return [(u, v, w) for u in range(self.n) for v, w in self.arcs[u]
                if self.directed or u < v]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{int(self.directed)}\n{self.n}\n".encode())
        for u, v, w in self.edges():
            h.update(f"{u} {v} {w}\n".encode())
        return h.hexdigest()[:16]


def load_edge_list(path, directed: bool = False, weighted: bool = False,
                   on_isolated: str = "drop") -> Graph:
    """Parse a whitespace edge list into a Graph.

    ``on_isolated`` controls what happens to vertices left without any edge
    after self-loop removal: "drop" (default, with a warning) or "fail".
    """
    if on_isolated not in ("drop", "fail"):
        raise ValueError("on_isolated must be 'drop' or 'fail'")
    remap: dict[int, int] = {}
    triples: list[tuple[int, int, int]] = []
    expected = 3 if weighted else 2
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line[0] in "%#":
                continue
            tokens = line.split()
            if len(tokens) != expected:
                raise EdgeListFormatError(
                    line_no, f"expected {expected} tokens, got {len(tokens)}")
            try:
                nums = [int(t) for t in tokens]
            except ValueError:
                raise EdgeListFormatError(line_no, f"non-integer token in {line!r}") from None
            fu, fv = nums[0], nums[1]
            w = nums[2] if weighted else 1
            if fu < 0 or fv < 0:
                raise EdgeListFormatError(line_no, "negative vertex id")
            if w < 1:
                raise EdgeListFormatError(line_no, f"nonpositive weight {w}")
            for fid in (fu, fv):
                if fid not in remap:
                    remap[fid] = len(remap)
            triples.append((remap[fu], remap[fv], w))
    if not triples:
        raise GraphError(f"{path}: empty graph")
    n = len(remap)
    touched = set()
    for u, v, _ in triples:
        if u != v:
            touched.add(u)
            touched.add(v)
    if len(touched) != n:
        missing = sorted(set(range(n)) - touched)
        if on_isolated == "fail":
            raise IsolatedVertexError(f"{path}: isolated vertices {missing}")
        warnings.warn(f"{path}: dropping {len(missing)} isolated vertices")
        keep = sorted(touched)
        compress = {old: new for new, old in enumerate(keep)}
        triples = [(compress[u], compress[v], w) for u, v, w in triples if u != v]
        n = len(keep)
        if n == 0:
            raise GraphError(f"{path}: empty graph")
    # every vertex left has an edge: the Graph need not scan for isolated ones
    return Graph(n, triples, directed=directed, check_isolated=False)


def sssp(g: Graph, source: int):
    """Exact distances from one source; UNREACHABLE where no path exists."""
    return multi_source_sssp(g, (source,))


def multi_source_sssp(g: Graph, sources):
    """Elementwise-minimum distances from a nonempty set of sources."""
    seeds = set(sources)
    if not seeds:
        raise ValueError("empty source set")
    for s in seeds:
        if not 0 <= s < g.n:
            raise ValueError(f"source {s} out of range")
    dist = [UNREACHABLE] * g.n
    lower_distances(g, dist, seeds)
    return dist


def lower_distances(g: Graph, dist, seeds):
    """Lower ``dist``, the distances from a group (all UNREACHABLE for
    none), in place to the distances from that group plus ``seeds``."""
    for d, level in closer_levels(g, dist, seeds):
        for x in level:
            dist[x] = d


def closer_levels(g: Graph, dbase, seeds):
    """Shortest-path search from the distinct ``seeds`` over the vertices
    strictly closer to them than ``dbase`` says. Yields ``(d, level)``,
    the level holding every such vertex at distance d, starting with ``(0,
    sorted seeds)``. ``dbase`` grows by at most w along every arc of
    weight w, as distances from a group do, so every vertex on a shortest
    path to a yielded vertex is yielded too and the cut is exact. A level
    is yielded before its arcs are relaxed, so the consumer may lower
    ``dbase`` to d on it; the next level is only built once asked for.

    Unit weights run a BFS, with the levels d = 0, 1, .... Weighted graphs
    run Dijkstra and yield the vertices settled at one distance together,
    in ascending id order; weights are at least 1, so no vertex at
    distance d is found from another one at d. A heap entry is stale when
    its key exceeds the vertex's tentative distance."""
    level = sorted(seeds)
    d = 0
    if g.unit_weights:
        adj = g.adj
        seen = bytearray(g.n)
        for s in level:
            seen[s] = 1
        while level:
            yield d, level
            d += 1
            nxt = []
            for x in level:
                for y in adj[x]:
                    if not seen[y] and d < dbase[y]:
                        seen[y] = 1
                        nxt.append(y)
            level = nxt
        return
    arcs = g.arcs
    tentative = [UNREACHABLE] * g.n
    for s in level:
        tentative[s] = 0
    heap = []
    while level:
        yield d, level
        for x in level:
            for y, w in arcs[x]:
                ny = d + w
                if ny < dbase[y] and ny < tentative[y]:
                    tentative[y] = ny
                    heappush(heap, (ny, y))
        level = []
        while heap and (not level or heap[0][0] == d):
            ny, y = heappop(heap)
            if ny == tentative[y]:
                d = ny
                level.append(y)


def ball_table(g: Graph):
    """Every vertex's out-balls on a unit-weight graph, as bitsets:
    ``table[d][v]`` is an int whose bit x is set iff dist(v, x) <= d, for
    d = 0..L, with L >= 1 the largest finite distance (1 on a graph without
    arcs), so ``table[-1][v]`` is all v reaches. Built level by level,
    ``table[d+1][v] = table[d][v] | OR(table[d][u] for u in adj[v])``; a ball
    that stops growing never grows again, and its later levels reuse the
    same int. Returns None as soon as the balls built would pass
    ``REACH_MASK_BITS``, counting n bits per ball."""
    n, adj = g.n, g.adj
    bits = n * n
    if bits > REACH_MASK_BITS:
        return None
    level = [1 << v for v in range(n)]
    table = [level]
    growing = range(n)
    while True:
        nxt = level.copy()
        grew = []
        for v in growing:
            ball = old = level[v]
            for u in adj[v]:
                ball |= level[u]
            if ball != old:
                bits += n
                if bits > REACH_MASK_BITS:
                    return None
                nxt[v] = ball
                grew.append(v)
        if not grew and len(table) > 1:
            return table
        table.append(nxt)
        level, growing = nxt, grew


def strongly_connected_components(g: Graph):
    """Iterative Tarjan. Returns (comp ids, count); components are numbered
    in emission order, which is reverse topological order of the condensation
    (every arc leaving a component points at a lower-numbered one). An
    undirected edge is two arcs, so on an undirected graph these are its
    connected components."""
    n, adj = g.n, g.adj
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    cid = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, None)]
        while work:
            u, rest = work[-1]
            if rest is None:  # first visit; rest resumes u's arcs after a child
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack[u] = 1
                rest = iter(adj[u])
                work[-1] = (u, rest)
            for v in rest:
                if index[v] == -1:
                    work.append((v, None))
                    break
                if on_stack[v] and index[v] < low[u]:
                    low[u] = index[v]
            else:
                work.pop()
                if work:
                    p = work[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                if low[u] == index[u]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp[w] = cid
                        if w == u:
                            break
                    cid += 1
    return comp, cid


def is_connected(g: Graph) -> bool:
    """Connected (undirected) or strongly connected (directed). A search
    from vertex 0 must reach every vertex; a directed graph that passes
    must also be one strongly connected component."""
    adj = g.adj
    seen = bytearray(g.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    if count < g.n:
        return False
    return not g.directed or strongly_connected_components(g)[1] == 1


def largest_component(g: Graph) -> Graph:
    """Induced subgraph on the largest (strongly) connected vertex set.

    Ties go to the component containing the smallest vertex id; surviving
    ids are remapped densely in ascending order.
    """
    comp, cid = strongly_connected_components(g)
    groups: list[list[int]] = [[] for _ in range(cid)]
    for v in range(g.n):
        groups[comp[v]].append(v)
    best = min(groups, key=lambda vs: (-len(vs), vs[0]))
    keep = set(best)
    remap = {old: new for new, old in enumerate(sorted(best))}
    edges = [(remap[u], remap[v], w) for u, v, w in g.edges()
             if u in keep and v in keep]
    return Graph(len(best), edges, directed=g.directed, check_isolated=False)


def reachable_counts(g: Graph):
    """r(u): number of vertices reachable from u, u included, or an upper
    bound on it no larger than n; greedy's first round bounds u's
    singleton value with it.

    Undirected graphs use component sizes. Directed graphs walk the
    strongly-connected condensation in reverse topological order. While
    components x vertices stays within ``REACH_MASK_BITS``, each component
    ORs its successors' bitsets, one bit per vertex, into its own and
    counts its bits, so counts are exact. Past it, r(C) = min(n, |C| + sum
    of r over C's successors), which is linear in the graph size and exact
    where no component is reachable from C along two paths, as on a
    directed path.
    """
    n = g.n
    comp, cid = strongly_connected_components(g)
    sizes = [0] * cid
    for v in range(n):
        sizes[comp[v]] += 1
    if not g.directed:
        return [sizes[comp[v]] for v in range(n)]
    succ: list[set[int]] = [set() for _ in range(cid)]
    adj = g.adj
    for u in range(n):
        cu = comp[u]
        for v in adj[u]:
            cv = comp[v]
            if cv != cu:
                succ[cu].add(cv)
    counts = []
    if cid * n <= REACH_MASK_BITS:
        # component c owns the bits [low, low + |c|); successors have
        # smaller ids, so their bits all lie below
        masks, low = [], 0
        for c in range(cid):
            m = ((1 << sizes[c]) - 1) << low
            low += sizes[c]
            for d in succ[c]:
                m |= masks[d]
            masks.append(m)
            counts.append(m.bit_count())
    else:
        for c in range(cid):
            counts.append(min(n, sizes[c] + sum(counts[d] for d in succ[c])))
    return [counts[comp[v]] for v in range(n)]
