"""Seeded O(n + m) graph generators for the benchmark workloads.

The library's own generators in ``groupcent.generators`` loop over every
vertex pair, which is quadratic; these draw each edge directly, so a graph
costs time proportional to its size. The solver never sees these objects:
each graph is written to an edge-list file and read back through the CLI.

Each workload is one fixed graph, drawn once from a fixed seed. The loader
numbers vertices in the order they first appear and canonicalises the
edges, so that order is the only part of a file the solver sees. ``--seed``
renames the vertices in the file and shuffles every line that introduces
no new vertex, and the solver sees the same graph, with the same report
hash, for every seed. Inputs that differ in what the solver sees change
how many swaps local search commits: fresh random structures moved ls-h
by +-30% across seeds at n=1,000, and relabelled copies of one structure
still gave ls-c 1 to 6 swap passes (11,875 to 18,223 evaluations) and ls-h
14,017 to 17,772 evaluations on sparse-n500-k25. That spread between
seeds is wider than a run's own noise and would hide a regression the
size of the bounds.

Sizes. The workloads were first specified at n=2,000 (k=10), n=1,000 (k=50)
and a 2,000-vertex bow-tie; the measurements quoted below come from those
sizes. There, one solve of each of the four algorithms takes 18 to 44 s in
all on a 2-core machine, so a run could time each solve once, and
thread-pool noise alone moved single solves by +-20%. The sizes below keep
each workload's purpose (start-vertex share, k/n = 1/20, bow-tie
proportions) at about 7 s for one solve of each algorithm, so every run
takes the median of several solves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

STRUCTURE_SEED = 7
MAX_WEIGHT = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "sparse": undirected, unit weights; "bowtie": directed, weights 1..10
    n: int
    k: int
    why: str
    core: int = 0    # bowtie only: strongly connected core size
    n_in: int = 0    # bowtie only: IN-DAG size; the rest is the OUT-DAG

    @property
    def directed(self) -> bool:
        return self.kind == "bowtie"

    @property
    def weighted(self) -> bool:
        return self.kind == "bowtie"


WORKLOADS = {w.name: w for w in (
    # Start-vertex selection runs one SSSP per vertex, O(nm). At n=2,000
    # harmonic_centralities took 5.0 of 7.3 s of greedy-h, and
    # _closeness_start_vertex took 4.1 of 13.2 s of ls-c; at n=800, with
    # serial scans, the start is about 75% of greedy-h.
    Workload("sparse-n800-k10", "sparse", 800, 10,
             "start-vertex selection: one SSSP per vertex dominates the "
             "greedy solves at k=10"),
    # The rounds and swap scans: the pruned kernels and centrality state. At
    # n=1,000 and k=50 start selection was only 17% of ls-h and 8% of ls-c
    # with the default two-worker pool; ls-c made 99,335 farness_decrease
    # calls (86,130 aborted) and ls-h 52,781 pruned_marginal_gain calls (0
    # aborted). With serial scans the pool's overhead is gone and the start
    # is about half of ls-h here; k=100 would only bring it to 28%.
    Workload("sparse-n500-k25", "sparse", 500, 25,
             "greedy rounds and swap scans at k=n/20: pruned kernels, "
             "centrality state and batch dispatch"),
    # The only workload that uses the Dijkstra kernels, reachable_counts
    # over many SCCs (core + one per DAG vertex: 701 here, 1,401 at
    # n=2,000), unreachable vertices in the harmonic objective and --scc
    # extraction; the closeness algorithms run on the core. At n=2,000 ls-h
    # aborted 2,852 of 31,429 gain traversals.
    Workload("bowtie-n1000-k10", "bowtie", 1000, 10,
             "directed weighted bow-tie: Dijkstra kernels, reach counts over "
             "701 SCCs and --scc extraction",
             core=300, n_in=350),
)}


def sparse_edges(n: int, rng: random.Random):
    """Undirected unit-weight graph with m ~ 4n: a random tree (every v > 0
    joins a random earlier vertex) plus 3n uniform random pairs."""
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    for _ in range(3 * n):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        edges.append((u, v + (v >= u)))
    return [(u, v, 1) for u, v in edges]


def bowtie_edges(n: int, core: int, n_in: int, rng: random.Random):
    """Directed bow-tie with integer weights 1..MAX_WEIGHT.

    Vertices 0..core-1 form a strongly connected core: a shuffled cycle
    plus 3*core random arcs. The next n_in vertices form an IN-DAG: each
    sends 2 arcs to later IN vertices or into the core. The remaining
    vertices form an OUT-DAG: each receives 2 arcs from the core or from
    earlier OUT vertices. Every IN and OUT vertex is an SCC of its own.
    """
    w = lambda: rng.randint(1, MAX_WEIGHT)
    cycle = list(range(core))
    rng.shuffle(cycle)
    edges = [(cycle[i], cycle[(i + 1) % core], w()) for i in range(core)]
    for _ in range(3 * core):
        u = rng.randrange(core)
        v = rng.randrange(core - 1)
        edges.append((u, v + (v >= u), w()))
    first_out = core + n_in
    for u in range(core, first_out):
        for r in rng.sample(range(core + first_out - 1 - u), 2):
            edges.append((u, r if r < core else u + 1 + r - core, w()))
    for v in range(first_out, n):
        for r in rng.sample(range(core + v - first_out), 2):
            edges.append((r if r < core else first_out + r - core, v, w()))
    return edges


def generate(workload: Workload, seed: int):
    """Edge triples of the workload's graph, written out as ``seed`` says.

    Lines that introduce a vertex come first, in the structure's order, so
    the loader numbers the vertices the same way for every seed; the seed
    shuffles the other lines and renames every vertex.
    """
    rng = random.Random(f"{workload.name}/{STRUCTURE_SEED}")
    if workload.kind == "bowtie":
        edges = bowtie_edges(workload.n, workload.core, workload.n_in, rng)
    else:
        edges = sparse_edges(workload.n, rng)
    seen, head, tail = set(), [], []
    for u, v, w in edges:
        (tail if u in seen and v in seen else head).append((u, v, w))
        seen.update((u, v))
    rng = random.Random(seed)
    rng.shuffle(tail)
    name = list(range(workload.n))
    rng.shuffle(name)
    return [(name[u], name[v], w) for u, v, w in head + tail]


def write_edge_list(path, edges, weighted: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if weighted:
            fh.writelines(f"{u} {v} {w}\n" for u, v, w in edges)
        else:
            fh.writelines(f"{u} {v}\n" for u, v, _ in edges)
