"""Graph-analytics workloads: BFS (Twitter, Wikipedia) and SSSP
(LiveJournal), Table III.

Vertex programs are written as PMLang group reductions with boolean index
predicates (§II-B): one invocation relaxes every vertex once (the
GRAPHICIONADO pipeline's full sweep), and the driver iterates until the
distance vector reaches a fixed point.

Scale substitution (see DESIGN.md): the paper's graphs have 3.5M-61M
vertices; the programs declare a dense V x V adjacency, so we use R-MAT
graphs of 1-2K vertices with the same power-law shape. The adjacency is a
read-only param, so a plan derives its edge list once and each sweep's
``min`` runs over the edges alone (``repro.srdfg.plan.CompressedReduction``)
— the sparse work every real implementation (GraphMat, Enterprise,
GRAPHICIONADO) performs, and ``hints()`` carries the true vertex/edge
counts so the cost models charge it at paper scale.
"""

from __future__ import annotations

import numpy as np

from . import reference
from .base import Workload, once, register
from .datasets import rmat_graph

BFS_SOURCE = """
// One BFS relaxation sweep: dist'[v] = min(dist[v], min over in-neighbours
// u of dist[u] + 1). Unreached vertices carry a large finite distance.
main(param bin adj[{v}][{v}], state float dist[{v}],
     output float frontier[{v}]) {{
  index u[0:{v}-1], v[0:{v}-1];
  float relax[{v}];
  relax[v] = min[u: adj[u][v] == 1](dist[u] + 1.0);
  frontier[v] = fmin(relax[v], dist[v]);
  dist[v] = fmin(relax[v], dist[v]);
}}
"""

SSSP_SOURCE = """
// One Bellman-Ford relaxation sweep over edge weights w.
main(param bin adj[{v}][{v}], param float w[{v}][{v}],
     state float dist[{v}], output float frontier[{v}]) {{
  index u[0:{v}-1], v[0:{v}-1];
  float relax[{v}];
  relax[v] = min[u: adj[u][v] == 1](dist[u] + w[u][v]);
  frontier[v] = fmin(relax[v], dist[v]);
  dist[v] = fmin(relax[v], dist[v]);
}}
"""


class _GraphWorkload(Workload):
    domain = "GA"
    vertices = 1024
    avg_degree = 16
    seed = 5
    functional_steps = 12
    rtol = 1e-9

    @once
    def graph_data(self):
        return rmat_graph(self.vertices, self.avg_degree, seed=self.seed)

    def hints(self):
        return self.graph_data.hints

    def initial_state(self):
        dist = np.full(self.vertices, reference.UNREACHED)
        dist[self.graph_data.source] = 0.0
        return {"dist": dist}

    def extract(self, results):
        return results[-1].state["dist"]


@register
class TwitterBfs(_GraphWorkload):
    """Twitter follower graph stand-in (paper: 61.6M vertices)."""

    name = "Twitter-BFS"
    algorithm = "Breadth-First Search"
    config = "#Vertices=2048 (paper 61.57M), #Edges~49K (paper 1468M)"
    vertices = 2048
    avg_degree = 24
    seed = 5
    #: A paper-scale run sweeps until the frontier empties; power-law
    #: social graphs converge in ~15 sweeps at billion-edge scale.
    perf_iterations = 15

    def source(self):
        return BFS_SOURCE.format(v=self.vertices)

    def params(self):
        return {"adj": self.graph_data.adjacency}

    def reference(self):
        dist = self.initial_state()["dist"]
        for _ in range(self.functional_steps):
            dist = reference.bfs_step(self.graph_data.adjacency, dist)
        return dist


@register
class WikiBfs(TwitterBfs):
    """Wikipedia link graph stand-in (paper: 3.56M vertices)."""

    name = "Wiki-BFS"
    config = "#Vertices=1024 (paper 3.56M), #Edges~20K (paper 84.75M)"
    vertices = 1024
    avg_degree = 20
    seed = 7
    perf_iterations = 12


@register
class LiveJournalSssp(_GraphWorkload):
    """LiveJournal SSSP stand-in (paper: 4.84M vertices)."""

    name = "LiveJourn-SSP"
    algorithm = "Single Source Shortest Path"
    config = "#Vertices=1024 (paper 4.84M), #Edges~16K (paper 68.99M)"
    vertices = 1024
    avg_degree = 16
    seed = 9
    functional_steps = 16
    perf_iterations = 24

    def source(self):
        return SSSP_SOURCE.format(v=self.vertices)

    def params(self):
        return {
            "adj": self.graph_data.adjacency,
            "w": self.graph_data.weights,
        }

    def reference(self):
        dist = self.initial_state()["dist"]
        for _ in range(self.functional_steps):
            dist = reference.sssp_step(
                self.graph_data.adjacency, self.graph_data.weights, dist
            )
        return dist
