"""Extension workloads beyond Table III.

§I of the paper: "By making PolyMath open-source and extensible, the
community can add other domains which align with the core mathematical
constructs in PMLang." These two workloads exercise that claim with the
*flagship algorithms of the target accelerators' own papers*:

* **PageRank** — GRAPHICIONADO's headline vertex program (Ham et al.
  evaluate PageRank first), expressed as a predicated group reduction;
* **LogisticRegression** — TABLA's headline training workload (Mahajan
  et al. lead with logistic regression SGD), expressed as one
  gradient-descent iteration with the model as ``state``.

They register alongside the Table III workloads (``EXTENSIONS`` in the
package init) but are kept out of the paper-figure sweeps.
"""

from __future__ import annotations

import numpy as np

from .base import Workload, once, register
from .datasets import rmat_graph

PAGERANK_SOURCE = """
// One PageRank power-iteration sweep with damping 0.85: each vertex
// gathers rank mass from its in-neighbours, scaled by their out-degree.
main(param bin adj[{v}][{v}], param float outdeg[{v}],
     state float rank[{v}], output float nr[{v}]) {{
  index u[0:{v}-1], v[0:{v}-1];
  nr[v] = 0.15 / {v} + 0.85 * sum[u: adj[u][v] == 1](rank[u] / outdeg[u]);
  rank[v] = nr[v];
}}
"""


@register
class PageRank(Workload):
    """PageRank on an R-MAT web-graph stand-in (extension workload)."""

    name = "PageRank"
    domain = "GA"
    algorithm = "PageRank"
    config = "#Vertices=1024, damping=0.85 (extension)"
    vertices = 1024
    avg_degree = 12
    seed = 41
    functional_steps = 8
    perf_iterations = 30
    rtol = 1e-9

    @once
    def graph_data(self):
        return rmat_graph(self.vertices, self.avg_degree, seed=self.seed)

    @once
    def outdeg(self):
        degree = self.graph_data.adjacency.sum(axis=1).astype(np.float64)
        # Dangling vertices keep a unit divisor (they simply leak mass,
        # and the reference does the same).
        return np.maximum(degree, 1.0)

    def source(self):
        return PAGERANK_SOURCE.format(v=self.vertices)

    def params(self):
        return {"adj": self.graph_data.adjacency, "outdeg": self.outdeg}

    def initial_state(self):
        return {"rank": np.full(self.vertices, 1.0 / self.vertices)}

    def hints(self):
        return self.graph_data.hints

    def extract(self, results):
        return results[-1].state["rank"]

    def reference(self):
        adjacency = self.graph_data.adjacency.astype(np.float64)
        rank = np.full(self.vertices, 1.0 / self.vertices)
        for _ in range(self.functional_steps):
            contribution = rank / self.outdeg
            rank = 0.15 / self.vertices + 0.85 * (adjacency.T @ contribution)
        return rank


LOGREG_SOURCE = """
// One full-batch gradient-descent step of binary logistic regression;
// the weight vector is the persistent model state (TABLA's semantics).
main(param float X[{n}][{d}], param float yl[{n}], param float lr,
     state float w[{d}], output float loss) {{
  index i[0:{n}-1], j[0:{d}-1];
  float z[{n}], p[{n}], e[{n}], g[{d}];
  z[i] = sum[j](X[i][j]*w[j]);
  p[i] = sigmoid(z[i]);
  e[i] = p[i] - yl[i];
  g[j] = sum[i](e[i]*X[i][j]);
  w[j] = w[j] - lr*g[j];
  loss = sum[i](e[i]*e[i]);
}}
"""


@register
class LogisticRegression(Workload):
    """Logistic-regression training, TABLA-style (extension workload)."""

    name = "LogisticRegression"
    domain = "DA"
    algorithm = "Logistic Regression (training)"
    config = "2048 samples, 64 features, full-batch GD (extension)"
    n = 2048
    d = 64
    lr = 1e-3
    seed = 43
    functional_steps = 4
    perf_iterations = 100
    rtol = 1e-7

    @once
    def _dataset(self):
        """(features, labels): a planted model's draws, in that order."""
        from scipy import special as sp_special

        rng = np.random.default_rng(self.seed)
        true_w = rng.normal(size=self.d) / np.sqrt(self.d)
        features = rng.normal(size=(self.n, self.d))
        probabilities = sp_special.expit(features @ true_w)
        labels = (rng.random(self.n) < probabilities).astype(np.float64)
        return features, labels

    @once
    def features(self):
        return self._dataset[0]

    @once
    def labels(self):
        return self._dataset[1]

    @once
    def w0(self):
        return np.zeros(self.d)

    def source(self):
        return LOGREG_SOURCE.format(n=self.n, d=self.d)

    def params(self):
        return {"X": self.features, "yl": self.labels, "lr": self.lr}

    def initial_state(self):
        return {"w": self.w0.copy()}

    def extract(self, results):
        return results[-1].state["w"]

    def reference(self):
        from scipy import special as sp_special

        weights = self.w0.copy()
        for _ in range(self.functional_steps):
            probabilities = sp_special.expit(self.features @ weights)
            gradient = self.features.T @ (probabilities - self.labels)
            weights = weights - self.lr * gradient
        return weights

    def accuracy(self, weights):
        """Classification accuracy of *weights* on the training set."""
        from scipy import special as sp_special

        predictions = sp_special.expit(self.features @ weights) > 0.5
        return float(np.mean(predictions == (self.labels > 0.5)))
