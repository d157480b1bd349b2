"""Data-analytics workloads: LRMF (MovieLens) and K-means (Table III).

Both are training loops, matching TABLA's role as an accelerator for
gradient-style statistical ML:

* **LRMF** — low-rank matrix factorisation by full-batch gradient descent
  on the observed entries (MovieLens-100K runs at the paper's true
  943x1682 size; the 20M variant is scaled down, see DESIGN.md);
* **K-means** — Lloyd iterations with an ``argmin`` assignment step and a
  masked-mean centroid update, exercising boolean/ternary constructs.

One invocation = one training iteration; state carries the model.
"""

from __future__ import annotations

import numpy as np

from . import reference
from .base import Workload, once, register
from .datasets import gaussian_clusters, rating_matrix

LRMF_SOURCE = """
// One full-batch gradient-descent step of low-rank matrix factorisation:
// minimise || B * (W H - R) ||^2 over observed entries B.
main(param float R[{u}][{m}], param float B[{u}][{m}], param float lr,
     state float W[{u}][{k}], state float H[{k}][{m}],
     output float loss) {{
  index u[0:{u}-1], m[0:{m}-1], k[0:{k}-1];
  float pred[{u}][{m}], err[{u}][{m}], gw[{u}][{k}], gh[{k}][{m}];
  pred[u][m] = sum[k](W[u][k]*H[k][m]);
  err[u][m] = B[u][m]*(pred[u][m] - R[u][m]);
  gw[u][k] = sum[m](err[u][m]*H[k][m]);
  gh[k][m] = sum[u](W[u][k]*err[u][m]);
  W[u][k] = W[u][k] - lr*gw[u][k];
  H[k][m] = H[k][m] - lr*gh[k][m];
  loss = sum[u][m](err[u][m]*err[u][m]);
}}
"""


class _LrmfWorkload(Workload):
    domain = "DA"
    algorithm = "Low Rank Matrix Factorization"
    users = 943
    items = 1682
    observed = 100_000
    rank = 10
    lr = 1e-3
    functional_steps = 3
    perf_iterations = 50
    seed = 3
    rtol = 1e-7

    @once
    def data(self):
        return rating_matrix(
            self.users, self.items, self.observed, rank=self.rank, seed=self.seed
        )

    @once
    def factors(self):
        """Initial (W, H), drawn in that order from one generator."""
        rng = np.random.default_rng(self.seed + 1)
        w0 = rng.normal(scale=0.1, size=(self.users, self.rank))
        h0 = rng.normal(scale=0.1, size=(self.rank, self.items))
        return w0, h0

    def source(self):
        return LRMF_SOURCE.format(u=self.users, m=self.items, k=self.rank)

    def params(self):
        return {"R": self.data.ratings, "B": self.data.mask, "lr": self.lr}

    def initial_state(self):
        w0, h0 = self.factors
        return {"W": w0.copy(), "H": h0.copy()}

    def extract(self, results):
        return np.array([float(result.outputs["loss"]) for result in results])

    def reference(self):
        w0, h0 = self.factors
        w, h = w0.copy(), h0.copy()
        losses = []
        for _ in range(self.functional_steps):
            err = self.data.mask * (w @ h - self.data.ratings)
            losses.append(float(np.sum(err * err)))
            w, h = reference.lrmf_step(self.data.ratings, self.data.mask, w, h, self.lr)
        return np.array(losses)


@register
class MovieLens100K(_LrmfWorkload):
    """MovieLens-100K at the paper's full size."""

    name = "MovieL-100K"
    config = "1682 movies, 943 users; 100000 ratings"


@register
class MovieLens20M(_LrmfWorkload):
    """MovieLens-20M stand-in (scaled: paper uses 259K users)."""

    name = "MovieL-20M"
    config = "3072 movies, 4096 users; 400000 ratings (paper 20M scaled)"
    users = 4096
    items = 3072
    observed = 400_000
    seed = 4
    perf_iterations = 50


KMEANS_SOURCE = """
// One Lloyd iteration: assign each point to its nearest centroid, then
// recompute centroids as masked means (empty clusters keep their spot).
main(param float X[{n}][{d}], state float C[{k}][{d}],
     output float inertia) {{
  index i[0:{n}-1], j[0:{d}-1], c[0:{k}-1];
  float dsq[{n}][{k}], assign[{n}], member[{n}][{k}];
  float cnt[{k}], csum[{k}][{d}];
  dsq[i][c] = sum[j]((X[i][j]-C[c][j])*(X[i][j]-C[c][j]));
  assign[i] = argmin[c](dsq[i][c]);
  member[i][c] = assign[i] == c ? 1.0 : 0.0;
  cnt[c] = sum[i](member[i][c]);
  csum[c][j] = sum[i](member[i][c]*X[i][j]);
  C[c][j] = cnt[c] > 0.0 ? csum[c][j] / fmax(cnt[c], 1.0) : C[c][j];
  inertia = sum[i][c](member[i][c]*dsq[i][c]);
}}
"""


class _KmeansWorkload(Workload):
    domain = "DA"
    algorithm = "K-Means Clustering"
    n = 2000
    d = 784
    k = 10
    functional_steps = 3
    perf_iterations = 20
    seed = 6
    rtol = 1e-7

    @once
    def data(self):
        return gaussian_clusters(self.n, self.d, self.k, seed=self.seed)

    @once
    def c0(self):
        rng = np.random.default_rng(self.seed + 1)
        return self.data.points[
            rng.choice(self.n, size=self.k, replace=False)
        ].copy()

    def source(self):
        return KMEANS_SOURCE.format(n=self.n, d=self.d, k=self.k)

    def params(self):
        return {"X": self.data.points}

    def initial_state(self):
        return {"C": self.c0.copy()}

    def extract(self, results):
        return results[-1].state["C"]

    def reference(self):
        centroids = self.c0.copy()
        for _ in range(self.functional_steps):
            _, centroids = reference.kmeans_step(self.data.points, centroids)
        return centroids


@register
class DigitCluster(_KmeansWorkload):
    """MNIST-style digit clustering (784 features, K=10)."""

    name = "DigitCluster"
    config = "784 features; 2000 images (paper 120000); K=10"
    n = 2000
    d = 784
    k = 10
    seed = 6


@register
class ElecUse(_KmeansWorkload):
    """UCI household electricity clustering (4 features, K=12)."""

    name = "ElecUse"
    config = "4 features; 20000 points (paper 2.08M); K=12"
    n = 20_000
    d = 4
    k = 12
    seed = 8
    perf_iterations = 20
