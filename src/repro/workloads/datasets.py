"""Synthetic dataset generators standing in for the paper's datasets.

The paper evaluates on Twitter/Wikipedia/LiveJournal graphs, MovieLens,
MNIST, a UCI electricity dataset, and ImageNet — none of which are
available offline. Each generator below produces data with the same
*statistical shape* the algorithms care about (power-law degree
distributions, low-rank-plus-noise ratings, Gaussian cluster structure,
band-limited signals, natural-image-like smoothness) at sizes a Python
functional simulator can execute. Scale factors are recorded per
benchmark in EXPERIMENTS.md.

All generators are deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import once


@dataclass
class GraphData:
    """A synthetic graph: dense adjacency for the srDFG path plus stats.

    Only SSSP reads edge weights, so the dense ``weights`` matrix is drawn
    on its first read, from the generator state the sampler left behind.
    Both matrices are read-only: every consumer shares one, and a plan
    derives the edge list of a predicate over a read-only param once.
    """

    adjacency: np.ndarray  # (V, V) int8, adjacency[u, v] = 1 for edge u->v
    vertices: int
    edges: int
    source: int
    #: Generator state right after the sampler's last draw.
    weight_state: dict = field(repr=False)

    @once
    def weights(self):
        """(V, V) float, +inf-free (0 where no edge)."""
        rng = np.random.default_rng()
        rng.bit_generator.state = self.weight_state
        weights = rng.uniform(1.0, 10.0, size=(self.vertices, self.vertices))
        weights *= self.adjacency
        weights.flags.writeable = False
        return weights

    @property
    def hints(self):
        """data_hints for the GRAPHICIONADO cost model and op scaling."""
        dense_pairs = self.vertices * self.vertices
        return {
            "vertices": self.vertices,
            "edges": self.edges,
            "op_scale": self.edges / dense_pairs,
        }


def rmat_graph(vertices, avg_degree, seed=0, a=0.57, b=0.19, c=0.19):
    """R-MAT power-law digraph (Twitter/Wikipedia/LiveJournal stand-in).

    Recursive-matrix sampling gives the heavy-tailed degree distribution
    of social/web graphs; parameters default to the Graph500 values.
    """
    rng = np.random.default_rng(seed)
    levels = int(np.ceil(np.log2(vertices)))
    target_edges = vertices * avg_degree

    count = int(target_edges * 1.2)
    rows = np.zeros(count, dtype=np.int64)
    cols = np.zeros(count, dtype=np.int64)
    for level in range(levels):
        quadrant = rng.random(count)
        bit = 1 << (levels - level - 1)
        row_bit = (quadrant >= a + b) & (quadrant < a + b + c) | (quadrant >= a + b + c)
        col_bit = ((quadrant >= a) & (quadrant < a + b)) | (quadrant >= a + b + c)
        rows += row_bit * bit
        cols += col_bit * bit
    mask = (rows < vertices) & (cols < vertices) & (rows != cols)
    rows, cols = rows[mask], cols[mask]

    adjacency = np.zeros((vertices, vertices), dtype=np.int8)
    adjacency[rows, cols] = 1
    # Keep the graph connected enough for BFS to be interesting: add a
    # random Hamiltonian-ish backbone.
    order = rng.permutation(vertices)
    adjacency[order[:-1], order[1:]] = 1
    adjacency.flags.writeable = False
    return GraphData(
        adjacency=adjacency,
        vertices=vertices,
        edges=int(adjacency.sum()),
        source=int(order[0]),
        weight_state=rng.bit_generator.state,
    )


@dataclass
class RatingData:
    """Low-rank-plus-noise rating matrix with an observation mask."""

    ratings: np.ndarray  # (users, items) float, 0 where unobserved
    mask: np.ndarray  # (users, items) float 0/1
    users: int
    items: int
    observed: int
    rank: int


def rating_matrix(users, items, observed, rank=10, seed=0):
    """MovieLens-like data: ratings = low-rank structure + noise."""
    rng = np.random.default_rng(seed)
    left = rng.normal(scale=1.0, size=(users, rank))
    right = rng.normal(scale=1.0, size=(rank, items))
    # Strong low-rank signal (taste structure) plus mild noise, scaled so
    # clipping rarely saturates and destroys the structure.
    dense = 0.8 * (left @ right) / np.sqrt(rank) + rng.normal(
        scale=0.1, size=(users, items)
    )
    dense = np.clip(2.75 + dense, 0.5, 5.0)
    flat = rng.choice(users * items, size=min(observed, users * items), replace=False)
    mask = np.zeros(users * items)
    mask[flat] = 1.0
    mask = mask.reshape(users, items)
    return RatingData(
        ratings=dense * mask,
        mask=mask,
        users=users,
        items=items,
        observed=int(mask.sum()),
        rank=rank,
    )


@dataclass
class ClusterData:
    """Point cloud drawn from a Gaussian mixture (MNIST/UCI stand-in)."""

    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) ground-truth component ids
    k: int


def gaussian_clusters(n, d, k, spread=4.0, seed=0):
    """K well-separated Gaussian blobs in d dimensions."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=spread, size=(k, d))
    labels = rng.integers(0, k, size=n)
    points = centers[labels] + rng.normal(size=(n, d))
    return ClusterData(points=points, labels=labels, k=k)


def bandlimited_signal(n, components=24, seed=0):
    """Sum-of-sinusoids signal (ECoG / generic DSP input stand-in)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / n
    signal = np.zeros(n)
    for _ in range(components):
        frequency = rng.integers(1, n // 8)
        amplitude = rng.uniform(0.1, 1.0)
        phase = rng.uniform(0, 2 * np.pi)
        signal += amplitude * np.sin(2 * np.pi * frequency * t + phase)
    signal += 0.05 * rng.normal(size=n)
    return signal


def natural_image(height, width, seed=0):
    """Smooth random field with 1/f-ish spectrum (photo stand-in for DCT)."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(height, width))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    radius = np.sqrt(fy**2 + fx**2)
    radius[0, 0] = 1.0
    spectrum = np.fft.fft2(noise) / (radius**1.1)
    image = np.real(np.fft.ifft2(spectrum))
    image -= image.min()
    image /= max(image.max(), 1e-9)
    return image * 255.0


def image_batch(channels, height, width, seed=0):
    """A single natural-image-like CHW tensor for CNN inference."""
    rng = np.random.default_rng(seed)
    planes = [natural_image(height, width, seed=seed + c) / 255.0 for c in range(channels)]
    tensor = np.stack(planes)
    tensor += 0.02 * rng.normal(size=tensor.shape)
    return tensor


@dataclass
class OptionData:
    """European call option chain for Black-Scholes."""

    spot: np.ndarray
    strike: np.ndarray
    maturity: np.ndarray
    volatility: np.ndarray
    rate: float


def option_chain(n, seed=0):
    """Plausible option-chain parameters (8192 options in the paper)."""
    rng = np.random.default_rng(seed)
    spot = rng.uniform(20.0, 200.0, size=n)
    strike = spot * rng.uniform(0.6, 1.4, size=n)
    maturity = rng.uniform(0.05, 2.0, size=n)
    volatility = rng.uniform(0.1, 0.6, size=n)
    return OptionData(
        spot=spot,
        strike=strike,
        maturity=maturity,
        volatility=volatility,
        rate=0.03,
    )


def sentiment_features(words, seed=0):
    """Bag-of-words frequency vector + a ground-truth weight vector."""
    rng = np.random.default_rng(seed)
    frequencies = rng.zipf(1.5, size=words).astype(np.float64)
    frequencies = np.minimum(frequencies, 50.0) / 50.0
    true_weights = rng.normal(scale=0.3, size=words) / np.sqrt(words)
    return frequencies, true_weights


def mpc_problem(state_dim, horizon_states, control_len, signal_len, seed=0):
    """Cost/prediction matrices for the MPC workloads.

    Produces the ``P``, ``H``, ``HQ_g``, ``R_g`` and reference-trajectory
    parameters the Fig 4 program consumes, shaped for a given state
    dimension, prediction-horizon length, and control-model length.
    """
    rng = np.random.default_rng(seed)
    pred = horizon_states
    return {
        "pos_ref": rng.normal(size=pred),
        "P": rng.normal(size=(pred, state_dim)) / np.sqrt(state_dim),
        "H": rng.normal(size=(pred, control_len)) / np.sqrt(control_len),
        "HQ_g": rng.normal(size=(control_len, pred)) * 0.02,
        "R_g": rng.normal(size=(control_len, control_len)) * 0.02,
    }
