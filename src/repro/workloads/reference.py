"""Hand-optimised numpy reference implementations.

These play two roles, mirroring the paper's methodology:

1. **functional oracles** — every PMLang workload's srDFG execution is
   checked against these for numerical agreement;
2. **"optimal" baselines for Fig 9 / Fig 12** — the paper compares
   PolyMath-translated binaries against expert implementations in each
   accelerator's native stack. We model the native-stack advantage as the
   extra work a direct implementation avoids (fewer intermediate
   materialisations, fused loops), measured by comparing op/byte profiles
   (see ``repro.eval.optimal``).

Each function is written the way a performance-minded engineer would write
it in numpy: fused expressions, BLAS-backed matmuls, FFTs from the
library.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Robotics: model predictive control
# ---------------------------------------------------------------------------


def mpc_step(pos, ctrl_mdl, problem, h, signal_len):
    """One MPC iteration of the Fig 4 algorithm (predict/gradient/update).

    Returns ``(ctrl_sgnl, new_ctrl_mdl)``; semantics follow the paper's
    listing, including the in/out aliasing of ``ctrl_mdl``.
    """
    pred = problem["P"] @ pos + problem["H"] @ ctrl_mdl
    err = problem["pos_ref"] - pred
    grad = problem["HQ_g"] @ err + problem["R_g"] @ ctrl_mdl

    ctrl_sgnl = ctrl_mdl[[h * j for j in range(signal_len)]].copy()
    new_ctrl = ctrl_mdl.copy()
    new_ctrl[[(h - 1) * j for j in range(signal_len)]] = 0.0
    b = ctrl_mdl.shape[0]
    new_ctrl[0 : b - 1] = ctrl_mdl[1:b] - grad[1:b]
    return ctrl_sgnl, new_ctrl


# ---------------------------------------------------------------------------
# Graph analytics
# ---------------------------------------------------------------------------

#: Distance value used as "unreached" (finite so the dense formulation
#: stays well-behaved; larger than any reachable distance).
UNREACHED = 1.0e9


def bfs_levels(adjacency, source):
    """Breadth-first levels via frontier expansion (GraphMat-style)."""
    vertices = adjacency.shape[0]
    dist = np.full(vertices, UNREACHED)
    dist[source] = 0.0
    frontier = np.zeros(vertices, dtype=bool)
    frontier[source] = True
    level = 0
    while frontier.any():
        level += 1
        reachable = (adjacency[frontier].sum(axis=0) > 0) & (dist >= UNREACHED)
        dist[reachable] = level
        frontier = reachable
    return dist


def bfs_step(adjacency, dist):
    """One dense Bellman-Ford-style BFS relaxation (oracle for the srDFG)."""
    candidate = np.where(adjacency.T > 0, dist[None, :] + 1.0, np.inf)
    relax = candidate.min(axis=1)
    return np.minimum(relax, dist)


def sssp_step(adjacency, weights, dist):
    """One relaxation step (oracle for the srDFG iteration)."""
    edge_cost = np.where(adjacency > 0, weights, np.inf)
    relax = (dist[:, None] + edge_cost).min(axis=0)
    return np.minimum(dist, relax)


# ---------------------------------------------------------------------------
# Data analytics
# ---------------------------------------------------------------------------


def lrmf_step(ratings, mask, w, h, lr):
    """One full-batch gradient step of low-rank matrix factorisation."""
    err = mask * (w @ h - ratings)
    gw = err @ h.T
    gh = w.T @ err
    return w - lr * gw, h - lr * gh


def kmeans_step(points, centroids):
    """One Lloyd iteration; returns (assignments, new centroids)."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; argmin over c.
    cross = points @ centroids.T
    dist2 = (points**2).sum(axis=1)[:, None] - 2 * cross + (centroids**2).sum(axis=1)[None, :]
    assign = np.argmin(dist2, axis=1)
    k = centroids.shape[0]
    member = assign[:, None] == np.arange(k)[None, :]
    counts = member.sum(axis=0)
    sums = member.T.astype(np.float64) @ points
    new_centroids = sums / np.maximum(counts, 1)[:, None]
    # Empty clusters keep their previous centroid.
    new_centroids[counts == 0] = centroids[counts == 0]
    return assign, new_centroids


def black_scholes_call(spot, strike, maturity, volatility, rate):
    """European call prices under Black-Scholes."""
    from scipy import special as sp_special

    sqrt_t = np.sqrt(maturity)
    d1 = (np.log(spot / strike) + (rate + 0.5 * volatility**2) * maturity) / (
        volatility * sqrt_t
    )
    d2 = d1 - volatility * sqrt_t
    return spot * sp_special.ndtr(d1) - strike * np.exp(-rate * maturity) * sp_special.ndtr(d2)


# ---------------------------------------------------------------------------
# DSP
# ---------------------------------------------------------------------------


def fft_real(signal):
    """Full complex FFT of a real signal (FFTW-equivalent, via pocketfft)."""
    return np.fft.fft(signal)


def bit_reversal_permutation(n):
    """Index permutation for radix-2 DIT FFT."""
    bits = int(np.log2(n))
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def twiddle_tables(n):
    """(cos, -sin) tables for e^{-2 pi i k / n}, k in [0, n/2)."""
    k = np.arange(n // 2)
    angle = -2.0 * np.pi * k / n
    return np.cos(angle), np.sin(angle)


def dct2_blocked(image, block=8):
    """8x8 blocked type-II orthonormal DCT (JPEG-style compression)."""
    height, width = image.shape
    d = dct_matrix(block)
    blocks = image.reshape(height // block, block, width // block, block)
    # out[by, u, bx, v] = sum_{y,x} D[u,y] * B[by,y,bx,x] * D[v,x]
    out_blocks = np.einsum("uy,aybx,vx->aubv", d, blocks, d)
    return out_blocks.reshape(height, width)


def dct_matrix(n=8):
    """Orthonormal type-II DCT matrix."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    mat[0, :] = np.sqrt(1.0 / n)
    return mat


# ---------------------------------------------------------------------------
# Deep learning building blocks
# ---------------------------------------------------------------------------


def pad_chw(tensor, pad=1):
    return np.pad(tensor, ((0, 0), (pad, pad), (pad, pad)))


def conv2d(tensor, weights, stride=1, pad=1):
    """Direct convolution, CHW layout, OIHW weights."""
    if pad:
        tensor = pad_chw(tensor, pad)
    out_channels, in_channels, kh, kw = weights.shape
    _, height, width = tensor.shape
    oh = (height - kh) // stride + 1
    ow = (width - kw) // stride + 1
    out = np.zeros((out_channels, oh, ow))
    for ky in range(kh):
        for kx in range(kw):
            patch = tensor[:, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride]
            out += np.einsum("oc,chw->ohw", weights[:, :, ky, kx], patch)
    return out


def depthwise_conv2d(tensor, weights, stride=1, pad=1):
    """Depthwise 3x3 convolution, weights (C, kh, kw)."""
    if pad:
        tensor = pad_chw(tensor, pad)
    channels, kh, kw = weights.shape
    _, height, width = tensor.shape
    oh = (height - kh) // stride + 1
    ow = (width - kw) // stride + 1
    out = np.zeros((channels, oh, ow))
    for ky in range(kh):
        for kx in range(kw):
            patch = tensor[:, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride]
            out += weights[:, ky : ky + 1, kx : kx + 1] * patch
    return out


def relu(x):
    return np.maximum(x, 0.0)


def global_avg_pool(tensor):
    return tensor.mean(axis=(1, 2))


def dense(weights, bias, x):
    return weights @ x + bias
