"""DSP workloads: radix-2 FFT and 8x8 blocked DCT (Table III).

The FFT is the paper's "fine-grained butterfly and bit-reversal": the
bit-reversal permutation and the global twiddle table are precomputed
parameters; each of the log2(N) butterfly stages is one ``unroll``
iteration of four formula statements over the full array. Strided
butterfly partners are expressed with ``%`` and power-of-two arithmetic on
the index variable — all static per unrolled stage.

The DCT applies the orthonormal 8x8 type-II DCT to every block of the
image (stride 8), written as two strided contractions: ``D B`` then
``(D B) D^T``.
"""

from __future__ import annotations

import numpy as np

from . import reference
from ..errors import ShapeError
from .base import Workload, once, register
from .datasets import bandlimited_signal, natural_image

FFT_SOURCE = """
// Radix-2 DIT FFT of a real signal. br = bit-reversal permutation,
// (twr, twi) = global twiddle table exp(-2*pi*i*k/N), k in [0, N/2).
main(input float sig[{n}], param int br[{n}],
     param float twr[{n2}], param float twi[{n2}],
     output float fr[{n}], output float fi[{n}]) {{
  index t[0:{n}-1];
  float xr[{n}], xi[{n}], txr[{n}], txi[{n}];
  xr[t] = sig[br[t]];
  xi[t] = 0.0;
  unroll s[0:{log}-1] {{
    txr[t] = xr[t - t%(2^(s+1)) + t%(2^s)]
           + ((t%(2^(s+1))) < (2^s) ? 1.0 : -1.0)
           * (twr[(t%(2^s))*(2^({log}-1-s))]*xr[t - t%(2^(s+1)) + t%(2^s) + 2^s]
            - twi[(t%(2^s))*(2^({log}-1-s))]*xi[t - t%(2^(s+1)) + t%(2^s) + 2^s]);
    txi[t] = xi[t - t%(2^(s+1)) + t%(2^s)]
           + ((t%(2^(s+1))) < (2^s) ? 1.0 : -1.0)
           * (twr[(t%(2^s))*(2^({log}-1-s))]*xi[t - t%(2^(s+1)) + t%(2^s) + 2^s]
            + twi[(t%(2^s))*(2^({log}-1-s))]*xr[t - t%(2^(s+1)) + t%(2^s) + 2^s]);
    xr[t] = txr[t];
    xi[t] = txi[t];
  }}
  fr[t] = xr[t];
  fi[t] = xi[t];
}}
"""


class _FftWorkload(Workload):
    domain = "DSP"
    algorithm = "Fast-Fourier Transform"
    #: The transform length is rebindable; radix-2 needs a power of two,
    #: and the test signal draws frequencies below n/8, so n >= 16.
    symbolic_dims = ("n",)
    n = 8192
    functional_steps = 1
    perf_iterations = 1
    seed = 12
    rtol = 1e-6
    atol = 1e-6

    @once
    def signal(self):
        return bandlimited_signal(self.n, seed=self.seed)

    @classmethod
    def validate_dims(cls, dims):
        super().validate_dims(dims)
        n = dims.get("n", cls.n)
        if n < 16 or n & (n - 1):
            raise ShapeError(
                f"radix-2 FFT needs n to be a power of two >= 16, got {n}",
                name="n",
            )

    @property
    def log2n(self):
        return int(np.log2(self.n))

    def source(self):
        return FFT_SOURCE.format(n=self.n, n2=self.n // 2, log=self.log2n)

    def params(self):
        twr, twi = reference.twiddle_tables(self.n)
        return {
            "br": reference.bit_reversal_permutation(self.n),
            "twr": twr,
            "twi": twi,
        }

    def inputs(self, step, previous):
        return {"sig": self.signal}

    def extract(self, results):
        result = results[-1]
        return np.stack([result.outputs["fr"], result.outputs["fi"]])

    def reference(self):
        spectrum = reference.fft_real(self.signal)
        return np.stack([spectrum.real, spectrum.imag])


@register
class Fft8192(_FftWorkload):
    name = "FFT-8192"
    config = "1D FFT-real; 8192x1 input"
    n = 8192


@register
class Fft16384(_FftWorkload):
    name = "FFT-16384"
    config = "1D FFT-real; 16384x1 input"
    n = 16384
    seed = 13


DCT_SOURCE = """
// 8x8 blocked type-II DCT (stride 8): per block B, output D B D^T.
main(input float img[{h}][{w}], param float D[8][8],
     output float out[{h}][{w}]) {{
  index by[0:{hb}-1], bx[0:{wb}-1], u[0:7], v[0:7], x[0:7], y[0:7];
  float t1[{hb}][{wb}][8][8];
  t1[by][bx][u][y] = sum[x](D[u][x]*img[by*8+x][bx*8+y]);
  out[by*8+u][bx*8+v] = sum[y](t1[by][bx][u][y]*D[v][y]);
}}
"""


class _DctWorkload(Workload):
    domain = "DSP"
    algorithm = "Discrete Cosine Transform"
    #: The image edge is rebindable; blocking needs a multiple of 8.
    symbolic_dims = ("size",)
    size = 1024
    functional_steps = 1
    perf_iterations = 1
    seed = 14
    rtol = 1e-8

    @once
    def image(self):
        return natural_image(self.size, self.size, seed=self.seed)

    @classmethod
    def validate_dims(cls, dims):
        super().validate_dims(dims)
        size = dims.get("size", cls.size)
        if size < 8 or size % 8:
            raise ShapeError(
                f"blocked DCT needs size to be a multiple of 8, got {size}",
                name="size",
            )

    def source(self):
        return DCT_SOURCE.format(
            h=self.size, w=self.size, hb=self.size // 8, wb=self.size // 8
        )

    def params(self):
        return {"D": reference.dct_matrix(8)}

    def inputs(self, step, previous):
        return {"img": self.image}

    def extract(self, results):
        return results[-1].outputs["out"]

    def reference(self):
        return reference.dct2_blocked(self.image)


@register
class Dct1024(_DctWorkload):
    name = "DCT-1024"
    config = "1024x1024 image; 8x8 kernel, stride=8"
    size = 1024


@register
class Dct2048(_DctWorkload):
    name = "DCT-2048"
    config = "2048x2048 image; 8x8 kernel, stride=8"
    size = 2048
    seed = 15
