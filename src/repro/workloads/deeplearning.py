"""Deep-learning workloads: ResNet-18 and MobileNet (Table III).

Both networks keep their published *layer structure* — ResNet-18's four
stages of two residual basic blocks with strided downsampling projections,
MobileNet's depthwise-separable stacks — at reduced spatial resolution
(32x32 input) and channel width so the functional simulator can execute
them (see DESIGN.md). Batch size is 1, as in the paper. Batch-norm is
folded into the convolution weights (standard inference practice), so the
srDFG sees conv/relu/add/pool/fc group ops — exactly the granularity VTA
accepts.

The PMLang sources are generated: a fixed library of layer components plus
a ``main`` whose body instantiates one component per layer. This is the
same style TVM front ends emit, and keeps the source at Table III's
~100-120 LOC.
"""

from __future__ import annotations

import numpy as np

from . import reference
from .base import Workload, once, register
from .datasets import image_batch

LAYER_COMPONENTS = """
pad1(input float x[c][h][w], output float y[c][hp][wp]) {
  index i[0:c-1], j[0:h-1], k[0:w-1];
  y[i][j+1][k+1] = x[i][j][k];
}

conv3x3(input float x[ci][hi][wi], param float W[co][ci][3][3],
        output float y[co][ho][wo], param int s) {
  index oc[0:co-1], oy[0:ho-1], ox[0:wo-1], ic[0:ci-1], ky[0:2], kx[0:2];
  y[oc][oy][ox] = sum[ic][ky][kx](W[oc][ic][ky][kx]*x[ic][oy*s+ky][ox*s+kx]);
}

dwconv3x3(input float x[c][hi][wi], param float W[c][3][3],
          output float y[c][ho][wo], param int s) {
  index i[0:c-1], oy[0:ho-1], ox[0:wo-1], ky[0:2], kx[0:2];
  y[i][oy][ox] = sum[ky][kx](W[i][ky][kx]*x[i][oy*s+ky][ox*s+kx]);
}

conv1x1(input float x[ci][hi][wi], param float W[co][ci],
        output float y[co][ho][wo], param int s) {
  index oc[0:co-1], oy[0:ho-1], ox[0:wo-1], ic[0:ci-1];
  y[oc][oy][ox] = sum[ic](W[oc][ic]*x[ic][oy*s][ox*s]);
}

relu3(input float x[c][h][w], output float y[c][h][w]) {
  index i[0:c-1], j[0:h-1], k[0:w-1];
  y[i][j][k] = relu(x[i][j][k]);
}

add_relu(input float a[c][h][w], input float b[c][h][w],
         output float y[c][h][w]) {
  index i[0:c-1], j[0:h-1], k[0:w-1];
  y[i][j][k] = relu(a[i][j][k] + b[i][j][k]);
}

global_pool(input float x[c][h][w], output float y[c], param int hw) {
  index i[0:c-1], j[0:h-1], k[0:w-1];
  y[i] = sum[j][k](x[i][j][k]) / hw;
}

fc(input float x[n], param float W[m][n], param float b[m],
   output float y[m]) {
  index i[0:n-1], j[0:m-1];
  y[j] = sum[i](W[j][i]*x[i]) + b[j];
}
"""


class _SourceBuilder:
    """Accumulates main-body lines, local buffers, and weight params.

    A weight is declared by shape only; :meth:`draw` initializes every
    declared weight afterwards, so the source text is generated without
    drawing a single one.
    """

    def __init__(self):
        self.locals = []
        self.lines = []
        #: (name, shape, fan_in) per weight, in declaration order.
        self.weights = []
        self.param_decls = []

    def local(self, name, shape):
        dims = "".join(f"[{dim}]" for dim in shape)
        self.locals.append(f"  float {name}{dims};")
        return name

    def param(self, name, shape, fan_in=None):
        """Declare weight *name*: He-initialized over *fan_in*, or zeros
        (a bias) without one."""
        self.weights.append((name, shape, fan_in))
        dims = "".join(f"[{dim}]" for dim in shape)
        self.param_decls.append(f"param float {name}{dims}")
        return name

    def call(self, text):
        self.lines.append(f"  DL: {text}")

    def draw(self, seed):
        """The declared weights, drawn in declaration order from one
        generator seeded with *seed*."""
        rng = np.random.default_rng(seed)
        return {
            name: np.zeros(shape) if fan_in is None
            else _he_init(rng, shape, fan_in)
            for name, shape, fan_in in self.weights
        }


def _he_init(rng, shape, fan_in):
    return rng.normal(scale=np.sqrt(2.0 / fan_in), size=shape)


class _CnnWorkload(Workload):
    domain = "DL"
    algorithm = "Deep Neural Network"
    functional_steps = 1
    perf_iterations = 1
    input_hw = 32
    classes = 10
    seed = 21
    rtol = 1e-6
    atol = 1e-6

    @once
    def _network(self):
        """(source text, builder): the network declared, no weight drawn."""
        builder = _SourceBuilder()
        self._generate(builder)
        params = ",\n     ".join(builder.param_decls)
        main = (
            f"main(input float img[3][{self.input_hw}][{self.input_hw}],\n"
            f"     {params},\n"
            f"     output float logits[{self.classes}]) {{\n"
            + "\n".join(builder.locals)
            + "\n"
            + "\n".join(builder.lines)
            + "\n}\n"
        )
        return LAYER_COMPONENTS + "\n" + main, builder

    @once
    def weights(self):
        return self._network[1].draw(self.seed)

    @once
    def image(self):
        return image_batch(3, self.input_hw, self.input_hw, seed=self.seed)

    def source(self):
        return self._network[0]

    def params(self):
        return dict(self.weights)

    def inputs(self, step, previous):
        return {"img": self.image}

    def extract(self, results):
        return results[-1].outputs["logits"]

    def _generate(self, builder):
        """Declare the network's layers on *builder*."""
        raise NotImplementedError


@register
class ResNet18(_CnnWorkload):
    """ResNet-18 structure at 32x32 / reduced width (see DESIGN.md)."""

    name = "ResNet-18"
    config = "Batch Size = 1, 3x32x32 (paper: ImageNet 224x224)"
    widths = (16, 32, 64, 128)
    blocks_per_stage = 2
    seed = 21

    def _generate(self, builder):
        hw = self.input_hw

        # Stem: conv3x3(3 -> widths[0]) + relu.
        w = builder.param("stem_W", (self.widths[0], 3, 3, 3), 27)
        builder.local("img_p", (3, hw + 2, hw + 2))
        builder.local("stem", (self.widths[0], hw, hw))
        builder.local("act0", (self.widths[0], hw, hw))
        builder.call("pad1(img, img_p);")
        builder.call(f"conv3x3(img_p, {w}, stem, 1);")
        builder.call("relu3(stem, act0);")

        current = "act0"
        channels = self.widths[0]
        for stage, width in enumerate(self.widths):
            for block in range(self.blocks_per_stage):
                stride = 2 if (stage > 0 and block == 0) else 1
                current, hw, channels = self._basic_block(
                    builder, f"s{stage}b{block}", current, channels, width,
                    hw, stride,
                )

        builder.local("pooled", (channels,))
        builder.call(f"global_pool({current}, pooled, {hw * hw});")
        fc_w = builder.param("fc_W", (self.classes, channels), channels)
        fc_b = builder.param("fc_b", (self.classes,))
        builder.call(f"fc(pooled, {fc_w}, {fc_b}, logits);")

    def _basic_block(self, builder, tag, x, cin, cout, hw, stride):
        out_hw = hw // stride

        w1 = builder.param(f"{tag}_c1_W", (cout, cin, 3, 3), cin * 9)
        w2 = builder.param(f"{tag}_c2_W", (cout, cout, 3, 3), cout * 9)
        builder.local(f"{tag}_p1", (cin, hw + 2, hw + 2))
        builder.local(f"{tag}_c1", (cout, out_hw, out_hw))
        builder.local(f"{tag}_a1", (cout, out_hw, out_hw))
        builder.local(f"{tag}_p2", (cout, out_hw + 2, out_hw + 2))
        builder.local(f"{tag}_c2", (cout, out_hw, out_hw))
        builder.local(f"{tag}_out", (cout, out_hw, out_hw))
        builder.call(f"pad1({x}, {tag}_p1);")
        builder.call(f"conv3x3({tag}_p1, {w1}, {tag}_c1, {stride});")
        builder.call(f"relu3({tag}_c1, {tag}_a1);")
        builder.call(f"pad1({tag}_a1, {tag}_p2);")
        builder.call(f"conv3x3({tag}_p2, {w2}, {tag}_c2, 1);")

        if stride != 1 or cin != cout:
            wd = builder.param(f"{tag}_ds_W", (cout, cin), cin)
            builder.local(f"{tag}_skip", (cout, out_hw, out_hw))
            builder.call(f"conv1x1({x}, {wd}, {tag}_skip, {stride});")
            skip = f"{tag}_skip"
        else:
            skip = x
        builder.call(f"add_relu({tag}_c2, {skip}, {tag}_out);")
        return f"{tag}_out", out_hw, cout

    def reference(self):
        params = self.weights
        x = self.image
        x = reference.relu(reference.conv2d(x, params["stem_W"], stride=1, pad=1))
        cin = self.widths[0]
        for stage, width in enumerate(self.widths):
            for block in range(self.blocks_per_stage):
                stride = 2 if (stage > 0 and block == 0) else 1
                tag = f"s{stage}b{block}"
                y = reference.relu(
                    reference.conv2d(x, params[f"{tag}_c1_W"], stride=stride, pad=1)
                )
                y = reference.conv2d(y, params[f"{tag}_c2_W"], stride=1, pad=1)
                if stride != 1 or cin != width:
                    w = params[f"{tag}_ds_W"][:, :, None, None]
                    skip = reference.conv2d(x, w, stride=stride, pad=0)
                else:
                    skip = x
                x = reference.relu(y + skip)
                cin = width
        pooled = reference.global_avg_pool(x)
        return reference.dense(params["fc_W"], params["fc_b"], pooled)


@register
class MobileNet(_CnnWorkload):
    """MobileNet-v1 structure at 32x32 / reduced width (see DESIGN.md)."""

    name = "MobileNet"
    config = "Batch Size = 1, 3x32x32 (paper: ImageNet 224x224)"
    #: (stride, output channels) per depthwise-separable block.
    blocks = (
        (1, 32),
        (2, 64),
        (1, 64),
        (2, 128),
        (1, 128),
        (2, 128),
        (1, 128),
        (1, 128),
    )
    stem_width = 16
    seed = 22

    def _generate(self, builder):
        hw = self.input_hw
        w = builder.param("stem_W", (self.stem_width, 3, 3, 3), 27)
        builder.local("img_p", (3, hw + 2, hw + 2))
        builder.local("stem", (self.stem_width, hw, hw))
        builder.local("act0", (self.stem_width, hw, hw))
        builder.call("pad1(img, img_p);")
        builder.call(f"conv3x3(img_p, {w}, stem, 1);")
        builder.call("relu3(stem, act0);")

        current = "act0"
        channels = self.stem_width
        for position, (stride, cout) in enumerate(self.blocks):
            tag = f"b{position}"
            out_hw = hw // stride
            dw = builder.param(f"{tag}_dw_W", (channels, 3, 3), 9)
            pw = builder.param(f"{tag}_pw_W", (cout, channels), channels)
            builder.local(f"{tag}_p", (channels, hw + 2, hw + 2))
            builder.local(f"{tag}_dw", (channels, out_hw, out_hw))
            builder.local(f"{tag}_da", (channels, out_hw, out_hw))
            builder.local(f"{tag}_pw", (cout, out_hw, out_hw))
            builder.local(f"{tag}_out", (cout, out_hw, out_hw))
            builder.call(f"pad1({current}, {tag}_p);")
            builder.call(f"dwconv3x3({tag}_p, {dw}, {tag}_dw, {stride});")
            builder.call(f"relu3({tag}_dw, {tag}_da);")
            builder.call(f"conv1x1({tag}_da, {pw}, {tag}_pw, 1);")
            builder.call(f"relu3({tag}_pw, {tag}_out);")
            current, hw, channels = f"{tag}_out", out_hw, cout

        builder.local("pooled", (channels,))
        builder.call(f"global_pool({current}, pooled, {hw * hw});")
        fc_w = builder.param("fc_W", (self.classes, channels), channels)
        fc_b = builder.param("fc_b", (self.classes,))
        builder.call(f"fc(pooled, {fc_w}, {fc_b}, logits);")

    def reference(self):
        params = self.weights
        x = reference.relu(reference.conv2d(self.image, params["stem_W"], 1, 1))
        for position, (stride, cout) in enumerate(self.blocks):
            tag = f"b{position}"
            x = reference.relu(
                reference.depthwise_conv2d(x, params[f"{tag}_dw_W"], stride, 1)
            )
            w = params[f"{tag}_pw_W"][:, :, None, None]
            x = reference.relu(reference.conv2d(x, w, stride=1, pad=0))
        pooled = reference.global_avg_pool(x)
        return reference.dense(params["fc_W"], params["fc_b"], pooled)
