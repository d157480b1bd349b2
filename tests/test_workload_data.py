"""A workload is a description: its data is generated on first read, once.

Two contracts:

* **Same bytes.** Every registered workload — and one non-default
  binding of each that declares symbolic dims — hands out exactly the
  source, hints, params, initial state and first inputs pinned below,
  whichever of them is read first. A deferred dataset that shares a
  generator with another cannot drift without changing a digest.
* **Naming builds nothing.** Constructing, listing, tabulating and
  admitting a workload call no dataset generator and no CNN weight
  builder; the first read of a dataset calls its generator exactly once
  per instance, however many threads read it at once.
"""

from __future__ import annotations

import collections
import hashlib
import inspect
import sys
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.workloads import datasets, deeplearning, get_workload, workload_names

#: sha256 of source, hints, params, initial state and ``inputs(0, None)``
#: per (workload, dims) binding.
DATA_DIGESTS = {
    ("MobileRobot", ()): "34029f7bc14e4c908dc840951ba47bdb1314057c6580a0313c413270f99ffc7c",
    ("Hexacopter", ()): "ca303107cefcd1cedfa0be0667d32ad2efab608ffe2a3d726263ce28a1fb57ed",
    ("Twitter-BFS", ()): "4c44ac6b7de2f679b816d5d252c81f396da847fe02c2ff582de017945648333e",
    ("Wiki-BFS", ()): "7e87aa729d944f0e3a16ef8b539799065ac4d671f64eae60c2951150c0395efd",
    ("LiveJourn-SSP", ()): "57471ba3c3644420faf7b1473f252683526a2b2fcd70c6fde06b5f4f2c30fb08",
    ("MovieL-20M", ()): "17b94a8901ae3bbe3a29d20695b67cea8cbce0367bb0195957a16619f2872977",
    ("MovieL-100K", ()): "f0c3fa55d4c81f6696625087a96338fa105d52926e0e7689700bfac41a9d7aa5",
    ("DigitCluster", ()): "ae7b739bd1f27af5e7501c37be7dfdd6e0243b01cb6502f3a4759190a85bcb05",
    ("ElecUse", ()): "22ab188c71d5d03051f736435e8d9b4a620371c8e80f675b1d3698a5ffd94943",
    ("FFT-8192", ()): "10e098dedb4e6d0d51765be43471efb4352ca4dd91ce4ce1d8985bd2458703dc",
    ("FFT-16384", ()): "ca21e3860e5041a04aee3ba447d3ea0491781b6eeb6e01175bd6ad5b992e3dc7",
    ("DCT-1024", ()): "4ede71ea2a0efd03b0984ef793badd0926c3889aa642611bc13364d81565df68",
    ("DCT-2048", ()): "5f1f776bcc985b69121f5c1784ec48c423cf196bce9827dc8ac8f5d6c382f8d5",
    ("ResNet-18", ()): "94c3f392f7708b520425c8025b009f629df30ecb66207278c042f8933a55f6dc",
    ("MobileNet", ()): "70f3b6ac6b5ed2f4f0b5de0304b445708cfb251e4f3f1f7a3513f294e0382f0e",
    ("BrainStimul", ()): "5a7be25ee2c8df3e2a41276aba548374f84aa4897a4c2fa22fb6af4ac02facea",
    ("OptionPricing", ()): "0c7105297c3072508923fed00924ba434c14e7c7958fa2edbdda09f0497cd66e",
    ("PageRank", ()): "e1e2ca02bd42fc25bb2cd4d4e71aac840e26eba4ee34b29c893cf59956052727",
    ("LogisticRegression", ()): "c5623cc421d052f39cb04b848e876701e02328378e04bdb3d3063c1b9105b20f",
    ("FFT-8192", (("n", 1024),)): "02cb3c1226dc86886b61e92f49db5133bb42281c5140282ad4f82076a6fd88ca",
    ("FFT-16384", (("n", 2048),)): "03b184bb915f42b6d9413e15059772218fcb15261567c5259796841b357e05cc",
    ("DCT-1024", (("size", 256),)): "4b488c69ef215fb80cf14b7b72f4ff3685cb8f63ae59b02e1948412c8d63e4fa",
    ("DCT-2048", (("size", 512),)): "750d60274042dc4b83f4fe59b2fca767f8d174a9116e0c9e134f692a057f778e",
    ("MobileRobot", (("ctrl_len", 30), ("pred_len", 40))): "1a2f11aac01fc6a18fd229b59c5ddb339515814e71e8f62a6690d740ddb4c840",
    ("Hexacopter", (("state_dim", 9), ("signal_len", 4))): "9094cb57e7155ad8e718ad5730522fd1f73706fe40959cb1039148ce9a9fa79b",
}

#: The non-default binding pinned for each workload with symbolic dims.
OTHER_DIMS = {name: dict(dims) for name, dims in DATA_DIGESTS if dims}

#: The data reads a digest covers, in "params first" order.
READS = ("params", "initial_state", "inputs")


def _read(workload, section):
    if section == "inputs":
        return workload.inputs(0, None)
    return getattr(workload, section)()


def data_digest(workload, order=READS):
    """sha256 over the workload's source, hints and every value it hands
    out (names, dtypes, shapes, bytes), the values read in *order*."""
    values = {section: _read(workload, section) for section in order}
    digest = hashlib.sha256(workload.source().encode())
    digest.update(repr(sorted(workload.hints().items())).encode())
    for section in READS:
        digest.update(f"[{section}]".encode())
        for name, value in sorted(values[section].items()):
            array = np.ascontiguousarray(value)
            digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def test_every_registered_workload_is_pinned():
    assert sorted({name for name, _ in DATA_DIGESTS}) == workload_names()
    assert sorted(OTHER_DIMS) == sorted(
        name for name in workload_names()
        if get_workload(name).symbolic_dims
    )


@pytest.mark.parametrize("order", [READS, READS[::-1]], ids=["params-first", "inputs-first"])
@pytest.mark.parametrize(
    "name,dims", list(DATA_DIGESTS),
    ids=[name + "".join(f"-{d}={v}" for d, v in dims) for name, dims in DATA_DIGESTS],
)
def test_data_is_byte_identical(name, dims, order):
    workload = get_workload(name, dict(dims))
    assert data_digest(workload, order) == DATA_DIGESTS[name, dims]


# -- naming builds nothing -----------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Every call into a dataset generator or the CNN weight builder, as
    ``(function name, calling thread)``, in call order."""
    calls = []
    targets = {
        name: function
        for name, function in inspect.getmembers(datasets, inspect.isfunction)
        if function.__module__ == datasets.__name__
    }
    targets["_he_init"] = deeplearning._he_init

    def counted(name, function):
        def call(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return function(*args, **kwargs)
        return call

    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.workloads"):
            continue
        for name, function in targets.items():
            if getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, counted(name, function))
    return calls


def _counts(calls, thread=None):
    return collections.Counter(
        name for name, ident in calls if thread is None or ident == thread
    )


@pytest.mark.parametrize("name", workload_names())
def test_naming_a_workload_builds_nothing(name, builds):
    workload = get_workload(name)
    workload.source()
    workload.pmlang_loc
    workload.shape_binding()
    if name in OTHER_DIMS:
        other = workload.with_dims(**OTHER_DIMS[name])
        other.source()
        other.shape_binding()
    assert _counts(builds) == {}


@pytest.mark.parametrize("name", workload_names())
def test_hints_draw_only_the_graph(name, builds):
    workload = get_workload(name)
    workload.hints()
    if workload.domain == "GA":
        assert _counts(builds) == {"rmat_graph": 1}
        # The edge count needs the adjacency, never the weight matrix.
        assert "weights" not in vars(workload.graph_data)
    else:
        assert _counts(builds) == {}


@pytest.mark.parametrize("argv", [["workloads"], ["tables"]], ids=["workloads", "tables"])
def test_listing_and_tabulating_build_nothing(argv, builds, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert _counts(builds) == {}


def test_admitting_a_new_bucket_builds_on_the_worker(builds):
    from repro.serve import Request, Server

    with Server(workers=1) as server:
        ticket = server.submit(Request(workload="DCT-1024", dims={"size": 64}))
        submitted = _counts(builds, threading.get_ident())
        response = ticket.wait(timeout=120)
    assert submitted == {}
    assert response.ok, response.error
    # The worker generated the bucket's image, once.
    assert _counts(builds) == {"natural_image": 1}


def test_concurrent_first_reads_build_once(builds):
    workload = get_workload("MovieL-100K")
    threads = 8
    barrier = threading.Barrier(threads)
    seen = [None] * threads

    def read(slot):
        barrier.wait()
        params = workload.shared_params()
        state = workload.initial_state()
        seen[slot] = (params, params["R"], workload.factors, state)

    workers = [threading.Thread(target=read, args=(slot,)) for slot in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert _counts(builds) == {"rating_matrix": 1}
    params, ratings, factors, state = seen[0]
    for other in seen[1:]:
        assert other[0] is params and other[1] is ratings
        assert other[2] is factors
        np.testing.assert_array_equal(other[3]["W"], state["W"])
    # Once built, each value is a plain instance attribute.
    assert {"data", "factors", "_shared_params"} <= set(vars(workload))


# -- a served BrainStimul request draws no signal ------------------------------


def _direct_signal(workload, step):
    return datasets.bandlimited_signal(workload.n, seed=workload.seed + step)


def test_brainstimul_keeps_its_recent_signals_read_only(builds):
    workload = get_workload("BrainStimul")
    first = [workload.inputs(step, None)["sig"] for step in range(6)]
    again = [workload.inputs(step, None)["sig"] for step in range(6)]
    assert _counts(builds) == {"bandlimited_signal": 6}
    for step, (signal, kept) in enumerate(zip(first, again)):
        assert kept is signal
        assert not signal.flags.writeable
        assert signal.tobytes() == _direct_signal(workload, step).tobytes()


def test_optionpricing_keeps_its_recent_jitter_read_only():
    workload = get_workload("OptionPricing")
    first = [workload.inputs(step, None)["x"] for step in range(6)]
    again = [workload.inputs(step, None)["x"] for step in range(6)]
    for step, (jitter, kept) in enumerate(zip(first, again)):
        assert kept is jitter
        assert not jitter.flags.writeable
        rng = np.random.default_rng(workload.seed + 100 + step)
        direct = workload.features * rng.uniform(0.8, 1.2, size=workload.words)
        assert jitter.tobytes() == direct.tobytes()


def test_brainstimul_session_past_the_kept_signals_answers_correctly():
    from repro.serve import Server, result_signature
    from repro.workloads import Trajectory
    from repro.workloads.endtoend import KEPT_SIGNALS

    steps = KEPT_SIGNALS + 3
    with Server(workers=1) as server:
        with server.open_session("BrainStimul") as session:
            replies = [session.step(timeout=120) for _ in range(steps)]
        config = server.executor.resolve("BrainStimul")
    assert all(reply.ok for reply in replies)
    reference = Trajectory(get_workload("BrainStimul"))
    for step, reply in enumerate(replies):
        expected = reference.step(
            config.plan.execute,
            {"sig": _direct_signal(config.workload, step)},
        )
        assert reply.signature == result_signature(expected.outputs), step
    # The first steps' signals were let go, and come back the same.
    assert config.workload.inputs(0, None)["sig"].tobytes() == (
        _direct_signal(config.workload, 0).tobytes()
    )
