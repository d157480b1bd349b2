"""Shared fixtures: canonical PMLang programs used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

#: The paper's Fig 4 MPC program (MobileRobot sizes).
MPC_SOURCE = """
predict_trajectory(input float pos[a], input float ctrl_mdl[b],
                   param float P[c][a], param float H[c][b],
                   output float pred[c]) {
  index i[0:a-1], j[0:b-1], k[0:c-1];
  pred[k] = sum[i](P[k][i]*pos[i]);
  pred[k] = pred[k] + sum[j](H[k][j]*ctrl_mdl[j]);
}

update_ctrl_model(input float ctrl_prev[b], input float g[b],
                  output float ctrl_mdl[b], output float ctrl_sgnl[s],
                  param int h) {
  index i[0:b-2], j[0:s-1];
  ctrl_sgnl[j] = ctrl_prev[h*j];
  ctrl_mdl[(h-1)*j] = 0;
  ctrl_mdl[i] = ctrl_prev[i+1] - g[i+1];
}

mvmul(input float A[m][n], input float B[n], output float C[m]) {
  index i[0:n-1], j[0:m-1];
  C[j] = sum[i](A[j][i]*B[i]);
}

compute_ctrl_grad(input float pos_pred[c], input float ctrl_mdl[b],
                  param float pos_ref[c], param float HQ_g[b][c],
                  param float R_g[b][b], output float g[b]) {
  index i[0:b-1], j[0:c-1];
  float P_g[b], H_g[b], err[c];
  err[j] = pos_ref[j] - pos_pred[j];
  mvmul(HQ_g, err, P_g);
  mvmul(R_g, ctrl_mdl, H_g);
  g[i] = P_g[i] + H_g[i];
}

main(input float pos[3], state float ctrl_mdl[20],
     param float pos_ref[30], param float P[30][3],
     param float HQ_g[20][30], param float H[30][20],
     param float R_g[20][20], output float ctrl_sgnl[2]) {
  float pos_pred[30], g[20];
  RBT: predict_trajectory(pos, ctrl_mdl, P, H, pos_pred);
  RBT: compute_ctrl_grad(pos_pred, ctrl_mdl, pos_ref, HQ_g, R_g, g);
  RBT: update_ctrl_model(ctrl_mdl, g, ctrl_mdl, ctrl_sgnl, 10);
}
"""

#: A minimal single-statement program for statement-level tests.
MATVEC_SOURCE = """
main(input float A[4][3], input float x[3], output float y[4]) {
  index i[0:2], j[0:3];
  y[j] = sum[i](A[j][i]*x[i]);
}
"""


@pytest.fixture(scope="session")
def mpc_source():
    return MPC_SOURCE


@pytest.fixture(scope="session")
def matvec_source():
    return MATVEC_SOURCE


@pytest.fixture(scope="session")
def mpc_data():
    """Deterministic parameter/state/input values for the MPC program."""
    rng = np.random.default_rng(0)
    return {
        "inputs": {"pos": np.array([1.0, 2.0, 0.5])},
        "params": {
            "pos_ref": rng.normal(size=30),
            "P": rng.normal(size=(30, 3)),
            "HQ_g": rng.normal(size=(20, 30)) * 0.01,
            "H": rng.normal(size=(30, 20)),
            "R_g": rng.normal(size=(20, 20)) * 0.01,
        },
        "state": {"ctrl_mdl": rng.normal(size=20)},
    }


@pytest.fixture(scope="session")
def mpc_reference_result(mpc_data):
    """Numpy-computed expected outputs for one MPC invocation."""
    pos = mpc_data["inputs"]["pos"]
    params = mpc_data["params"]
    ctrl = mpc_data["state"]["ctrl_mdl"]
    pred = params["P"] @ pos + params["H"] @ ctrl
    err = params["pos_ref"] - pred
    grad = params["HQ_g"] @ err + params["R_g"] @ ctrl
    signal = ctrl[[0, 10]].copy()
    new_ctrl = ctrl.copy()
    new_ctrl[[0, 9]] = 0.0
    new_ctrl[0:19] = ctrl[1:20] - grad[1:20]
    return {"ctrl_sgnl": signal, "ctrl_mdl": new_ctrl}


def _rewrite_expr(ruleset, expr, static_env=None, protected=()):
    """*expr* after *ruleset*, as the value of a one-statement graph
    (names in *protected* are index variables and stay symbolic)."""
    from repro.obs import Counters
    from repro.pmlang import ast_nodes as ast
    from repro.rewrite import run_ruleset
    from repro.srdfg import build

    graph = build("main(output float out) { out = 0; }")
    [node] = graph.compute_nodes()
    node.attrs["stmt"] = ast.Assign(target="out", target_indices=(), value=expr)
    node.attrs["static_env"] = dict(static_env or {})
    node.attrs["index_ranges"] = {name: (0, 0) for name in protected}
    run_ruleset(graph, ruleset, stats=Counters())
    return node.attrs["stmt"].value


@pytest.fixture(scope="session")
def rewrite_expr():
    """Drive one rule set's expression rules over a bare expression."""
    return _rewrite_expr
