"""Robotics workloads: MobileRobot and Hexacopter MPC (Table III).

``MobileRobot`` is the paper's running example (Fig 4) verbatim: model
predictive control for two-wheeled trajectory tracking. ``Hexacopter`` is
the six-rotor attitude/altitude controller: a larger MPC whose state is
extended with trigonometric attitude kinematics (sin/cos of the Euler
angles), exercising ROBOX's non-linear units.

Horizon = 1024 in Table III is the length of the control run: one
invocation per control step, 1024 steps per paper-scale execution.
"""

from __future__ import annotations

import numpy as np

from . import reference
from ..errors import ShapeError
from .base import Workload, once, register, substitute
from .datasets import mpc_problem

MOBILE_ROBOT_SOURCE = """
// Model Predictive Control for two-wheeled trajectory tracking (Fig 4).
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
                  param float pos_ref[c],
                  param float HQ_g[b][c],  // Input Cost Gradient
                  param float R_g[b][b],   // Cost Inverse Hessian
                  output float g[b]) {
  index i[0:b-1], j[0:c-1];
  float P_g[b], H_g[b], err[c];
  err[j] = pos_ref[j] - pos_pred[j];
  mvmul(HQ_g, err, P_g);
  mvmul(R_g, ctrl_mdl, H_g);
  g[i] = P_g[i] + H_g[i];
}

main(input float pos[{state}], state float ctrl_mdl[{ctrl}],
     param float pos_ref[{pred}], param float P[{pred}][{state}],
     param float HQ_g[{ctrl}][{pred}], param float H[{pred}][{ctrl}],
     param float R_g[{ctrl}][{ctrl}], output float ctrl_sgnl[{signal}]) {
  float pos_pred[{pred}], g[{ctrl}];
  RBT: predict_trajectory(pos, ctrl_mdl, P, H, pos_pred);
  RBT: compute_ctrl_grad(pos_pred, ctrl_mdl, pos_ref, HQ_g, R_g, g);
  RBT: update_ctrl_model(ctrl_mdl, g, ctrl_mdl, ctrl_sgnl, {h});
}
"""


class _MpcWorkload(Workload):
    """Shared driver for the two MPC benchmarks."""

    domain = "RBT"
    algorithm = "Model Predictive Control"
    perf_iterations = 1024
    functional_steps = 6
    #: Rebindable extents: a request may resize the control problem
    #: (state/prediction/control-horizon lengths) per binding.
    symbolic_dims = ("state_dim", "ctrl_len", "signal_len", "pred_len")
    state_dim = 3
    ctrl_len = 20
    signal_len = 2
    pred_len = 30
    horizon = 10
    seed = 11

    @once
    def problem(self):
        return mpc_problem(
            self._extended_dim(), self.pred_len, self.ctrl_len, self.signal_len,
            seed=self.seed,
        )

    @classmethod
    def validate_dims(cls, dims):
        super().validate_dims(dims)
        merged = {name: getattr(cls, name) for name in cls.symbolic_dims}
        merged.update(dims)
        ctrl, signal = merged["ctrl_len"], merged["signal_len"]
        # update_ctrl_model reads ctrl_prev[h*j] for j in [0, s-1] and
        # zeroes ctrl_mdl[(h-1)*j]; both stay in bounds only when the
        # decimated signal fits inside the control model.
        if ctrl < 2 or cls.horizon * (signal - 1) >= ctrl:
            raise ShapeError(
                f"MPC binding needs ctrl_len > horizon*(signal_len-1) "
                f"(got ctrl_len={ctrl}, signal_len={signal}, "
                f"horizon={cls.horizon})",
                name="ctrl_len",
            )

    def _extended_dim(self):
        return self.state_dim

    def _pos_sequence(self, step):
        """Deterministic sensor trajectory fed to both paths."""
        t = step * 0.05
        base = np.array(
            [np.cos(0.7 * t + 0.3 * i) for i in range(self.state_dim)]
        )
        return base

    def params(self):
        return dict(self.problem)

    def initial_state(self):
        return {"ctrl_mdl": np.zeros(self.ctrl_len)}

    def inputs(self, step, previous):
        return {"pos": self._pos_sequence(step)}

    def extract(self, results):
        return np.array([result.outputs["ctrl_sgnl"] for result in results])

    def reference(self):
        ctrl_mdl = np.zeros(self.ctrl_len)
        signals = []
        for step in range(self.functional_steps):
            pos = self._extend(self._pos_sequence(step))
            signal, ctrl_mdl = reference.mpc_step(
                pos, ctrl_mdl, self.problem, self.horizon, self.signal_len
            )
            signals.append(signal)
        return np.array(signals)

    def _extend(self, pos):
        return pos


@register
class MobileRobot(_MpcWorkload):
    """Two-wheeled robot trajectory tracking (the paper's Fig 3/4)."""

    name = "MobileRobot"
    config = "Trajectory Tracking, Horizon = 1024"
    state_dim = 3
    ctrl_len = 20
    signal_len = 2
    pred_len = 30
    horizon = 10

    def source(self):
        return substitute(MOBILE_ROBOT_SOURCE,
            state=self.state_dim,
            ctrl=self.ctrl_len,
            signal=self.signal_len,
            pred=self.pred_len,
            h=self.horizon,
        )


HEXACOPTER_SOURCE = """
// Six-rotor UAV altitude/attitude MPC. The measured state is extended
// with trigonometric attitude kinematics before trajectory prediction.
attitude_kinematics(input float pos[n], output float ext[ne], param int na) {
  index i[0:n-1], a[0:na-1];
  ext[i] = pos[i];
  ext[n + a] = sin(pos[n - na + a]);
  ext[n + na + a] = cos(pos[n - na + a]);
}

predict_trajectory(input float ext[a], input float ctrl_mdl[b],
                   param float P[c][a], param float H[c][b],
                   output float pred[c]) {
  index i[0:a-1], j[0:b-1], k[0:c-1];
  pred[k] = sum[i](P[k][i]*ext[i]);
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

main(input float pos[{state}], state float ctrl_mdl[{ctrl}],
     param float pos_ref[{pred}], param float P[{pred}][{ext}],
     param float HQ_g[{ctrl}][{pred}], param float H[{pred}][{ctrl}],
     param float R_g[{ctrl}][{ctrl}], output float ctrl_sgnl[{signal}]) {
  float ext[{ext}], pos_pred[{pred}], g[{ctrl}];
  RBT: attitude_kinematics(pos, ext, {angles});
  RBT: predict_trajectory(ext, ctrl_mdl, P, H, pos_pred);
  RBT: compute_ctrl_grad(pos_pred, ctrl_mdl, pos_ref, HQ_g, R_g, g);
  RBT: update_ctrl_model(ctrl_mdl, g, ctrl_mdl, ctrl_sgnl, {h});
}
"""


@register
class Hexacopter(_MpcWorkload):
    """Six-rotor micro-UAV attitude/altitude control."""

    name = "Hexacopter"
    config = "Altitude Control, Horizon = 1024"
    state_dim = 12  # position, velocity, Euler angles, angular rates
    angles = 3  # roll/pitch/yaw enter through sin/cos
    ctrl_len = 60  # 6 rotors x horizon 10
    signal_len = 6
    pred_len = 120
    horizon = 10
    seed = 23

    def _extended_dim(self):
        return self.state_dim + 2 * self.angles

    def source(self):
        return substitute(HEXACOPTER_SOURCE,
            state=self.state_dim,
            ext=self._extended_dim(),
            ctrl=self.ctrl_len,
            signal=self.signal_len,
            pred=self.pred_len,
            h=self.horizon,
            angles=self.angles,
        )

    def _extend(self, pos):
        angles = pos[self.state_dim - self.angles :]
        return np.concatenate([pos, np.sin(angles), np.cos(angles)])
