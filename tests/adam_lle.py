"""The annealed Adam descent that traced the LLE before the Newton
continuation, kept as a reference for the selected equilibrium, with the
``_Adam`` optimizer it runs and the gradient's pull through the pair
blocks (the solvers use neither).

It descends the QRE loss over per-player logits with Adam from tau
``tau_init``, multiplying tau by ``tau_decay`` at each ``interval``-step
check where the loss is at most ``gate``, down to the config's
``tau_terminal``; a stage whose loss stops falling halves the step.
"""

import numpy as np

from eqrate.solvers import QREConfig, _Contraction, _validate_targets


def _pull(ops: _Contraction, d: np.ndarray) -> np.ndarray:
    """Segment j of the result is ``sum over i != j of d_i @ E[u_i | a_i, a_j]``,
    from the pair blocks of the last ``contract``."""
    out = np.zeros_like(d)
    for (i, j), block in ops.blocks.items():
        out[ops.slices[j]] += d[ops.slices[i]] @ block
    return out


def _lle_step(ops: _Contraction, z: np.ndarray, tau: float, logt: np.ndarray):
    """Loss, logit-gradient and exploitability of the annealed
    best-response-gap objective, flat over every player's actions.

    The chain rule through each opponent's soft best response is exact: the
    gradient of the log-partition value with respect to the deviation
    payoffs is the best response itself.
    """
    logx, _ = ops.log_softmax(z)
    x = np.exp(logx)
    dev = ops.contract(x)
    log_br, lse = ops.log_softmax(dev / tau + logt)
    own = tau * (logx - logt) - dev
    loss = tau * float(lse.sum()) + float(x @ own)
    g = own + _pull(ops, np.exp(log_br) - x)
    gz = x * (g - ops.seg_sum(x * g)[ops.seg])
    return loss, gz, ops.exploitability(x, dev)


class _Adam:
    def __init__(self, size, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, grad: np.ndarray, z: np.ndarray) -> None:
        """Descend one step from z, in place."""
        self.t += 1
        self.m *= self.b1
        self.m += (1 - self.b1) * grad
        self.v *= self.b2
        self.v += (1 - self.b2) * grad * grad
        mhat = self.m / (1 - self.b1**self.t)
        vhat = self.v / (1 - self.b2**self.t)
        np.sqrt(vhat, out=vhat)
        vhat += self.eps
        mhat *= self.lr
        mhat /= vhat
        z -= mhat


def solve_lle_adam(
    game, config: QREConfig, interval=250, gate=1e-5, learning_rate=1e-2, tau_init=1.0, tau_decay=0.95
):
    """Returns the final profile, the termination and the step count."""
    logt = np.log(np.concatenate(_validate_targets(game, config.targets)))
    ops = _Contraction(game)
    z = logt.copy()
    adam = _Adam(z.size, learning_rate)
    min_lr = learning_rate / 128.0
    tau = tau_init
    step = 0
    termination = "max_steps"
    stall_window = max(4 * interval, 1000)
    best_loss = np.inf
    last_progress = 0
    while step < config.max_steps:
        loss, gz, exploit = _lle_step(ops, z, tau, logt)
        at_check = step % interval == 0
        if config.epsilon_ne > 0 and exploit <= config.epsilon_ne:
            termination = "epsilon_ne"
            break
        if loss < 0.9 * best_loss:
            best_loss = loss
            last_progress = step
        stalled = step - last_progress > stall_window
        if at_check and loss <= gate:
            if tau <= config.tau_terminal * (1 + 1e-12):
                termination = "terminal_tau"
                break
            tau = max(tau * tau_decay, config.tau_terminal)
            adam.lr = learning_rate
            best_loss = np.inf
            last_progress = step
        elif stalled and adam.lr > min_lr:
            adam.lr *= 0.5
            best_loss = np.inf
            last_progress = step
        adam.step(gz, z)
        step += 1
    return ops.profile(z), termination, step
