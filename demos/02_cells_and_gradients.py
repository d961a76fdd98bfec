"""Open the box on the recurrent cells: run one tiny LSTM forecast by hand and
check a backpropagated gradient against finite differences.

The point of this demo is that nothing is hidden behind a framework -- the
whole forward pass is a handful of sigmoid/tanh lines you can re-do on paper.
The library takes a stack of windows, so one window goes in as a batch of one.
"""

import numpy as np

from rnncast.cells import backward_batch, init_model
from rnncast.numkit import Rng

rng = Rng(7)
state = init_model("lstm", units=3, window=4, horizon=1, rng=rng)
p = state.params

window = np.array([0.5, -0.2, 0.8, 0.1])
forecast = state.forecast(window[None, :])[0]
print("library forecast after 4 steps:", np.round(forecast, 6))

# Same thing by hand, straight from the gate equations.  h and c start at 0.
def sig(a):
    return 1.0 / (1.0 + np.exp(-a))

h = np.zeros(3)
c = np.zeros(3)
for x in window:
    i = sig(x * p["w_i"] + p["u_i"] @ h + p["b_i"])
    f = sig(x * p["w_f"] + p["u_f"] @ h + p["b_f"])
    o = sig(x * p["w_o"] + p["u_o"] @ h + p["b_o"])
    g = np.tanh(x * p["w_g"] + p["u_g"] @ h + p["b_g"])
    c = f * c + i * g
    h = o * np.tanh(c)
print("hand-rolled hidden state:      ", np.round(h, 6))
by_hand = p["w_out"] @ h + p["b_out"]
print("hand-rolled forecast (head):   ", np.round(by_hand, 6))
print("max difference:", np.abs(by_hand - forecast).max())
assert np.allclose(by_hand, forecast, rtol=1e-12, atol=1e-15)

# The GRU keeps a single state vector; its update gate z blends old and new.
gru = init_model("gru", units=3, window=4, horizon=1, rng=Rng(7))
print("\nGRU forecast:", np.round(gru.forecast(window[None, :])[0], 6))

# Gradient check: nudge one recurrent weight of the forget gate up and down,
# and compare the slope of the loss with what backpropagation reported.
target = np.array([0.3])
loss, grads = backward_batch(state, window[None, :], target[None, :])
analytic = grads["u_f"][1, 2]

eps = 1e-6
keep = p["u_f"][1, 2]
p["u_f"][1, 2] = keep + eps
hi = float(state.forecast(window[None, :])[0, 0] - target[0]) ** 2
p["u_f"][1, 2] = keep - eps
lo = float(state.forecast(window[None, :])[0, 0] - target[0]) ** 2
p["u_f"][1, 2] = keep

numeric = (hi - lo) / (2 * eps)
print(f"\nloss {loss:.6f}")
print(f"dL/d u_f[1,2]: backprop {analytic:+.8f}, finite difference {numeric:+.8f}")
rel = abs(analytic - numeric) / max(abs(numeric), 1e-12)
print(f"relative error {rel:.2e}")
assert rel < 1e-4
