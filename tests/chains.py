"""The coupled spring chain that the orbit tests and the register of known wrong answers share."""

from collections import Counter

import numpy as np

from hambif import model


def spring_chain(freqs, with_hessian=True, calls=None):
    """``U(q) = sum f_i^2 q_i^2 / 2 + sum (q_i - q_{i+1})^4 / 4`` with its derivatives.

    ``calls``, a Counter, counts the calls of the q-level gradient and Hessian.
    """
    f2 = np.asarray(freqs, dtype=float) ** 2
    idx = np.arange(f2.size - 1)
    calls = Counter() if calls is None else calls

    def gradient(q):
        calls["gradient"] += 1
        d3 = (q[:-1] - q[1:]) ** 3
        g = f2 * q
        g[:-1] += d3
        g[1:] -= d3
        return g

    def hessian(q):
        calls["hessian"] += 1
        w = 3.0 * (q[:-1] - q[1:]) ** 2
        h = np.diag(f2)
        h[idx, idx] += w
        h[idx + 1, idx + 1] += w
        h[idx, idx + 1] -= w
        h[idx + 1, idx] -= w
        return h

    return model.newtonian_to_hamiltonian(
        lambda q: 0.5 * float(f2 @ (q * q)) + 0.25 * float(np.sum((q[:-1] - q[1:]) ** 4)),
        f2.size,
        gradient=gradient,
        hessian=hessian if with_hessian else None,
    )
