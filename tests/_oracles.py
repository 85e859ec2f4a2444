"""Independent reference implementations used only by the tests.

Everything here is written as plain Python loops over small dense
matrices, deliberately avoiding the batched operator assembly in the
package, so agreement between the two is meaningful.
"""

import numpy as np


def stage_ops(L, h, A):
    """Stage operators R^(k) of one linear Runge-Kutta step."""
    s = A.shape[0]
    n = L.shape[0]
    eye = np.eye(n)
    R = []
    for k in range(s):
        acc = eye.copy()
        for j in range(k):
            acc = acc + h * A[k, j] * (L @ R[j])
        if A[k, k] != 0.0:
            acc = np.linalg.solve(eye - h * A[k, k] * L, acc)
        R.append(acc)
    return R


def single_rate_R(L, h, method):
    """Update matrix of one step: u_next = R u."""
    R = stage_ops(L, h, method.A)
    eye = np.eye(L.shape[0])
    return eye + h * sum(bi * (L @ Ri) for bi, Ri in zip(method.b, R))


def dense_weights(method, tau):
    """Continuous-output weights b*_i(tau) = sum_j B*[i, j] tau**(j+1) of
    every stage i, as a length-s array."""
    w = []
    for row in method.dense:
        acc = 0.0
        for j, bij in enumerate(row):
            acc += bij * tau ** (j + 1)
        w.append(acc)
    return np.array(w)


def interp_Q(L, h, method, kind, tau):
    """Interpolation operator Q(tau) mapping u_n to the value inside the
    step, for the three interpolator kinds."""
    eye = np.eye(L.shape[0])
    Rh = single_rate_R(L, h, method)
    if kind == "linear":
        return (1.0 - tau) * eye + tau * Rh
    if kind == "hermite":
        return ((1.0 + 2.0 * tau) * (1.0 - tau) ** 2 * eye
                + (3.0 - 2.0 * tau) * tau ** 2 * Rh
                + h * tau * (1.0 - tau) ** 2 * L
                + h * (tau - 1.0) * tau ** 2 * (L @ Rh))
    if kind == "dense":
        R = stage_ops(L, h, method.A)
        w = dense_weights(method, tau)
        return eye + h * sum(wi * (L @ Ri) for wi, Ri in zip(w, R))
    raise ValueError(kind)


def brute_force_multirate_R(L, d, h_s, M, method, kind):
    """Multi-rate update matrix by columnwise simulation.

    Each unit vector is propagated through the algorithm literally: the
    tentative global step supplies the slow part, then M fast sub-steps
    of the same method advance the last d components with slow values
    interpolated at the stage times.  Slow-first component ordering.
    """
    A, b = method.A, method.b
    c = A.sum(axis=1)
    N = L.shape[0]
    s = A.shape[0]
    n_s = N - d
    Lff = L[n_s:, n_s:]
    Lfs = L[n_s:, :n_s]
    h_f = h_s / M
    eye_d = np.eye(d)
    Rh = single_rate_R(L, h_s, method)
    taus = sorted({(l + ci) / M for l in range(M) for ci in c})
    Q = {t: interp_Q(L, h_s, method, kind, t)[:n_s] for t in taus}
    cols = []
    for i in range(N):
        u = np.zeros(N)
        u[i] = 1.0
        us1 = (Rh @ u)[:n_s]
        uf = u[n_s:].copy()
        for l in range(M):
            U = []
            for k in range(s):
                rhs = uf.copy()
                for j in range(k):
                    w = Q[(l + c[j]) / M] @ u
                    rhs = rhs + h_f * A[k, j] * (Lff @ U[j] + Lfs @ w)
                wk = Q[(l + c[k]) / M] @ u
                rhs = rhs + h_f * A[k, k] * (Lfs @ wk)
                if A[k, k] != 0.0:
                    Uk = np.linalg.solve(eye_d - h_f * A[k, k] * Lff, rhs)
                else:
                    Uk = rhs
                U.append(Uk)
            incr = sum(bi * (Lff @ Uk + Lfs @ (Q[(l + ci) / M] @ u))
                       for bi, Uk, ci in zip(b, U, c))
            uf = uf + h_f * incr
        cols.append(np.concatenate([us1, uf]))
    return np.array(cols).T


def random_stable_matrix(rng, n):
    """Random matrix shifted to have eigenvalues with negative real part."""
    L = rng.uniform(-2.0, 2.0, (n, n))
    shift = max(np.real(np.linalg.eigvals(L)).max(), 0.0) + rng.uniform(0.2,
                                                                        1.0)
    return L - shift * np.eye(n)


def inverter_restricted(params, y, t, idx):
    """Restricted RHS and Jacobian of the inverter chain as numpy vector
    expressions over the index set ``idx``: (rhs values, dense block).

    These are the formulas the package's restricted hooks used before they
    looped on Python floats, kept to show that the loops compute the same
    bits.  ``u`` is the input voltage at ``t``.
    """
    from mrrk.bench import _input_fn
    U_op, U_tau, G = params.U_op, params.U_tau, params.Gamma
    idx = np.asarray(idx)
    ycur, yprev = y[idx], y[idx - 1]
    if idx[0] == 0:
        yprev[0] = _input_fn(params)(t)
    a = np.maximum(yprev - U_tau, 0.0)
    b = np.maximum(yprev - ycur - U_tau, 0.0)
    rhs = np.subtract(U_op - ycur, G * (a * a - b * b))
    gy, gz = 2.0 * a - 2.0 * b, 2.0 * b
    k = len(idx)
    J = np.zeros((k, k))
    diag = np.arange(k)
    J[diag, diag] = -1.0 - G * gz
    below = np.flatnonzero(idx[1:] == idx[:-1] + 1) + 1
    J[below, below - 1] = 0.0 - G * gy[below]
    return rhs, J
