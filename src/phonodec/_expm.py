"""Matrix exponential of a stack of real matrices, in numpy alone.

Degree-13 Padé approximant with scaling and squaring (Higham, SIAM J.
Matrix Anal. Appl. 26, 1179 (2005)).  Each matrix of the stack gets its own
scaling power, so a zero matrix is never scaled or squared and maps to the
identity exactly.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

# Padé-13 numerator coefficients b_0..b_13, divided by b_0 so that the zero
# matrix gives V - U = V + U = I and the solve returns I bit for bit, and
# the 1-norm up to which the unscaled approximant meets double precision
# (Higham 2005, table 2.3).
_PADE13 = tuple(
    b / 64764752532480000.0
    for b in (
        64764752532480000, 32382376266240000, 7771770303897600,
        1187353796428800, 129060195264000, 10559470521600, 670442572800,
        33522128640, 1323241920, 40840800, 960960, 16380, 182, 1,
    )
)
_THETA13 = 5.371920351148152


def expm(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """exp(a) for an array of shape (..., n, n), one exponential per matrix."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        # an infinite norm would ask for an unbounded number of squarings
        raise ValueError("expm needs finite matrices")
    shape = a.shape
    a = a.reshape(-1, shape[-1], shape[-1])
    norm = np.abs(a).sum(axis=1).max(axis=1)
    with np.errstate(divide="ignore"):
        s = np.maximum(np.ceil(np.log2(norm / _THETA13)), 0.0).astype(int)
    a = np.ldexp(a, -s[:, None, None])

    b = _PADE13
    ident = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for i in range(int(s.max(initial=0))):
        sel = np.nonzero(s > i)[0]
        r[sel] = r[sel] @ r[sel]
    return r.reshape(shape)
