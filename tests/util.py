"""Shared helpers for the test suite."""

import decimal

import numpy as np

from limachor.admissibility import is_admissible
from limachor.coefficients import solve_couplings
from limachor.kinematics import Trajectory

# pi to 80 significant digits.
PI_80 = decimal.Decimal(
    "3.1415926535897932384626433832795028841971693993751058209749445923078164062862090")


def _taylor(x, i, s):
    """The decimal module docs' sine (i = 1, s = x) or cosine (i = 0, s = 1) recipe."""
    with decimal.localcontext() as ctx:
        ctx.prec += 2
        lasts, fact, num, sign = 0, 1, s, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
    return +s


def decimal_sin(x):
    """sin x of a Decimal x at the current precision."""
    return _taylor(x, 1, x)


def decimal_cos(x):
    """cos x of a Decimal x at the current precision."""
    return _taylor(x, 0, 1)


def admissible_pairs(max_abs_p: int, max_n: int, min_n: int = 4):
    """All admissible (p, N) with 2 <= |p| <= max_abs_p, min_n <= N <= max_n."""
    pairs = []
    for n in range(min_n, max_n + 1):
        for mag in range(2, max_abs_p + 1):
            for p in (mag, -mag):
                if is_admissible(p, n).admissible:
                    pairs.append((p, n))
    return pairs


def pair_matrix(couplings):
    """Reference N x N coupling matrix K: entry (j, l) couples bodies j and l.

    Zero on the diagonal; the off-diagonal entry is the coupling for
    separation min(|j - l|, N - |j - l|).  The library reads the
    couplings by bond or as the Laplacian D - K, never as K itself.
    """
    n = couplings.N
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    sep = np.minimum(diff, n - diff)
    mat = np.zeros((n, n))
    off = sep > 0
    mat[off] = couplings.kappas[sep[off] - 1]
    return mat


def tailed_couplings(n, p, tail):
    """Couplings solved on (n, p) with a "zero", "random" or "diametral" free tail.

    The diametral tail sets only the last coupling, kappa_{n // 2}: for
    even n the bond that joins each body to one partner.
    """
    free = np.zeros(n // 2 - 2)
    if tail == "random":
        free = np.random.default_rng(n).normal(size=free.size, scale=0.1)
    elif tail == "diametral" and free.size:
        free[-1] = 0.3
    return solve_couplings(n, p, free)


def one_state(q, v, t=0.0):
    """The one-sample trajectory at time t of positions q and velocities v, each (N, 2)."""
    return Trajectory(np.array([t]), q[None], v[None])
