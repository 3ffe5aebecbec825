"""Reference moment equations: the dict-loop right-hand side the array form in
qbouncer.moments replaced, and the exact all-order free fall and harmonic
rotation in 50-digit mpmath.

The dict loop is the classical bracket, written for any degree as it reads;
qbouncer.moments takes degree <= 2 only, since from degree 3 on that bracket
misses the hbar^2 (Moyal) terms, so the tests call it at degree <= 2.

The oracles read states only through MomentState's public accessors
(x, p, moment(a, b)), and the dict loop evaluates V^(n) with
PolynomialPotential.derivative, so none shares an index table or weight with
the code under test.  The closed forms share nothing with integrate's exact
flow either: no generator, exponential or doubling, only binomial sums.

probed_generator and probed_flow are the exact flow as integrate builds it,
for a bit-for-bit regression check: the generator read off the public
moment_eom on the zero state and on each unit vector, then the same
Paterson-Stockmeyer Taylor map, doubling and chunked fill.  They share
moment_eom's weight table with the code under test; moment_eom itself is
held to the dict loop.
"""

import math

import mpmath
import numpy as np

import qbouncer.moments as moments
from qbouncer.moments import MomentState, PolynomialPotential, moment_pairs


def moment_eom(s: MomentState, V: PolynomialPotential, m: float) -> MomentState:
    """Time derivative of s, one moment at a time:

        dx/dt = p/m
        dp/dt = -V'(x) - sum_b V^(b+1)(x)/b! * G^{0,b}
        dG^{a,b}/dt = (b/m) G^{a+1,b-1}
                      + a * sum_{n>=2} V^(n)(x)/(n-1)! *
                        [G^{0,n-1} G^{a-1,b} - G^{a-1,b+n-1}]

    Moments outside the truncation read as zero through s.moment.
    """
    dx = s.p / m
    dp = -V.derivative(s.x, 1)
    for b in range(2, s.order + 1):
        if b + 1 > V.degree:
            break
        dp -= V.derivative(s.x, b + 1) / math.factorial(b) * s.moment(0, b)
    dG = {}
    for a, b in moment_pairs(s.order):
        val = (b / m) * s.moment(a + 1, b - 1) if b > 0 else 0.0
        if a > 0:
            for n in range(2, V.degree + 1):
                vn = V.derivative(s.x, n) / math.factorial(n - 1)
                val += a * vn * (s.moment(0, n - 1) * s.moment(a - 1, b) - s.moment(a - 1, b + n - 1))
        dG[(a, b)] = val
    return MomentState(dx, dp, dG, s.order)


def as_vector(s: MomentState) -> np.ndarray:
    """[x, p, G...] in moment_pairs(s.order) order."""
    return np.array([s.x, s.p] + [s.moment(a, b) for a, b in moment_pairs(s.order)])


def free_fall(s0: MomentState, m: float, force: float, t) -> np.ndarray:
    """Exact state at time t under V = force * x, as as_vector gives it.

    p - <p> is constant and x - <x> gains (p - <p>) t/m, so at every order

        G^{a,b}(t) = sum_k C(b, k) (t/m)^k G^{a+k,b-k}(0),
        x(t) = x0 + p0 t/m - force t^2/(2m),   p(t) = p0 - force t.

    Evaluated in 50-digit mpmath on the exact inputs (t may be an mpf, such
    as k * mpf(dt)) and rounded to float once.
    """
    with mpmath.workdps(50):
        m, force, t = mpmath.mpf(m), mpmath.mpf(force), mpmath.mpf(t)
        tm = t / m
        x = s0.x + s0.p * tm - force * t * tm / 2
        G = [mpmath.fsum(math.comb(b, k) * tm**k * s0.moment(a + k, b - k) for k in range(b + 1))
             for a, b in moment_pairs(s0.order)]
        return np.array([float(v) for v in [x, s0.p - force * t] + G])


def harmonic(s0: MomentState, m: float, stiffness: float, t, force: float = 0.0) -> np.ndarray:
    """Exact state at time t under V = force x + stiffness x^2 / 2, as
    as_vector gives it.

    The flow is the phase-space rotation (omega = sqrt(stiffness/m),
    c = cos omega t, s = sin omega t) about the minimum x* = -force/stiffness

        dx' = c dx + s dp/(m omega),   dp' = c dp - m omega s dx,

    with dx = x - x* for the means and x - <x> for the moments.  It is
    linear, so it maps Weyl-ordered moments to Weyl-ordered moments, and
    G^{a,b} = <dp^a dx^b> follows from the binomial expansion at every order
    (the shift x* drops out of the central moments):

        G^{a,b}(t) = sum_{i,j} C(a,i) C(b,j) c^(a-i+b-j) s^(i+j) (-1)^i
                     (m omega)^(i-j) G^{a-i+j, b+i-j}(0).

    Evaluated in 50-digit mpmath on the exact inputs (t may be an mpf) and
    rounded to float once; the stiffness is V'' (twice the potential's x^2
    coefficient, exact in floats), so no rounded omega enters.
    """
    with mpmath.workdps(50):
        m, t = mpmath.mpf(m), mpmath.mpf(t)
        mw = mpmath.sqrt(stiffness * m)
        c, s = mpmath.cos(mw / m * t), mpmath.sin(mw / m * t)
        centre = -mpmath.mpf(force) / stiffness
        x = centre + c * (s0.x - centre) + s * s0.p / mw
        p = c * s0.p - mw * s * (s0.x - centre)
        G = [mpmath.fsum(math.comb(a, i) * math.comb(b, j) * c ** (a - i + b - j) * s ** (i + j) * (-1) ** i
                         * mw ** (i - j) * s0.moment(a - i + j, b + i - j)
                         for i in range(a + 1) for j in range(b + 1))
             for a, b in moment_pairs(s0.order)]
        return np.array([float(v) for v in [x, p] + G])


def probed_generator(order: int, V: PolynomialPotential, m: float) -> np.ndarray:
    """[[A, b], [0, 0]] of the affine moment_eom (degree <= 2), as
    [x, p, G..., 0] slots: b on the zero state under V, column j of A on the
    unit vector e_j under the homogeneous part c_2 x^2 of V, so V'' is not
    rounded against c_1.  The trailing zero slot is not probed: its column is
    0, and moment_eom leaves that slot +0.0 in every output."""
    pairs = moment_pairs(order)
    k = len(pairs) + 3

    def probe(x, p, G, potential):
        return np.append(as_vector(moments.moment_eom(MomentState(x, p, G, order), potential, m)), 0.0)

    b = probe(0.0, 0.0, {}, V)
    quadratic = PolynomialPotential((0.0, 0.0) + V.coefficients[2:3])
    units = [(1.0, 0.0, {}), (0.0, 1.0, {})] + [(0.0, 0.0, {key: 1.0}) for key in pairs]
    M = np.zeros((k + 1, k + 1))
    M[:k] = np.array([probe(*unit, quadratic) for unit in units] + [np.zeros(k), b]).T
    return M


def probed_flow(s0: MomentState, V: PolynomialPotential, m: float, dt: float, n_steps: int) -> np.ndarray:
    """Rows 0..n_steps ([x, p, G..., 0] each) of the exact flow from s0,
    carried transposed: [[E, 0], [c, 0]] = exp(dt M^T) - I for
    M = probed_generator, as sum_{j=1..16} X^j/j! at X = dt M^T scaled to
    norm <= 1/2, by Paterson-Stockmeyer: X^2, X^3 and X^4 by three products,
    the blocks Q_r = sum_{i<4} X^i/(4r + i)! (1 <= 4r + i <= 16) as one
    product of their weights with the stack (I, X, X^2, X^3), and
    E = Q_0 + X^4 (Q_1 + X^4 (Q_2 + X^4 (Q_3 + X^4 Q_4))); doubled back up
    with E_2L = 2 E_L + E_L^2; row 2^i + r is row r times E for 2^i steps,
    plus c, filled in products of at most 2^18 // k^2 rows."""
    k = len(moment_pairs(s0.order)) + 3
    M = probed_generator(s0.order, V, m)
    s = max(0, math.frexp(dt * np.abs(M).sum(axis=0).max())[1] + 1)
    X = np.ldexp(dt * M, -s).T.copy()
    powers = [np.eye(k + 1), X, X @ X]
    powers.append(powers[2] @ X)
    X4 = powers[2] @ powers[2]
    weights = np.array([[1 / math.factorial(4 * r + i) if 1 <= 4 * r + i <= 16 else 0.0 for i in range(4)]
                        for r in range(5)])
    Q = (weights @ np.stack(powers).reshape(4, -1)).reshape(5, k + 1, k + 1)
    E = Q[4]
    for r in (3, 2, 1, 0):
        E = Q[r] + X4 @ E
    rows = np.empty((n_steps + 1, k))
    rows[0] = np.append(as_vector(s0), 0.0)
    chunk = max(1, 2**18 // k**2)
    for i in range(-s, n_steps.bit_length()):
        if i > -s:
            E = 2.0 * E + E @ E
        if i >= 0:
            top = min(2**(i + 1), n_steps + 1)
            for lo in range(2**i, top, chunk):
                block = rows[lo:min(lo + chunk, top)]
                src = rows[lo - 2**i:][:len(block)]
                np.matmul(src, E[:k, :k], out=block)
                block += E[k, :k]
                block += src
    return rows
