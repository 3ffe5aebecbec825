"""Reference moment equations: the dict-loop right-hand side the array form in
qbouncer.moments replaced, an RK4 driven by it (plain or Kahan-compensated),
the same RK4 in 50-digit mpmath, and the exact all-order free fall and
harmonic rotation.

The float oracles read states only through MomentState's public accessors
(x, p, moment(a, b)), and the first two evaluate V^(n) with
PolynomialPotential.derivative, so none shares an index table or weight with
the code under test.  rk4_mp takes plain numbers and imports nothing from
qbouncer.
"""

import math

import mpmath
import numpy as np

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


def rk4(s0: MomentState, V: PolynomialPotential, m: float, dt: float, steps: int,
        compensated: bool = False) -> np.ndarray:
    """Classical RK4 on moment_eom above; row k is the state after k steps, as
    as_vector gives it.  compensated=True adds each increment with the Kahan
    sum qbouncer.moments.integrate documents,

        term = increment - comp,  total = y + term,  comp = (total - y) - term,

    otherwise the increment is added plainly."""
    pairs = moment_pairs(s0.order)

    def rhs(y):
        s = MomentState(y[0], y[1], dict(zip(pairs, y[2:])), s0.order)
        return as_vector(moment_eom(s, V, m))

    rows = [as_vector(s0)]
    comp = np.zeros_like(rows[0])
    for _ in range(steps):
        y = rows[-1]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        increment = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not compensated:
            rows.append(y + increment)
            continue
        term = increment - comp
        total = y + term
        comp = (total - y) - term
        rows.append(total)
    return np.array(rows)


def rk4_mp(x: float, p: float, G: dict, coefficients, m: float, dt: float, steps: int,
           order: int) -> np.ndarray:
    """Classical RK4 on the dict-loop equations of moment_eom above, in mpmath
    at 50 digits; V = sum_j coefficients[j] x^j.  Row k is the state after k
    steps, [x, p, G...] with G in (a + b, a) order, rounded to float once.

    The inputs are taken exactly (floats are binary fractions), so the rows are
    the float inputs' RK4 map to ~1e-50: what any float evaluation of that map,
    in whatever order, rounds away from.
    """
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        c = [mpf(v) for v in coefficients]
        m, dt = mpf(m), mpf(dt)
        pairs = [(a, total - a) for total in range(2, order + 1) for a in range(total + 1)]
        slot = {key: i + 2 for i, key in enumerate(pairs)}

        def rhs(y):
            def moment(a, b):
                return y[slot[a, b]] if (a, b) in slot else mpf(0)

            # V^(n)(x) for n = 0..order + 1, 0 past the degree
            dV = [sum((c[j] * math.perm(j, n) * y[0] ** (j - n) for j in range(n, len(c))), mpf(0))
                  for n in range(order + 2)]
            dy = [y[1] / m, -dV[1]]
            for b in range(2, order + 1):
                dy[1] -= dV[b + 1] / math.factorial(b) * moment(0, b)
            for a, b in pairs:
                val = b / m * moment(a + 1, b - 1)
                for n in range(2, min(len(c), order + 2)):
                    val += a * dV[n] / math.factorial(n - 1) * (
                        moment(0, n - 1) * moment(a - 1, b) - moment(a - 1, b + n - 1))
                dy.append(val)
            return dy

        def shift(y, h, k):
            return [yi + h * ki for yi, ki in zip(y, k)]

        y = [mpf(x), mpf(p)] + [mpf(G[key]) for key in pairs]
        rows = [[float(v) for v in y]]
        for _ in range(steps):
            k1 = rhs(y)
            k2 = rhs(shift(y, dt / 2, k1))
            k3 = rhs(shift(y, dt / 2, k2))
            k4 = rhs(shift(y, dt, k3))
            y = [yi + dt / 6 * (a + 2 * b + 2 * c_ + d) for yi, a, b, c_, d in zip(y, k1, k2, k3, k4)]
            rows.append([float(v) for v in y])
    return np.array(rows)


def free_fall(s0: MomentState, m: float, force: float, t: float) -> np.ndarray:
    """Exact state at time t under V = force * x, as as_vector gives it.

    p - <p> is constant and x - <x> gains (p - <p>) t/m, so at every order

        G^{a,b}(t) = sum_k C(b, k) (t/m)^k G^{a+k,b-k}(0),
        x(t) = x0 + p0 t/m - force t^2/(2m),   p(t) = p0 - force t.
    """
    tm = t / m
    x = s0.x + s0.p * tm - 0.5 * force * t * tm
    G = [sum(math.comb(b, k) * tm**k * s0.moment(a + k, b - k) for k in range(b + 1))
         for a, b in moment_pairs(s0.order)]
    return np.array([x, s0.p - force * t] + G)


def harmonic(s0: MomentState, m: float, omega: float, t: float) -> np.ndarray:
    """Exact state at time t under V = m omega^2 x^2 / 2, as as_vector gives it.

    The flow is the phase-space rotation (c = cos omega t, s = sin omega t)

        dx' = c dx + s dp/(m omega),   dp' = c dp - m omega s dx,

    linear, so it maps Weyl-ordered moments to Weyl-ordered moments, and
    G^{a,b} = <dp^a dx^b> follows from the binomial expansion at every order:

        G^{a,b}(t) = sum_{i,j} C(a,i) C(b,j) c^(a-i+b-j) s^(i+j) (-1)^i
                     (m omega)^(i-j) G^{a-i+j, b+i-j}(0).
    """
    c, s = math.cos(omega * t), math.sin(omega * t)
    mw = m * omega
    x = c * s0.x + s * s0.p / mw
    p = c * s0.p - mw * s * s0.x
    G = [sum(math.comb(a, i) * math.comb(b, j) * c ** (a - i + b - j) * s ** (i + j) * (-1) ** i
             * mw ** (i - j) * s0.moment(a - i + j, b + i - j)
             for i in range(a + 1) for j in range(b + 1))
         for a, b in moment_pairs(s0.order)]
    return np.array([x, p] + G)
