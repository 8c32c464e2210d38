"""Independent references for the benchmark's ops.

Closed forms and mpmath only, at 30 or more digits; nothing here imports
momentsum.  Values come back as mpmath numbers so callers can measure the
error of a float result without rounding the reference first.

The class-constant references depend on no seed and cost seconds, so they
are precomputed into ``refdata.json`` by running this file:

    python3 bench/references.py
"""

import json
import os
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 30

REFDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "refdata.json")


# -- resummation --------------------------------------------------------------

def euler_sum(x):
    """Borel sum of sum (-1)^n n! x^n: e^{1/x} E_1(1/x) / x."""
    u = 1 / mp.mpf(x)
    return mp.exp(u) * mp.e1(u) * u


def gammahalf_sum(x):
    """Borel sum of sum (-1)^n Gamma(1+n/2) x^n under gamma_power(2):
    int 2t e^{-t^2} / (1 + x t) dt."""
    x = mp.mpf(x)
    return mp.quad(lambda t: 2 * t * mp.exp(-t * t) / (1 + x * t), [0, 1, mp.inf])


def euler_solve_value(alpha, x):
    """f = L_alpha[t / (mu_1 (1 + t))](x), the solution of (1 + V) f = x."""
    x = mp.mpf(x)
    if alpha == 1:
        return 1 - euler_sum(x)
    a = mp.mpf(alpha)
    mu1 = mp.gamma(1 + 1 / a)
    return mp.quad(lambda t: x * t / (mu1 * (1 + x * t)) * kernel(alpha, t),
                   [0, 1, mp.inf])


def poly_value(coeffs, x):
    """Exact value of sum c_n x^n for rational c_n at the binary float x."""
    xf = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * xf + Fraction(c)
    return mp.mpf(acc.numerator) / acc.denominator


def cauchy_sum(x):
    return 1 / (1 - mp.mpf(x))


# -- kernels ------------------------------------------------------------------

def kernel(alpha, t):
    """Canonical kernel of gamma_power(alpha): alpha t^(alpha-1) e^(-t^alpha)."""
    a, t = mp.mpf(alpha), mp.mpf(t)
    return a * t ** (a - 1) * mp.exp(-t ** a)


def kernel_product_gp2(t):
    """Mellin convolution of two gamma_power(2) kernels: 4 t K_0(2t)."""
    t = mp.mpf(t)
    return 4 * t * mp.besselk(0, 2 * t)


def entire3_series(x):
    """E(x) = sum x^n / Gamma(1 + n/3), summed term by term."""
    x = mp.mpf(x)
    total, n = mp.mpf(0), 0
    while True:
        term = x ** n / mp.gamma(1 + mp.mpf(n) / 3)
        total += term
        if n > 3 * x ** 3 + 10 and term < total * mp.mpf(10) ** (-mp.mp.dps):
            return total
        n += 1


def entire3_log(x):
    """log E(x) for gamma_power(3) through the Mittag-Leffler identity
    E_{1/3}(x) = e^{x^3} (1 + P(1/3, x^3) + P(2/3, x^3))."""
    z = mp.mpf(x) ** 3
    third = mp.mpf(1) / 3
    return z + mp.log(1 + mp.gammainc(third, 0, z, regularized=True)
                      + mp.gammainc(2 * third, 0, z, regularized=True))


def saddle(family, z):
    """Real saddle s of d/ds log gamma(s) = log z, or None when s exceeds
    the float range.

    log_power(alpha=1): log gamma = s log log s.
    iterated_log(k=1):  log gamma = (s-1) log log(s - 1 + e).
    Solved in u = log s so that saddles far past 1e308 stay representable.
    """
    target = mp.log(mp.mpf(z))
    if family == "log_power":
        def h(u):
            return mp.log(u) + 1 / u - target
    elif family == "iterated_log":
        def h(u):
            s = mp.exp(u)
            m = s - 1 + mp.e
            return mp.log(mp.log(m)) + (s - 1) / (m * mp.log(m)) - target
    else:
        raise ValueError(family)
    lo, hi = mp.mpf(1), mp.mpf(2)
    while h(hi) < 0:
        lo, hi = hi, hi * 2
    u = mp.findroot(h, (lo, hi), solver="anderson")
    if u > 709:
        return None
    return mp.exp(u)


# -- verify / classes / gammahat --------------------------------------------

def gamma_hat_log(alpha, n):
    """log sup_rho rho^n |Gamma(1 + i rho/alpha)|, by the stationarity
    condition n/rho + (1/(2 alpha)) (1/y - pi coth(pi y)) = 0, y = rho/alpha."""
    a, n = mp.mpf(alpha), mp.mpf(n)

    def f(rho):
        y = rho / a
        return n * mp.log(rho) + 0.5 * (mp.log(mp.pi * y) - mp.log(mp.sinh(mp.pi * y)))

    def df(rho):
        y = rho / a
        return n / rho + (1 / y - mp.pi * mp.coth(mp.pi * y)) / (2 * a)

    rho0 = 2 * a * n / mp.pi          # the maximiser of n log rho - pi rho / (2 alpha)
    rho = mp.findroot(df, (rho0 / 2, 2 * rho0), solver="anderson")
    return f(rho)


def gamma_hat_closed_log(alpha, n):
    """The tabulated closed form log(n! (2 alpha / pi)^n)."""
    return mp.loggamma(n + 1) + n * mp.log(2 * mp.mpf(alpha) / mp.pi)


def dbar_exp(N, x=0.5, y=0.2):
    """|dbar P_N| of exp's Taylor extension off [0, 1] at x + iy:
    e^x y^N / (2 N!), and the suite's envelope e y^N / (2 N!)."""
    return (mp.exp(x) * mp.mpf(y) ** N / (2 * mp.factorial(N)),
            mp.e * mp.mpf(y) ** N / (2 * mp.factorial(N)))


def regular_facts(alpha, n_max=80, c1=4.0):
    """C2, C3, C4 of m_n = Gamma(1 + n/alpha) by their defining sups."""
    a = mp.mpf(alpha)
    lm = [mp.loggamma(1 + n / a) for n in range(n_max + 1)]
    v = [lm[n] / n if n else mp.mpf(0) for n in range(n_max + 1)]
    c2 = max((v[k] - lm[1]) / mp.log(k) for k in range(2, n_max + 1))
    c3 = mp.mpf(1)
    for k in range(1, n_max + 1):
        for n in range(k, min(int(c1 * k), n_max) + 1):
            c3 = max(c3, mp.exp(v[n] - v[k]))
    c4 = max(((mp.mpf(n) / k) * lm[k] - lm[n]) / (k + n)
             for k in range(1, n_max + 1) for n in range(1, n_max + 1))
    return max(c2, 0), c3, mp.exp(c4)


def omega_member(z):
    """Omega_1 of the classical weight is the disk Re(1/z) > 1."""
    return (1 / complex(z)).real > 1.0


def _stirling2(n):
    row = [[0] * (n + 1) for _ in range(n + 1)]
    row[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            row[i][j] = j * row[i - 1][j] + row[i - 1][j - 1]
    return row


def _entire(alpha, y):
    y = mp.mpf(y)
    if alpha == 1:
        return mp.exp(y)
    return mp.exp(y * y) * mp.erfc(-y)       # sum y^n / Gamma(1 + n/2)


def class_fit(tag, alpha, n_max=10, grid=12, eta=1.1):
    """The class constant fitted by `classes --class-tag <tag>` for the
    Euler function f(x) = int K(t) / (1 + x t) dt of gamma_power(alpha).

    f^(n)(x) = (-1)^n n! int t^n K(t) / (1 + x t)^(n+1) dt.  Class A:
    C_n = max_x (|f^(n)| / (n! E(eta x)))^(1/(n+1)) on [0, 0.5]; class B:
    the larger of (|f^(n)| / (n! mu_n))^(1/(n+1)) and
    |g^(n)| / (eta^n ghat_n) on [0.05, 0.5], g(u) = f(e^u), ghat the closed
    table form floored at n = 3.  Returns (C, per_n) as floats.
    """
    lo = 0.0 if tag == "A" else 0.05
    xs = [lo + (0.5 - lo) * i / (grid - 1) for i in range(grid)]
    n_min = 0 if tag == "A" else 1

    def deriv(x, n):
        x = mp.mpf(x)
        return (-1) ** n * mp.factorial(n) * mp.quad(
            lambda t: t ** n * kernel(alpha, t) / (1 + x * t) ** (n + 1),
            [0, 1, mp.inf])

    jets = {x: [deriv(x, j) for j in range(n_max + 1)] for x in xs}
    s2 = _stirling2(n_max)
    per_n = {}
    for n in range(n_min, n_max + 1):
        if tag == "A":
            per_n[n] = max(
                mp.exp((mp.log(abs(jets[x][n])) - mp.loggamma(n + 1)
                        - mp.log(_entire(alpha, eta * x))) / (n + 1))
                for x in xs)
        else:
            lmu = mp.loggamma(1 + mp.mpf(n) / alpha)
            c1 = max(mp.exp((mp.log(abs(jets[x][n])) - mp.loggamma(n + 1) - lmu)
                            / (n + 1)) for x in xs)
            ghat = gamma_hat_closed_log(alpha, max(n, 3))
            c2 = max(abs(sum(s2[n][j] * mp.mpf(x) ** j * jets[x][j]
                             for j in range(1, n + 1)))
                     / mp.exp(n * mp.log(eta) + ghat) for x in xs)
            per_n[n] = max(c1, c2)
    return float(max(per_n.values())), {n: float(v) for n, v in per_n.items()}


CLASS_CONFIGS = [("A", 1), ("A", 2), ("B", 1), ("B", 2)]


def load_refdata():
    with open(REFDATA) as fh:
        return json.load(fh)


def build_refdata():
    out = {}
    for tag, alpha in CLASS_CONFIGS:
        c, per_n = class_fit(tag, alpha)
        out[f"classes/{tag}/{alpha}"] = {"C": c, "per_n": per_n}
    return out


if __name__ == "__main__":
    data = build_refdata()
    with open(REFDATA, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFDATA}")
