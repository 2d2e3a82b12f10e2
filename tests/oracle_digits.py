"""Extended-precision digits for tests/test_oracle.py.

Solves the steady state of the (3, 4) truncation in 40 significant digits
with mpmath and prints the pair statistics that the Tier-1 oracle test
stores.  The Liouvillian is assembled here from the model's definition,

    L = -i[H, .] + kappa D[sigma-] + gamma_c D[a]
        + gamma_m (m_th + 1) D[b] + gamma_m m_th D[b^dag],
    H = Delta (sigma+ sigma- + a^dag a) + J (sigma+ a b + sigma- a^dag b^dag)
        + Omega (sigma+ + sigma-),

not from pairsim's own assembly; pairsim only supplies each point's parameters,
whose float64 values are taken exactly.  Only the entries rho[i, j] whose
ket and bra share n - m are unknowns (240 at (3, 4)), since L maps that
sector into itself, and the trace replaces the vacuum's equation.  Each
point takes about 30 s on a 2-vCPU Xeon guest.

Not collected by pytest.  It needs mpmath (the `oracle` extra):

    pip install ".[oracle]"
    python tests/oracle_digits.py
"""

import os
import sys
import time

import mpmath
from mpmath import mp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
from pairsim.sweep import load_config  # noqa: E402

DIGITS = 40
TRUNCATION = (3, 4)
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "src", "pairsim", "configs")
# (config, index into its grid): fig5_weak's weakest drive, fig4's
# truncation-check point, fig7's hottest bath and fig6's slowest phonon
POINTS = (("fig5_weak", -1), ("fig4", 82), ("fig7", -1), ("fig6", 0))
KEYS = ("mean_n", "mean_m", "g2_n", "g2_m", "g2_nm")


def operators(n_c, n_m, params):
    """H and the (rate, jump operator) pairs, as {(row, column): value}."""
    states = [(s, n, m) for s in (0, 1) for n in range(n_c + 1) for m in range(n_m + 1)]
    where = {state: i for i, state in enumerate(states)}

    def lower(step):  # the operator |step(state)><state| weighted by its factor
        op = {}
        for state, i in where.items():
            target, factor = step(*state)
            if factor:
                op[where[target], i] = mpmath.mpf(factor)
        return op

    s_minus = lower(lambda s, n, m: ((0, n, m), s))
    a = lower(lambda s, n, m: ((s, n - 1, m), mp.sqrt(n)))
    b = lower(lambda s, n, m: ((s, n, m - 1), mp.sqrt(m)))
    f = {key: mpmath.mpf(value) for key, value in vars(params).items()}
    h = {}

    def add(op, weight):
        for key, value in op.items():
            h[key] = h.get(key, 0) + weight * value

    add(product(dagger(s_minus), s_minus), f["delta"])
    add(product(dagger(a), a), f["delta"])
    pair = product(product(dagger(s_minus), a), b)
    add(pair, f["j_coupling"])
    add(dagger(pair), f["j_coupling"])
    add(s_minus, f["omega"])
    add(dagger(s_minus), f["omega"])
    jumps = (
        (f["kappa"], s_minus),
        (f["gamma_c"], a),
        (f["gamma_m"] * (f["m_th"] + 1), b),
        (f["gamma_m"] * f["m_th"], dagger(b)),
    )
    return states, h, jumps


def dagger(op):
    return {(j, i): mpmath.conj(value) for (i, j), value in op.items()}


def product(x, y):
    out = {}
    for (i, k), u in x.items():
        for (k2, j), v in y.items():
            if k == k2:
                out[i, j] = out.get(i, 0) + u * v
    return out


def populations(n_c, n_m, params):
    """The diagonal of the steady state, in the order of `states`."""
    states, h, jumps = operators(n_c, n_m, params)
    dim = len(states)
    q = [n - m for _, n, m in states]
    unknowns = [(i, j) for j in range(dim) for i in range(dim) if q[i] == q[j]]
    column = {entry: p for p, entry in enumerate(unknowns)}
    eye = {(i, i): mpmath.mpf(1) for i in range(dim)}
    # weight * A rho B for each piece: rho[i, j] feeds rho'[k, l] by A[k, i] B[j, l]
    pieces = [(-1j, h, eye), (1j, eye, h)]
    for rate, op in jumps:
        if rate:
            odo = product(dagger(op), op)
            pieces += [(rate, op, dagger(op)), (-rate / 2, odo, eye), (-rate / 2, eye, odo)]
    matrix = mp.zeros(len(unknowns), len(unknowns))
    for weight, left, right in pieces:
        for (k, i), x in left.items():
            for (j, l), y in right.items():
                if (i, j) in column and (k, l) in column:
                    matrix[column[k, l], column[i, j]] += weight * x * y
    vacuum = column[0, 0]
    rhs = mp.zeros(len(unknowns), 1)
    rhs[vacuum] = 1
    for p in range(len(unknowns)):
        matrix[vacuum, p] = 1 if unknowns[p][0] == unknowns[p][1] else 0
    x = mp.lu_solve(matrix, rhs)
    return states, [mpmath.re(x[column[i, i]]) for i in range(dim)]


def statistics(states, pops):
    n = [state[1] for state in states]
    m = [state[2] for state in states]
    mean_n = mp.fsum(a * p for a, p in zip(n, pops))
    mean_m = mp.fsum(a * p for a, p in zip(m, pops))
    return {
        "mean_n": mean_n,
        "mean_m": mean_m,
        "g2_n": mp.fsum(a * (a - 1) * p for a, p in zip(n, pops)) / mean_n**2,
        "g2_m": mp.fsum(a * (a - 1) * p for a, p in zip(m, pops)) / mean_m**2,
        "g2_nm": mp.fsum(a * b * p for a, b, p in zip(n, m, pops)) / (mean_n * mean_m),
    }


def main():
    mp.dps = DIGITS
    for name, position in POINTS:
        config = load_config(os.path.join(CONFIGS, f"{name}.yaml"))
        value = config.axis_values[position]
        params = config.params_at(value)
        start = time.perf_counter()
        values = statistics(*populations(*TRUNCATION, params))
        seconds = time.perf_counter() - start
        print(f"# {name}, {config.axis} = {value!r} at {TRUNCATION}: {seconds:.0f} s")
        print(f"{params!r}")
        for key in KEYS:
            print(f'    "{key}": {mp.nstr(values[key], 25)},')
        sys.stdout.flush()


if __name__ == "__main__":
    main()
