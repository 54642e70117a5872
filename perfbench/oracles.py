"""Independent checks of every operation's output.

Everything here is written plainly from the definitions and uses none of
apvar's code: its own sieves, the per-modulus closed forms for the
variance sums, multiple sums for the Ramanujan tail, a direct grid for
the minor-arc integral, brute-force Fractions for exact table rows and
mpmath (Stieltjes constants plus closed-form Euler factors) for the
residue rows.  Oracles run outside the timed region; their values depend
only on the operation's inputs and are cached per (workload, seed).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-8          # variance sums, Ramanujan tail, plot rows, residues
PLOT_ROW_LIMIT = 400    # the CLI tabulates V(q) for q <= min(Q, 400)
PLOT_N_LIMIT = 10**5    # ... on the sequence truncated at min(N, 1e5)


# ---------------------------------------------------------------------------
# Plain arithmetic tables


def primes_upto(n: int) -> np.ndarray:
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p::p] = False
    return np.nonzero(is_p)[0]


def von_mangoldt(n: int) -> np.ndarray:
    lam = np.zeros(n + 1)
    for p in primes_upto(n).tolist():
        pk = p
        while pk <= n:
            lam[pk] = math.log(p)
            pk *= p
    return lam


def divisor_dk(n: int, k: int) -> np.ndarray:
    """d_k(m) for m <= n by k-1 Dirichlet convolutions with 1."""
    d = np.ones(n + 1, dtype=np.int64)
    d[0] = 0
    for _ in range(k - 1):
        nxt = np.zeros_like(d)
        for a in range(1, n + 1):
            nxt[a::a] += d[1:n // a + 1]
        d = nxt
    return d


def totients(n: int) -> np.ndarray:
    phi = np.arange(n + 1)
    for p in primes_upto(n).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def mobius(n: int) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_upto(n).tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def prime_factors(m: int) -> list:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def chain_sequence(op) -> np.ndarray:
    return von_mangoldt(op.n) if op.kind == "theorem1" else \
        divisor_dk(op.n, op.k).astype(np.float64)


# ---------------------------------------------------------------------------
# Variance sums, one modulus at a time


def reduced_variance_sum(a: np.ndarray, q_lo: int, q_hi: int) -> float:
    """Sum over q of sum over reduced classes b mod q of
    (psi(b) - psi_q/phi(q))^2, off the support of a."""
    support = np.nonzero(a)[0]
    w = a[support]
    phi = totients(max(q_hi, 1))
    terms = []
    for q in range(q_lo, q_hi + 1):
        t = np.bincount(support % q, weights=w, minlength=q)
        reduced = np.ones(q, dtype=bool)
        if q > 1:
            for p, _ in prime_factors(q):
                reduced[::p] = False
        psi = t[reduced]
        terms.append(float(((psi - psi.sum() / phi[q]) ** 2).sum()))
    return math.fsum(terms)


def full_variance(a: np.ndarray, q: int, phi: np.ndarray) -> tuple:
    """(V(q), sum_b t_b^2): the closed form over all classes, where each
    gcd class h | q holds phi(q/h) residues."""
    t = np.bincount(np.arange(a.size) % q, weights=a, minlength=q)
    s_h = np.bincount(np.gcd(np.arange(q), q), weights=t, minlength=q + 1)
    sq = float(np.dot(t, t))
    hs = np.nonzero(q % np.arange(1, q + 1) == 0)[0] + 1
    return sq - math.fsum(s_h[hs] ** 2 / phi[q // hs]), sq


def full_variance_sum(a: np.ndarray, q_lo: int, q_hi: int) -> float:
    phi = totients(max(q_hi, 1))
    return math.fsum(full_variance(a, q, phi)[0]
                     for q in range(q_lo, q_hi + 1))


# ---------------------------------------------------------------------------
# Ramanujan tail and minor-arc integral


def ramanujan_tail(a: np.ndarray, q_max: int, q0: float) -> float:
    """sum_{Q0 < d <= Q} (H(Q/d)/d) |sum_n a_n c_d(n)|^2 / phi(d), with
    sum_n a_n c_d(n) = sum_{e|d} e mu(d/e) sum_{e|n} a_n."""
    d_lo = math.floor(q0) + 1
    if d_lo > q_max:
        return 0.0
    mu, phi = mobius(q_max), totients(q_max)
    corr = np.zeros(q_max + 1)
    for e in range(1, q_max + 1):
        corr[e::e] += e * a[e::e].sum() * mu[1:q_max // e + 1]
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, q_max + 1))])
    return math.fsum(harmonic[q_max // d] / d * corr[d] ** 2 / phi[d]
                     for d in range(d_lo, q_max + 1))


def minor_arc(a: np.ndarray, k_param: float, q0: float, q: float) -> tuple:
    """(value, error bound) of the integral of |A|^2 over the minor arcs on
    the default 16N grid: major cells are those whose centre lies within
    K/(qQ) of a reduced a/q with q <= KQ0."""
    n = a.size - 1
    t_grid = 16
    while t_grid < 16 * n:
        t_grid *= 2
    amp = np.fft.fft(a, t_grid)
    power = np.abs(amp) ** 2
    major = np.zeros(t_grid, dtype=bool)
    for den in range(1, int(k_param * q0) + 1):
        nums = np.arange(den)
        nums = nums[np.gcd(nums, den) == 1]
        half = k_param / (den * q) * t_grid
        lo = np.ceil(nums / den * t_grid - half).astype(np.int64)
        hi = np.floor(nums / den * t_grid + half).astype(np.int64)
        if np.any(hi - lo + 1 >= t_grid):
            major[:] = True
            break
        for l, h in zip(lo.tolist(), hi.tolist()):
            major[np.arange(l, h + 1) % t_grid] = True
    width = 1.0 / t_grid
    minor = ~major
    value = float(power[minor].sum()) * width
    deriv = 2.0 * np.pi * n * float(np.abs(a).sum())
    quad = (width**2 / 4.0) * 2.0 * deriv * float(np.abs(amp)[minor].sum())
    edge = major != np.roll(major, 1)
    straddle = width * float(np.maximum(power, np.roll(power, 1))[edge].sum())
    return value, quad + straddle


# ---------------------------------------------------------------------------
# Chain operations


def chain_oracle(op, report: dict) -> dict:
    """Oracle values for one chain report, given its resolved parameters."""
    p = report["params"]
    a = chain_sequence(op)
    q_hi, q_lo = int(p["Q"]), math.floor(p["Q0"]) + 1
    if op.kind == "theorem1":
        lhs = reduced_variance_sum(a, q_lo, q_hi)
    else:
        lhs = full_variance_sum(a, q_lo, q_hi)
    minor, minor_err = minor_arc(a, p["K"], p["Q0"], p["Q"])
    plot = {}
    if not (op.kind == "theorem2" and op.ending == "first"):
        short = a[:min(op.n, PLOT_N_LIMIT) + 1]
        phi = totients(PLOT_ROW_LIMIT)
        for q in op.sample:
            plot[str(q)] = full_variance(short, q, phi)
    return {"params": p, "lhs": lhs, "tail": ramanujan_tail(a, q_hi, p["Q0"]),
            "minor": minor, "minor_error": minor_err,
            "l2": float(np.dot(a, a)), "plot": plot}


def chain_sound(report: dict, oracle: dict) -> bool:
    """The report's soundness verdict, rebuilt from the oracle's LHS, tail,
    slack and allowance and the report's Cauchy-Schwarz and minor terms."""
    p = report["params"]
    k_param, q = p["K"], p["Q"]
    slack = (5.0 + math.log(k_param)) / k_param
    oterm = p["N"] * k_param / p["Q0"] * oracle["l2"]
    minor, err = report["minor_integral"], report["minor_error"]
    cs_num, cs_den = report["cs_numerator"], report["cs_denominator"]
    bound = cs_num**2 / cs_den if cs_den > 0 else 0.0
    rhs = q * (1.0 - slack) * minor - oracle["tail"]
    return bool(bound <= minor + err + 1e-9 * abs(minor)
                and oracle["lhs"] >= rhs - q * err - oterm)


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y)) or x == y


def check_chain(op, files: dict, oracle: dict) -> list:
    report = json.loads(files["bound_report.json"])
    p = report["params"]
    fails = []
    if p["N"] != op.n or not _close(p["Q"], op.q, 1e-12):
        fails.append(f"params {p} do not match N={op.n}, Q={op.q}")
    if p != oracle["params"]:
        fails.append("oracle computed for other parameters")
    for key, field in (("lhs", "lhs_variance_sum"), ("tail", "ramanujan_tail")):
        if not _close(report[field], oracle[key], REL_TOL):
            fails.append(f"{field} {report[field]!r} vs oracle {oracle[key]!r}")
    tol = report["minor_error"] + oracle["minor_error"]
    if not abs(report["minor_integral"] - oracle["minor"]) <= tol:
        fails.append(f"minor_integral {report['minor_integral']!r} vs grid "
                     f"{oracle['minor']!r} beyond {tol!r}")
    if report["chain_sound"] != chain_sound(report, oracle):
        fails.append(f"chain_sound {report['chain_sound']} disagrees")
    lines = files["plot_data.csv"].splitlines()
    if oracle["plot"]:
        rows = dict(line.split(",") for line in lines[1:])
        for q, (v, scale) in oracle["plot"].items():
            got = float(rows.get(q, "nan"))
            if not abs(got - v) <= REL_TOL * scale:
                fails.append(f"plot_data V({q}) {got!r} vs oracle {v!r}")
    elif lines[0] != "alpha,polynomial" or len(lines) != 201:
        fails.append("plot_data polynomial table malformed")
    return fails


# ---------------------------------------------------------------------------
# Table operations


def exact_variance(dk: np.ndarray, q: int) -> Fraction:
    """V(q) from its definition: squared deviations of the class sums t_b
    from the mean of their gcd class, in exact rationals."""
    t = [0] * q
    for m, v in enumerate(dk.tolist()):
        t[m % q] += v
    classes: dict = {}
    for b in range(q):
        classes.setdefault(math.gcd(b, q), []).append(t[b])
    total = Fraction(0)
    for members in classes.values():
        mean = Fraction(sum(members), len(members))
        total += sum((x - mean) ** 2 for x in members)
    return total


def residue_mp(q: int, k: int, n: int) -> float:
    """Residue at s = 1 of zeta(s)^k F_q(s) N^s / s, from the Laurent
    series of zeta (Stieltjes constants) and the closed-form local factors
    (1-x)^k (-d_k(p^(a-1)) p^((a-1)(1-s)) + phi(p^a)((1-x)^-k - sum_{b<a}
    d_k(p^b) x^b)) with x = p^-s."""
    import mpmath as mp

    with mp.workdps(30):
        def analytic(u):
            s = 1 + u
            f = mp.mpf(1)
            for p, a in prime_factors(q):
                x = mp.mpf(p) ** (-s)
                head = -math.comb(a + k - 2, k - 1) * mp.mpf(p) ** ((a - 1) * (1 - s))
                below = mp.fsum(math.comb(b + k - 1, k - 1) * x**b for b in range(a))
                f *= (1 - x) ** k * (head + (p - 1) * p ** (a - 1)
                                     * ((1 - x) ** (-k) - below))
            return f * mp.mpf(n) ** s / s

        g = mp.taylor(analytic, 0, k - 1)
        # u zeta(1+u) = 1 + sum_j (-1)^j gamma_j u^(j+1) / j!
        uz = [mp.mpf(1)] + [(-1) ** j * mp.stieltjes(j) / mp.factorial(j)
                            for j in range(k - 1)]
        z = [mp.mpf(1)] + [mp.mpf(0)] * (k - 1)
        for _ in range(k):
            z = [mp.fsum(z[i] * uz[d - i] for i in range(d + 1))
                 for d in range(k)]
        return float(mp.fsum(z[i] * g[k - 1 - i] for i in range(k)))


def table_oracle(op) -> dict:
    if op.kind == "variance":
        dk = divisor_dk(op.n, op.k)
        return {str(q): str(exact_variance(dk, q)) for q in op.sample}
    return {str(q): residue_mp(q, op.k, op.n) for q in op.sample}


def check_table(op, files: dict, oracle: dict) -> list:
    lines = files[op.argv[op.argv.index("--out") + 1]].splitlines()
    fails = []
    if len(lines) != op.q_max + 1:
        fails.append(f"{len(lines) - 1} rows, expected {op.q_max}")
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    for q, want in oracle.items():
        row = rows.get(q)
        if row is None:
            fails.append(f"row q={q} missing")
        elif op.kind == "variance":
            if Fraction(row[1]) != Fraction(want):
                fails.append(f"V({q}) = {row[1]}, exact {want}")
        elif not abs(float(row[3]) - want) <= REL_TOL * abs(want) + float(row[4]):
            fails.append(f"residue q={q}: {row[3]} vs mpmath {want!r}")
    return fails


def check_verify(stdout: str) -> list:
    want = {f"verify {s}: PASS" for s in ("identities", "euler", "windows")}
    missing = want - set(stdout.splitlines())
    return [f"missing '{m}'" for m in sorted(missing)]
