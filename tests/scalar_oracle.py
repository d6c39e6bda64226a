"""Independent scalar re-derivation of every check on diagonal instances.

Diagonal matrices commute with everything in sight, so under the
normalized trace every quantity the checks compute collapses to plain
arithmetic on the diagonal entries.  This module re-derives the gap of
each check in that setting using only ``math`` and ``random`` (no numpy,
no imports from the package), which makes it a genuinely independent
oracle: the engine and this file share no code paths, only the formulas.

``generate(count, seed)`` produces deterministic diagonal instances with
valid hypotheses for every check; ``oracle_gap(inst)`` returns the gap
(the minimum over the check's parts of min(rhs - lhs)) that the engine's
``gap_min_eig`` must reproduce.
"""

import math
import random

HYP_TOL = 1e-9
P_EPS = 1e-12


# ----------------------------------------------------------------------
# scalar building blocks
# ----------------------------------------------------------------------

def _mean(values):
    return math.fsum(values) / len(values)


def _wmean(a, b, p):
    """a^{1-p} b^p for positive scalars."""
    return a ** (1.0 - p) * b ** p


def _tsallis(a, b, p):
    if p == 1.0:
        return b - a
    return (_wmean(a, b, p) - a) / p


def kantorovich(h, p):
    if h == 1.0 or p == 1.0:
        return 1.0
    hp = h ** p
    front = (hp - h) / ((p - 1.0) * (h - 1.0))
    inner = (p - 1.0) * (hp - 1.0) / (p * (hp - h))
    return front * inner ** p


def furuta_const(m, h, p):
    if h == 1.0:
        return 0.0
    k = kantorovich(h, p)
    return (m ** p / p) * ((h ** p - h) / (h - 1.0)) * (1.0 - k ** (1.0 / (p - 1.0)))


def seo_const(m, M, p):
    if m == M:
        return 0.0
    slope = (M ** p - m ** p) / (p * (M - m))
    return (p - 1.0) * slope ** (p / (p - 1.0)) + (M * m ** p - m * M ** p) / (M - m)


# ----------------------------------------------------------------------
# per-check gaps (min over parts of min-entry(rhs - lhs))
# ----------------------------------------------------------------------

def _gap_info(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    mapped = _mean([_tsallis(x, y, p) for x, y in zip(a, b)])
    t_out = _tsallis(_mean(a), _mean(b), p)
    parts = []
    if p <= 1.0:
        parts.append(t_out - mapped)
    if p >= 1.0:
        parts.append(mapped - t_out)
    return min(parts)


def _gap_reverse(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    w = [y / x for x, y in zip(a, b)]
    m, M = min(min(w), 1.0), max(max(w), 1.0)
    mapped = _mean([_tsallis(x, y, p) for x, y in zip(a, b)])
    t_out = _tsallis(_mean(a), _mean(b), p)
    pd = _mean([y - x for x, y in zip(a, b)])
    parts = []
    if p <= 1.0:
        parts.append(mapped + (m ** (p - 1.0) - M ** (p - 1.0)) * pd - t_out)
    if p >= 1.0:
        parts.append(t_out + (M ** (p - 1.0) - m ** (p - 1.0)) * pd - mapped)
    return min(parts)


def _gap_ando(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    w = [y / x for x, y in zip(a, b)]
    m, M = min(min(w), 1.0), max(max(w), 1.0)
    mean_in = _mean([_wmean(x, y, p) for x, y in zip(a, b)])
    mean_out = _wmean(_mean(a), _mean(b), p)
    pd = _mean([y - x for x, y in zip(a, b)])
    term = p * (m ** (p - 1.0) - M ** (p - 1.0)) * pd
    term_rev = p * (M ** (p - 1.0) - m ** (p - 1.0)) * pd
    parts = []
    if 0.0 <= p <= 1.0:
        parts.append(mean_in + term - mean_out)
    if -1.0 <= p <= 0.0:
        parts.append(mean_out - (mean_in + term))
    if 1.0 <= p:
        parts.append(mean_out + term_rev - mean_in)
    return min(parts)


def _gap_density(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    trace_mean = math.fsum(_wmean(x, y, p) for x, y in zip(a, b))
    parts = []
    if 0.0 <= p <= 1.0:
        parts.append(trace_mean - 1.0)
    if p <= 0.0 or p >= 1.0:
        parts.append(1.0 - trace_mean)
    return min(parts)


def _gap_furuta(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    fm = min(b) / max(a)
    fM = max(b) / min(a)
    h = fM / fm
    kconst = kantorovich(h, p)
    fconst = 0.0 if p >= 1.0 - P_EPS else furuta_const(fm, h, p)
    u, v = _mean(a), _mean(b)
    mapped = _mean([_tsallis(x, y, p) for x, y in zip(a, b)])
    t_out = _tsallis(u, v, p)
    k_term = ((1.0 - kconst) / p) * _wmean(u, v, p)
    parts = [mapped + k_term - t_out, mapped + fconst * u - t_out]
    w = [y / x for x, y in zip(a, b)]
    if min(w) >= 1.0 - HYP_TOL and fm <= 1.0 + HYP_TOL:
        pd = _mean([y - x for x, y in zip(a, b)])
        parts.append(mapped + (fm ** (p - 1.0) - fM ** (p - 1.0)) * pd - t_out)
    return min(parts)


def _gap_seo(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    w = [y / x for x, y in zip(a, b)]
    m, M = min(w), max(w)
    u = _mean(a)
    mean_in = _mean([_wmean(x, y, p) for x, y in zip(a, b)])
    mean_out = _wmean(u, _mean(b), p)
    return mean_in - seo_const(m, M, p) * u - mean_out


def _gap_power_corollary(inst):
    a, p = inst["a"], inst["p"]
    m, M = min(min(a), 1.0), max(max(a), 1.0)
    u = _mean(a)
    pa_pow = u ** p
    phi_pow = _mean([x ** p for x in a])
    corr = p * (m ** (p - 1.0) - M ** (p - 1.0)) * (u - 1.0)
    corr_rev = p * (M ** (p - 1.0) - m ** (p - 1.0)) * (u - 1.0)
    parts = []
    if 0.0 <= p <= 1.0:
        parts.append(phi_pow + corr - pa_pow)
    if -1.0 <= p <= 0.0:
        parts.append(pa_pow - (phi_pow + corr))
    if 1.0 <= p:
        parts.append(pa_pow + corr_rev - phi_pow)
    return min(parts)


def _gap_lowner(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    return min(y ** p - x ** p for x, y in zip(a, b))


def _gap_npl(inst):
    a, p = inst["a"], inst["p"]
    na = max(abs(x) for x in a)
    tangent = [na ** p - p * na ** (p - 1.0) * (na - x) for x in a]
    parts = []
    if 0.0 <= p <= 1.0:
        parts.append(min(t - x ** p for t, x in zip(tangent, a)))
    if p >= 1.0 or p <= 0.0:
        parts.append(min(x ** p - t for t, x in zip(tangent, a)))
    return min(parts)


def _gap_lh_extension(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    nb = max(abs(y) for y in b)
    diff = [y ** p - x ** p for x, y in zip(a, b)]
    lin = [p * nb ** (p - 1.0) * (y - x) for x, y in zip(a, b)]
    parts = []
    if 0.0 <= p <= 1.0:
        parts.append(min(d - l for d, l in zip(diff, lin)))
    if p >= 1.0 or p <= 0.0:
        parts.append(min(l - d for d, l in zip(diff, lin)))
    return min(parts)


def _gap_mn2012(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    nb = max(abs(y) for y in b)
    gap = min(y - x for x, y in zip(a, b))
    diff = [y ** p - x ** p for x, y in zip(a, b)]
    floor_lin = p * nb ** (p - 1.0) * gap
    floor_shift = nb ** p - (nb - gap) ** p
    s = nb / gap
    return min(
        floor_lin,
        min(diff) - floor_lin,
        min(diff) - floor_shift,
        (s ** p - (s - 1.0) ** p) - p * s ** (p - 1.0),
    )


def _gap_mond(inst):
    a, b, p, x, f = inst["a"], inst["b"], inst["p"], inst["x"], inst["f"]
    m = min(min(b), min(a))
    M = max(max(a), max(b))
    if f == "power":
        fn = lambda t: t ** p
        dfn = lambda t: p * t ** (p - 1.0)
    elif f == "exp":
        fn = dfn = math.exp
    else:
        fn = math.log
        dfn = lambda t: 1.0 / t
    alpha = min(dfn(m), dfn(M))
    beta = max(dfn(m), dfn(M))
    qb = math.fsum(xi * xi * bi for xi, bi in zip(x, b))
    mid = math.fsum(xi * xi * fn(ai) for xi, ai in zip(x, a)) - fn(qb)
    diff = math.fsum(xi * xi * (ai - bi) for xi, ai, bi in zip(x, a, b))
    return min(mid - alpha * diff, beta * diff - mid)


def _gap_hm(inst):
    a, p, x = inst["a"], inst["p"], inst["x"]
    m, M = min(a), max(a)
    q1 = math.fsum(xi * xi * ai for xi, ai in zip(x, a))
    qp = math.fsum(xi * xi * ai ** p for xi, ai in zip(x, a))
    if 0.0 < p < 1.0:
        dd = q1 - qp ** (1.0 / p)
        mid = q1 ** p - qp
        return min(q1 ** p - qp,
                   mid - (p / M ** (1.0 - p)) * dd,
                   (p / m ** (1.0 - p)) * dd - mid)
    if p >= 1.0:
        dd = qp ** (1.0 / p) - q1
        mid = qp - q1 ** p
        return min(qp - q1 ** p,
                   mid - (p / m ** (1.0 - p)) * dd,
                   (p / M ** (1.0 - p)) * dd - mid)
    dd = qp ** (1.0 / p) - q1
    mid = qp - q1 ** p
    return min(qp - q1 ** p,
               mid - (p / M ** (1.0 - p)) * dd,
               (p / m ** (1.0 - p)) * dd - mid)


def _gap_norm_chain(inst):
    a, p = inst["a"], inst["p"]
    op = max(abs(v) for v in a)
    hs = math.sqrt(math.fsum(v * v for v in a))
    tr = math.fsum(abs(v) for v in a)
    d = p * tr ** (p - 1.0)
    parts = []
    if p >= 1.0:
        r1 = (hs ** p - op ** p) / d
        r2 = (tr ** p - hs ** p) / d
        parts += [r1, hs - (op + r1), r2, tr - (hs + r2)]
    if 0.0 < p <= 1.0:
        parts += [hs - (tr + (hs ** p - tr ** p) / d),
                  op + (hs ** p - op ** p) / d - hs]
    if p < 0.0:
        r1 = (hs ** p - op ** p) / d
        r2 = (tr ** p - hs ** p) / d
        parts += [r1, r2, op + r1 - hs, hs + r2 - tr]
    return min(parts)


def _gap_radius_chain(inst):
    a, p = inst["a"], inst["p"]
    # diagonal matrices are normal, so radius, numerical radius and norm
    # all equal the largest absolute entry
    sr = w = op = max(abs(v) for v in a)
    d = p * op ** (p - 1.0)
    parts = []
    if p >= 1.0:
        r1 = (w ** p - sr ** p) / d
        r2 = (op ** p - w ** p) / d
        parts += [r1, w - (sr + r1), r2, op - (w + r2)]
    if 0.0 < p <= 1.0:
        parts += [w - (op + (w ** p - op ** p) / d),
                  sr + (w ** p - sr ** p) / d - w]
    if p < 0.0:
        r1 = (w ** p - sr ** p) / d
        r2 = (op ** p - w ** p) / d
        parts += [r1, r2, sr + r1 - w, w + r2 - op]
    return min(parts)


def _gap_power_norm(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    nab = max(x * y for x, y in zip(a, b))
    napb = max(x ** p * y ** p for x, y in zip(a, b))
    parts = []
    if p <= 1.0:
        parts.append(nab ** p - napb)
    if p >= 1.0:
        parts.append(napb - nab ** p)
    return min(parts)


def _gap_norm_refinement(inst):
    a, b, p = inst["a"], inst["b"], inst["p"]
    m2 = min(min(a), min(b)) ** 2
    M2 = max(max(a), max(b)) ** 2
    nab = max(x * y for x, y in zip(a, b))
    napb = max(x ** p * y ** p for x, y in zip(a, b))
    parts = []
    if p <= 1.0:
        dd = nab - napb ** (1.0 / p)
        mid = nab ** p - napb
        parts += [mid - (p / M2 ** (1.0 - p)) * dd,
                  (p / m2 ** (1.0 - p)) * dd - mid]
    if p >= 1.0:
        dd = napb ** (1.0 / p) - nab
        mid = napb - nab ** p
        parts += [mid - (p / m2 ** (1.0 - p)) * dd,
                  (p / M2 ** (1.0 - p)) * dd - mid]
    return min(parts)


ORACLE_GAPS = {
    "info_monotonicity": _gap_info,
    "reverse_monotonicity": _gap_reverse,
    "ando_converse": _gap_ando,
    "density_trace": _gap_density,
    "furuta_bounds": _gap_furuta,
    "seo_bound": _gap_seo,
    "lowner_heinz": _gap_lowner,
    "norm_power_lemma": _gap_npl,
    "lh_extension": _gap_lh_extension,
    "mn2012": _gap_mn2012,
    "mond_pecaric": _gap_mond,
    "holder_mccarthy": _gap_hm,
    "norm_chain": _gap_norm_chain,
    "radius_chain": _gap_radius_chain,
    "power_norm": _gap_power_norm,
    "norm_refinement": _gap_norm_refinement,
    "power_corollary": _gap_power_corollary,
}

CHECK_IDS = tuple(ORACLE_GAPS)

# Checks whose statements involve a positive unital map; the test driver
# pairs these with the normalized trace.
MAP_CHECKS = frozenset({
    "info_monotonicity", "reverse_monotonicity", "ando_converse",
    "furuta_bounds", "seo_bound", "power_corollary",
})

_P_CYCLES = {
    "info_monotonicity": (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0),
    "reverse_monotonicity": (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0),
    "ando_converse": (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0),
    "density_trace": (-1.0, 0.0, 0.5, 1.0, 2.0),
    "furuta_bounds": (0.25, 0.5, 0.75, 1.0),
    "seo_bound": (0.2, 0.45, 0.7, 0.9),
    "lowner_heinz": (0.0, 0.25, 0.5, 0.8, 1.0, 2.0),
    "norm_power_lemma": (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0),
    "lh_extension": (0.5, 2.0 / 3.0, 2.0, 4.0, -1.0, -3.0, 0.0, 1.0),
    "mn2012": (0.0, 0.25, 0.5, 0.75, 1.0),
    "mond_pecaric": (0.5, 2.0, -1.0, 1.5),
    "holder_mccarthy": (0.5, 0.25, 2.0, 3.0, -1.0, -0.5),
    "norm_chain": (2.0, 3.0, 0.5, 1.0, -1.0, -2.0),
    "radius_chain": (2.0, 3.0, 0.5, 1.0, -1.0, -2.0),
    "power_norm": (0.0, 0.5, 1.0, 2.0, 3.0),
    "norm_refinement": (0.5, 0.25, 1.0, 2.0, 3.0),
    "power_corollary": (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0),
}

_F_CYCLE = ("power", "exp", "log", "power")


def _entries(rng, n, lo, hi):
    return [rng.uniform(lo, hi) for _ in range(n)]


def _unit_vector(rng, n):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        nrm = math.sqrt(math.fsum(c * c for c in v))
        if nrm > 1e-3:
            return [c / nrm for c in v]


def _signed_entries(rng, n):
    return [rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 2.0) for _ in range(n)]


def _build(check_id, dim, p, rng):
    inst = {"check_id": check_id, "p": p, "b": None, "x": None, "f": "power"}
    if check_id in ("info_monotonicity", "furuta_bounds", "seo_bound"):
        inst["a"] = _entries(rng, dim, 0.5, 2.2)
        inst["b"] = _entries(rng, dim, 0.5, 2.2)
    elif check_id in ("reverse_monotonicity", "ando_converse"):
        inst["a"] = _entries(rng, dim, 0.7, 1.8)
        inst["b"] = [x * rng.uniform(1.001, 2.5) for x in inst["a"]]
    elif check_id == "density_trace":
        raw = _entries(rng, dim, 0.5, 2.0)
        total = math.fsum(raw)
        inst["a"] = [v / total for v in raw]
        inst["b"] = list(inst["a"])
    elif check_id == "power_corollary":
        inst["a"] = _entries(rng, dim, 1.001, 2.8)
    elif check_id == "lowner_heinz":
        inst["a"] = _entries(rng, dim, 0.3, 2.0)
        inst["b"] = [x + rng.uniform(0.01, 1.5) for x in inst["a"]]
    elif check_id == "norm_power_lemma":
        inst["a"] = _entries(rng, dim, 0.1, 2.5)
    elif check_id in ("lh_extension", "mn2012"):
        inst["a"] = _entries(rng, dim, 0.2, 1.2)
        top = max(inst["a"])
        inst["b"] = [top + rng.uniform(0.05, 1.2) for _ in range(dim)]
    elif check_id == "mond_pecaric":
        inst["b"] = _entries(rng, dim, 0.2, 0.9)
        inst["a"] = _entries(rng, dim, 1.0, 3.0)
        inst["x"] = _unit_vector(rng, dim)
    elif check_id == "holder_mccarthy":
        inst["a"] = _entries(rng, dim, 0.3, 4.0)
        inst["x"] = _unit_vector(rng, dim)
    elif check_id in ("norm_chain", "radius_chain"):
        inst["a"] = _signed_entries(rng, dim)
    elif check_id in ("power_norm", "norm_refinement"):
        inst["a"] = _entries(rng, dim, 0.3, 3.0)
        inst["b"] = _entries(rng, dim, 0.3, 3.0)
    else:
        raise KeyError(check_id)
    return inst


def generate(count, seed=20240817):
    """Deterministic list of diagonal instances cycling over every check."""
    rng = random.Random(seed)
    dims = (2, 3, 4, 5, 6)
    instances = []
    for i in range(count):
        check_id = CHECK_IDS[i % len(CHECK_IDS)]
        rounds = i // len(CHECK_IDS)
        dim = dims[(i + rounds) % len(dims)]
        cycle = _P_CYCLES[check_id]
        inst = _build(check_id, dim, cycle[rounds % len(cycle)], rng)
        if check_id == "mond_pecaric":
            inst["f"] = _F_CYCLE[rounds % len(_F_CYCLE)]
        instances.append(inst)
    return instances


def oracle_gap(inst):
    return ORACLE_GAPS[inst["check_id"]](inst)
