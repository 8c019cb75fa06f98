"""Seeded request lists for the two benchmark workloads.

The requests come in four families, one per computational path of the
paper: ``ile_grid`` (instantaneous rates with extraction), ``ftle_grid``
(FTLE from RK4 flow maps), ``pullback_points`` (pullback eigenfunctions,
scalar path) and ``exact_algebra`` (parser, polynomial algebra and short CLI
requests).  A workload mixes two families in one shuffled list (see
``WORKLOADS``); two long workloads average over more of a shared machine's
slow speed drift than four short ones in the same total time.

Every workload is a pure function of its seed: ``generate(name, seed)``
returns the argv lists the CLI receives, the input files it reads (field
JSON, point lists) and, per request, the closed-form parameters the checker
needs.  Sizes are stratified (each list covers a fixed ladder of grid sides,
times and request kinds) and the seed only jitters values inside each stratum
and shuffles the order, so the total work of a list barely moves between
seeds while the inputs themselves differ.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Request:
    """One CLI invocation: argv, expected exit code, and what to check."""

    kind: str
    argv: tuple
    expect: int = 0
    outputs: tuple = ()
    oracle: dict = field(default_factory=dict, compare=False)
    anchor: bool = False  # a fixed reference request; see _ANCHORS
    family: str = ""  # the request family in FAMILIES it belongs to


@dataclass
class Workload:
    name: str
    seed: int
    requests: list
    files: dict  # input file name -> text

    def fingerprint(self) -> str:
        """Canonical text of everything the program receives."""
        return json.dumps(
            {
                "argv": [list(r.argv) for r in self.requests],
                "expect": [r.expect for r in self.requests],
                "files": self.files,
            },
            sort_keys=True,
        )


def generate(name: str, seed: int) -> Workload:
    files: dict = {}
    requests = [r for fam in WORKLOADS[name] for r in family_requests(fam, seed, files)]
    random.Random(f"{name}:{seed}").shuffle(requests)
    return Workload(name, seed, requests, files)


def family_requests(family: str, seed: int, files: dict) -> list:
    """One family's seeded requests and its fixed reference requests, in
    generation order; the input files they read are added to ``files``."""
    rng = random.Random(f"{family}:{seed}")
    requests = _GENERATORS[family](rng, files)
    requests += [dataclasses.replace(r, anchor=True) for r in _ANCHORS[family](files)]
    return [dataclasses.replace(r, family=family) for r in requests]


# ---------------------------------------------------------------------------
# Field constructions (closed forms the checker also evaluates)
# ---------------------------------------------------------------------------

def _num(v: float) -> str:
    return repr(float(v))


def _poly_text(terms: dict) -> str:
    """Expression text for {(i, j): c}; parses back to the same terms."""
    parts = []
    for (i, j), c in sorted(terms.items()):
        factors = [f"({_num(c)})"]
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def _json_field(p: dict, q: dict) -> str:
    def terms(t):
        return [{"i": i, "j": j, "c": c} for (i, j), c in sorted(t.items())]

    return json.dumps({"kind": "polynomial", "p": terms(p), "q": terms(q)})


def _w_block(a2: float, a3: float) -> dict:
    """a2*(x+y)^2 + a3*(x+y)^3 expanded."""
    return {
        (2, 0): a2, (1, 1): 2.0 * a2, (0, 2): a2,
        (3, 0): a3, (2, 1): 3.0 * a3, (1, 2): 3.0 * a3, (0, 3): a3,
    }


def _shear_free(a00, a10, a11, b00, b11, a2, a3) -> tuple[dict, dict, dict]:
    """P = a00 + a10 x + a11 y + B(w), Q = b00 - a11 x + b11 y - B(w), with
    B(w) = a2 w^2 + a3 w^3 and w = x + y.  P_y + Q_x = 0, so s1 and s2 are
    min and max of P_x = a10 + 2 a2 w + 3 a3 w^2 and Q_y = b11 - 2 a2 w - 3 a3 w^2."""
    block = _w_block(a2, a3)
    p = {(0, 0): a00, (1, 0): a10, (0, 1): a11}
    q = {(0, 0): b00, (1, 0): -a11, (0, 1): b11}
    for ij, c in block.items():
        p[ij] = p.get(ij, 0.0) + c
        q[ij] = q.get(ij, 0.0) - c
    p = {ij: c for ij, c in p.items() if c != 0.0}
    q = {ij: c for ij, c in q.items() if c != 0.0}
    rates = {"px": (a10, 2.0 * a2, 3.0 * a3), "qy": (b11, -2.0 * a2, -3.0 * a3)}
    return p, q, rates


def _cubic(rng):
    return _cubic_field(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0),
                        rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 1.5), rng.uniform(-1.0, 1.0))


def _cubic_field(lam, c, k, a00):
    """Cubic family in its (lam, c, k, a00) parameterization."""
    a20 = -c / (2.0 * k)
    a10 = lam - c / (6.0 * k * k)
    b00 = lam / (6.0 * k) - a00
    b11 = -a20 / (3.0 * k)
    a11 = 0.5 * (a10 + a20 / (3.0 * k))
    p, q, rates = _shear_free(a00, a10, a11, b00, b11, a20, a20 * k)
    return p, q, rates, {"lam": lam, "c": c, "k": k, "a00": a00}


def _quadratic(rng):
    lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0)
    a20 = rng.uniform(-1.5, 1.5)
    p, q, rates = _shear_free(0.0, 0.0, -lam, 0.0, 2.0 * lam, a20, 0.0)
    return p, q, rates, {"lam": lam, "a20": a20}


def _normal_form(rng):
    lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    c = rng.uniform(-1.0, 1.0)
    p = {(1, 0): 0.5 * lam}
    q = {(1, 0): -lam, (0, 1): 0.5 * lam, (3, 0): c}
    return p, q, {"lam": lam, "c": c}


def _inline_shear_free(rng):
    a2, a3 = rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)
    args = (rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-1, 1),
            rng.uniform(-1, 1), rng.uniform(-2, 2), a2, a3)
    p, q, rates = _shear_free(*args)
    return "expr:" + _poly_text(p) + ";" + _poly_text(q), rates


def _grid(x0, x1, nx, y0, y1, ny) -> str:
    return f"{_num(x0)}:{_num(x1)}:{nx},{_num(y0)}:{_num(y1)}:{ny}"


def _ladder(n: int, lo: int, hi: int, rng, jitter: int, power: float = 1.0) -> list:
    """n ascending sizes over [lo, hi], each jittered by +-jitter.  A power
    above 1 packs them toward lo, so that the median request is a small
    grid and only the top tenth are the large ones."""
    out = []
    for i in range(n):
        base = lo + round((hi - lo) * (i / (n - 1)) ** power)
        out.append(min(hi, max(lo, base + rng.randint(-jitter, jitter))))
    return out


# ---------------------------------------------------------------------------
# ile_grid
# ---------------------------------------------------------------------------

ILE_REQUESTS = 104


class _Jitter:
    """Draws from a generator fixed by the request's position and scales each
    value by a small seeded factor.  The number of extremal nodes, and with it
    the size of an ile request's output, depends strongly on the field's
    shape; jittering a fixed template keeps that shape, and so the work,
    nearly the same for every seed while the inputs still differ."""

    def __init__(self, key: str, rng, share: float = 0.03):
        self._template, self._rng, self._share = random.Random(key), rng, share

    def _scale(self) -> float:
        return 1.0 + self._share * self._rng.uniform(-1.0, 1.0)

    def uniform(self, a: float, b: float) -> float:
        return self._template.uniform(a, b) * self._scale()

    def random(self) -> float:
        return self._template.random() * self._scale()

    def choice(self, seq):
        return self._template.choice(seq)


def _ile_grid(rng, files):
    requests = []
    sides = _ladder(ILE_REQUESTS, 41, 121, rng, 2, power=1.5)
    for i, side in enumerate(sides):
        kind = ("saddle", "cubic", "quadratic", "expr")[i % 4]
        rate = ("s1", "s2")[(i // 4) % 2]
        nx, ny = side, max(41, min(121, side + rng.randint(-3, 3)))
        jr = _Jitter(f"ile_grid:{i}", rng)
        if kind == "saddle":
            field_arg, rates = "saddle", None
            box = (-1.0 - 0.1 * jr.random(), 1.0 + 0.1 * jr.random(),
                   -0.75 - 0.1 * jr.random(), 0.75 + 0.1 * jr.random())
        else:
            if kind == "cubic":
                p, q, rates, _ = _cubic(jr)
            elif kind == "quadratic":
                p, q, rates, _ = _quadratic(jr)
            else:
                field_arg, rates = _inline_shear_free(jr)
            if kind != "expr":
                field_arg = f"ile_field_{i}.json"
                files[field_arg] = _json_field(p, q)
            box = (-1.0 - 0.2 * jr.random(), 1.0 + 0.2 * jr.random(),
                   -1.0 - 0.2 * jr.random(), 1.0 + 0.2 * jr.random())
        requests.append(_ile_request(f"ile_{i}", kind, field_arg, rates, rate, box, nx, ny))
    return requests


def _ile_request(stem, kind, field_arg, rates, rate, box, nx, ny):
    out, pgm = stem + ".csv", stem + ".pgm"
    argv = ("ile", "--field", field_arg, "--grid", _grid(box[0], box[1], nx, box[2], box[3], ny),
            "--rate", rate, "--out", out, "--pgm", pgm,
            "--extract", "trench" if rate == "s1" else "ridge", "--threads", "1")
    oracle = {"check": "ile", "field": kind, "rates": rates, "rate": rate,
              "grid": (box[0], box[1], nx, box[2], box[3], ny)}
    return Request(kind, argv, 0, (out, pgm), oracle)


# ---------------------------------------------------------------------------
# ftle_grid
# ---------------------------------------------------------------------------

FTLE_REQUESTS = 104


def _ftle_grid(rng, files):
    requests = []
    sides = _ladder(FTLE_REQUESTS, 21, 101, rng, 2, power=2.0)
    for i, side in enumerate(sides):
        kind = ("saddle", "cubic", "quadratic", "normal_form")[i % 4]
        # |t| falls from 0.1 to 0.03 as the sides grow, fastest on the small
        # grids, which keeps a pass short enough to repeat; half of every
        # field kind runs backward
        t = 0.03 + 0.07 * (1.0 - i / (FTLE_REQUESTS - 1)) ** 2
        t = (-1.0 if (i // 4) % 2 == 0 else 1.0) * (t + rng.uniform(-0.002, 0.002))
        oracle = {"check": "ftle", "field": kind, "time": t}
        if kind == "saddle":
            field_arg = "saddle"
            box = (-1.0 - 0.1 * rng.random(), 1.0 + 0.1 * rng.random(),
                   -0.75 - 0.05 * rng.random(), 0.75 + 0.05 * rng.random())
        else:
            if kind == "cubic":
                p, q, _, _ = _cubic(rng)
            elif kind == "quadratic":
                p, q, _, _ = _quadratic(rng)
            else:
                p, q, params = _normal_form(rng)
                oracle.update(params)
            field_arg = f"ftle_field_{i}.json"
            files[field_arg] = _json_field(p, q)
            box = (-1.0 - 0.2 * rng.random(), 1.0 + 0.2 * rng.random(),
                   -1.0 - 0.2 * rng.random(), 1.0 + 0.2 * rng.random())
        nx, ny = side, max(21, min(101, side + rng.randint(-3, 3)))
        requests.append(_ftle_request(f"ftle_{i}", kind, field_arg, t, box, nx, ny, oracle))
    return requests


def _ftle_request(stem, kind, field_arg, t, box, nx, ny, oracle):
    oracle["grid"] = (box[0], box[1], nx, box[2], box[3], ny)
    argv = ("ftle", "--field", field_arg, "--time", _num(t), "--step", "1e-3",
            "--delta", "1e-5", "--grid", _grid(box[0], box[1], nx, box[2], box[3], ny),
            "--out", stem + ".csv", "--threads", "1")
    return Request(kind, argv, 0, (stem + ".csv",), oracle)


# ---------------------------------------------------------------------------
# pullback_points
# ---------------------------------------------------------------------------

PULLBACK_REQUESTS = 100
PULLBACK_STEP = "5e-3"
PULLBACK_TMAX = "2.5"


def _pullback_points(rng, files):
    requests = []
    for i in range(PULLBACK_REQUESTS):
        pts = []
        # A normal-form point costs several times a saddle point, so the
        # saddle requests carry more points; with the counts below the two
        # kinds' latencies overlap and the median request does not fall in a
        # gap between them, where it would jump with small shifts in speed.
        if i % 2 == 0:
            kind = "normal_form"
            for k in range(1 + (i // 2) % 4):
                # alternate sides of the line x1 = 1: x1 > 1 exhausts the
                # backward window before the forward search finds the line
                x1 = rng.uniform(0.55, 0.95) if (i // 2 + k) % 2 else rng.uniform(1.05, 1.6)
                pts.append((x1, rng.uniform(-1.0, 1.0)))
        else:
            kind = "saddle"
            for k in range(2 + (i // 2) % 12):
                # below y = 0.5 the backward orbit meets the line; above it
                # the backward window runs out and the forward search finds it
                y = rng.uniform(0.15, 0.45) if (i // 2 + k) % 2 else rng.uniform(0.55, 0.85)
                pts.append((rng.uniform(-1.5, 1.5), y))
        requests.append(_pullback_request(str(i), kind, pts, files))
    return requests


def _pullback_request(stem, kind, pts, files):
    if kind == "normal_form":
        files["pullback_nf.json"] = _json_field({(1, 0): -0.5},
                                                {(1, 0): 1.0, (0, 1): -0.5, (3, 0): -0.5})
        argv = ("pullback", "--field", "pullback_nf.json", "--line", "1,0,0,1", "--h", "1",
                "--lambda", "-1")
    else:
        argv = ("pullback", "--field", "saddle", "--line", "0,0.5,1,0", "--h", "1",
                "--lambda", "-2")
    pts_file, out = f"pts_{stem}.csv", f"phi_{stem}.csv"
    files[pts_file] = "".join(f"{_num(x)},{_num(y)}\n" for x, y in pts)
    argv += ("--points", pts_file, "--out", out, "--step", PULLBACK_STEP, "--tmax", PULLBACK_TMAX)
    return Request(kind, argv, 0, (out,), {"check": "pullback", "field": kind, "points": pts})


# ---------------------------------------------------------------------------
# exact_algebra
# ---------------------------------------------------------------------------

ALGEBRA_BLOCKS = 20


def _exact_algebra(rng, files):
    requests = []
    for block in range(ALGEBRA_BLOCKS):
        for maker, per_block in _ALGEBRA_MIX:
            for r in range(per_block):
                requests.append(maker(rng, files, block * per_block + r))
    return requests


def _family_quadratic(rng, files, b):
    p, q, _, prm = _quadratic(rng)
    argv = ("family", "quadratic", "--lambda", _num(prm["lam"]), "--a20", _num(prm["a20"]))
    return Request("family_quadratic", argv, oracle={"check": "family", "p": p, "q": q})


def _family_cubic(rng, files, b):
    p, q, _, prm = _cubic(rng)
    argv = ("family", "cubic", "--lambda", _num(prm["lam"]), "--c", _num(prm["c"]),
            "--k", _num(prm["k"]), "--a00", _num(prm["a00"]))
    return Request("family_cubic", argv, oracle={"check": "family", "p": p, "q": q})


def _family_transformed(rng, files, b):
    lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(1 + b % 4)]
    argv = ("family", "transformed", "--lambda", _num(lam),
            "--coeffs", ",".join(_num(c) for c in coeffs))
    p = {(1, 0): 0.5 * lam}
    q = {(1, 0): -lam, (0, 1): 0.5 * lam}
    for n, c in enumerate(coeffs, start=3):
        q[(n, 0)] = c
    return Request("family_transformed", argv, oracle={"check": "family", "p": p, "q": q})


def _keig_exact_family(rng, files, b):
    """Exact check of a family rate: the residual must vanish identically."""
    # the cubic family's attraction rate Q_y, the quadratic's repulsion rate P_x
    p, q, rates, prm = _cubic(rng) if b % 2 else _quadratic(rng)
    lam = prm["lam"]
    g_text = _poly_text(_rate_terms(rates["qy"] if b % 2 else rates["px"]))
    if b % 4 < 2:
        field_arg = f"alg_field_{b}.json"
        files[field_arg] = _json_field(p, q)
    else:
        field_arg = "expr:" + _poly_text(p) + ";" + _poly_text(q)
    argv = ("keig-check", "--field", field_arg, "--g", g_text, "--lambda", _num(lam), "--exact")
    return Request("keig_exact", argv, oracle={"check": "keig_zero"})


def _rate_terms(coeffs) -> dict:
    """c0 + c1 w + c2 w^2 with w = x + y, expanded."""
    c0, c1, c2 = coeffs
    out = {(0, 0): c0, (1, 0): c1, (0, 1): c1, (2, 0): c2, (1, 1): 2.0 * c2, (0, 2): c2}
    return {ij: c for ij, c in out.items() if c != 0.0}


def _keig_exact_poly(rng, files, b):
    """Exact residual of a degree <= 8 observable on an inline field."""
    deg = 2 + b % 7
    a, c, d = (_num(rng.uniform(-1.0, 1.0)) for _ in range(3))
    g_text = f"({a}*x + ({c})*y + ({d}))^{deg} + ({_num(rng.uniform(-1, 1))})*x^3*y"
    field_arg, _ = _inline_shear_free(rng)
    argv = ("keig-check", "--field", field_arg, "--g", g_text,
            "--lambda", _num(rng.uniform(-2, 2)), "--exact")
    return Request("keig_exact_poly", argv, oracle={"check": "keig_report"})


def _keig_monomial(rng, files, b):
    """Sampled check of x1^m on the normal form: an exact eigenpair."""
    lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    c = rng.uniform(-1.0, 1.0)
    m = 1 + b % 6
    field_arg = "expr:" + _poly_text({(1, 0): 0.5 * lam}) + ";" + _poly_text(
        {(1, 0): -lam, (0, 1): 0.5 * lam, (3, 0): c})
    argv = ("keig-check", "--field", field_arg, "--g", f"x^{m}", "--lambda", _num(m * lam / 2.0),
            "--samples", str(50 + 10 * (b % 5)), "--box", "-1.5:1.5,-1:1")
    return Request("keig_sampled", argv, oracle={"check": "keig_zero"})


def _keig_sampled_saddle(rng, files, b):
    g_text = f"(x + ({_num(rng.uniform(-1, 1))})*y - 1)^{2 + b % 3}"
    argv = ("keig-check", "--field", "saddle", "--g", g_text,
            "--lambda", _num(rng.uniform(-2, 2)), "--samples", str(40 + 20 * (b % 4)),
            "--box", "-1:1,-0.9:0.9")
    return Request("keig_sampled_saddle", argv, oracle={"check": "keig_report"})


def _carleman(rng, files, b):
    lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5)
    c = rng.uniform(-1.0, 1.0)
    x0 = (rng.uniform(0.2, 1.5) * rng.choice((-1.0, 1.0)), rng.uniform(-1.0, 1.0))
    t = rng.uniform(0.2, 1.5)
    argv = ("carleman", "--lambda", _num(lam), "--c", _num(c),
            "--x0", f"{_num(x0[0])},{_num(x0[1])}", "--time", _num(t))
    return Request("carleman", argv, oracle={"check": "carleman", "lam": lam, "c": c,
                                             "x0": x0, "time": t})


def _series(rng, files, b):
    target = ("s1", "3y2", "y")[b % 3]
    n = 4 + b % 9
    y = rng.uniform(0.05, 0.5) * rng.choice((-1.0, 1.0))
    argv = ("series", "--target", target, "--N", str(n), "--y", _num(y))
    return Request("series", argv, oracle={"check": "series", "target": target, "n": n, "y": y})


def _oned(rng, files, b):
    a = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    if b % 4 == 0:
        text, trivial = f"({_num(a)})*x", True
    else:
        k = 2 + b % 4
        text, trivial = f"({_num(a)})*x + ({_num(rng.uniform(0.5, 1.5))})*x^{k}", False
    argv = ("oned", "--f", text, "--xmin", "-1", "--xmax", "1", "--n", str(101 + 50 * (b % 3)))
    return Request("oned", argv, oracle={"check": "oned", "trivial": trivial})


def _bad_expression(rng, files, b):
    g_text = ("x + * y", "(x + y", "x ^ y", "2 x")[b % 4]
    argv = ("keig-check", "--field", "saddle", "--g", g_text, "--lambda", "1", "--exact")
    return Request("usage_error", argv, expect=1, oracle={"check": "error"})


def _domain_error(rng, files, b):
    if b % 2:
        y = _num(1.05 + 0.2 * rng.random())
        argv = ("ile", "--field", "saddle", "--grid", f"-1:1:3,-{y}:{y}:3", "--out", "dom.csv",
                "--threads", "1")
    else:
        argv = ("series", "--target", "y", "--N", "3", "--y", _num(0.55 + 0.3 * rng.random()))
    return Request("domain_error", argv, expect=2, outputs=("dom.csv",),
                   oracle={"check": "error"})


# (maker, requests per block); a block holds 20 requests
_ALGEBRA_MIX = (
    (_family_quadratic, 1),
    (_family_cubic, 2),
    (_family_transformed, 1),
    (_keig_exact_family, 2),
    (_keig_exact_poly, 2),
    (_keig_monomial, 2),
    (_keig_sampled_saddle, 1),
    (_carleman, 2),
    (_series, 3),
    (_oned, 2),
    (_bad_expression, 1),
    (_domain_error, 1),
)

# ---------------------------------------------------------------------------
# Reference requests
# ---------------------------------------------------------------------------
# Every list also holds a few fixed requests, the same for every seed, built
# on the README examples.  Only these enter oracle_max_err, so that figure
# repeats exactly across seeds; the seeded requests are checked against the
# same tolerances but would make the maximum jitter by an ulp from seed to
# seed.

README_CUBIC = (2.0, 0.66666666666666663, -0.33333333333333331, -2.0)


def _ile_anchors(files):
    p, q, rates, _ = _cubic_field(*README_CUBIC)
    files["ile_ref_cubic.json"] = _json_field(p, q)
    return [
        _ile_request("ile_ref_saddle", "saddle", "saddle", None, "s1",
                     (-1.0, 1.0, -0.75, 0.75), 101, 101),
        _ile_request("ile_ref_cubic", "cubic", "ile_ref_cubic.json", rates, "s2",
                     (-1.0, 1.0, -1.0, 1.0), 81, 81),
    ]


def _ftle_anchors(files):
    files["ftle_ref_nf.json"] = _json_field({(1, 0): -0.5},
                                            {(1, 0): 1.0, (0, 1): -0.5, (3, 0): -0.5})
    return [
        _ftle_request("ftle_ref_saddle", "saddle", "saddle", -0.05, (-1.0, 1.0, -0.75, 0.75),
                      61, 61, {"check": "ftle", "field": "saddle", "time": -0.05}),
        _ftle_request("ftle_ref_nf", "normal_form", "ftle_ref_nf.json", 0.05,
                      (-1.0, 1.0, -1.0, 1.0), 41, 41,
                      {"check": "ftle", "field": "normal_form", "time": 0.05, "lam": -1.0,
                       "c": -0.5}),
    ]


def _pullback_anchors(files):
    return [
        _pullback_request("ref_nf", "normal_form", [(0.6, 0.2), (1.4, -0.3), (0.9, 0.8)], files),
        _pullback_request("ref_saddle", "saddle", [(0.5, 0.3), (-0.8, 0.7), (1.2, 0.2)], files),
    ]


def _algebra_anchors(files):
    lam, c, k, a00 = README_CUBIC
    p, q, _, _ = _cubic_field(lam, c, k, a00)
    return [
        Request("family_cubic", ("family", "cubic", "--lambda", _num(lam), "--c", _num(c),
                                 "--k", _num(k), "--a00", _num(a00)),
                oracle={"check": "family", "p": p, "q": q}),
        Request("carleman", ("carleman", "--lambda", "-1", "--c", "-1", "--x0", "1,0",
                             "--time", "1"),
                oracle={"check": "carleman", "lam": -1.0, "c": -1.0, "x0": (1.0, 0.0),
                        "time": 1.0}),
        Request("series", ("series", "--target", "s1", "--N", "10", "--y", "0.5"),
                oracle={"check": "series", "target": "s1", "n": 10, "y": 0.5}),
        Request("series", ("series", "--target", "y", "--N", "10", "--y", "0.3"),
                oracle={"check": "series", "target": "y", "n": 10, "y": 0.3}),
    ]


_ANCHORS = {
    "ile_grid": _ile_anchors,
    "ftle_grid": _ftle_anchors,
    "pullback_points": _pullback_anchors,
    "exact_algebra": _algebra_anchors,
}

_GENERATORS = {
    "ile_grid": _ile_grid,
    "ftle_grid": _ftle_grid,
    "pullback_points": _pullback_points,
    "exact_algebra": _exact_algebra,
}
FAMILIES = tuple(_GENERATORS)

# workload name -> the families mixed in its list; why each workload was
# chosen is its "why" in BENCHMARK.json.  The paired families take about the
# same time per pass, so both weigh on wall_s.  In grids their requests also
# take alike times; in points_algebra the algebra requests set the median
# and the pullbacks, a fifth of the list, the 90th percentile.
WORKLOADS = {
    "grids": ("ile_grid", "ftle_grid"),
    "points_algebra": ("pullback_points", "exact_algebra"),
}
