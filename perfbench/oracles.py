"""Independent output oracles.

Each check parses one task's stdout (canonical JSON) and re-derives the
claim it makes with the bench's own integer / ``Fraction`` code.  Nothing
here imports nilforge, so a defect in the program cannot hide itself by
also being present in the check.  Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, lcm

# ---------------------------------------------------------------------------
# exact helpers


def rat(s) -> Fraction | int:
    """Parse a canonical rational ("a" or "a/b"); ints stay ints."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if not isinstance(s, str):
        raise ValueError(f"not a rational literal: {s!r}")
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return int(s)


def dense(obj) -> list[list]:
    """Entries of a serialized matrix {"rows", "cols", "entries"}."""
    rows = [[rat(x) for x in r] for r in obj["entries"]]
    if len(rows) != obj["rows"] or any(len(r) != obj["cols"] for r in rows):
        raise ValueError("matrix shape fields disagree with entries")
    return rows


def sparse(rows) -> list[dict]:
    """Dense rows -> one {column: value} dict per row, zeros dropped."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def sp_mul(a: list[dict], b: list[dict]) -> list[dict]:
    out = []
    for ra in a:
        acc: dict = {}
        for k, x in ra.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def sp_add(a: list[dict], b: list[dict]) -> list[dict]:
    out = []
    for ra, rb in zip(a, b):
        acc = dict(ra)
        for j, y in rb.items():
            acc[j] = acc.get(j, 0) + y
        out.append({j: v for j, v in acc.items() if v})
    return out


def sp_scale(a: list[dict], c) -> list[dict]:
    return [{j: c * x for j, x in r.items()} for r in a] if c else [{} for _ in a]


def sp_transpose(a: list[dict], n: int) -> list[dict]:
    out: list[dict] = [{} for _ in range(n)]
    for i, r in enumerate(a):
        for j, x in r.items():
            out[j][i] = x
    return out


def sp_diag(values) -> list[dict]:
    return [{i: v} if v else {} for i, v in enumerate(values)]


def sp_trace(a: list[dict]):
    return sum(r.get(i, 0) for i, r in enumerate(a))


def rank(vectors) -> int:
    """Rank of a list of equal-length rational vectors (sparse row echelon)."""
    echelon: dict[int, dict] = {}  # pivot column -> row with pivot entry 1
    for v in vectors:
        row = {i: Fraction(x) for i, x in enumerate(v) if x}
        while row:
            piv = min(row)
            if piv not in echelon:
                d = row[piv]
                echelon[piv] = {i: x / d for i, x in row.items()}
                break
            f = row[piv]
            for i, x in echelon[piv].items():
                nv = row.get(i, 0) - f * x
                if nv:
                    row[i] = nv
                else:
                    row.pop(i, None)
    return len(echelon)


def inertia(sym) -> tuple[int, int, int]:
    """(positives, negatives, nullity) of a rational symmetric matrix.

    All eigenvalues of a real symmetric matrix are real, so Descartes' rule
    of signs on the characteristic polynomial counts them exactly.  The
    polynomial comes from the Faddeev-LeVerrier recursion.  This is a
    different algorithm from the program's congruence diagonalisation.
    """
    n = len(sym)
    a = [[Fraction(x) for x in r] for r in sym]
    coeffs = [Fraction(1)]  # det(xI - A), highest degree first
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    nullity = 0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
        nullity += 1

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    deg = len(coeffs) - 1
    pos = sign_changes(coeffs)
    neg = sign_changes([c * (-1) ** (deg - i) for i, c in enumerate(coeffs)])
    return pos, neg, nullity


def _require(problems: list, cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def _diag_of(form_obj) -> list:
    rows = dense(form_obj)
    n = len(rows)
    if any(rows[i][j] for i in range(n) for j in range(n) if i != j):
        raise ValueError("form matrix is not diagonal")
    return [rows[i][i] for i in range(n)]


def _pseudo_h_laws(algebra: dict, problems: list) -> list[list[dict]]:
    """Re-check the pseudo H-type laws of a serialized algebra with diagonal
    forms; returns the structure matrices in sparse form."""
    m, n = algebra["m"], algebra["n"]
    gv = _diag_of(algebra["form_V"])
    gz = _diag_of(algebra["form_Z"])
    cs = [sparse([[rat(x) for x in row] for row in c]) for c in algebra["C"]]
    _require(problems, len(cs) == n and len(gv) == m and len(gz) == n, "algebra shape")
    _require(problems, all(abs(x) == 1 for x in gv + gz), "forms are not diagonal +-1")
    for c in cs:
        _require(problems, sp_add(c, sp_transpose(c, m)) == [{} for _ in range(m)], "C^k not antisymmetric")
    # J_k = -G_V^{-1} (G_Z)_kk C^k for diagonal +-1 forms
    gv_sp = sp_diag(gv)
    js = [sp_scale(sp_mul(gv_sp, c), -gz[k]) for k, c in enumerate(cs)]
    ident = sp_diag([1] * m)
    for k in range(n):
        for l in range(k, n):
            g = gz[k] if k == l else 0
            anti = sp_add(sp_mul(js[k], js[l]), sp_mul(js[l], js[k]))
            _require(problems, anti == sp_scale(ident, -2 * g), f"square law J{k}J{l}")
            jt_k, jt_l = sp_transpose(js[k], m), sp_transpose(js[l], m)
            pol = sp_add(sp_mul(sp_mul(jt_k, gv_sp), js[l]), sp_mul(sp_mul(jt_l, gv_sp), js[k]))
            _require(problems, pol == sp_scale(gv_sp, 2 * g), f"orthogonality J{k}J{l}")
    return cs


# ---------------------------------------------------------------------------
# per-verb checks


def check_clifford(out: dict, r: int, s: int) -> list[str]:
    problems: list[str] = []
    mod = out["module"]
    n_gen = r + s
    big_n = mod["N"]
    eta = mod["eta"]
    _require(problems, (mod["r"], mod["s"]) == (r, s), "signature echo")
    _require(problems, len(eta) == big_n and all(x in (1, -1) for x in eta), "eta diagonal")
    pos = sum(1 for x in eta if x == 1)
    want = (big_n // 2) if s > 0 else big_n
    _require(problems, pos == want and big_n % 2 == 0, "module form signature")
    gens = [dense(g) for g in mod["generators"]]
    _require(problems, len(gens) == n_gen, "generator count")
    _require(
        problems,
        all(x in (-1, 0, 1) for g in gens for row in g for x in row),
        "generator entries outside {-1,0,1}",
    )
    js = [sparse(g) for g in gens]
    e = sp_diag(eta)
    ident = sp_diag([1] * big_n)
    zero = [{} for _ in range(big_n)]
    nus = [1] * r + [-1] * s
    for i, j in enumerate(js):
        jt = sp_transpose(j, big_n)
        _require(problems, sp_mul(j, j) == sp_scale(ident, -nus[i]), f"J{i}^2 = -nu I")
        _require(problems, sp_mul(sp_mul(e, jt), e) == sp_scale(j, -1), f"J{i} skew for eta")
        _require(problems, sp_mul(sp_mul(jt, e), j) == sp_scale(e, nus[i]), f"J{i} orthogonality")
        for k in range(i + 1, n_gen):
            _require(
                problems,
                sp_add(sp_mul(j, js[k]), sp_mul(js[k], j)) == zero,
                f"J{i}J{k} anticommute",
            )
    _require(problems, out["verification"]["passed"] is True, "verification.passed")
    return problems


def check_build(out: dict, r: int, s: int) -> list[str]:
    problems: list[str] = []
    alg = out["algebra"]
    _require(problems, alg["n"] == r + s and alg["tag"] == "adapted", "algebra shape/tag")
    _require(problems, _diag_of(alg["form_Z"]) == [1] * r + [-1] * s, "form_Z = eta(r,s)")
    cs = _pseudo_h_laws(alg, problems)
    _require(problems, rank([_flat(c, alg["m"]) for c in cs]) == alg["n"], "C^k independent")
    _require(problems, out["pseudo_H_check"]["verdict"] is True, "pseudo_H_check.verdict")
    return problems


def _flat(c: list[dict], m: int) -> list:
    return [c[i].get(j, 0) for i in range(m) for j in range(m)]


def check_lattice_pseudo_h(out: dict, r: int, s: int) -> list[str]:
    problems: list[str] = []
    alg = out["algebra"]
    two_l = out["two_l"]
    _require(problems, (out["r"], out["s"]) == (r, s), "signature echo")
    _require(problems, two_l == out["N"] == alg["m"], "2l = N = m")
    nus = [1] * r + [-1] * s
    _require(problems, [rat(t) for t in out["traces"]] == [two_l * v for v in nus], "traces = 2l nu_i")
    cs = _pseudo_h_laws(alg, problems)
    m = alg["m"]
    std = [sparse(dense(c)) for c in out["standard_structure"]]
    want = [sp_scale(c, Fraction(1, two_l)) for c in cs]
    _require(problems, std == want, "standard_structure = C / 2l")
    _require(problems, len(std) == r + s and all(len(c) == m for c in std), "standard shape")
    v = out["verdict"]
    _require(
        problems,
        v["status"] == "AdmitsLattice" and v["rescale_factor"] == 1 and v["rescaled_constants_integer"],
        "verdict",
    )
    for key in ("trace_identity", "gram_is_2l_eta", "standard_iso_certified", "constants_in_unit_range"):
        _require(problems, out[key] is True, key)
    return problems


def _simple_so(a: int, b: int) -> bool:
    """so(a, b) with a + b >= 3 is simple except so(4), so(2,2) (and so(0,4))."""
    return not (a + b == 4 and a % 2 == 0)


def check_triple(out: dict, r: int, s: int, probe_seed: int) -> list[str]:
    problems: list[str] = []
    rep = out["report"]
    n = r + s
    dim = comb(n + 1, 2)
    _require(problems, rep["is_triple"] is True and rep["cartan_certified"] is True, "triple/cartan")
    _require(problems, rep["L_dim"] == dim == len(rep["L_basis"]["basis"]), "dim L = C(r+s+1,2)")
    want_sig = ((r + 1) * s, comb(r + 1, 2) + comb(s, 2), 0)
    _require(problems, tuple(rep["killing_signature"]) == want_sig, "Killing signature of so(r+1,s)")
    killing = dense(rep["killing"])
    _require(
        problems,
        all(killing[i][j] == killing[j][i] for i in range(dim) for j in range(i)),
        "Killing form symmetric",
    )
    _require(problems, inertia(killing) == want_sig, "Killing inertia re-derived")
    _require(problems, out["seed"] == probe_seed, "probe seed echo")
    probe = out["ideal_probe"]
    if _simple_so(r + 1, s):
        _require(problems, probe is None, "probe found an ideal in a simple algebra")
    elif probe is not None:
        _require(problems, probe["ideal_dim"] == dim // 2, "probe ideal dimension")
    if (r, s) in ((3, 0), (1, 2)):
        _require(problems, rep["special_split"] is not None, "special ideal split")
    return problems


def check_free(out: dict, p: int, q: int) -> list[str]:
    problems: list[str] = []
    m = p + q
    n = comb(m, 2)
    alg = out["algebra"]
    _require(problems, (alg["m"], alg["n"]) == (m, n), "m = p+q, n = C(p+q,2)")
    gram = dense(out["gram_W"])
    _require(
        problems,
        len(gram) == n and all(gram[i][j] == 0 for i in range(n) for j in range(n) if i != j),
        "gram_W diagonal",
    )
    diag = [gram[i][i] for i in range(len(gram))]
    sig = (sum(1 for x in diag if x > 0), sum(1 for x in diag if x < 0), sum(1 for x in diag if x == 0))
    _require(problems, sig == (comb(p, 2) + comb(q, 2), p * q, 0), "gram_W signature")
    iso = out["isomorphism"]
    basis = [sparse(dense(b)) for b in iso["phi_basis"]["basis"]]
    _require(problems, len(basis) == n, "phi basis size")
    # the trace form -tr(XY) on the emitted basis, and the standard-algebra
    # structure C^k = G_kk^{-1} W_k^T eta for the diagonal Gram
    eta = sp_diag([1] * p + [-1] * q)
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            _require(problems, -sp_trace(sp_mul(basis[a], basis[b])) == gram[a][b], f"gram[{a}][{b}]")
    cs = [sparse([[rat(x) for x in row] for row in c]) for c in alg["C"]]
    for k, (c, w) in enumerate(zip(cs, basis)):
        if diag[k]:
            want = sp_scale(sp_mul(sp_transpose(w, m), eta), Fraction(1) / diag[k])
            _require(problems, c == want, f"C^{k} from W")
    _require(problems, iso["certified"] is True, "isomorphism.certified")
    return problems


def _twist_grams(cs: list[list[list]], m: int, p: int, side: str) -> list[list]:
    """-tr(D_a D_b) for D = C eta (right) or eta C (left)."""
    eta = [1] * p + [-1] * (m - p)
    ds = []
    for c in cs:
        if side == "right":
            ds.append(sparse([[c[i][j] * eta[j] for j in range(m)] for i in range(m)]))
        else:
            ds.append(sparse([[eta[i] * c[i][j] for j in range(m)] for i in range(m)]))
    return [[-sp_trace(sp_mul(x, y)) for y in ds] for x in ds]


def check_reduce(out: dict, algebra: dict) -> list[str]:
    problems: list[str] = []
    m, n = algebra["m"], algebra["n"]
    cs = [[[rat(x) for x in row] for row in c] for c in algebra["C"]]
    want_real = []
    want_red = []
    for p in range(m + 1):
        pos, neg, null = inertia(_twist_grams(cs, m, p, "right"))
        if null == 0:
            want_real.append({"p": p, "q": m - p, "signature": [pos, neg]})
        pos, neg, null = inertia(_twist_grams(cs, m, p, "left"))
        if null == 0:
            want_red.append((p, [pos, neg]))
    _require(problems, out["realizations"] == want_real, "realizations re-derived")
    reds = out["reductions"]
    _require(problems, [(x["p"], x["signature"]) for x in reds] == want_red, "reduction list re-derived")
    for red in reds:
        t = dense(red["T"])
        std = [dense(c) for c in red["standard_structure"]]
        _require(problems, len(t) == m + n and len(std) == n, "T / standard shape")
        _require(
            problems,
            all(t[i][j] == (1 if i == j else 0) for i in range(m) for j in range(m + n))
            and all(t[m + k][j] == 0 for k in range(n) for j in range(m)),
            "T fixes V and maps Z into Z",
        )
        _require(problems, rank([row[m:] for row in t[m:]]) == n, "T invertible on Z")
        # homomorphism law: S^l_ij = sum_k T[m+l][m+k] C^k_ij on all pairs
        ok = all(
            std[l][i][j] == sum(t[m + l][m + k] * cs[k][i][j] for k in range(n))
            and std[l][j][i] == -std[l][i][j]
            for l in range(n)
            for i in range(m)
            for j in range(i + 1, m)
        )
        _require(problems, ok, f"homomorphism law at p={red['p']}")
    return problems


def check_lattice_file(out: dict, algebra: dict) -> list[str]:
    problems: list[str] = []
    d = 1
    for c in algebra["C"]:
        for row in c:
            for x in row:
                v = rat(x)
                d = lcm(d, v.denominator if isinstance(v, Fraction) else 1)
    _require(problems, out["status"] == "AdmitsLattice", "status")
    _require(problems, out["rescale_factor"] == d, "rescale_factor = lcm of denominators")
    _require(problems, out["rescaled_constants_integer"] is True, "rescaled constants integer")
    size = algebra["m"] + algebra["n"]
    w = dense(out["witness_basis"])
    _require(problems, w == [[int(i == j) for j in range(size)] for i in range(size)], "identity witness")
    return problems


def check(task: dict, stdout: str) -> list[str]:
    """Run the oracle for one task; parse failures count as problems."""
    kind = task["kind"]
    meta = task["meta"]
    try:
        out = json.loads(stdout)
        if kind == "clifford":
            return check_clifford(out, meta["r"], meta["s"])
        if kind == "build":
            return check_build(out, meta["r"], meta["s"])
        if kind == "lattice-pseudo-h":
            return check_lattice_pseudo_h(out, meta["r"], meta["s"])
        if kind == "triple":
            return check_triple(out, meta["r"], meta["s"], meta["probe_seed"])
        if kind == "free":
            return check_free(out, meta["p"], meta["q"])
        if kind == "reduce":
            return check_reduce(out, meta["algebra"])
        if kind == "lattice-file":
            return check_lattice_file(out, meta["algebra"])
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]
    return [f"no oracle for task kind {kind!r}"]
