"""The ``reduce`` verb against a copy of its flow.

``reduce`` runs ``find_realizations``, then ``reduction_isomorphism`` for
each p it lists.  The twists and standard algebras now inherit independence
through ``MatrixSubspace.mapped`` instead of eliminating it again; the
output must stay byte for byte that of the flow copied here, on every shape
of the benchmark's ``reduce-small`` inputs and on algebras with degenerate p.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from nilforge import cli
from nilforge.errors import DependentBasisError, NotAdaptedError
from nilforge.exactlin import RationalMatrix
from nilforge.nilpotent import NilpotentAlgebra2
from nilforge.standardform import find_realizations, reduction_isomorphism

# every (m, n, d) of the benchmark's reduce-small inputs: 2 <= m <= 6,
# 1 <= n <= min(3, C(m, 2)), entries in {-2..2} / d
SHAPES = [
    (m, n, d)
    for m in range(2, 7)
    for n in range(1, min(3, m * (m - 1) // 2) + 1)
    for d in (1, 2, 3)
]


def _copied_flow(a: NilpotentAlgebra2) -> str:
    realizations = find_realizations(a)
    reductions = []
    for real in realizations:
        t, target = reduction_isomorphism(a, real["p"], real["q"])
        reductions.append(
            {
                "p": real["p"],
                "q": real["q"],
                "signature": real["signature"],
                "T": t,
                "standard_structure": list(target.algebra.structure),
            }
        )
    return cli.canonical_json({"realizations": realizations, "reductions": reductions})


def _diag(values):
    n = len(values)
    entries = [[str(values[i] if i == j else 0) for j in range(n)] for i in range(n)]
    return {"rows": n, "cols": n, "entries": entries}


def _seeded(rng, m, n, d):
    while True:
        cs = []
        for _ in range(n):
            c = [[Fraction(0)] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    c[i][j] = Fraction(rng.randint(-2, 2), d)
                    c[j][i] = -c[i][j]
            cs.append(RationalMatrix(c))
        a = NilpotentAlgebra2.tagged(m=m, n=n, structure=tuple(cs))
        if a.tag == "adapted":
            return a.to_json() | {
                "form_V": _diag([rng.choice((1, -1)) for _ in range(m)]),
                "form_Z": _diag([rng.choice((1, -1)) for _ in range(n)]),
            }


def _reduce(tmp_path, obj) -> tuple[int, str]:
    path = tmp_path / "a.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["reduce", str(path)])
    return code, out.getvalue()


def _assert_as_copied(tmp_path, obj) -> int:
    """reduce prints the copied flow's text; returns how many p were skipped."""
    a = NilpotentAlgebra2.from_json(obj)
    code, text = _reduce(tmp_path, obj)
    assert code == 0
    assert text == _copied_flow(a)
    return a.m + 1 - len(json.loads(text)["realizations"])


@pytest.mark.parametrize("m, n, d", SHAPES)
def test_reduce_prints_what_the_copied_flow_prints(m, n, d, tmp_path):
    rng = random.Random(f"{m} {n} {d}")
    for _ in range(2):
        _assert_as_copied(tmp_path, _seeded(rng, m, n, d))


def _algebra_json(rows_list, m):
    return {"m": m, "n": len(rows_list), "C": rows_list, "tag": "adapted"}


def test_reduce_skips_degenerate_p(tmp_path):
    # E_12 - E_21 + E_34 - E_43: the trace form is null at p = 1 and p = 3
    c = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    obj = _algebra_json([[[str(x) for x in r] for r in c]], 4)
    assert _assert_as_copied(tmp_path, obj) == 2
    code, text = _reduce(tmp_path, obj)
    assert [x["p"] for x in json.loads(text)["realizations"]] == [0, 2, 4]


def test_reduce_on_ternary_algebras_with_degenerate_p(tmp_path):
    rng = random.Random(29)
    skipped = 0
    for m in range(3, 7):
        for n in (1, 2):
            for _ in range(4):
                while True:
                    cs = []
                    for _ in range(n):
                        c = [[0] * m for _ in range(m)]
                        for i in range(m):
                            for j in range(i + 1, m):
                                c[i][j] = rng.choice([-1, 0, 0, 1])
                                c[j][i] = -c[i][j]
                        cs.append([[str(x) for x in r] for r in c])
                    obj = _algebra_json(cs, m)
                    try:
                        NilpotentAlgebra2.from_json(obj)
                        break
                    except DependentBasisError:
                        pass
                skipped += _assert_as_copied(tmp_path, obj)
    assert skipped > 0


def test_reduce_of_a_raw_algebra_keeps_its_error(tmp_path):
    obj = _algebra_json([[["0", "1"], ["-1", "0"]]], 2) | {"tag": "raw"}
    code, text = _reduce(tmp_path, obj)
    assert code == 2
    assert json.loads(text) == {
        "error": "ERR_NOT_ADAPTED",
        "detail": "ERR_NOT_ADAPTED: find_realizations requires an adapted algebra",
    }
    with pytest.raises(NotAdaptedError):
        find_realizations(NilpotentAlgebra2.from_json(obj))

