"""Named example algebras: the three 4+2-dimensional pseudo H-type
algebras n_{2,0}, n_{1,1}, n_{0,2}, the 3-dimensional Heisenberg algebra,
and a seeded generator of random adapted algebras for property suites.
"""

from __future__ import annotations

import random

from .clifford import CliffordSignature, build_module
from .exactlin import MatrixSubspace, RationalMatrix, SignatureForm
from .lattice import pseudo_H_algebra
from .nilpotent import MetricAlgebra, NilpotentAlgebra2


def n20() -> MetricAlgebra:
    """Pseudo H-type algebra for Cl_{2,0}: V = R^{4,0}, Z = R^{2,0}."""
    return pseudo_H_algebra(build_module(CliffordSignature(2, 0)))


def n11() -> MetricAlgebra:
    """Pseudo H-type algebra for Cl_{1,1}: V = R^{2,2}, Z = R^{1,1}."""
    return pseudo_H_algebra(build_module(CliffordSignature(1, 1)))


def n02() -> MetricAlgebra:
    """Pseudo H-type algebra for Cl_{0,2}: V = R^{2,2}, Z = R^{0,2}."""
    return pseudo_H_algebra(build_module(CliffordSignature(0, 2)))


def heisenberg() -> MetricAlgebra:
    """3-dimensional Heisenberg algebra with definite forms."""
    c1 = RationalMatrix(((0, 1), (-1, 0)))
    algebra = NilpotentAlgebra2(
        m=2,
        n=1,
        structure=(c1,),
        form_V=SignatureForm.standard(2, 0),
        form_Z=SignatureForm.standard(1, 0),
        tag="adapted",
    )
    return MetricAlgebra(algebra)


BY_NAME = {
    "n20": n20,
    "n11": n11,
    "n02": n02,
    "heisenberg": heisenberg,
}


def random_adapted_algebra(rng: random.Random, max_m: int = 4) -> MetricAlgebra:
    """Seeded random adapted metric algebra with m <= max_m.

    Structure matrices are random integer antisymmetric matrices kept only
    when linearly independent; forms are standard diagonal signatures with
    a random index split.
    """
    m = rng.randint(2, max_m)
    max_n = m * (m - 1) // 2
    n = rng.randint(1, min(3, max_n))
    space = MatrixSubspace(m)
    while space.dim < n:
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                v = rng.randint(-2, 2)
                rows[i][j] = v
                rows[j][i] = -v
        space.adjoin(RationalMatrix(rows))
    p = rng.randint(0, m)
    pz = rng.randint(0, n)
    algebra = NilpotentAlgebra2(
        m=m,
        n=n,
        structure=space.basis,
        form_V=SignatureForm.standard(p, m - p),
        form_Z=SignatureForm.standard(pz, n - pz),
        tag="adapted",
    )
    return MetricAlgebra(algebra)
