"""Named example algebras: the three 4+2-dimensional pseudo H-type
algebras n_{2,0}, n_{1,1}, n_{0,2} and the 3-dimensional Heisenberg algebra.
"""

from __future__ import annotations

from .clifford import CliffordSignature, build_module
from .exactlin import RationalMatrix, SignatureForm
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
