"""Typed errors with stable machine-readable codes.

Every error carries a ``code`` string that the CLI forwards verbatim in its
JSON error payload, so library consumers and the golden test suite can match
on codes instead of message text.  Every certificate of the package goes
through ``certify``, whose ``CertificateError`` the CLI reports with exit 3.
"""

from __future__ import annotations


class NilforgeError(Exception):
    """Base class; ``code`` identifies the failure class."""

    code = "ERR_INTERNAL"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(f"{self.code}: {detail}" if detail else self.code)


class DimensionMismatchError(NilforgeError):
    code = "ERR_DIM_MISMATCH"


class DimError(NilforgeError):
    """Signature split (p, q) negative or incompatible with the ambient dimension."""

    code = "ERR_DIM"


class NotSymmetricError(NilforgeError):
    code = "ERR_NOT_SYMMETRIC"


class NotAntisymmetricError(NilforgeError):
    code = "ERR_NOT_ANTISYMMETRIC"


class SingularMatrixError(NilforgeError):
    code = "ERR_SINGULAR"


class SingularAError(NilforgeError):
    """The matrix supplied for a GL(m) action is not invertible."""

    code = "ERR_SINGULAR_A"


class DegenerateFormError(NilforgeError):
    code = "ERR_DEGENERATE_FORM"


class DegenerateRestrictionError(NilforgeError):
    """A form degenerates on the subspace where it must restrict."""

    code = "ERR_DEGENERATE_RESTRICTION"


class DegenerateWError(NilforgeError):
    """Trace-form Gram of the chosen subspace W is degenerate."""

    code = "ERR_DEGENERATE_W"


class DependentBasisError(NilforgeError):
    code = "ERR_DEPENDENT_BASIS"


class NotSkewError(NilforgeError):
    code = "ERR_NOT_SKEW"


class NotAdaptedError(NilforgeError):
    code = "ERR_NOT_ADAPTED"


class NotClosedError(NilforgeError):
    code = "ERR_NOT_CLOSED"


class PreconditionError(NilforgeError):
    code = "ERR_PRECONDITION"


class HomomorphismError(NilforgeError):
    """A map is not the homomorphism it must be.  Raised plainly, it rejects a
    caller's input (exit 2); raised by ``certify`` as a ``CertificateError``,
    it is a fault of the program: exit 3 for a failed certificate."""

    code = "ERR_HOMOMORPHISM"


class CertificateError(HomomorphismError):
    """A certificate failed: no input can make one fail, so the program is at
    fault.  Raised only by ``certify``."""


def certify(name: str, ok: bool) -> None:
    """The one certificate gate: raise ``CertificateError(name)`` unless ``ok``.
    ``name`` says what failed, and no two certificates share one."""
    if not ok:
        raise CertificateError(name)


class UnsupportedSignatureError(NilforgeError):
    code = "ERR_UNSUPPORTED_SIGNATURE"


class BadInputError(NilforgeError):
    """Malformed serialized input."""

    code = "ERR_BAD_INPUT"
