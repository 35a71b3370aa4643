"""Typed errors with stable machine-readable codes.

Every error carries a ``code`` string that the CLI forwards verbatim in its
JSON error payload, so library consumers and the golden test suite can match
on codes instead of message text.
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
    """Internal certification failed; indicates a convention bug."""

    code = "ERR_HOMOMORPHISM"


class UnsupportedSignatureError(NilforgeError):
    code = "ERR_UNSUPPORTED_SIGNATURE"


class BadInputError(NilforgeError):
    """Malformed serialized input."""

    code = "ERR_BAD_INPUT"
