"""Exception types shared across the toolkit."""


class WeylkitError(Exception):
    pass


class MalformedPresentationError(WeylkitError):
    """A presentation is built from inconsistent data: a bad relation pair or
    modulus, a relation that violates the degree guard, or a bad monomial."""


class FiltrationError(WeylkitError):
    """A relation has a component incompatible with the chosen filtration."""


class UnsupportedError(WeylkitError):
    """The operation is outside the supported desk-scale parameter range."""


class InvalidFormError(WeylkitError):
    """Input data fails a structural invariant (e.g. a degenerate matrix)."""


class InternalInconsistencyError(WeylkitError):
    """A cross-check that should be unreachable failed; signals a kernel bug."""


class TooLargeError(UnsupportedError):
    """An enumeration or rewriting budget would be exceeded."""


class IncompleteSearchError(WeylkitError):
    """A search bound is too small for the result to be complete."""
