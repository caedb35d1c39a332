"""Exception hierarchy shared across the package.

`cli.EXIT_CODES` is the one place these map onto exit codes, so keep the
split stable: format problems, bad settings, definiteness problems,
weight-domain problems, and internal numerical diagnostics are different
failure kinds.
"""


class MatrixFormatError(ValueError):
    """Input is not a valid matrix value (shape, parse, or symmetry)."""


class NotPositiveDefiniteError(ValueError):
    """An operand fails a definiteness precondition."""


class InvalidWeightsError(ValueError):
    """A scalar coefficient lies outside its admissible range."""


class ConfigError(InvalidWeightsError):
    """A bad setting: a flag, MATMEAN_SEED or a SuiteConfig field."""


class NumericalFailure(RuntimeError):
    """An internal residual or convergence check failed; results would be
    untrustworthy, so we stop instead of returning them."""


class InstanceDrawError(ConfigError):
    """The suite's cond_max leaves too little spectral spread to draw an
    instance it needs (a clearly noncommuting pair at some dimension): a
    bad configuration, like the cond_max values SuiteConfig rejects."""
