"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI exit-code mapping):
input/validation problems (:class:`ValidationError`) and numerical failures
that occur on well-formed inputs (:class:`NumericalError`).
"""

from __future__ import annotations


class EmbsdeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(EmbsdeError):
    """Malformed or inconsistent input (bad file, bad shapes, bad flags)."""


class DimensionMismatchError(ValidationError):
    """Array or network dimensions do not line up."""


class DataFormatError(ValidationError):
    """A trajectory or model file violates its schema."""


class ModelFormatError(DataFormatError):
    """A persisted model file is unreadable, corrupt, or from a newer format."""


class NumericalError(EmbsdeError):
    """A computation produced non-finite or otherwise unusable values."""


class TrainingDivergenceError(NumericalError):
    """Training produced a non-finite loss or gradient.

    ``last_good_epoch`` is the last epoch that completed with finite losses
    (epochs count from 1, so 0 if divergence happened before the first epoch
    finished); ``records`` holds the loss records of the epochs up to it.
    """

    def __init__(self, message, last_good_epoch=0, records=()):
        super().__init__(message)
        self.last_good_epoch = last_good_epoch
        self.records = list(records)


class SimulationBlowupError(NumericalError):
    """State integration exceeded the blow-up guard or went non-finite.

    ``step`` is the index of the offending update and ``paths`` lists every
    path that left the guard at it.  ``prefix_states`` is the finite prefix
    of all paths, shape ``(n_paths, step, d)``, and ``prefix_times`` holds
    its ``step`` times.
    """

    def __init__(self, message, step, prefix_states=None, prefix_times=None, paths=()):
        super().__init__(message)
        self.step = step
        self.prefix_states = prefix_states
        self.prefix_times = prefix_times
        self.paths = list(paths)


class EstimationError(NumericalError):
    """A diagnostic estimator could not produce a value (e.g. degenerate probes)."""
