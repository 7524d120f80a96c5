"""Exception types shared across the package."""


class PathkernelError(RuntimeError):
    """Base class for numeric failures (as opposed to bad arguments)."""


class QuadratureError(PathkernelError):
    """Adaptive quadrature failed to reach the requested tolerance.

    ``owners`` lists the integrals of a batched call that were still open.
    """

    def __init__(self, message, owners=None):
        super().__init__(message)
        self.owners = owners


class DivergentIntegralError(PathkernelError):
    """An integral was detected as non-convergent under domain expansion."""


class NonFiniteSampleError(PathkernelError):
    """A sampled position overflowed the float range."""


class StepTooLargeError(PathkernelError):
    """A path step exceeds half the shortest period, so its lift is ambiguous."""


class PotentialBoundError(PathkernelError):
    """A potential evaluated outside its declared sup bound."""


class WorkerLostError(PathkernelError):
    """A forked worker process ended without sending back its results."""
