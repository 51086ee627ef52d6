"""Exception hierarchy shared by all dcgrid modules."""


class DCGridError(Exception):
    """Base class for all errors raised by this package."""


# --- network construction ---

class InvalidEdge(DCGridError):
    """Self-loop, duplicate or absent edge, or a resistance that is not
    positive and finite."""


class IndexOutOfRange(DCGridError):
    pass


class DisconnectedGraph(DCGridError):
    """The edge list does not connect all declared nodes, or a Laplacian
    has more than one (numerically) zero eigenvalue."""


class InvalidDimension(DCGridError):
    """Lattice dimension outside {1, 2, 3}."""


class InvalidSize(DCGridError):
    """Lattice side length below 2."""


class InvalidFuzzRadius(DCGridError):
    """Fuzz radius h must be >= 1."""


# --- numerics ---

class NotSymmetric(DCGridError):
    pass


class NoConvergence(DCGridError):
    """Eigensolver failed to converge."""


class NotHurwitz(DCGridError):
    """System matrix has an eigenvalue with non-negative real part."""


class SingularSystem(DCGridError):
    """Linear solve inside the Lyapunov equation failed."""


# --- systems ---

class NonUniformParams(DCGridError):
    """Closed-form evaluators require uniform per-node parameters."""


class DimensionCap(DCGridError):
    """State dimension exceeds the Lyapunov oracle cap."""


# --- resistance ---

class SameNode(DCGridError):
    pass


class DisconnectsGraph(DCGridError):
    """Removing this edge would disconnect the graph."""


class RayleighViolation(DCGridError):
    """An effective resistance decreased after an edge was removed or its
    resistance raised."""


# --- simulation ---

class StepTooLarge(DCGridError):
    """Time step or horizon is not positive and finite, or the horizon is
    too short for the steps it must hold."""


class NonFiniteState(DCGridError):
    """Trajectory overflowed to non-finite values."""


class TruncationNotConverged(DCGridError):
    """Monte Carlo horizon hit T_max with the trajectory tail still large."""
