"""Exception hierarchy shared by all dcgrid modules."""


class DCGridError(Exception):
    """Base class for all errors raised by this package."""


# --- network construction ---

class InvalidEdge(DCGridError):
    """Self-loop, duplicate or absent edge, a resistance that is not
    positive and finite or whose node's conductance sum, doubled,
    overflows, or a malformed network description (a non-integer index or
    node count, a missing key, a malformed file)."""


class IndexOutOfRange(DCGridError):
    pass


class DisconnectedGraph(DCGridError):
    """The edge list does not connect all declared nodes (also after an
    edge is removed), or a Laplacian has more than one (numerically) zero
    eigenvalue."""


class InvalidDimension(DCGridError):
    """Lattice dimension outside {1, 2, 3}."""


class InvalidSize(DCGridError):
    """Lattice side length below 2, or a network too large for a dense
    n x n matrix (see ``network.DENSE_MAX_NODES``)."""


class InvalidFuzzRadius(DCGridError):
    """Fuzz radius h must be >= 1."""


# --- numerics ---

class NotHurwitz(DCGridError):
    """System matrix has an eigenvalue with non-negative real part."""


class SingularSystem(DCGridError):
    """The Lyapunov equation is (numerically) singular: an eigenvalue pair
    of A sums to about zero, so its solve would need a perturbation. Or
    the covariance one white-noise step adds is not numerically positive
    definite, so it has no Cholesky factor."""


# --- systems ---

class NonUniformParams(DCGridError):
    """Closed-form evaluators require uniform per-node parameters."""


# --- resistance ---

class SameNode(DCGridError):
    pass


class RayleighViolation(DCGridError):
    """An effective resistance decreased after an edge was removed or its
    resistance raised."""


# --- simulation ---

class StepTooLarge(DCGridError):
    """The time grid cannot be laid out: A sets no finite step, the
    horizon is not positive and finite, too short for the steps it must
    hold or too long to count them, or fewer than one row is asked for."""


class NonFiniteState(DCGridError):
    """A system matrix, a trajectory or a computed result (an H2 norm, a
    resistance index, a sweep's fit) holds non-finite values: it
    overflowed, or it is undefined."""
