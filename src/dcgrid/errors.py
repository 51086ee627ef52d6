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
    """A node, ground or bus index that is not an integer in range (also a
    list of export buses that is not a sequence), or a random seed that
    is not an integer in [0, 2^64)."""


class DisconnectedGraph(DCGridError):
    """The edge list does not connect all declared nodes (also after an
    edge is removed), or a Laplacian has more than one (numerically) zero
    eigenvalue."""


class InvalidSize(DCGridError):
    """A size, count or dimension that is not an integer in its range
    (``numerics.integer_in``), an unknown sweep family, a network too
    large for a dense n x n matrix (see ``network.DENSE_MAX_NODES``) or a
    lattice whose edge and spectrum arrays pass the same memory budget, a
    Monte Carlo sample count past it, an array that numpy cannot form (a
    ragged nested list, ``numerics.as_array``), an initial state whose
    length is not the model's state dimension, a state-space model whose
    A is not dim x dim with dim >= 1 or whose B rows, H columns or labels
    are not dim in number, a Lyapunov equation whose A and Q are not one
    n x n shape with n >= 1, a Laplacian to ground that is not a square
    2-D array, or a time horizon that is not one positive finite number,
    holds less than one step, has no finite step count (so also when A's
    row-sum bound overflows and its default step is 0) or passes the
    white-noise step budget, or a step whose product with its matrix's
    norm bound overflows, so that it has no finite count of halvings
    either."""


# --- numerics ---

class NotHurwitz(DCGridError):
    """System matrix has an eigenvalue with non-negative real part, seen
    by the Lyapunov solve's Schur form or ``slowest_time_constant``. Monte
    Carlo's Gramian raises it when A is singular in working precision (a
    zero A among them, refused by the same test), when A^-1 overflows,
    when A has an eigenvalue at one of its trapezoid cycle's shifts, and
    when the powers of the cycle's Phi overflow or show no decay within
    ``simulation.MAX_DOUBLINGS``, so also for a decay rate below about
    2^-52 times the cycle's smallest shift, lost to rounding."""


class SingularSystem(DCGridError):
    """The Lyapunov equation is (numerically) singular: an eigenvalue pair
    of A sums to about zero, so its solve would need a perturbation. Or
    the covariance one white-noise step adds is not numerically positive
    definite, so it has no Cholesky factor. Or LAPACK's gees, the
    Lyapunov solve's Schur form, returns info from 1 to n: its QR
    iteration found no Schur form of A."""


# --- systems ---

class InvalidParams(DCGridError):
    """A capacitance or controller gain that is not one positive finite
    number."""


# --- resistance ---

class RayleighViolation(DCGridError):
    """An effective resistance decreased after an edge was removed or its
    resistance raised."""


# --- simulation ---

class NonFiniteState(DCGridError):
    """A system matrix, a Lyapunov equation's A or Q, a trajectory or a
    computed result (an H2 norm, a resistance index, a sweep's fit) holds
    non-finite values: it overflowed, or it is undefined. Also any array
    that is not real (``numerics.real_array``): a state-space model's A,
    B or H, a Lyapunov equation's A or Q or an initial state whose dtype
    is complex, a string or an object is refused, not truncated to its
    real part or parsed."""
