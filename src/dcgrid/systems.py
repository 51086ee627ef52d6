"""Closed-loop voltage-control systems and their H2 performance.

Assembles the slack-bus, droop, and DAPI state-space models for a given
resistor network, and evaluates the squared H2 norm of each either by the
closed-form spectral expressions or by solving a Lyapunov equation on
the full system matrix (the independent oracle). The capacitance and
the gains are the same at every bus (``ControllerParams``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import network as net_mod
from . import numerics
from .errors import InvalidParams, InvalidSize, NonFiniteState
from .network import Network


@dataclass(frozen=True)
class ControllerParams:
    """Capacitance and controller gains, the same at every bus.

    ``c`` (farads), ``k_p`` (droop gain), ``k`` (integrator gain) and
    ``gamma`` (which scales the line Laplacian into the communication
    Laplacian) are each one positive finite number (see
    ``numerics.positive_real``), stored as a float; InvalidParams
    otherwise.
    """

    c: float = 1.0
    k_p: float = 0.1
    k: float = 100.0
    gamma: float = 1000.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not numerics.positive_real(value):
                raise InvalidParams(f"{f.name} must be one positive finite "
                                    f"number, got {value!r}")
            object.__setattr__(self, f.name, float(value))


@dataclass(frozen=True)
class StateSpaceModel:
    """LTI triple (A, B, H) for dx/dt = Ax + Bw, y = Hx.

    ``state_labels`` tags each state as V<i> (bus voltage) or z<i>
    (integrator); ``kind`` is slack, droop, or dapi. A must be dim x dim
    with dim >= 1, B must have dim rows and H dim columns, both 2-D, and
    there must be dim labels (else InvalidSize, decided from the shapes
    alone, which a ragged nested list lacks: ``numerics.as_array``). A,
    B and H must be real (``numerics.real_array``; each is stored as a
    float array) and A finite (else NonFiniteState: extreme gains can
    overflow it). Stability is not checked here; each route
    that needs it decides it from the eigenvalues it computes anyway.
    """

    a: np.ndarray
    b: np.ndarray
    h: np.ndarray
    state_labels: tuple[str, ...]
    kind: str

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def __post_init__(self):
        what = [f"{self.kind} model's {name}" for name in "ABH"]
        arrays = list(map(numerics.as_array, (self.a, self.b, self.h), what))
        a, b, h = (array.shape for array in arrays)
        dim = a[0] if len(a) == 2 and a[0] == a[1] else 0
        if not (dim > 0 and len(b) == len(h) == 2 and b[0] == h[1] == dim
                and len(self.state_labels) == dim):
            raise InvalidSize(
                f"{self.kind} model needs A dim x dim, B dim x m, H p x dim "
                f"and dim labels with dim >= 1, got A {a}, B {b}, H {h} and "
                f"{len(self.state_labels)} labels")
        for name, array, label in zip("abh", arrays, what):
            object.__setattr__(self, name, numerics.real_array(array, label))
        if not np.isfinite(self.a).all():
            raise NonFiniteState(
                f"{self.kind} system matrix has non-finite entries")

    def voltage_indices(self) -> list[int]:
        return [k for k, lbl in enumerate(self.state_labels)
                if lbl.startswith("V")]


# Extreme gains can overflow an entry of A to inf (or inf * 0 to nan);
# StateSpaceModel rejects such an A, so the assemblers do not warn. Each
# fills its arrays in place, entry by entry the same products as the
# block formulas in its docstring (so the same bits, signed zeros
# included), with no block temporaries.
@np.errstate(over="ignore", invalid="ignore")
def assemble_slack(net: Network, params: ControllerParams,
                   ground: int = 0) -> StateSpaceModel:
    """Grounded-slack-bus dynamics on the n-1 remaining buses:
    A = -(1/c) L_red, B = I, H = I / sqrt(n)."""
    n = net.node_count
    a = net_mod.reduced_laplacian(net_mod.laplacian(net), ground)
    a *= -(1.0 / params.c)
    b = np.eye(n - 1)
    h = np.zeros((n - 1, n - 1))
    h.flat[::n] = 1.0 / np.sqrt(n)
    labels = tuple(f"V{i}" for i in range(n) if i != ground)
    return StateSpaceModel(a, b, h, labels, "slack")


@np.errstate(over="ignore", invalid="ignore")
def assemble_droop(net: Network, params: ControllerParams) -> StateSpaceModel:
    """Decentralized proportional (droop) control on every bus:
    A = -(1/c) (L + k_P I), B = I, H = I / sqrt(n)."""
    n = net.node_count
    a = net_mod.laplacian(net)
    a.flat[::n + 1] += params.k_p
    a *= -(1.0 / params.c)
    b = np.eye(n)
    h = np.zeros((n, n))
    h.flat[::n + 1] = 1.0 / np.sqrt(n)
    return StateSpaceModel(a, b, h, tuple(f"V{i}" for i in range(n)), "droop")


@np.errstate(over="ignore", invalid="ignore")
def assemble_dapi(net: Network, params: ControllerParams) -> StateSpaceModel:
    """Droop plus distributed averaging integral control.

    States are ordered integrators first, then voltages:
    A = [[-(1/k) gamma L, (1/k) I], [-((1/c) I), -(1/c) (L + k_P I)]].
    Unit-covariance current disturbances enter the voltage dynamics only,
    so B = [0; I], zero on the integrator rows and identity on the voltage
    rows, and H = [0, I / sqrt(n)].
    """
    n = net.node_count
    lap = net_mod.laplacian(net)
    c_inv = 1.0 / params.c
    k_inv = 1.0 / params.k
    a = np.zeros((2 * n, 2 * n))
    top_left = np.multiply(lap, params.gamma, out=a[:n, :n])
    top_left *= -k_inv
    a.flat[n:2 * n * n:2 * n + 1] = k_inv  # (1/k) I, top right
    a[n:, :n] = -0.0  # -((1/c) I): its zeros are -(c_inv * 0.0)
    a.flat[2 * n * n::2 * n + 1] = -c_inv
    lap.flat[::n + 1] += params.k_p
    np.multiply(lap, -c_inv, out=a[n:, n:])
    b = np.zeros((2 * n, n))
    b.flat[n * n::n + 1] = 1.0
    h = np.zeros((n, 2 * n))
    h.flat[n::2 * n + 1] = 1.0 / np.sqrt(n)
    labels = tuple(f"{x}{i}" for x in "zV" for i in range(n))
    return StateSpaceModel(a, b, h, labels, "dapi")


# --- closed-form squared H2 norms ---
# Extreme resistances and gains can overflow a closed form, or leave it
# undefined; each raises NonFiniteState for such a value, so numpy's
# overflow warnings on the way are not shown.

@np.errstate(over="ignore", invalid="ignore")
def h2_closed_form_slack(net: Network, params: ControllerParams,
                         ground: int = 0) -> float:
    """c/(2n) tr(L_red^-1), with tr(L_red^-1) = tr(L^+) + n L^+_gg and
    tr(L^+) the sum of reciprocal nonzero Laplacian eigenvalues."""
    c = params.c
    n = net.node_count
    ground = net_mod.check_index(ground, n, "ground index")
    spec = net.spectrum
    trace = float(np.sum(1.0 / spec.values[1:]))
    return numerics.require_finite(
        c / (2 * n) * (trace + n * float(spec.pinv([ground])[0, 0])),
        "slack H2 norm")


@np.errstate(over="ignore")
def h2_closed_form_droop(net: Network, params: ControllerParams) -> float:
    c, k_p = params.c, params.k_p
    values = net.spectrum.values
    return numerics.require_finite(
        c / (2 * net.node_count) * float(np.sum(1.0 / (values + k_p))),
        "droop H2 norm")


def dapi_modal_gain(lam: np.ndarray, params: ControllerParams) -> np.ndarray:
    """Per-eigenvalue denominator of the DAPI squared-H2 expression.

    The inner fraction is divided through by gamma * lam, so no gain can
    overflow through gamma^2, and the zero mode's term (like any overflowed
    denominator) is c / inf = 0.
    """
    c, k_p, k, g = params.c, params.k_p, params.k, params.gamma
    with np.errstate(divide="ignore", over="ignore"):
        inner = c / (c * (g * lam) + k * lam + k * k_p + k / (g * lam))
    return lam + k_p + inner


@np.errstate(over="ignore")
def h2_closed_form_dapi(net: Network, params: ControllerParams) -> float:
    c = params.c
    denom = dapi_modal_gain(net.spectrum.values, params)
    return numerics.require_finite(
        c / (2 * net.node_count) * float(np.sum(1.0 / denom)),
        "DAPI H2 norm")


def h2_lyapunov(model: StateSpaceModel) -> float:
    """Squared H2 norm tr(B^T P B) via the Lyapunov equation on the full
    system matrix, O(dim^3) from its real Schur form (see
    ``numerics.solve_lyapunov``).

    Independent of the spectral closed forms (no eig_sym of L); raises
    SingularSystem when A is too close to marginal to solve reliably,
    NonFiniteState for a non-finite H (through H^T H) or value. The trace
    is the sum of B's entries times those of P B, one product.
    """
    sol = numerics.solve_lyapunov(model.a, model.h.T @ model.h)
    return numerics.require_finite(np.vdot(model.b, sol.P @ model.b),
                                   "Lyapunov H2 norm")


@dataclass(frozen=True)
class H2Report:
    """Closed-form squared H2 norms of the three controllers on one network."""

    n: int
    value_slack: float
    value_droop: float
    value_dapi: float
    method: str
    params: ControllerParams
    ground: int
    dapi_le_droop: bool
    droop_lt_slack: bool

    def as_dict(self) -> dict:
        """The report as the JSON document that ``to_json`` writes and
        ``dcgrid compare`` prints."""
        return {
            "n": self.n,
            "slack": self.value_slack,
            "droop": self.value_droop,
            "dapi": self.value_dapi,
            "method": self.method,
            "params": asdict(self.params),
            "ground": self.ground,
            "ordering_flags": {
                "dapi_le_droop": self.dapi_le_droop,
                "droop_lt_slack": self.droop_lt_slack,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def compare_controllers(net: Network, params: ControllerParams,
                        ground: int = 0) -> H2Report:
    """Evaluate all three controllers and report the observed ordering.

    The dapi <= droop inequality holds for every network and parameter
    choice; droop < slack does not (it fails e.g. for small graphs with
    small droop gain), so the report carries flags rather than asserting.
    """
    slack = h2_closed_form_slack(net, params, ground)
    droop = h2_closed_form_droop(net, params)
    dapi = h2_closed_form_dapi(net, params)
    return H2Report(
        n=net.node_count, value_slack=slack, value_droop=droop,
        value_dapi=dapi, method="closed_form", params=params, ground=ground,
        dapi_le_droop=bool(dapi <= droop), droop_lt_slack=bool(droop < slack))
