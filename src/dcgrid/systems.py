"""Closed-loop voltage-control systems and their H2 performance.

Assembles the slack-bus, droop, and DAPI state-space models for a given
resistor network, and evaluates the squared H2 norm of each either by the
closed-form spectral expressions (uniform parameters) or by solving a
Lyapunov equation on the full system matrix (the independent oracle,
which also handles heterogeneous per-node parameters).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import network as net_mod
from . import numerics
from .errors import IndexOutOfRange, NonFiniteState, NonUniformParams
from .network import Network


@dataclass(frozen=True)
class ControllerParams:
    """Capacitances and controller gains.

    ``c`` (farads), ``k_p`` (droop gain), and ``k`` (integrator gain) may
    each be a scalar or a per-node sequence; ``gamma`` scales the line
    Laplacian into the communication Laplacian and is always scalar.
    """

    c: float | tuple = 1.0
    k_p: float | tuple = 0.1
    k: float | tuple = 100.0
    gamma: float = 1000.0

    def __post_init__(self):
        for name in ("c", "k_p", "k"):
            value = getattr(self, name)
            if np.isscalar(value):
                if not 0 < value < np.inf:
                    raise ValueError(
                        f"{name} must be positive and finite, got {value}")
            else:
                arr = np.asarray(value, dtype=float)
                if not np.all((arr > 0) & (arr < np.inf)):
                    raise ValueError(
                        f"all entries of {name} must be positive and finite")
                object.__setattr__(self, name, tuple(arr))
        if not 0 < self.gamma < np.inf:
            raise ValueError(
                f"gamma must be positive and finite, got {self.gamma}")

    def per_node(self, name: str, n: int) -> np.ndarray:
        value = getattr(self, name)
        if np.isscalar(value):
            return np.full(n, float(value))
        arr = np.asarray(value, dtype=float)
        if arr.shape != (n,):
            raise ValueError(f"{name} has length {arr.size}, expected {n}")
        return arr

    def uniform(self, name: str) -> float:
        """Scalar value of a parameter; rejects heterogeneous settings."""
        value = getattr(self, name)
        if np.isscalar(value):
            return float(value)
        arr = np.asarray(value, dtype=float)
        if np.ptp(arr) != 0.0:
            raise NonUniformParams(
                f"closed-form evaluation requires uniform {name}")
        return float(arr[0])

    def to_dict(self) -> dict:
        def plain(v):
            return float(v) if np.isscalar(v) else list(v)
        return {"c": plain(self.c), "k_p": plain(self.k_p),
                "k": plain(self.k), "gamma": float(self.gamma)}


@dataclass(frozen=True)
class StateSpaceModel:
    """LTI triple (A, B, H) for dx/dt = Ax + Bw, y = Hx.

    ``state_labels`` tags each state as V<i> (bus voltage) or z<i>
    (integrator); ``kind`` is slack, droop, or dapi. A must be finite
    (else NonFiniteState: extreme gains can overflow it). Stability is not
    checked here; each route that needs it decides it from the
    eigenvalues it computes anyway.
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
        if not np.isfinite(self.a).all():
            raise NonFiniteState(
                f"{self.kind} system matrix has non-finite entries")

    def voltage_indices(self) -> list[int]:
        return [k for k, lbl in enumerate(self.state_labels)
                if lbl.startswith("V")]


# Extreme gains can overflow an entry of A to inf (or inf * 0 to nan);
# StateSpaceModel rejects such an A, so the assemblers do not warn.
@np.errstate(over="ignore", invalid="ignore")
def assemble_slack(net: Network, params: ControllerParams,
                   ground: int = 0) -> StateSpaceModel:
    """Grounded-slack-bus dynamics on the n-1 remaining buses."""
    n = net.node_count
    lap_red = net_mod.reduced_laplacian(net_mod.laplacian(net), ground)
    keep = [i for i in range(n) if i != ground]
    c_inv = 1.0 / params.per_node("c", n)[keep]
    a = -c_inv[:, None] * lap_red
    b = np.eye(n - 1)
    h = np.eye(n - 1) / np.sqrt(n)
    return StateSpaceModel(a, b, h, tuple(f"V{i}" for i in keep), "slack")


@np.errstate(over="ignore", invalid="ignore")
def assemble_droop(net: Network, params: ControllerParams) -> StateSpaceModel:
    """Decentralized proportional (droop) control on every bus."""
    n = net.node_count
    lap = net_mod.laplacian(net)
    c_inv = 1.0 / params.per_node("c", n)
    kp = params.per_node("k_p", n)
    a = -c_inv[:, None] * (lap + np.diag(kp))
    b = np.eye(n)
    h = np.eye(n) / np.sqrt(n)
    return StateSpaceModel(a, b, h, tuple(f"V{i}" for i in range(n)), "droop")


@np.errstate(over="ignore", invalid="ignore")
def assemble_dapi(net: Network, params: ControllerParams) -> StateSpaceModel:
    """Droop plus distributed averaging integral control.

    States are ordered integrators first, then voltages. Unit-covariance
    current disturbances enter the voltage dynamics only, so B is zero on
    the integrator rows and identity on the voltage rows.
    """
    n = net.node_count
    lap = net_mod.laplacian(net)
    lap_q = params.gamma * lap
    c_inv = 1.0 / params.per_node("c", n)
    k_inv = 1.0 / params.per_node("k", n)
    kp = params.per_node("k_p", n)
    eye = np.eye(n)
    a = np.block([
        [-k_inv[:, None] * lap_q, np.diag(k_inv)],
        [-np.diag(c_inv), -c_inv[:, None] * (lap + np.diag(kp))],
    ])
    b = np.vstack([np.zeros((n, n)), np.eye(n)])
    h = np.hstack([np.zeros((n, n)), eye / np.sqrt(n)])
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
    c = params.uniform("c")
    n = net.node_count
    if not 0 <= ground < n:
        raise IndexOutOfRange(f"ground index {ground} outside [0,{n})")
    spec = net.spectrum
    trace = float(np.sum(1.0 / spec.values[1:]))
    return numerics.require_finite(
        c / (2 * n) * (trace + n * float(spec.pinv([ground])[0, 0])),
        "slack H2 norm")


@np.errstate(over="ignore")
def h2_closed_form_droop(net: Network, params: ControllerParams) -> float:
    c = params.uniform("c")
    k_p = params.uniform("k_p")
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
    c = params.uniform("c")
    k_p = params.uniform("k_p")
    k = params.uniform("k")
    g = params.gamma
    with np.errstate(divide="ignore", over="ignore"):
        inner = c / (c * (g * lam) + k * lam + k * k_p + k / (g * lam))
    return lam + k_p + inner


@np.errstate(over="ignore")
def h2_closed_form_dapi(net: Network, params: ControllerParams) -> float:
    c = params.uniform("c")
    denom = dapi_modal_gain(net.spectrum.values, params)
    return numerics.require_finite(
        c / (2 * net.node_count) * float(np.sum(1.0 / denom)),
        "DAPI H2 norm")


def h2_lyapunov(model: StateSpaceModel) -> float:
    """Squared H2 norm tr(B^T P B) via the Lyapunov equation on the full
    system matrix, O(dim^3) from its real Schur form.

    Independent of the spectral closed forms (no eig_sym of L); raises
    SingularSystem when A is too close to marginal to solve reliably.
    """
    sol = numerics.solve_lyapunov(model.a, model.h.T @ model.h)
    return float(np.trace(model.b.T @ sol.P @ model.b))


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

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "slack": self.value_slack,
            "droop": self.value_droop,
            "dapi": self.value_dapi,
            "method": self.method,
            "params": self.params.to_dict(),
            "ground": self.ground,
            "ordering_flags": {
                "dapi_le_droop": self.dapi_le_droop,
                "droop_lt_slack": self.droop_lt_slack,
            },
        }, indent=2, sort_keys=True)


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
