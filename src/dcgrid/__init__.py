"""H2 performance analysis of voltage controllers on DC resistor networks."""

__version__ = "0.1.0"

from .network import (  # noqa: F401
    Network,
    build_network,
    generate_hfuzz,
    generate_lattice,
    laplacian,
    load_network,
    reduced_laplacian,
)
from .numerics import solve_lyapunov  # noqa: F401
from .resistance import (  # noqa: F401
    effective_resistance,
    kirchhoff_index,
    kstar,
    rayleigh_check,
    scaling_sweep,
)
from .simulation import (  # noqa: F401
    export_trajectory,
    monte_carlo_h2,
    sample_initial,
    simulate,
    white_noise_variance,
)
from .systems import (  # noqa: F401
    ControllerParams,
    H2Report,
    StateSpaceModel,
    assemble_dapi,
    assemble_droop,
    assemble_slack,
    compare_controllers,
    h2_closed_form_dapi,
    h2_closed_form_droop,
    h2_closed_form_slack,
    h2_lyapunov,
)
