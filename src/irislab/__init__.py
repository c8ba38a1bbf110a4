"""irislab: link-level simulation and closed-form analysis of IRS-assisted
MIMO downlinks, with AF/DF relay baselines."""

__version__ = "0.1.0"

from .geometry import ChannelRealization, NetworkConfig
from .montecarlo import Estimate, TrialPlan

__all__ = [
    "__version__",
    "NetworkConfig",
    "ChannelRealization",
    "TrialPlan",
    "Estimate",
]
