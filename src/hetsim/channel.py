"""Radio parameters of the two tiers: transmit powers, pathloss and the SIR target.

The simulator's SIR model uses them: its kernel on each tier's nearest
points with the plane beyond averaged out, and ``simulator.downlink_delay``
on one fixed geometry; the closed forms in ``analytics`` read the same
parameters.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import InvalidParameterError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RadioParams:
    power_macro: float = 20.0
    power_small: float = 2.0
    pathloss_exponent: float = 4.0
    target_sir: float = 10.0 ** 0.3  # 3 dB

    def __post_init__(self):
        for name in ("power_macro", "power_small", "target_sir"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise InvalidParameterError(f"{name} must be positive, got {value}")
        if not (self.pathloss_exponent > 2 and math.isfinite(self.pathloss_exponent)):
            raise InvalidParameterError(
                f"pathloss exponent must be finite and exceed 2, got {self.pathloss_exponent}"
            )
        if self.power_macro <= self.power_small:
            log.warning(
                "macro power %.3g W does not exceed small-cell power %.3g W; "
                "the model assumes the opposite ordering",
                self.power_macro,
                self.power_small,
            )
