"""Scenario presets: warden counts, per-warden noise variances and
channel heterogeneity for the three studied deployments."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig
from .numerics import DomainError


@dataclass(frozen=True)
class ScenarioPreset:
    """One multi-warden deployment.

    warden_sigma2 lists the per-warden noise variances (length K).
    correlated_wardens draws warden taps from a shared latent mixed with
    coefficient warden_mix, modeling closely spaced wardens.
    """

    name: str
    warden_sigma2: tuple[float, ...]
    rho: float = 0.5
    n_taps: int = 4
    correlated_wardens: bool = False
    warden_mix: float = 0.7

    def __post_init__(self):
        if len(self.warden_sigma2) < 1:
            raise DomainError("a scenario needs at least one warden")
        if not all(v > 0 for v in self.warden_sigma2):
            raise DomainError("warden noise variances must be > 0")
        if not (0.0 <= self.warden_mix <= 1.0):
            raise DomainError(f"warden_mix must be in [0,1], got {self.warden_mix}")
        self.bob_config()  # ChannelConfig checks n_taps and rho

    @property
    def k(self) -> int:
        return len(self.warden_sigma2)

    def warden_config(self, i: int) -> ChannelConfig:
        return ChannelConfig(n_taps=self.n_taps, rho=self.rho,
                             noise_variance=self.warden_sigma2[i])

    def bob_config(self) -> ChannelConfig:
        """Bob's channel; its noise variance is set per run from the SNR."""
        return ChannelConfig(n_taps=self.n_taps, rho=self.rho)

    def averaged(self) -> "ScenarioPreset":
        """Collapse all wardens into one mean warden (single-discriminator baseline)."""
        mean_sigma2 = float(np.mean(self.warden_sigma2))
        return replace(self, name=self.name + "-averaged",
                       warden_sigma2=(mean_sigma2,), correlated_wardens=False)


# The urban sigma2 spread is a declared choice (the source gives only
# "distinct sigma_i^2"); military pins one advanced warden at 0.05.
PRESETS: dict[str, ScenarioPreset] = {
    "urban": ScenarioPreset("urban", warden_sigma2=(0.5, 1.0, 2.0)),
    "military": ScenarioPreset("military", warden_sigma2=(0.05, 1.0, 1.0, 1.0)),
    "6g-dense": ScenarioPreset("6g-dense", warden_sigma2=(1.0,) * 5,
                               correlated_wardens=True, warden_mix=0.7),
}


def get_preset(name: str) -> ScenarioPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown scenario {name!r}; valid: {sorted(PRESETS)}") from None


def make_scenario(k: int, sigma2: list[float] | None = None, **kwargs) -> ScenarioPreset:
    """Build a custom scenario; homogeneous unit-variance wardens by default."""
    if sigma2 is None:
        sigma2 = [1.0] * k
    if len(sigma2) != k:
        raise DomainError(f"need {k} noise variances, got {len(sigma2)}")
    return ScenarioPreset("custom", warden_sigma2=tuple(sigma2), **kwargs)
