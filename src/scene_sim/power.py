"""Soft-label to transmit-energy mapping, per-device caps, the min-rho
scale negotiation, and the resolution of a round's scale, noise power and
reference slot."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import calibrate_noise
from .core import DevicePopulation, RhoRule, RoundConfig, check_scale, check_simplex, check_snr


@dataclass(frozen=True, eq=False)
class EnergyFrame:
    """Per-device, per-class transmit energies for one round, or for T rounds.

    ``energies[..., i, c]``, of shape (N, K) or (T, N, K), is the energy device
    i spends on class slot c, and ``eta[i]`` its per-repetition total in every
    round. Rows sum to eta (checked by :func:`core.check_simplex`): the
    per-round transmit energy of a device does not depend on its label.
    When the round uses a reference slot, each device sends its full eta_i
    on it alongside the K class slots.
    """

    energies: np.ndarray
    eta: np.ndarray

    def __post_init__(self) -> None:
        e = np.array(self.energies, dtype=np.float64)
        eta = np.array(self.eta, dtype=np.float64)
        if e.ndim not in (2, 3):
            raise ValueError(f"energies must be N x K or T x N x K, got shape {e.shape}")
        if eta.shape != (e.shape[-2],):
            raise ValueError("eta must have one entry per device")
        if np.any(e < 0):
            raise ValueError(f"negative transmit energy {float(e.min())!r}")
        if np.any(eta < 0):
            raise ValueError("eta entries must be >= 0")
        check_simplex(e, eta)
        e.flags.writeable = False
        eta.flags.writeable = False
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "eta", eta)

    @property
    def num_devices(self) -> int:
        return self.energies.shape[-2]

    @property
    def num_classes(self) -> int:
        return self.energies.shape[-1]


def map_energies(labels, pop: DevicePopulation, rho: float) -> EnergyFrame:
    """Map soft labels to transmit energies E[i, c] = eta_i * q[i, c] with
    eta_i = rho * omega_i / beta_assumed_i.

    ``labels`` is an array-like of shape (N, K), such as N :class:`SoftLabel`,
    or (T, N, K), with rows checked by :func:`core.check_simplex`; a (T, N, K)
    array maps to a (T, N, K) frame, one round per trial, with the same eta.
    The device-side gain estimate (beta_assumed) is used for inversion; the
    true gain only enters through the channel, so miscalibration shows up as
    a gamma_i scaling on the received side.
    """
    check_scale(rho=rho)
    q = check_simplex(labels)
    if q.ndim not in (2, 3) or q.shape[-2] != pop.num_devices:
        raise ValueError(f"labels of shape {q.shape} for {pop.num_devices} devices")
    eta = rho * pop.omegas / pop.betas_assumed
    return EnergyFrame(eta[:, None] * q, eta)


def min_rho(pop: DevicePopulation) -> float:
    """Largest common energy scale every active device can afford: the
    scale :func:`run_min_rho_protocol` negotiates.

    rho* = min_i beta_assumed_i * P_i / omega_i over devices with omega_i > 0.
    At rho*, eta_i <= P_i for all devices; any larger scale overruns the cap
    of at least one device.
    """
    return run_min_rho_protocol(pop)[0]


def resolve_round(
    base: RoundConfig, rule: RhoRule, pop: DevicePopulation, snr_db: float | None, reference: bool
) -> RoundConfig:
    """``base`` with rho set by ``rule`` (``base.rho`` itself, or
    :func:`min_rho`), the noise power calibrated to ``snr_db`` (None is
    noise-free), and the reference slot on or off."""
    rho = base.rho if rule is RhoRule.FIXED else min_rho(pop)
    noise = 0.0 if snr_db is None else calibrate_noise(rho, base.num_classes, snr_db)
    return replace(base, rho=rho, noise_var=noise, use_reference_re=reference)


def check_noise(rule: RhoRule, rho: float, k: int, **snrs: float) -> None:
    """:func:`core.check_snr`, and under ``rule`` 'fixed' the noise power each
    SNR sets at ``rho`` with ``k`` classes, the one :func:`resolve_round` will
    calibrate (under min_rho it depends on the drawn gains)."""
    check_snr(**snrs)
    for snr_db in snrs.values() if rule is RhoRule.FIXED else ():
        calibrate_noise(rho, k, snr_db)


@dataclass(frozen=True)
class RhoReport:
    """One uplink control scalar: a device's local feasible scale."""

    device: int
    rho_local: float


def run_min_rho_protocol(pop: DevicePopulation) -> tuple[float, list[RhoReport]]:
    """Simulate the scale negotiation round.

    Each active device computes its local feasible scale and reports a single
    scalar; the server takes the minimum and broadcasts it. The transcript
    holds exactly one report per active device, so the control overhead is
    N uplink scalars plus one broadcast.
    """
    active = np.flatnonzero(pop.omegas > 0)  # nonempty: the weights sum to one
    rho_i = pop.betas_assumed[active] * pop.power_caps[active] / pop.omegas[active]
    transcript = [RhoReport(int(i), float(r)) for i, r in zip(active, rho_i)]
    return float(rho_i.min()), transcript
