"""VM types, request records, and the default size catalog.

Sizes follow the shape of Azure's public 2019 VM trace: the size mix is
dominated by 1-4 core VMs with a thin tail of large ones, and memory is
a few GiB per core.  The paper's experiment reads exactly three things
off each VM: cores (power/packing), memory (migration bytes — §3 uses
allocated memory as the migration traffic estimate), and the
stable/degradable class (§2.3's two application categories).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..units import gib_to_bytes


class VMClass(enum.Enum):
    """The paper's two application categories (§2.3).

    STABLE VMs require cloud-like availability: when local power dips
    they must be migrated, never killed.  DEGRADABLE VMs (spot/harvest-
    like) absorb power variability: they are paused or killed in place
    and take "most of the hit" before any stable VM moves.
    """

    STABLE = "stable"
    DEGRADABLE = "degradable"


@dataclass(frozen=True)
class VMType:
    """A VM size: cores and memory.

    Attributes:
        name: SKU-like label, e.g. ``"D4"``.
        cores: Virtual cores.
        memory_gib: Memory in GiB (binary), the unit VM SKUs quote.
    """

    name: str
    cores: int
    memory_gib: float

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError(f"cores must be positive: {self.cores}")
        if self.memory_gib <= 0:
            raise ConfigurationError(
                f"memory must be positive: {self.memory_gib}"
            )

    @property
    def memory_bytes(self) -> float:
        """Memory in bytes (migration traffic is measured in bytes)."""
        return gib_to_bytes(self.memory_gib)


@dataclass(frozen=True)
class VMRequest:
    """One VM arrival in the workload trace.

    Attributes:
        vm_id: Unique id within the trace.
        arrival_step: Grid step at which the VM arrives.
        lifetime_steps: How many steps the VM runs once started (>= 1).
        vm_type: Size of the VM.
        vm_class: Stable or degradable.
    """

    vm_id: int
    arrival_step: int
    lifetime_steps: int
    vm_type: VMType
    vm_class: VMClass

    def __post_init__(self) -> None:
        if self.arrival_step < 0:
            raise ConfigurationError(
                f"negative arrival step: {self.arrival_step}"
            )
        if self.lifetime_steps < 1:
            raise ConfigurationError(
                f"lifetime must be >= 1 step: {self.lifetime_steps}"
            )

    @property
    def cores(self) -> int:
        """Convenience accessor for the VM's core count."""
        return self.vm_type.cores

    @property
    def memory_bytes(self) -> float:
        """Convenience accessor for the VM's memory footprint in bytes."""
        return self.vm_type.memory_bytes

    @property
    def departure_step(self) -> int:
        """First step at which the VM is gone (arrival + lifetime)."""
        return self.arrival_step + self.lifetime_steps


def default_vm_catalog() -> list[tuple[VMType, float]]:
    """The default (type, probability) size mix.

    Skewed toward small VMs like the public Azure trace: ~70% of VMs
    have <= 2 cores, with a thin tail up to 32 cores.  Memory is 4 GiB
    per core, the common general-purpose ratio.
    """
    return [
        (VMType("B1", 1, 4.0), 0.35),
        (VMType("B2", 2, 8.0), 0.30),
        (VMType("D4", 4, 16.0), 0.18),
        (VMType("D8", 8, 32.0), 0.10),
        (VMType("D16", 16, 64.0), 0.05),
        (VMType("D32", 32, 128.0), 0.02),
    ]


def catalog_cdf(catalog: Sequence[tuple[VMType, float]]) -> list[float]:
    """Cumulative probabilities of a (type, probability) size mix.

    ``bisect_right(cdf, rng.random())`` picks the type index that
    ``rng.choice(len(catalog), p=probabilities)`` picks, from the same
    single uniform draw: ``choice`` builds this normalized cumulative
    sum and inverts it with ``searchsorted(side="right")``.  Drawing
    through the list skips ``choice``'s per-call validation, half the
    cost of a drawn VM.
    """
    cdf = np.cumsum([p for _, p in catalog])
    cdf /= cdf[-1]
    return cdf.tolist()
