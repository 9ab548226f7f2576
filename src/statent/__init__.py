"""statent: exact mixed-state entanglement of strongly-symmetric stationary states."""

from .commutants import (
    CommutantSpec,
    Family,
    Inadmissible,
    IrrepRecord,
    ParityError,
    commutant_dimension,
    enumerate_sectors,
    pf_sector_dimension,
    singlet_dimension,
)
from .entanglement import (
    EntanglementReport,
    compute_report,
    generalized_renyi,
    log_negativity,
    operator_space_entanglement,
    renyi_negativity,
    upper_bounds,
)
from .exactnum import LogReal, binomial

__all__ = [
    "CommutantSpec",
    "Family",
    "Inadmissible",
    "IrrepRecord",
    "ParityError",
    "commutant_dimension",
    "enumerate_sectors",
    "pf_sector_dimension",
    "singlet_dimension",
    "EntanglementReport",
    "compute_report",
    "generalized_renyi",
    "log_negativity",
    "operator_space_entanglement",
    "renyi_negativity",
    "upper_bounds",
    "LogReal",
    "binomial",
]

__version__ = "0.1.0"
