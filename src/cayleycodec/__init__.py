"""Directed-polymer free energies on Cayley trees and the random tree-code
ensemble that meets the distortion-rate function under symmetry."""

from .dprm import (
    BranchEnergyOracle,
    MonteCarloStats,
    TreeShape,
    ground_state,
    internal_energy,
    log_partition_function,
    monte_carlo_free_energy,
    run_trials,
    validate_walk,
    walk_from_leaf,
)
from .model import (
    DistortionMatrix,
    EnergyDistribution,
    Pmf,
    SymmetryError,
    symmetric_energy_law,
)
from .rd import RDPoint, TheoremReport, blahut_arimoto, blahut_arimoto_curve, verify_d0_equals_d
from .theory import FreeEnergyLimit, beta_c, f_limit, phi
from .treecode import (
    Bitstream,
    EncodingResult,
    TreeCode,
    decode_sequential,
    encode_beam,
    encode_exact,
    pack,
    read_bitstream,
    reproduction,
    simulate_ensemble,
    unpack,
    write_bitstream,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
