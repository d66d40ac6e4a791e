"""koopeq: decide whether iterative algorithms are equivalent by comparing
the Koopman spectra estimated from their trajectories."""

from .compare import (DecompositionSettings, SpectrumComparison, SweepResult,
                      Verdict, classify, directed_hausdorff, sweep,
                      wasserstein_distance)
from .corpus import (AlgorithmId, ConjugacyKind, ConjugacyMap, IterativeMap,
                     conjugacy_map, custom_map, make_algorithm,
                     verify_commutation)
from .oracles import (Oracle, OracleKind, grad_negcos, grad_quadratic, prox_l2,
                      prox_neglogdet, sym_flatten, sym_unflatten)
from .spectral import (Dictionary, DictionaryKind, KoopmanSpectrum, RankPolicy,
                       dmd, edmd, principal_eigenvalues, reconstruct)
from .trajectory import (Centering, RunConfig, SnapshotPair, Trajectory,
                         TrajectoryStatus, iterate, iterate_many, multi_snapshots,
                         snapshots)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmId", "Centering", "ConjugacyKind", "ConjugacyMap",
    "DecompositionSettings", "Dictionary", "DictionaryKind", "IterativeMap",
    "KoopmanSpectrum", "Oracle", "OracleKind", "RankPolicy", "RunConfig",
    "SnapshotPair", "SpectrumComparison", "SweepResult", "Trajectory",
    "TrajectoryStatus", "Verdict", "classify", "conjugacy_map", "custom_map",
    "directed_hausdorff", "dmd", "edmd", "grad_negcos", "grad_quadratic",
    "iterate", "iterate_many", "make_algorithm", "multi_snapshots",
    "principal_eigenvalues", "prox_l2", "prox_neglogdet", "reconstruct",
    "snapshots", "sweep", "sym_flatten", "sym_unflatten", "verify_commutation",
    "wasserstein_distance",
]
