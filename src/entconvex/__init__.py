"""Entropy convexity of superpositions of degenerate bipartite eigenstates.

Core machinery lives in :mod:`entconvex.spectra` (spectra, entropies) and
:mod:`entconvex.criterion` (not-shared entropy, convexity criterion, the
randomized projector probe).  Four model systems provide degenerate
pairs: coupled angular momenta (:mod:`entconvex.angular`), two harmonic
oscillators (:mod:`entconvex.oscillator`), two electrons on a sphere
(:mod:`entconvex.spherium`) and Laguerre-Gaussian photon modes
(:mod:`entconvex.lgmodes`); each supplies only the amplitude matrices of
its two states.  :mod:`entconvex.sweep` packages them as a
:class:`PairSpec`, whose single trace-out feeds the criterion and whose
amplitude blocks feed the alpha curves and their chord-convexity labels;
:mod:`entconvex.benchmarks` holds the embedded reference tables;
:mod:`entconvex.cli` is the console entry.
"""

from .criterion import (
    CriterionReport,
    ProbeRecord,
    evaluate_criterion,
    not_shared_entropy,
    random_projector_probe,
    refine_blocks_by_sector,
)
from .spectra import (
    CoefficientTensor,
    HermitianMatrix,
    Spectrum,
    eigendecompose,
    reduce_pure_state,
    relative_entropy,
    von_neumann_entropy,
)
from .sweep import (
    AgreementRecord,
    ConvexityLabel,
    EntropyCurve,
    PairSpec,
    angular_pair,
    classify_convexity,
    criterion_vs_observation,
    entropy_curve,
    lg_pair,
    oscillator_pair,
    pair_criterion,
    spherium_pair,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementRecord",
    "CoefficientTensor",
    "ConvexityLabel",
    "CriterionReport",
    "EntropyCurve",
    "HermitianMatrix",
    "PairSpec",
    "ProbeRecord",
    "Spectrum",
    "angular_pair",
    "classify_convexity",
    "criterion_vs_observation",
    "eigendecompose",
    "entropy_curve",
    "evaluate_criterion",
    "lg_pair",
    "not_shared_entropy",
    "oscillator_pair",
    "pair_criterion",
    "random_projector_probe",
    "reduce_pure_state",
    "refine_blocks_by_sector",
    "relative_entropy",
    "spherium_pair",
    "von_neumann_entropy",
    "__version__",
]
