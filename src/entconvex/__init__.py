"""Entropy convexity of superpositions of degenerate bipartite eigenstates.

The package is one pipeline.  Four model systems provide degenerate
pairs: coupled angular momenta (:mod:`entconvex.angular`), two harmonic
oscillators (:mod:`entconvex.oscillator`), two electrons on a sphere
(:mod:`entconvex.spherium`) and Laguerre-Gaussian photon modes
(:mod:`entconvex.lgmodes`); each supplies only the amplitude matrices of
its two states.  :mod:`entconvex.sweep` packages them as a
:class:`PairSpec`.  Its single trace-out gives the endpoint densities,
whose one eigen-solve each (:mod:`entconvex.spectra`) feeds the entropies,
the not-shared entropy and Q_c (:mod:`entconvex.criterion`, which also
holds the randomized projector probe); its amplitude blocks feed the
alpha curves and their chord-convexity labels.
:mod:`entconvex.benchmarks` holds the embedded reference tables;
:mod:`entconvex.cli` is the console entry.  The slow reference
implementations and analytic checks that the tests compare against live
in ``tests/oracles.py``, outside the package.
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
    HermitianMatrix,
    Spectrum,
    eigendecompose,
    reduce_pure_state,
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
    "spherium_pair",
    "von_neumann_entropy",
    "__version__",
]
