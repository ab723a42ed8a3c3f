"""Entropy convexity of superpositions of degenerate bipartite eigenstates.

The package is one pipeline.  Four model systems provide degenerate
pairs: coupled angular momenta (:mod:`entconvex.angular`), two harmonic
oscillators (:mod:`entconvex.oscillator`), two electrons on a sphere
(:mod:`entconvex.spherium`) and Laguerre-Gaussian photon modes
(:mod:`entconvex.lgmodes`); each supplies only the amplitude matrices of
its two states.  :mod:`entconvex.sweep` packages them as a
:class:`PairSpec`.  One trace-out per pair,
:func:`entconvex.spectra.gram_blocks`, forms the reduced-density terms
per amplitude block.  The criterion eigen-solves the two endpoint
densities from them block by block and turns the spectra into the
entropies, in bits, the not-shared entropy and Q_c (:mod:`entconvex.criterion`);
the alpha curve takes the eigenvalues of every grid point from the same
terms and labels its chord convexity.  The randomized projector probe
works on the dense endpoint densities of ``PairSpec.builder``.
:mod:`entconvex.benchmarks` holds the embedded reference tables;
:mod:`entconvex.cli` is the console entry.  The slow reference
implementations and analytic checks that the tests compare against live
in ``tests/oracles.py``, outside the package.
"""

from .criterion import (
    CriterionReport,
    ProbeRecord,
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
