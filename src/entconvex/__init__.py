"""Entropy convexity of superpositions of degenerate bipartite eigenstates.

The package is one pipeline.  Four model systems provide degenerate
pairs: coupled angular momenta (:mod:`entconvex.angular`), two harmonic
oscillators (:mod:`entconvex.oscillator`), two electrons on a sphere
(:mod:`entconvex.spherium`) and Laguerre-Gaussian photon modes
(:mod:`entconvex.lgmodes`); each supplies only the amplitude matrices of
its two states.  :mod:`entconvex.sweep` packages them as a
:class:`PairSpec`; for a mirror pair, whose second state is the image of
the first under a local symmetry that sends M to -M, the factory builds
the second from the first.  One trace-out per pair,
:func:`entconvex.spectra.gram_blocks`, forms the reduced-density terms
per amplitude block, and the blocks of the pair's sector operator, whose
linked rows share a block.  The criterion eigen-solves the reference
density block by block, rotates its degenerate eigenvectors into the
operator's sectors, solves the partner (not for a mirror pair) and reads
S, S_NS and Q_c, in bits, off the spectra (:mod:`entconvex.criterion`);
the alpha curve takes the eigenvalues of every grid point (a mirror
pair's alpha <= 1/2 half) from the same terms and labels its chord
convexity; both take entropies from :func:`entconvex.spectra.entropy_bits`.
Only the projector probe reads dense densities, ``PairSpec.builder``'s
endpoints.  :mod:`entconvex.benchmarks` holds the reference tables;
:mod:`entconvex.cli` is the console entry.  The slow references the
tests compare against, the dense density of a superposition among them,
live in ``tests/oracles.py``, outside the package.
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
    "refine_blocks_by_sector",
    "spherium_pair",
    "von_neumann_entropy",
    "__version__",
]
