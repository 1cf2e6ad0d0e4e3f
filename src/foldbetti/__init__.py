"""Exact Betti numbers of ideals generated by fold products of linear forms.

The public surface: build a :class:`~foldbetti.forms.FormCollection` from raw
forms (:func:`~foldbetti.forms.normalize` builds the same), then ask
:func:`~foldbetti.betti.compute_betti` for a table, or go through the CLI.
"""

from .betti import (
    BettiTable,
    betti_cm_generic,
    betti_from_b1_height_km1,
    betti_height1_reduce,
    betti_maximal_power,
    betti_nminus1,
    betti_rank2,
    betti_recursion,
    betti_tutte,
    compute_betti,
    herzog_kuhl_residuals,
)
from .forms import (
    FormCollection,
    contract,
    delete,
    essentialize,
    normalize,
)
from .matroid import (
    HammingWeights,
    TuttePoly,
    hamming_weights,
    height_of_fold_ideal,
    subset_rank,
    tutte_polynomial,
    tutte_shifted_coeffs,
)
from .oracle import (
    HFReport,
    OracleLimitError,
    RelationSpace,
    b1_via_circuits,
    betti_from_hilbert,
    fold_generators,
    hilbert_function,
    relation_space,
)

__version__ = "0.1.0"
