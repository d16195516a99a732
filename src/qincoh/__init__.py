"""Random-unitary quantum channels, tomography artifacts, and recovery of
control-parameter distributions from superoperator eigenvalue spectra."""

from .channels import (
    RandomUnitaryChannel,
    RFProfile,
    expm_unitary,
    make_synthetic_profile,
    random_unitary,
    rf_incoherent_channel,
    rud_superoperator,
)
from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    IllConditionedError,
    NonPhysicalStateError,
    PairingError,
)
from .liouville import (
    columnize,
    cp_filter,
    superop_to_choi,
    unitary_superoperator,
)
from .nudft import (
    RecoveryGrid,
    RecoveryResult,
    SpectralSampleSet,
    forward_nudft,
    inverse_nudft,
)
from .spectral import (
    EigenPairing,
    ProfileMoments,
    build_samples,
    four_qubit_fixture,
    pair_eigenvalues,
    predict_eigenvalues,
    profile_metrics,
    three_qubit_fixture,
)
from .tomography import (
    CorrelatedInputSet,
    QPTReport,
    evolve_and_reduce,
    partial_trace_b,
    prepare_correlated_inputs,
    run_qpt_scenarios,
)

__version__ = "0.1.0"
