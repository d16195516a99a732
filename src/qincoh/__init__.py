"""Random-unitary quantum channels, tomography artifacts, and recovery of
control-parameter distributions from superoperator eigenvalue spectra."""

from .channels import (
    RFProfile,
    expm_unitary,
    make_synthetic_profile,
    profile_from_csv,
    profile_to_csv,
    random_rud_ensemble,
    random_unitary,
    rf_incoherent_channel,
    rud_superoperator,
)
from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    IllConditionedError,
    NonPhysicalStateError,
    NotCompletelyPositiveError,
    PairingError,
)
from .liouville import (
    choi_to_kraus,
    choi_to_superop,
    columnize,
    cp_filter,
    eig_hermitian,
    is_cp,
    kraus_to_superop,
    superop_to_choi,
    uncolumnize,
    unitary_superoperator,
)
from .nudft import (
    DEFAULT_GRID,
    RecoveryGrid,
    RecoveryResult,
    forward_nudft,
    inverse_nudft,
    voronoi_weights,
)
from .spectral import (
    EigenBasis,
    EigenPairing,
    ProfileMoments,
    SpectralSampleSet,
    build_samples,
    eigenbasis,
    four_qubit_fixture,
    pair_eigenvalues,
    predict_eigenvalues,
    profile_metrics,
    three_qubit_fixture,
)
from .tomography import (
    CorrelatedInputSet,
    QPTReport,
    environment_kraus_operators,
    evolve_and_reduce,
    partial_trace_b,
    prepare_correlated_inputs,
    qpt_solve,
    run_qpt_scenarios,
)

__version__ = "0.1.0"
