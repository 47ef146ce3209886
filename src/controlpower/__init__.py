"""Shareholder control-power analytics: exact voting-power computation,
probability-evolution models, curve fitting, and a registry pipeline."""

__version__ = "0.1.0"

from .power_index import (  # noqa: E402,F401
    PowerProfile,
    WeightedVotingGame,
    make_game,
    profile_numerators,
    spi_dp,
    spi_permutation_oracle,
    spi_subset,
    top_holder_numerators,
)
from .evolution import (  # noqa: E402,F401
    ControlPowerPdf,
    OscillationModel,
    WaveParams,
    collapse_walk,
    ideal_wave,
    oscillation_curves,
    pdf_eval,
    pdf_sample,
    ratio_sequence,
    wave_equation_residual,
    wave_eval,
    wave_extrema,
)
from .fitting import (  # noqa: E402,F401
    CorrelationResult,
    FourierFit,
    NormalFit,
    TimeSeries,
    fit_fourier1,
    fit_normal,
    fourier_extrema,
    p_from_r,
    pearson,
    regularized_incomplete_beta,
)
from .dataset import (  # noqa: E402,F401
    DataError,
    GroupKey,
    MomentTarget,
    Registry,
    SynthConfig,
    emit_csv,
    ingest_csv,
    synth_outcomes,
    synth_registry,
)
from .pipeline import (  # noqa: E402,F401
    Diagnostics,
    GroupReport,
    PipelineConfig,
    Report,
    YearStats,
    build_report,
    emit_report,
    run_pipeline,
)
