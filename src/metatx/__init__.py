"""Desk-scale simulator of a reflective-metasurface superheterodyne transmitter.

The surface reflects an unmodulated carrier while its per-element reflection
magnitudes carry the information waveform and its phases steer the beam.
Modules: ``geometry`` (directions, steering, transforms), ``reflection``
(unit/array scattering), ``channel`` (multipath synthesis), ``modem``
(QAM/IF chain), ``mixer`` (diode nonlinearity and calibration), ``precoder``
(phase optimization), ``simulator`` (end-to-end experiments), ``sensing``
(Doppler-signature synthesis), ``cli`` (command-line front end).
"""

__version__ = "0.1.0"

from .geometry import (
    ArrayGeometry,
    Direction,
    DirectionGrid,
    FieldTransform,
    hemisphere_grid,
    phase_difference_matrix,
    steering_factors,
    steering_vector,
    transform_matrix,
    unit_vector,
)
from .reflection import (
    ElementPattern,
    SurfaceConfig,
    UnitReflection,
    array_scatter,
    beampattern,
    read_magnitude_series,
    unit_scatter,
    write_magnitude_series,
)
from .channel import (
    EffectiveChannels,
    PathComponent,
    TerminalArray,
    add_noise,
    channel_surface_to_rx,
    channel_tx_to_surface,
    effective_channels,
)
from .modem import (
    IFParams,
    IFWaveform,
    PulseShape,
    QamConstellation,
    ber,
    ddc,
    duc,
    evm_db,
    qam_demap,
    qam_map,
    quantize,
    rate_params,
)
from .mixer import (
    DiodeModel,
    MagnitudeCurve,
    calibrate_predistortion,
    diode_current,
    distortion_metrics,
    mix,
    reflect_magnitude,
)
from .precoder import (
    PhaseSolution,
    TwoStreamChannels,
    alternating_optimize,
    closed_form_phases,
    exhaustive_phase_oracle,
    quantize_phases,
    retract,
    riemannian_project,
    sum_sinr,
)
from .sensing import (
    RotorSpec,
    Spectrogram,
    doppler_signature,
    istft_synthesize,
    signature_fidelity,
    stft,
)
from .simulator import (
    ScenarioConfig,
    SweepResult,
    ber_sweep,
    build_link,
    default_scenario,
    diversity_sweep,
    doppler_spoof_experiment,
    isotropy_check,
    simulate_rx,
    two_stream_experiment,
)
