"""Desk-scale simulator of a reflective-metasurface superheterodyne transmitter.

The surface reflects an unmodulated carrier while one magnitude drive, shared
by every element, carries the information waveform and a phase per element
steers the beam. Modules: ``geometry`` (directions, steering, the field
transform), ``reflection`` (the per-element phases and the shared magnitude
drive), ``channel`` (multipath synthesis, folded into element-domain
channels), ``modem`` (QAM/IF chain), ``mixer`` (diode nonlinearity and
calibration), ``precoder`` (phase optimization), ``simulator`` (end-to-end
experiments), ``sensing`` (Doppler-signature synthesis), ``cli``
(command-line front end).
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
    transform_matrix,
    unit_vector,
)
from .reflection import SurfaceConfig
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
    rate_params,
)
from .mixer import (
    DiodeModel,
    MagnitudeCurve,
    calibrate_predistortion,
    diode_current,
    mix,
    reflect_magnitude,
)
from .precoder import (
    PhaseSolution,
    TwoStreamChannels,
    alternating_optimize,
    closed_form_phases,
    exhaustive_phase_oracle,
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
