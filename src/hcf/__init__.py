"""Harmonic comb-filter speech enhancement at 48 kHz.

A pitch-adaptive comb filter attenuates noise between speech harmonics; a
per-bin strength map blends the filtered spectrum with the original, a mel
sub-band gain denoises both, and overlap-add resynthesis returns audio.
Gain and strength come from one source, a clean reference for the oracles
or both maps given (scalars, arrays, files), so the pipeline runs and is
testable without any trained model.
"""

from .audio import AudioBuffer, PIPELINE_RATE, read_wav, write_wav
from .comb import (
    CombFilterBank,
    MacCounter,
    build_bank,
    candidate_rows,
    filter_all_candidates,
    filter_inference,
    frequency_response,
    select_candidate,
    verify_routes,
)
from .enhance import (
    BlendConfig,
    EnhanceResult,
    blend,
    enhance,
    oracle_gain,
    oracle_strength,
)
from .errors import (
    AudioFormatError,
    DataError,
    MatrixFormatError,
    ShapeError,
    VerificationError,
)
from .estimator import EstimatorConfig, estimate_track, viterbi_track
from .framing import (
    FrameConfig,
    OverlapAdd,
    chunk_signal,
    frame_signal,
    istft_overlap_add,
    sqrt_hann,
    stft,
)
from .grid import (
    F0Grid,
    F0Track,
    bce_loss,
    gaussian_label,
    nearest_index,
    one_hot,
    read_track,
    track_from_indices,
    write_track,
)
from .matrixio import read_matrix, write_matrix
from .mel import MelFilterbank, build_mel_filterbank, hz_to_mel, mel_energies, mel_to_hz
from .metrics import LossConfig, asym_mse, compress, sdr, se_loss, snr, total_loss

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "AudioFormatError",
    "BlendConfig",
    "CombFilterBank",
    "DataError",
    "EnhanceResult",
    "EstimatorConfig",
    "F0Grid",
    "F0Track",
    "FrameConfig",
    "LossConfig",
    "MacCounter",
    "MatrixFormatError",
    "MelFilterbank",
    "OverlapAdd",
    "PIPELINE_RATE",
    "ShapeError",
    "VerificationError",
    "asym_mse",
    "bce_loss",
    "blend",
    "build_bank",
    "build_mel_filterbank",
    "candidate_rows",
    "chunk_signal",
    "compress",
    "enhance",
    "estimate_track",
    "filter_all_candidates",
    "filter_inference",
    "frame_signal",
    "frequency_response",
    "gaussian_label",
    "hz_to_mel",
    "istft_overlap_add",
    "mel_energies",
    "mel_to_hz",
    "nearest_index",
    "one_hot",
    "oracle_gain",
    "oracle_strength",
    "read_matrix",
    "read_track",
    "read_wav",
    "sdr",
    "se_loss",
    "select_candidate",
    "snr",
    "sqrt_hann",
    "stft",
    "total_loss",
    "track_from_indices",
    "verify_routes",
    "viterbi_track",
    "write_matrix",
    "write_track",
    "write_wav",
]
