"""gatecnn: CNN inference over encrypted bits via a single NAND gate,
with a worst-case numerical error bound and its empirical validation."""

from .errors import (
    BackendMismatchError,
    FormatMismatchError,
    GatecnnError,
    ModelFormatError,
    NoiseExhaustionError,
    OverflowDiagnostic,
    ParameterError,
    RangeError,
    ShapeError,
    VerificationFailure,
    WidthMismatchError,
)
from .fhe_core import (
    Ciphertext,
    ClearBackend,
    EncBit,
    FheParams,
    GateStats,
    GswBackend,
    SecretKey,
    decrypt_bit,
    encrypt_bit,
    keygen,
    nand,
    preset_params,
    rated_nand_depth,
    refresh,
)
from .fixedpoint import FixedPointCipher, FixedPointFormat
from .gates import BitVector, CompareResult
from .cnn import EncImage, EncScores, LayerSpec, NetworkSpec

__version__ = "0.1.0"
