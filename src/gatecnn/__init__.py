"""gatecnn: CNN inference over encrypted bits via one homomorphic product,
NAND, with free XOR and NOT, and a worst-case numerical error bound and
its empirical validation."""

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
    not_,
    preset_params,
    rated_nand_depth,
    refresh,
    xor_,
)
from .fixedpoint import FixedPointCipher, FixedPointFormat
from .gates import BitVector, CompareResult
from .cnn import EncImage, EncScores, LayerSpec, NetworkSpec

__version__ = "0.1.0"
