"""C backend: emits the hybrid OpenMP + MPI program (paper Section V)."""

from .emitter import CWriter
from .nestc import MACROS, emit_count_function, emit_scan_loops
from .program import emit_c_program, emit_c_tile_library
from .runtime_c import RUNTIME_LIBRARY

__all__ = [
    "CWriter",
    "MACROS",
    "emit_count_function",
    "emit_scan_loops",
    "emit_c_program",
    "emit_c_tile_library",
    "RUNTIME_LIBRARY",
]
