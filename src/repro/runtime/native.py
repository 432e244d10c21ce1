"""The compiled tile body, loaded in process (``mode="native"``).

:func:`load_tile_library` builds
:func:`repro.generator.cgen.emit_c_tile_library` — the tile function
the paper's generated program runs — into a shared object and maps it
with ``ctypes``.  No OpenMP: libgomp's thread pool does not survive the
``fork()`` the process transport relies on.  ``-ffp-contract=off`` and
no ``-march`` keep the array kernels' IEEE operations, so the two
evaluators stay bit-identical.  A library lives as long as the process:
memoized by the sha256 of its source and build line, its files unlinked
once mapped, the mapping inherited by forked workers.
"""

from __future__ import annotations

import ctypes
import hashlib
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..generator.cgen import emit_c_tile_library
from ..generator.pipeline import GeneratedProgram

__all__ = ["NativeTileLibrary", "load_tile_library"]

CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")

#: Loaded libraries by sha256 of source + build line; never unloaded.
_LOADED: Dict[str, "NativeTileLibrary"] = {}


class NativeTileLibrary:
    """One mapped tile library and the lock around its parameter statics."""

    def __init__(self, cdll: ctypes.CDLL, program: GeneratedProgram):
        self._fn = cdll.repro_native_tiles
        self._fn.restype = ctypes.c_long
        self._fn.argtypes = [ctypes.c_long] + [ctypes.c_void_p] * 4
        self._lock = threading.Lock()
        self._ndim = len(program.spec.loop_vars)
        self._plane_bytes = 8 * program.layout.cells

    def run(
        self, tiles: np.ndarray, flat: np.ndarray, b0: int, params: np.ndarray
    ) -> Tuple[int, Optional[List[int]]]:
        """Evaluate *tiles* in place in planes ``b0:b0+len(tiles)`` of
        the flattened float64 batch *flat*; *params* holds the spec's
        parameters, in order, as int64.  Returns ``(cells, None)``, or
        ``(-1, [template id, index into tiles, *point])`` naming the
        first valid dependency that read NaN.
        """
        tiles = np.ascontiguousarray(tiles, dtype=np.int64)
        n = len(tiles)
        if (
            flat.dtype != np.float64
            or not flat.flags.c_contiguous
            or (b0 + n) * self._plane_bytes > flat.nbytes
        ):
            raise ValueError("native batch must be contiguous float64 planes")
        bad = np.zeros(2 + self._ndim, dtype=np.int64)
        with self._lock:
            cells = self._fn(
                n, tiles.ctypes.data,
                flat.ctypes.data + b0 * self._plane_bytes,
                params.ctypes.data, bad.ctypes.data,
            )
        return cells, (bad.tolist() if cells < 0 else None)


def load_tile_library(
    program: GeneratedProgram,
) -> Tuple[Optional[NativeTileLibrary], Optional[str]]:
    """``(library, None)``, or ``(None, why it cannot serve *program*)``."""
    spec = program.spec
    if not spec.center_code_c.strip():
        return None, f"problem {spec.name!r} has no center_code_c"
    if ctypes.sizeof(ctypes.c_long) != 8:
        return None, "sizeof(long) != 8 on this platform"
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return None, "no C compiler on PATH"
    source = emit_c_tile_library(program)
    key = hashlib.sha256("\0".join((source, cc, *CFLAGS)).encode()).hexdigest()
    if key not in _LOADED:
        with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
            so = Path(tmp, "tile.so")
            Path(tmp, "tile.c").write_text(source)
            build = subprocess.run(
                [cc, *CFLAGS, "tile.c", "-o", so.name, "-lm"],
                cwd=tmp, capture_output=True, text=True,
            )
            if build.returncode != 0:
                return None, f"{cc} failed: {build.stderr[-500:].strip()}"
            _LOADED[key] = NativeTileLibrary(ctypes.CDLL(str(so)), program)
    return _LOADED[key], None
