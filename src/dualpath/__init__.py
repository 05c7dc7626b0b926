"""Dual-pathway multimodal fusion with conflict-aware gating.

A desk-scale, gradient-verified implementation: three synthetic input
modalities are decoupled into shared and private subspaces, fused through
an intuition pathway (cross-modal consensus) and a reasoning pathway
(reliability-weighted private features), with a learned gate that shifts
weight toward reasoning when the modalities disagree.
"""

import ctypes
import platform

from dualpath.tensor import Tensor
from dualpath.rng import Rng

__all__ = ["Tensor", "Rng"]
__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _hold_heap_pages() -> bool:
    """Keep freed numpy temporaries in this process's heap on glibc.

    A large-batch eval forward frees 0.3-1 MB temporaries as it goes, and
    glibc hands them back to the kernel (munmap or trim) until its dynamic
    thresholds have grown, so the next forward faults every page in again.
    Fixing the mmap threshold at 32 MiB and the trim threshold at 64 MiB,
    where glibc's own dynamic rule stops on 64-bit, keeps those pages.
    Returns whether both settings took; on any other libc it does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success and 0 on a rejected value
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1)


_hold_heap_pages()
