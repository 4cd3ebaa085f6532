"""Machine and library facts recorded with every benchmark result."""

import ctypes
import glob
import os
import platform

# glibc sysconf names; Python's os.sysconf does not expose the cache sizes.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc():
    return len(os.sched_getaffinity(0))


def _cache_sizes():
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        return libc.sysconf(_SC_LEVEL2_CACHE_SIZE), libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None, None


def blas_threads():
    """(thread count, library file) of the OpenBLAS numpy loaded, or (None, None)."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn()), os.path.basename(path)
    return None, None


def git_sha(root):
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, blas_file = blas_threads()
    l2, l3 = _cache_sizes()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_file": blas_file,
        "blas_threads": threads,
        "l2_bytes": l2,
        "l3_bytes": l3,
        "git_sha": git_sha(root),
    }
