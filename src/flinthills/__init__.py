"""Arbitrary-precision toolkit: continued fractions of pi, empirical
irrationality measures, Dirichlet/Fejer summation kernels with the 2-adic
shift sequence, reciprocal-sine and gamma-reflection tables, and partial sums
of the Flint Hills series family.

``import flinthills`` runs none of its layers and imports no mpmath.  Each
layer module (``errors``, ``mpreal``, ``contfrac``, ``diophantine``,
``kernels``, ``series``, ``stats``, ``cache``, ``output``) is registered in
``sys.modules`` and as an attribute of the package without being run; its
code runs at its first attribute access, once, under a package lock, so
threads may first-touch layers at the same time.  The public names below
resolve on first use (PEP 562) and are then cached here.
"""

import sys
import threading
import types
from importlib.util import find_spec, module_from_spec

__version__ = "0.1.0"

# layer module -> the public names the package exports from it
_EXPORTS = {
    "contfrac": ("Convergent", "PartialQuotients", "VerificationReport", "constant_convergents", "constant_value",
                 "convergents", "digits_for_terms", "expand", "expand_constant", "reconstruct", "verify_fixture"),
    "diophantine": ("AuditReport", "MeasurePoint", "approximation_error", "empirical_measure", "inequality_audit",
                    "load_table_annotations", "measure_table"),
    "errors": ("CacheError", "CrossCheckError", "DomainError", "FixtureFormatError", "FlintHillsError",
               "InsufficientTermsError", "PrecisionError", "PrecisionInsufficientError", "SingularArgumentError",
               "UndefinedMeasureError"),
    "kernels": ("SUM_FORM_MAX_ORDER", "KernelEval", "ShiftSequenceTerm", "cf_technique_check", "dirichlet_kernel",
                "fejer_kernel", "recip_sin_bound_integer_technique", "recip_sin_bound_real_technique",
                "shift_term", "v2"),
    "mpreal": ("RealContext", "cos_int", "make_context", "pi_const", "sin_int"),
    "series": ("ConvergenceDiagnostics", "PartialSumResult", "SeriesSpec", "convergence_report",
               "gamma_reflection_table", "partial_sum", "recip_sin_table"),
    "stats": ("QuotientStats", "gauss_kuzmin_p", "gauss_kuzmin_partial_sum", "quotient_histogram",
              "running_geometric_mean"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = [*_LAYER_OF, "__version__"]

_LOCK = threading.RLock()
_running = set()  # layers whose code the thread holding _LOCK is running


class _Layer(types.ModuleType):
    """A layer module registered unrun: its code runs at its first attribute access.

    Not importlib.util.LazyLoader: before Python 3.12 that switches the
    module's class before running its code, so a second thread can see an
    empty module.  Here the class switches only after the code has run, and
    the lock makes every other thread wait for it.
    """

    def __getattribute__(self, attr):
        with _LOCK:
            # the loading thread's own accesses (the import machinery's among
            # them) read the attributes as they stand
            if type(self) is _Layer and self not in _running:
                _running.add(self)
                try:
                    types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                finally:
                    _running.discard(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


# cli is not registered: ``python -m flinthills.cli`` warns if it is already
# in sys.modules.  The bench tracer reads every layer from sys.modules.
for _name in ("errors", "mpreal", "contfrac", "diophantine", "kernels", "series", "stats", "cache", "output"):
    _spec = find_spec(f"{__name__}.{_name}")
    _module = module_from_spec(_spec)
    _module.__class__ = _Layer
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
