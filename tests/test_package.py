"""The package namespace: layers registered unrun, public names resolved on first use."""

import dataclasses
import pickle
import subprocess
import sys

import mpmath

import flinthills as fh

from test_cli import cold_env

# the names the package exported when every layer was imported eagerly
EXPORTED = (
    "Convergent", "PartialQuotients", "VerificationReport", "constant_convergents", "constant_value",
    "convergents", "digits_for_terms", "expand", "expand_constant", "reconstruct", "verify_fixture",
    "AuditReport", "MeasurePoint", "approximation_error", "empirical_measure", "inequality_audit",
    "load_table_annotations", "measure_table",
    "CacheError", "CrossCheckError", "DomainError", "FixtureFormatError", "FlintHillsError",
    "InsufficientTermsError", "PrecisionError", "PrecisionInsufficientError", "SingularArgumentError",
    "UndefinedMeasureError",
    "SUM_FORM_MAX_ORDER", "KernelEval", "ShiftSequenceTerm", "cf_technique_check", "dirichlet_kernel",
    "fejer_kernel", "recip_sin_bound_integer_technique", "recip_sin_bound_real_technique", "shift_term", "v2",
    "RealContext", "cos_int", "make_context", "pi_const", "sin_int",
    "ConvergenceDiagnostics", "PartialSumResult", "SeriesSpec", "convergence_report", "gamma_reflection_table",
    "partial_sum", "recip_sin_table",
    "QuotientStats", "gauss_kuzmin_p", "gauss_kuzmin_partial_sum", "quotient_histogram",
    "running_geometric_mean",
    "__version__",
)


def fresh(code: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=cold_env(), input=stdin, capture_output=True,
                          timeout=120)


def test_every_exported_name_resolves():
    """In a fresh process each name resolves both ways, to one object, and is listed."""
    code = (
        "import flinthills\n"
        f"exported = {EXPORTED!r}\n"
        "assert sorted(flinthills.__all__) == sorted(exported), flinthills.__all__\n"
        "assert len(set(flinthills.__all__)) == len(flinthills.__all__)\n"
        "listed = dir(flinthills)\n"
        "for name in exported:\n"
        "    ns = {}\n"
        "    exec(f'from flinthills import {name}', ns)\n"
        "    assert ns[name] is getattr(flinthills, name) and name in listed, name\n"
        "star = {}\n"
        "exec('from flinthills import *', star)\n"
        "assert sorted(set(star) - {'__builtins__'}) == sorted(exported)\n"
        "assert all(star[name] is getattr(flinthills, name) for name in exported)\n"
        "assert not hasattr(flinthills, 'no_such_name')\n"
        "print('ok')\n"
    )
    proc = fresh(code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"ok\n", b"")


def test_result_unpickles_in_a_fresh_process():
    """Unpickling runs the result's layer, and only the layers that one imports.

    A context's reals are of its own mpf type, which pickle cannot name, so the
    pickled record holds the same values as mpmath's global mpf.
    """
    result = fh.partial_sum(fh.SeriesSpec(family="flint", u=3, v=2, limit=40), fh.make_context(30), [7, 22])
    with mpmath.workdps(120):
        result = dataclasses.replace(
            result, value=mpmath.mpf(result.value),
            largest_term=(result.largest_term[0], mpmath.mpf(result.largest_term[1])),
            compensation_residual=mpmath.mpf(result.compensation_residual),
            checkpoints=tuple((c, mpmath.mpf(v)) for c, v in result.checkpoints))
        expected = repr(result)
    code = (
        "import pickle, sys, types\n"
        "import mpmath\n"
        "mpmath.mp.dps = 120\n"
        "print(repr(pickle.loads(sys.stdin.buffer.read())))\n"
        "print([m for m in ('series', 'kernels', 'diophantine', 'stats', 'cache')\n"
        "       if type(sys.modules[f'flinthills.{m}']) is types.ModuleType])\n"
    )
    proc = fresh(code, stdin=pickle.dumps(result))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().splitlines() == [expected, "['series']"]


_FIRST_TOUCH = """
import sys, threading

sys.setswitchinterval(1e-6)
import flinthills

targets = [
    ("flinthills.series", "SeriesSpec"), ("flinthills.kernels", "dirichlet_kernel"),
    ("flinthills.stats", "quotient_histogram"), ("flinthills.diophantine", "measure_table"),
    ("flinthills.cache", "load_quotients"), ("flinthills.contfrac", "expand"),
    ("flinthills", "partial_sum"), ("flinthills", "SeriesSpec"), ("flinthills", "dirichlet_kernel"),
    ("flinthills", "gauss_kuzmin_p"), ("flinthills", "inequality_audit"), ("flinthills", "make_context"),
] * 2
barrier = threading.Barrier(len(targets))
lock = threading.Lock()
seen, errors = {}, []


def touch(module, name):
    barrier.wait()
    try:
        value = getattr(sys.modules[module], name)
    except Exception as exc:
        with lock:
            errors.append(f"{module}.{name}: {exc!r}")
    else:
        with lock:
            seen.setdefault(f"{module}.{name}", []).append(value)


threads = [threading.Thread(target=touch, args=t) for t in targets]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print("alive", sum(t.is_alive() for t in threads))
print("errors", errors)
print("names", len(seen), all(v is vs[0] for vs in seen.values() for v in vs))
print("package", all(vs[0] is getattr(flinthills.series, "SeriesSpec") for k, vs in seen.items()
                     if k.endswith(".SeriesSpec")),
      flinthills.partial_sum is flinthills.series.partial_sum)
"""


def test_threads_first_touch_layers_at_once():
    """24 threads behind a barrier first-touch six layers and six package names: no error, one object each."""
    for _ in range(3):
        proc = fresh(_FIRST_TOUCH)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode().splitlines() == ["alive 0", "errors []", "names 12 True", "package True True"]
