"""flinthills benchmark: cold CLI processes on seeded workloads, checked by an oracle.

    python3 bench/run.py --workload {expand-deep,series-sums,tables-mix,all} \\
        --seed N --seconds S --trace {0,1} [--record FILE]

One client sends requests in a closed loop: the next request starts only after
the previous process exited, one at a time.  Each request is a cold
``python3 -m flinthills.cli ARGV`` process with a fresh working directory; the
requests of one round share a fresh ``FLINTHILLS_CACHE_DIR``.  Rounds repeat
until ``--seconds`` is used up (at least two rounds, and for tables-mix at
least 100 requests).  Timed samples are scaled for the machine's speed drift
(see REFERENCE_S).  After the timed loop, every request's exit code and stdout
are checked by ``oracle.py``.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` every request runs twice, untraced and then
under ``tracing.py``; the run reports per-layer self times and counters from
the traced spans, the tracing overhead, and checks that traced stdout is
byte-identical to untraced stdout.

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record FILE``
also writes the environment, every request's argv, exit code, latency, CPU,
RSS and stdout sha256, and the metrics, for ``compare.py``.  All scratch
files live under ``.bench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
# The machine's speed drifts by up to 40 % in spells of 5-20 s (other tenants
# of the host), and a drift slows a pure-Python loop and a cold process alike.
# Every timed sample is therefore scaled by REFERENCE_S / ref, where ref is
# the time of a fixed loop measured right before and right after the sample.
# On the 2-vCPU Intel Xeon VM the bounds were set on, a quiet spell gives ref
# of about REFERENCE_S, so the scaled times read as seconds on that machine.
REFERENCE_LOOPS = 150_000
REFERENCE_S = 0.010
SETUP_PER_ROUND = 3  # more set-up samples after each round, outside its timing
# cold processes are up to 40 % slower in the first seconds after the machine
# was idle or freed much memory; this much throwaway work precedes timing
WARMUP_S = 2.0

# tables-mix reports p90 latency, so its runs need ten samples beyond it
MIN_REQUESTS = {"tables-mix": 100}
# per-slot medians need more than one round
MIN_ROUNDS = 2

# what work_per_s counts on each workload, under the name the report prints
WORK_NAME = {
    "expand-deep": "quotients_per_s",
    "series-sums": "series_terms_per_s",
    "tables-mix": "requests_per_s",
}


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flinthills").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": has_gmpy2,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Spawns request processes and measures each with os.wait4."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env = env
        self.last_ref = None

    def spawn(self, argv: list[str], cache_dir: Path | None = None) -> dict:
        self.count += 1
        base = self.work / f"q{self.count}"
        cwd = base / "cwd"
        cwd.mkdir(parents=True)
        env = dict(self.env)
        env["FLINTHILLS_CACHE_DIR"] = str(cache_dir if cache_dir is not None else base / "cache")
        out_path, err_path = base / "stdout", base / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "exit": proc.returncode,
            "latency_s": latency,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "stdout_path": out_path,
            "stderr_path": err_path,
            "dir": base,
        }


def reference_s() -> float:
    """Time of a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def timed(runner: Runner, argv: list[str], cache_dir: Path | None = None) -> dict:
    """Runner.spawn between two reference loops; adds the sample's speed factor.

    Timed samples run back to back, so one sample's closing loop is the next
    one's opening loop.
    """
    before = runner.last_ref if runner.last_ref is not None else reference_s()
    res = runner.spawn(argv, cache_dir)
    runner.last_ref = reference_s()
    res["speed"] = REFERENCE_S / ((before + runner.last_ref) / 2)
    return res


def measure_setup(runner: Runner, samples: int) -> list[dict]:
    """Cold processes that only import flinthills."""
    return [timed(runner, ["-c", "import flinthills"]) for _ in range(samples)]


def warm_up(runner: Runner) -> None:
    end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < end:
        runner.spawn(["-c", "import flinthills"])


def run_workload(name: str, seed: int, seconds: float, trace: bool, runner: Runner) -> tuple[list, list]:
    """Closed loop of rounds until ``seconds`` are used; returns (records, round summaries)."""
    from workloads import WORKLOADS

    make_round = WORKLOADS[name]
    records, rounds = [], []
    start = time.perf_counter()
    r = 0
    while True:
        cache_dir = runner.work / f"cache-{r}"
        summary = {"traced_s": 0.0, "untraced_s": 0.0}
        for i, req in enumerate(make_round(seed, r)):
            rec = dict(req, round=r, id=f"{r}.{i}")
            res = timed(runner, ["-m", "flinthills.cli", *req["argv"]], cache_dir)
            rec.update(res)
            summary["untraced_s"] += res["latency_s"]
            if trace:
                span_file = runner.work / f"spans-{r}-{i}.json"
                traced = timed(runner, [str(HERE / "tracing.py"), str(span_file), rec["id"], "--", *req["argv"]],
                               cache_dir)
                rec["traced"] = dict(traced, span_file=span_file)
                summary["traced_s"] += traced["latency_s"]
            records.append(rec)
        summary["setup"] = measure_setup(runner, SETUP_PER_ROUND)
        rounds.append(summary)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r > seconds and r >= MIN_ROUNDS and len(records) >= MIN_REQUESTS.get(name, 0):
            return records, rounds


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_outputs(records: list, trace: bool) -> None:
    """Oracle verdict per request (outside the timed loop); frees each output after use."""
    from oracle import Failed, Mismatch, Oracle

    oracle = Oracle(ROOT)
    oracle.prepare(records)
    for rec in records:
        rec["stdout_sha256"] = _sha256(rec["stdout_path"])
        stdout = rec["stdout_path"].read_text(encoding="utf-8", errors="replace")
        stderr = rec["stderr_path"].read_text(encoding="utf-8", errors="replace")
        rec["outcome"], rec["reason"] = "ok", ""
        try:
            oracle.check(rec, rec["exit"], stdout, stderr)
        except Mismatch as exc:
            rec["outcome"], rec["reason"] = "mismatch", str(exc)
        except Failed as exc:
            rec["outcome"], rec["reason"] = "failed", str(exc)
        if trace:
            t = rec["traced"]
            t["stdout_sha256"] = _sha256(t["stdout_path"])
            rec["trace_identical"] = t["stdout_sha256"] == rec["stdout_sha256"] and t["exit"] == rec["exit"]
            shutil.rmtree(t["dir"])
        shutil.rmtree(rec["dir"])


def _work_units(rec: dict) -> int:
    """Work a successful request delivers: quotients for expand, summed terms for series."""
    argv = rec["argv"]
    if rec["outcome"] != "ok":
        return 0
    if argv[0] == "expand":
        return int(argv[argv.index("--terms") + 1])
    if argv[0] == "series":
        if "--points" in argv:
            return max(int(t) for t in argv[argv.index("--points") + 1].split(","))
        limit = int(argv[argv.index("--limit") + 1])
        if argv[1] == "lacunary":
            return 1 + sum(1 for p in _pi_numerators() if p <= limit)
        return limit
    return 0


@functools.cache
def _pi_numerators() -> list[int]:
    """The first 200 convergent numerators of pi (far past 10**60): the lacunary
    sum's record indices after 1."""
    from oracle import QuotientSource

    return [p for p, _ in QuotientSource().convergents("pi", 200)]


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _slot_medians(records: list, key) -> dict:
    """Per template slot, the median of key(record) over the run's rounds."""
    by_slot: dict[int, list] = {}
    for r in records:
        by_slot.setdefault(r["slot"], []).append(key(r))
    return {slot: statistics.median(v) for slot, v in by_slot.items()}


def end_to_end(name: str, records: list, setup: list[dict]) -> dict:
    """Every end-to-end metric of the run as (value, unit, samples).

    Times are scaled by each sample's speed factor (see REFERENCE_S); the
    ``raw.`` entries are the same figures unscaled.  A round's wall and CPU
    time are the sum over its template slots of each slot's median over the
    run's rounds.
    """
    rounds = len({r["round"] for r in records})
    m = {}
    for prefix, scale in (("", lambda r: r["speed"]), ("raw.", lambda r: 1.0)):
        lat = [r["latency_s"] * scale(r) for r in records]
        wall = _slot_medians(records, lambda r: r["latency_s"] * scale(r))
        m[prefix + "setup_s"] = (statistics.median(s["latency_s"] * scale(s) for s in setup), "s", len(setup))
        m[prefix + "wall_s"] = (sum(wall.values()), "s", rounds)
        m[prefix + "cpu_s"] = (sum(_slot_medians(records, lambda r: r["cpu_s"] * scale(r)).values()), "s", rounds)
        m[prefix + "req_p50_s"] = (statistics.median(lat), "s", len(lat))
        if len(lat) >= 100:
            m[prefix + "req_p90_s"] = (_quantile(lat, 0.9), "s", len(lat))
        if name == "tables-mix":
            work = (len(wall) / sum(wall.values()), len(records))
        else:
            kind = "expand" if name == "expand-deep" else "series"
            mine = [r for r in records if r["argv"][0] == kind]
            units = _slot_medians(mine, _work_units)
            work = (sum(units.values()) / sum(wall[slot] for slot in units), len(mine))
        m[prefix + WORK_NAME[name]] = (work[0], "1/s", work[1])
        if not prefix:
            m["work_per_s"] = m[WORK_NAME[name]]
            m["peak_rss_mb"] = (max(_slot_medians(records, lambda r: r["rss_mb"]).values()), "MB", len(records))
            failed = sum(r["outcome"] != "ok" for r in records)
            m["failed_ratio"] = (failed / len(records), "1", len(records))
    m["speed_factor"] = (statistics.median(r["speed"] for r in records), "1", len(records))
    return m


def layer_report(records: list, rounds: list) -> dict:
    """Per-layer metrics from the traced spans, per round."""
    from tracing import LAYERS, layer_metrics, per_layer

    spans = []
    for rec in records:
        path = rec["traced"]["span_file"]
        if path.exists():  # absent only if the child died before its exit handler
            spans.append(json.loads(path.read_text())["spans"])
            path.unlink()
    layers = per_layer(layer_metrics(spans), len(rounds))
    n = len(rounds)
    traced = sum(r["traced_s"] for r in rounds) / n
    untraced = sum(r["untraced_s"] for r in rounds) / n
    attributed = sum(layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    layers.update({
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.unattributed_s": traced - attributed,
        "trace.stdout_mismatches": sum(not r["trace_identical"] for r in records) / n,
        "trace.spans": sum(len(s) for s in spans) / n,
    })
    return layers


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def failure_classes(records: list) -> dict:
    out: dict[str, dict] = {}
    for rec in records:
        if rec["outcome"] != "ok":
            entry = out.setdefault(rec["cls"], {"count": 0, "reason": rec["reason"]})
            entry["count"] += 1
    return out


def run_one(name: str, args, runner: Runner, declared: dict) -> dict:
    warm_up(runner)
    setup = measure_setup(runner, SETUP_SAMPLES)
    records, rounds = run_workload(name, args.seed, args.seconds, bool(args.trace), runner)
    check_outputs(records, bool(args.trace))
    result = {
        "workload": name,
        "rounds": len(rounds),
        "attempted": len(records),
        "failed": sum(r["outcome"] != "ok" for r in records),
        "mismatched": sum(r["outcome"] == "mismatch" for r in records),
        "failures": failure_classes(records),
        "records": records,
    }
    if args.trace:
        layers = layer_report(records, rounds)
        result["report"] = {k: (v, declared["per_layer"].get(k, ""), len(rounds)) for k, v in sorted(layers.items())}
        result["metrics"] = {k: layers.get(k, 0.0) for k in declared["per_layer"]}
        result["trace_mismatches"] = sum(not r["trace_identical"] for r in records)
        result["unattributed_ok"] = layers["trace.unattributed_s"] >= 0
    else:
        e2e = end_to_end(name, records, setup + [t for r in rounds for t in r["setup"]])
        result["report"] = e2e
        result["metrics"] = {k: e2e[k][0] for k in declared["end_to_end"]}
    return result


def print_report(res: dict, args) -> None:
    print(f"== {res['workload']}  seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"rounds={res['rounds']} requests={res['attempted']} failed={res['failed']}")
    for k, (v, unit, n) in res["report"].items():
        print(f"  {k:40s} {v:>14.6g} {unit:6s} n={n}")
    for cls, f in sorted(res["failures"].items()):
        print(f"  failing class {cls}: {f['count']}x  {f['reason']}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, help="write environment, per-request records and metrics here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "flinthills" / "__init__.py").is_file():
        _fail(f"no flinthills sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail("BENCHMARK.json is missing")
    sys.set_int_max_str_digits(0)  # the oracle prints and parses integers of any length
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up .bench_work when stopped
    declared = declared_metrics()
    env = dict(environment(), seed=args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".bench_work"
    work = work_root / str(os.getpid())
    results = []
    try:
        for name in names:
            runner = Runner(work / name)
            results.append(run_one(name, args, runner, declared))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print("environment: " + json.dumps(env, sort_keys=True))
    for res in results:
        print_report(res, args)
    if args.record:
        Path(args.record).write_text(json.dumps({
            "environment": env,
            "args": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace},
            "workloads": [{k: v for k, v in res.items() if k != "records"} | {"requests": [
                {k: r.get(k) for k in ("id", "slot", "speed", "cls", "argv", "expect", "exit", "latency_s", "cpu_s", "rss_mb",
                                       "stdout_sha256", "outcome", "reason")} for r in res["records"]]}
                for res in results],
        }, indent=1, default=str) + "\n")
    correct = all(res["mismatched"] == 0 for res in results)
    if args.trace:
        correct = correct and all(res["trace_mismatches"] == 0 and res["unattributed_ok"] for res in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
        units = declared["per_layer" if args.trace else "end_to_end"]
    else:
        metrics = {f"{res['workload']}.{k}": v for res in results for k, v in res["metrics"].items()}
        units = {f"{res['workload']}.{k}": u for res in results
                 for k, u in declared["per_layer" if args.trace else "end_to_end"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
