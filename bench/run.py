"""shapguard benchmark: one workload, timed from outside through the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``
and writes only under ``.bench_work/``. Set-up runs several times in fresh
processes and reports the median. The timed process then calls
``shapguard.cli.main(argv)`` in a closed loop (one client; each call starts
when the previous one returns) until the calls have taken ``--seconds``
and at least three calls were made. It checks every call's outputs and
prints each metric by name and unit. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

With ``--trace 1``, after one warm-up call, each input is called once
untraced and once with the ``layertrace`` wrappers installed, in
alternation; the ratio of the two median call times is
``trace_overhead_share``. The untraced mode never imports the wrappers.
"""

import os

# Pin BLAS to one thread before numpy is imported, here and in the set-up
# processes (which inherit the environment). Measured reason: with the
# default two-thread pool on a two-core machine the first training in a
# fresh process sometimes stalls by about one second, which made single
# run-all timings bimodal; the matrices here are too small to gain from
# threads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_TIMEOUT_S = 150
# call_s_best is the fastest of at least this many calls, so that one slow
# phase of the machine does not set it.
MIN_CALLS = 3


def log(message: str) -> None:
    print(f"bench: {message}", flush=True)


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten calls beyond it, and its label.

    With 20 calls or fewer that percentile is not above the median, so the
    slowest call is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], f"max of {n} calls"
    k = n - 11
    return ordered[k], f"p{100 * (k + 1) / n:.0f} of {n} calls (10 beyond it)"


def run_setup(workload: str, seed: int, repeats: int) -> tuple[list[float], list[dict]]:
    """Prepare the workload ``repeats`` times, each in a fresh process."""
    seconds, results = [], []
    cmd = [sys.executable, str(Path("bench") / "workloads.py"), workload, str(seed)]
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False
        )
        seconds.append(time.perf_counter() - started)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"bench: set-up of {workload} exited {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return seconds, results


def manifest_rows(ws: Path) -> int:
    with open(ws / "manifest.json", encoding="utf-8") as fh:
        return int(json.load(fh)["stages"]["ingest"]["summary"]["rows"])


class Loop:
    """Closed-loop calls of one workload plus their per-call checks."""

    def __init__(self, cli, workload: str, seed: int, prepared: dict):
        self.cli, self.workload, self.seed, self.prepared = cli, workload, seed, prepared
        self.ws = workloads.workdir(workload) / "ws"
        self.calls: list[dict] = []
        self.digests: dict[int, str] = {}   # window (or 0 for run-all) -> digest

    def call(self, index: int, tracer=None) -> dict:
        """Make the workload's ``index``-th call, traced if a tracer is given."""
        argv = workloads.argv_for(self.workload, self.seed, index, self.prepared)
        if tracer is not None:
            tracer.run_id = len(self.calls)
            tracer.install()
        started = time.perf_counter()
        try:
            code = self.cli.main(argv)
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
        call = {"wall": wall, "code": code, "index": index}
        self._check(call)
        self.calls.append(call)
        return call

    def run(self, seconds: float) -> list[dict]:
        """Call until ``seconds`` of call time have passed and MIN_CALLS
        calls were made."""
        done: list[dict] = []
        while len(done) < MIN_CALLS or sum(c["wall"] for c in done) < seconds:
            done.append(self.call(len(done)))
        return done

    def run_pairs(self, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
        """One warm-up call, then pairs of one untraced and one traced call
        of the same input until ``seconds`` of paired call time passed.
        Which call of a pair runs first alternates from pair to pair."""
        self.call(0)
        untraced: list[dict] = []
        traced: list[dict] = []
        while not traced or sum(c["wall"] for c in untraced + traced) < seconds:
            index = len(traced)
            if index % 2 == 0:
                untraced.append(self.call(index))
                traced.append(self.call(index, tracer))
            else:
                traced.append(self.call(index, tracer))
                untraced.append(self.call(index))
        return untraced, traced

    def _check(self, call: dict) -> None:
        failures = [] if call["code"] == 0 else [f"exit code {call['code']}"]
        call["rows"] = 0
        if not failures:
            key = 0
            if self.workload == "detect-windows":
                windows = self.prepared["windows"]
                key = call["index"] % len(windows)
                truth = windows[key]["truth"]
                found, flags = checks.check_detections(
                    self.ws / "reports" / "detections.json", len(truth),
                    tau=self.prepared["tau"],
                    expected_scores=windows[key]["expected_scores"],
                )
                failures += found
                call["rows"] = len(truth)
                call["flags"] = list(zip(truth, flags))
            else:
                call["rows"] = manifest_rows(self.ws)
            digest = checks.artifact_digest(self.ws)
            if self.digests.setdefault(key, digest) != digest:
                failures.append("artifact digest differs from an earlier identical call")
            call["digest"] = digest
        call["failures"] = failures


def window_quality(calls: list[dict]) -> dict[str, float]:
    """Flagged shares of the windows' clean and adversarial rows."""
    flagged = {origin: [0, 0] for origin in ("clean", *checks.ATTACKS)}
    for call in calls:
        for origin, flag in call.get("flags", ()):
            flagged[origin][0] += flag
            flagged[origin][1] += 1
    clean_flagged, clean_rows = flagged["clean"]
    adv_flagged = sum(flagged[k][0] for k in checks.ATTACKS)
    adv_rows = sum(flagged[k][1] for k in checks.ATTACKS)
    quality = {}
    for kind in checks.ATTACKS:
        hits, rows = flagged[kind]
        correct = (clean_rows - clean_flagged) + hits
        quality[f"{kind}_accuracy"] = correct / (clean_rows + rows) if clean_rows + rows else 0.0
    quality["detect_fpr"] = clean_flagged / clean_rows if clean_rows else 0.0
    quality["detect_recall"] = adv_flagged / adv_rows if adv_rows else 0.0
    return quality


END_TO_END_UNITS = {"setup_s": "s", "call_s_best": "s", "peak_rss_mb": "MiB"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(workloads.ROOT)
    cli = workloads.load_program()
    log(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    log("BLAS threads pinned: " + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()))

    before, after = workloads.SETUP_REPEATS[args.workload]
    setup_s, setups = run_setup(args.workload, args.seed, before)
    prepared = setups[0]
    for item in prepared["inputs"]:
        log(f"input {item['path']} rows={item['rows']} nonfinite={item['nonfinite_rows']} "
            f"sha256={item['sha256']}")
    if "workspace_digest" in prepared:
        log(f"set-up workspace artifact digest sha256:{prepared['workspace_digest']}")
    if "windows" in prepared:
        checked = sum(v is not None for w in prepared["windows"] for v in w["expected_scores"])
        log(f"{checked} window rows have a batch-path reference score for their detect score")

    loop = Loop(cli, args.workload, args.seed, prepared)
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        untraced, traced = loop.run_pairs(args.seconds, tracer)
    else:
        untraced = loop.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Repeated calls left byte-identical artifacts (checked per call), so the
    # artifacts of the last call stand for all of them. rows_dropped counts
    # the generated CSV's rows that ingest dropped (its inf/NaN rows).
    rows_dropped = 0
    if args.workload == "detect-windows":
        max_gap = prepared["max_completeness_gap"]
        quality = window_quality(loop.calls)
    else:
        try:
            final, max_gap = checks.check_fingerprints(loop.ws)
            quality = checks.report_quality(loop.ws)
            if prepared["inputs"]:
                rows_dropped = prepared["inputs"][0]["rows"] - manifest_rows(loop.ws)
        except (OSError, KeyError, ValueError) as exc:
            final, max_gap, quality = [f"final artifacts unreadable: {exc!r}"], 0.0, {}
        for call in loop.calls:
            call["failures"] += final

    # The rest of the set-ups, after the timed calls and their checks (each
    # set-up rebuilds the work directory).
    more_s, more = run_setup(args.workload, args.seed, after)
    setup_s += more_s
    setups += more
    log("set-up seconds: " + " ".join(f"{s:.3f}" for s in setup_s))
    setup_failures = [] if all(r == prepared for r in setups) else [
        "set-up is not deterministic: repeated set-ups described different inputs"
    ]

    failed = [c for c in loop.calls if c["failures"]]
    for call in failed:
        log(f"call {call['index']} failed: " + "; ".join(call["failures"][:5]))
    combined = hashlib.sha256(
        "\n".join(loop.digests[k] for k in sorted(loop.digests)).encode()
    ).hexdigest()
    log(f"artifact digest sha256:{combined} over {len(loop.digests)} distinct input(s)")
    log(f"max completeness gap {max_gap:.3e}")
    log(f"calls={len(loop.calls)} failed={len(failed)} "
        f"failed_share={len(failed) / len(loop.calls):.4f}")
    for name, value in quality.items():
        log(f"quality {name} = {value:.4f} fraction")

    walls = [c["wall"] for c in untraced]
    tail_value, tail_label = tail(walls)
    rows = untraced[0]["rows"]
    log("call seconds in order: " + " ".join(f"{w:.4f}" for w in walls))
    log(f"call seconds: best {min(walls):.4f}, p50 {statistics.median(walls):.4f}, "
        f"tail {tail_value:.4f} ({tail_label}); {rows} rows per call, "
        f"{rows / statistics.median(walls):.1f} rows/s at p50")
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "call_s_best": min(walls),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        traced_walls = [c["wall"] for c in traced]
        tracer.write(workloads.workdir(args.workload) / "spans.json")
        accounted = sum(layertrace.self_times(tracer.spans)) / sum(traced_walls)
        log(f"traced calls={len(traced)}; span self times account for "
            f"{100 * accounted:.2f}% of traced wall time, of which tracer hooks "
            f"{100 * tracer.hook_seconds() / sum(traced_walls):.2f}%")
        metrics = tracer.metrics(len(traced))
        for layer in layertrace.LAYERS:
            log(f"self time {layer}: {metrics[layer + '.self_s']:.4f} s per call")
        metrics["trace_overhead_share"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        metrics["data.rows_dropped"] = rows_dropped
        metrics["attribution.max_completeness_gap"] = max_gap
        for name in checks.QUALITY:
            metrics[f"evaluation.{name}"] = quality.get(name, 0.0)
        units = layertrace.UNITS

    for name, value in metrics.items():
        log(f"metric {name} = {value:.6g} {units[name]}")
    correct = not failed and not setup_failures
    for message in setup_failures:
        log(message)
    print(json.dumps({
        "correct": correct,
        "attempted": len(loop.calls),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
