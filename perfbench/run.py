"""smsec benchmark: closed-loop secrecy-rate study instances, timed or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

One caller in one process runs instances back to back (a closed loop), with
BLAS and OpenMP pinned to one thread.  A run has three parts:

1. Set-up.  ``SETUP_PROBES`` fresh processes each import smsec, parse the
   workload config and build its codebook; ``setup_s`` is the median time
   from spawning one to its ready line.
2. Quality panel.  ``PANEL_INSTANCES`` instances, one per SNR point, whose
   seeds derive from the config's own seed rather than from ``--seed``.  The
   rate metrics come from the panel, so every run and every commit compares
   the answers on identical inputs.  ``*.optimized`` is the mean over the
   workload's optimizing methods, since every workload must report every
   metric; each method's own value is printed.  The panel runs under
   tracemalloc, whose peak is ``peak_traced_mib``; ru_maxrss is only
   printed, because it differs by up to 16 MiB between runs of identical
   inputs.  The panel also warms the process up.
3. Measurement for ``--seconds``, on a pool of instances derived from
   ``--seed``.  The pool size comes from ``workloads.pool_size``, so it
   does not depend on the machine's speed: every run with the same
   arguments attempts the same inputs.  The loop runs the whole pool once,
   then cycles through it again until ``--seconds`` have passed; the
   repeats add timing samples but no new inputs.  With ``--trace 0`` the
   instances run untraced and give the end-to-end metrics.  With
   ``--trace 1`` each instance runs twice, untraced and with spans
   recorded; the spans give the per-layer metrics and the two times the
   tracing overhead.

Every instance's output rows go through ``workloads.check_rows``.
``attempted`` counts distinct inputs (panel instances, pool instances and,
traced, each pool instance once per side) and ``failed`` those of them that
failed on any of their runs.  An instance that raises counts as failed.  A broken invariant, a failed panel
instance or no completed instance makes the result incorrect and the exit
code 1.  The last line of stdout is the JSON result; the spans and
per-instance records go to ``.perfbench_out/`` in the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans
import workloads

THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
PANEL_INSTANCES = 4
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
OUT_DIR = ".perfbench_out"
QUALITY = ("sr_bits.none", "sr_bits.optimized", "asr_bits.none", "asr_bits.optimized")
ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Phase:
    """What one measurement phase hands back to :func:`main`."""

    measured: list[list["Instance"]]  # runs of each side; a side may repeat an input
    metrics: dict[str, tuple[float | None, str]]  # name -> (value, unit)
    counts: dict  # instance count and tail percentile, for the provenance record
    details: dict  # per-instance records and spans, for the output file
    notes: list[str]  # report lines printed before the result


@dataclass
class Instance:
    index: int
    snr_db: float
    seconds: float
    rows: list[dict]
    error: str | None  # traceback of an exception the instance raised
    problems: list[str]  # broken output invariants

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def run_instance(smsec, run_fn, config, n_signals, root_seed, token, index) -> Instance:
    cfg = workloads.instance_config(smsec, config, root_seed, token, index)
    snr_db = cfg.snr_db_grid[0]
    start = perf_counter()
    try:
        rows = run_fn(cfg)
    except Exception:  # one failed instance is counted and reported; the loop goes on
        return Instance(index, snr_db, perf_counter() - start, [], traceback.format_exc(), [])
    seconds = perf_counter() - start
    return Instance(index, snr_db, seconds, rows, None, workloads.check_rows(rows, cfg, n_signals))


def closed_loop(run_one, seconds: float, pool: int) -> tuple[list, float]:
    """Run pool instances 0, ..., pool - 1 back to back, then cycle through
    them again until ``seconds`` have passed."""
    done = []
    start = perf_counter()
    while len(done) < pool or perf_counter() - start < seconds:
        done.append(run_one(len(done) % pool))
    return done, perf_counter() - start


def distinct(instances: list[Instance]) -> tuple[int, int]:
    """(inputs, failed inputs) among runs that may repeat an input: an input
    failed if any of its runs did."""
    failed = {}
    for i in instances:
        failed[i.index] = failed.get(i.index, False) or i.failed
    return len(failed), sum(failed.values())


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh set-up process to its ready line."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves ``TAIL_BEYOND`` samples above it; the maximum if there are fewer."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def rate_means(panel: list[Instance], methods) -> dict[str, float | None]:
    """Mean MC secrecy rate and clamped ASR over the panel, per method and
    for the mean over the optimizing methods."""
    out = {}
    for key, column in (("sr_bits", "mean_sr_mc"), ("asr_bits", "mean_asr")):
        per_method = {
            m.value: _mean(
                [row[column] for i in panel for row in i.rows if row["method"] == m.value]
            )
            for m in methods
        }
        for method, value in per_method.items():
            out[f"{key}.{method}"] = value
        optimized = [v for m, v in per_method.items() if m != "none"]
        out[f"{key}.optimized"] = None if None in optimized else _mean(optimized)
    return out


def _mean(values: list[float]) -> float | None:
    """Mean, or None (JSON null) when every instance that would give a value failed."""
    return statistics.fmean(values) if values else None


def provenance(smsec, workload, seed, config) -> dict:
    # Imported here, not at the top, so that they load after the thread pin is set.
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
        "workload": workload,
        "seed": seed,
        "panel_seed": config.seed,
        "smsec_version": smsec.__version__,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_phase(run_one, seconds, pool, setup_times, panel, panel_peak, methods) -> Phase:
    """End-to-end metrics of an untraced closed loop."""
    timed, elapsed = closed_loop(run_one, seconds, pool)
    ok_times = [i.seconds for i in timed if not i.failed]
    value, pct, beyond = tail(ok_times) if ok_times else (None, None, 0)
    rates = rate_means([i for i in panel if not i.failed], methods)
    metrics = {
        "instances_per_s": (len(ok_times) / elapsed, "1/s"),
        "instance_p50_s": (statistics.median(ok_times) if ok_times else None, "s"),
        "instance_tail_s": (value, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_traced_mib": (panel_peak / 2**20, "MiB"),
        **{key: (rates[key], "bits") for key in QUALITY},
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = [
        f"peak_rss_mib: {rss} MiB (not gated: it differs by up to 16 MiB between runs "
        "of identical inputs on wide)",
        f"tail: p{pct} of {len(ok_times)} completed timed instances, {beyond} beyond it",
        "rates on the panel: " + ", ".join(f"{k}={v}" for k, v in rates.items()),
        "setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    counts = {
        "pool": pool,
        "instances": len(timed),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
    }
    details = {"timed": _instances(timed), "setup_s": setup_times, "rates": rates}
    return Phase([timed], metrics, counts, details, notes)


def traced_phase(smsec, config, runner, seed, seconds, pool) -> Phase:
    """Per-layer metrics: each instance runs untraced and traced, back to back.

    The two sides alternate which runs first, so neither gains from warm
    caches or loses to a drifting machine more than the other.
    """
    recorder = spans.Recorder()
    untraced_run = runner(smsec.run_sr_vs_snr, seed, "instance")
    traced_run = runner(recorder.wrap("harness.instance", smsec.run_sr_vs_snr), seed, "instance")

    def run_traced(index):
        recorder.instance = index
        spans.instrument(recorder, smsec)
        try:
            return traced_run(index)
        finally:
            recorder.close()

    def run_pair(index):
        if index % 2:
            traced = run_traced(index)
            return untraced_run(index), traced
        return untraced_run(index), run_traced(index)

    pairs, _ = closed_loop(run_pair, seconds, pool)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    t_untraced = sum(i.seconds for i in untraced)
    t_traced = sum(i.seconds for i in traced)
    overhead = 1.0 - t_untraced / t_traced

    def inputs(**iterations):
        return smsec.ComplexityInputs(
            n_tx=config.n_tx, n_b=config.n_b, n_e=config.n_e, M=config.M,
            n_samp=config.n_samp, **iterations,
        )

    values = spans.layer_metrics(recorder.spans, len(traced), smsec.flops, inputs, overhead)
    metrics = {name: (values[name], unit) for name, unit, _, _ in spans.LAYERS}
    self_total = sum(spans.self_times(recorder.spans))
    details = {
        "untraced": _instances(untraced),
        "traced": _instances(traced),
        "spans": [[s.name, s.parent, s.instance, s.start, s.end, s.attrs] for s in recorder.spans],
    }
    notes = [
        f"self-time closure: layer self times sum to {self_total:.4f} s; traced instances "
        f"took {t_traced:.4f} s, untraced {t_untraced:.4f} s (overhead_frac {overhead:.4f})",
        "flop model: " + spans.flop_model_finding(values),
        *(f"unmeasured {k}: {v}" for k, v in spans.UNMEASURED.items()),
        *(f"layer {name} -> {moves}" for name, _, _, moves in spans.LAYERS),
    ]
    counts = {"pool": pool, "instances": len(traced)}
    return Phase([untraced, traced], metrics, counts, details, notes)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PIN)
    try:
        smsec = workloads.import_smsec(ROOT)
        config, codebook = workloads.load(smsec, ROOT, args.workload)
        setup_times = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    except (ImportError, OSError, ValueError, RuntimeError) as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    def runner(run_fn, root_seed, token):
        return lambda index: run_instance(
            smsec, run_fn, config, codebook.n_signals, root_seed, token, index
        )

    pool = workloads.pool_size(args.workload, args.seconds, len(config.snr_db_grid))
    tracemalloc.start()
    panel = [runner(smsec.run_sr_vs_snr, config.seed, "panel")(i) for i in range(PANEL_INSTANCES)]
    panel_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if args.trace == 0:
        phase = timed_phase(
            runner(smsec.run_sr_vs_snr, args.seed, "instance"),
            args.seconds, pool, setup_times, panel, panel_peak, config.methods,
        )
    else:
        phase = traced_phase(smsec, config, runner, args.seed, args.seconds, pool)
    info = {**provenance(smsec, args.workload, args.seed, config), **phase.counts}

    metrics = phase.metrics
    measured = [i for side in phase.measured for i in side]
    instances = panel + measured
    failed = [i for i in instances if i.failed]
    counted = [distinct(panel), *(distinct(side) for side in phase.measured)]
    attempted = sum(n for n, _ in counted)
    n_failed = sum(f for _, f in counted)
    # Raised errors are counted as failures; a broken invariant, a failed panel
    # instance or no completed instance at all makes the result incorrect.
    correct = (
        not any(i.problems for i in instances)
        and not any(i.failed for i in panel)
        and any(not i.failed for i in measured)
    )
    for i in failed:
        print(
            f"perfbench: instance {i.index} at {i.snr_db} dB failed:",
            i.error or "",
            *i.problems,
            file=sys.stderr,
        )
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(f"failed_frac: {n_failed / attempted} ratio ({n_failed} of {attempted} inputs)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    for line in phase.notes:
        print(line)

    report = {"provenance": info, "panel": _instances(panel), **phase.details}
    report["metrics"] = {name: value for name, (value, _) in metrics.items()}
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report), encoding="utf-8")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _instances(instances: list[Instance]) -> list[dict]:
    return [
        {
            "index": i.index,
            "snr_db": i.snr_db,
            "seconds": i.seconds,
            "rows": i.rows,
            "error": i.error,
            "problems": i.problems,
        }
        for i in instances
    ]


if __name__ == "__main__":
    sys.exit(main())
