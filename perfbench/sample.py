"""One timed run of one workload, in a fresh process.

``run.py`` starts this once per sample so that no two samples share a
peak-RSS high-water mark or warm state.  It prints one JSON object on
its last stdout line:

- ``setup_s``: process start (``--spawned-at``, a ``time.monotonic``
  reading the parent took just before spawning) to the first simulated
  event: imports, input generation, topology, monitor, control plane,
  archive;
- ``run_s``: first simulated event to the workload's result (the
  correctness checks run after this window);
- untraced, ``chunk_s``: the mean time of the host-speed reference
  chunk sampled through both windows (``hostspeed.py``), whose time is
  subtracted from ``setup_s`` and ``run_s``;
- ``peak_rss_mb``, the deterministic work ``counts``, the named checks
  and the sha256 ``digest`` of every archived document;
- with ``--trace 1``, the per-layer split of the same window.

Usage: python3 perfbench/sample.py --workload NAME --seed N --trace 0|1
       --spawned-at T --workdir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from hostspeed import HostSpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def archive_digest(stores) -> str:
    """sha256 over every archived document, store by store in
    construction order (same canonical form as the chaos harness)."""
    h = hashlib.sha256()
    for store in stores:
        for index in store.indices:
            for doc in store.search(index):
                h.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def run_sample(workload: str, seed: int, trace: bool, spawned_at: float,
               workdir: str, sampler=None) -> dict:
    sys.path.insert(0, SRC)
    import layers
    import workloads

    probe = layers.Probe()
    tracer = layers.Tracer() if trace else None
    probe.install(tracer)
    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(seed) if wl.inputs is not None else None
    result = wl.run(inputs, workdir)
    end = time.monotonic()
    if sampler is not None:
        sampler.stop()
    first = probe.first_event
    if first is None:
        raise RuntimeError(f"{workload} never started the simulator")
    window = dict(tracer.self_ns) if tracer is not None else None
    outcome = wl.judge(result, probe)

    counts = probe.counts()
    counts["validation.checks"] = len(outcome.checks)
    counts["validation.checks_failed"] = len(outcome.failed_checks)
    setup_s = first - spawned_at
    run_s = end - first
    if sampler is not None:
        setup_s -= sampler.time_in(spawned_at, first)
        run_s -= sampler.time_in(first, end)
    doc = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": counts,
        "failed_checks": outcome.failed_checks,
        "invariant_failures": outcome.invariant_failures,
        "bound_paths": probe.bound_reasons,
        "digest": archive_digest(probe.archives()),
    }
    if sampler is not None:
        doc["chunk_s"] = sampler.mean_chunk_s()
    if tracer is not None:
        split = layers.layer_metrics(tracer, window, counts, probe.ckpt_bytes)
        split["trace.run_s"] = run_s
        split["trace.unattributed_s"] = run_s - sum(window.values()) / 1e9
        doc["layers"] = split
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    # Traced samples report raw per-layer host times: the sampler's
    # interrupts would land inside whichever layer is running.
    sampler = None
    if not args.trace:
        sampler = HostSpeedSampler()
        sampler.start()
    doc = run_sample(args.workload, args.seed, bool(args.trace),
                     args.spawned_at, args.workdir, sampler)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
