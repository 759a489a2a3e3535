"""One benchmark pass in a fresh interpreter: ``python -m perfbench.worker``.

Times set-up (``import repro`` plus ``repro.cli.build_parser()``), then,
unless ``--setup-only``, runs one pass of a workload, traced or not, and
prints one JSON object as its last line of output: set-up time, the
pass's wall time, CPU time and peak resident memory, its cells, failures
and digest, and with ``--trace 1`` the layer self times and counters.
"""

import argparse
import json
import os
import resource
import sys
import time


def machine() -> dict:
    """The load's host: cores, BLAS and its pinned threads, versions."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro
    import repro.cli

    repro.cli.build_parser()
    result = {"setup_s": time.perf_counter() - start, "repro": repro.__file__}
    if args.setup_only:
        result.update(machine=machine())
        print(json.dumps(result))
        return 0

    from pathlib import Path

    from perfbench import probes, spans, workloads

    tracer = patches = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.pass_id = args.pass_id
        patches = probes.install(tracer)
    workdir = Path(args.workdir)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    begin = time.perf_counter()
    if tracer is None:
        out = workloads.run_pass(args.workload, args.seed, workdir)
    else:
        with tracer.span(spans.ROOT):
            out = workloads.run_pass(args.workload, args.seed, workdir)
    wall = time.perf_counter() - begin
    end = resource.getrusage(resource.RUSAGE_SELF)
    if patches is not None:
        patches.restore()
    result.update(
        wall_s=wall,
        cpu_s=(end.ru_utime - usage.ru_utime) + (end.ru_stime - usage.ru_stime),
        peak_rss_mb=end.ru_maxrss / 1024.0,
        cells=out.cells,
        failures=out.failures,
        digest=out.digest,
        load=out.load,
    )
    if tracer is not None:
        result["trace"] = probes.summarize(tracer)
        result["spans"] = spans.dump(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
