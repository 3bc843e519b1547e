"""One cold run of ``lorentz_synth.cli.run``, in its own interpreter.

Started by ``run.py`` as ``python3 child.py JOB.json``. The job names the
package's source directory, the experiment config and where to write the
result. The child stamps ``time.monotonic()`` (system-wide on Linux, so the
parent can subtract its own spawn stamp) once the config is resolved, then
times ``cli.run`` in wall and process CPU seconds and reads its own peak RSS
from ``getrusage``; the host-speed kernels of ``calibrate.py`` run just before
and just after ``cli.run``. With ``setup_only`` it stops after resolving the
config; with ``trace`` it wraps the layers first and dumps the spans
afterwards.
"""

import json
import os
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import lorentz_synth
    from lorentz_synth import cli

    if not os.path.realpath(lorentz_synth.__file__).startswith(src + os.sep):
        print(f"lorentz_synth imported from {lorentz_synth.__file__}, not {src}",
              file=sys.stderr)
        return 2
    config = cli.ExperimentConfig.from_mapping(job["config"])
    config.resolved()
    result = {"ready": time.monotonic()}
    if not job["setup_only"]:
        import calibrate
        before = calibrate.probe()
        tracer = None
        if job["trace"]:
            from tracer import Tracer
            tracer = Tracer(os.path.basename(os.path.dirname(job_path)))
            tracer.install()
        wall, cpu = time.perf_counter(), time.process_time()
        record = cli.run(config)
        result["run_s"] = time.perf_counter() - wall
        result["cpu_s"] = time.process_time() - cpu
        result["passed"] = record.passed
        after = calibrate.probe()
        result["host_s"] = calibrate.host_seconds(before, after, 0)
        result["host_cpu_s"] = calibrate.host_seconds(before, after, 1)
        if tracer is not None:
            tracer.dump(job["spans"])
    import numpy
    import scipy
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
