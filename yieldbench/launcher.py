"""Run one ``repro`` command the way ``python -m repro`` does, for the benchmark.

Usage: ``python yieldbench/launcher.py TRACE_DIR|- repro-args...``

* Every process this one forks (pool workers, the resource tracker) is
  SIGKILLed by the kernel when its parent dies, so a runner killed outright
  leaves nothing behind (the runner arms the same signal for this process).
* Times ``import repro.cli``.
* With a trace directory, wraps the program's layer boundaries
  (:mod:`spans`) and writes the spans once, when the command returns.
"""

import os
import sys
import time

from procs import die_with_parent


def main(argv):
    trace_dir, args = argv[0], argv[1:]
    started = time.perf_counter()
    os.register_at_fork(after_in_child=die_with_parent)
    import repro.cli

    recorder = None
    if trace_dir != "-":
        import spans

        recorder = spans.Recorder(trace_dir)
        recorder.extra["import"] = [started, time.perf_counter()]
        spans.install(recorder)
        os.register_at_fork(after_in_child=recorder.after_fork)
    main_started = time.perf_counter()
    try:
        return repro.cli.main(args)
    finally:
        if recorder is not None:
            recorder.extra["main"] = [main_started, time.perf_counter()]
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
