"""Start the ``warlock`` CLI for the benchmark, optionally traced.

    python3 perfbench/launcher.py --report exit.json -- recommend --json --dataset apb1
    python3 perfbench/launcher.py --report exit.json --trace -- serve --port 0
    python3 perfbench/launcher.py --probe-import

Every ``cli-cold`` operation and the ``whatif-http`` server start here.  When
``repro.cli.main`` returns (the server returns after SIGINT), the launcher
writes its exit report to the ``--report`` file: this process's own peak
resident memory, which a parent cannot read once the process has ended.
With ``--trace`` the layer wrappers of :mod:`tracer` are installed before
``repro.cli.main`` runs, and the report also holds the spans.  Traced and
untraced processes thus differ only by the wrappers.  ``--probe-import``
times ``import repro`` in this fresh interpreter and prints it with the
number of modules loaded.
"""

import sys
import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import os  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv) -> int:
    probe = argv[:1] == ["--probe-import"]
    report = None
    if argv[:1] == ["--report"]:
        report, argv = argv[1], argv[2:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import_start = _now()
    import repro  # noqa: F401

    import_end = _now()
    modules_loaded = len(sys.modules)
    if probe:
        import json

        print(json.dumps({"import_repro_s": import_end - import_start, "modules_loaded": modules_loaded}))
        return 0
    import repro.cli

    if not trace:
        try:
            return repro.cli.main(argv)
        finally:
            if report is not None:
                with open(report, "w") as handle:
                    handle.write('{"peak_rss_kb": %d}' % _peak_rss_kb())
    from tracer import Recorder, install

    recorder = Recorder()
    install(recorder)
    recorder.record("import.repro", import_start, import_end)
    try:
        return recorder.call("cli.main", repro.cli.main, (argv,), {})
    finally:
        recorder.dump(
            report,
            started=STARTED,
            peak_rss_kb=_peak_rss_kb(),
            import_repro_s=import_end - import_start,
            modules_loaded=modules_loaded,
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
