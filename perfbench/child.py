"""Run one kirwan CLI job in this fresh interpreter and print one JSON line.

    python child.py SRC_DIR TRACE JOB_ID -- ARGV...

Times `import kirwan.cli` (import_s) and `kirwan.cli.main(ARGV)` (job_s) with
the job's stdout captured in memory.  With TRACE = 1 the package's public
functions are wrapped first (see spans.py) and the spans go into the result.
Only `sys` and `time` are imported before the import is timed, so import_s
covers every module a real `kirwan` invocation loads.
"""

import sys
import time


def main() -> None:
    src, trace, job_id = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import kirwan.cli

    import_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import resource

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder(job_id)
        recorder.install()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t1 = time.perf_counter()
        try:
            code = kirwan.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit through here
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            import traceback

            code = None
            error = traceback.format_exc()
        job_s = time.perf_counter() - t1
    result = {
        "code": code,
        "import_s": import_s,
        "job_s": job_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
    }
    if recorder is not None:
        result["trace"] = recorder.dump()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
