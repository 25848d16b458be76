"""CLI launcher: ``python3 perfbench/cli_child.py REPORT TRACE ARGS...``.

Runs ``eteleport.cli.main(ARGS)`` as the installed ``eteleport`` entry
point does.  At exit it writes REPORT, a JSON object holding the
process's peak resident memory (VmHWM, which counts only this program's
own pages) and, with TRACE=1, the spans of the library calls it made.
"""

import json
import os
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from eteleport import cli

    spans = []
    if not trace:
        try:
            return cli.main(argv)
        finally:
            write_report(report_path, spans)
    import tracer

    recorder = tracer.Recorder()
    patches = tracer.install(recorder)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall(patches)
        write_report(report_path, recorder.spans)


def write_report(path: str, spans: list) -> None:
    with open(path, "w") as handle:
        json.dump({"peak_rss_kb": peak_rss_kb(), "spans": spans}, handle)


if __name__ == "__main__":
    sys.path.insert(0, os.path.abspath("src"))
    sys.exit(main())
