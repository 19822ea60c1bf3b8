"""One lcengine call in a fresh process, then its peak resident set.

    python3 child.py PEAK_FILE cli ARGS...     # what the ``lcengine ARGS...`` command runs
    python3 child.py PEAK_FILE import RESULT   # one lcengine.import_results call

Writes to PEAK_FILE the process's peak resident set in MB, or for
``import`` its growth across the call.  It reads VmHWM, which a new program
image starts afresh; ru_maxrss is no use here, because a child inherits
its parent's peak across fork and exec.
"""

import sys


def vm_hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    peak_file, kind, *args = sys.argv[1:]
    before = 0.0
    try:
        if kind == "cli":
            from lcengine.cli import main as lcengine_main

            return lcengine_main(args)
        import lcengine

        before = vm_hwm_mb()
        lcengine.import_results(args[0])
        return 0
    finally:
        with open(peak_file, "w") as fh:
            fh.write(repr(vm_hwm_mb() - before))


if __name__ == "__main__":
    sys.exit(main())
