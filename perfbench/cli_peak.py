"""Run the tractvar CLI as `python3 -m tractvar.cli` would, and record
this process's peak resident memory.

    python3 perfbench/cli_peak.py PEAK_FILE run --manifest ... --out ...

At exit the peak (VmHWM from /proc/self/status, in kB) is written to
PEAK_FILE.  `ru_maxrss` from `wait4` is not used for this: the kernel
carries the parent's high-water mark across fork and exec into it, so it
would report the benchmark's own memory whenever that is the larger.
"""

import atexit
import runpy
import sys


def _write_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                kb = line.split()[1]
                break
    with open(path, "w", encoding="ascii") as fh:
        fh.write(kb + "\n")


if __name__ == "__main__":
    peak_file = sys.argv[1]
    sys.argv = ["tractvar", *sys.argv[2:]]
    atexit.register(_write_peak, peak_file)
    runpy.run_module("tractvar.cli", run_name="__main__", alter_sys=True)
