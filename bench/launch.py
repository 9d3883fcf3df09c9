"""Run the bitextpipe CLI and record its peak resident memory.

Usage: python launch.py <peak-file> <bitextpipe arguments...>

Equivalent to ``python -m bitextpipe <arguments>``. The peak written to
``<peak-file>`` (KiB) is the larger of this process's own high-water mark
and that of the worker processes it waited for. ``ru_maxrss`` of the
process itself would not do: the kernel folds in the memory of the
parent that started it, as it was before ``exec``.
"""

import resource
import runpy
import sys


def own_peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    peak_file = sys.argv[1]
    sys.argv = ["bitextpipe", *sys.argv[2:]]
    code = 0
    try:
        runpy.run_module("bitextpipe", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        with open(peak_file, "w", encoding="ascii") as out:
            out.write(f"{max(own_peak_kib(), children)}\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
