"""Starts the benchmark's children one at a time and reports their rusage.

run.py starts this process once, while run.py is still small, and has every
job child spawned from here.  On Linux a process's peak RSS survives exec,
so a child's ``ru_maxrss`` from ``os.wait4`` is at least the resident size
of the process that spawned it; run.py grows as it collects results, this
process does not.

Protocol: run.py writes one tab-separated argv per line on stdin.  The
child's standard output and error are this process's standard output.  A
line ``\\0pid <pid>`` comes before the child's output and a line
``\\0rusage <exit code> <user s> <system s> <max RSS KiB>`` after it.
"""

import os
import sys


def main() -> None:
    for line in sys.stdin:
        argv = line.rstrip("\n").split("\t")
        pid = os.posix_spawn(argv[0], argv, os.environ)
        sys.stdout.write(f"\0pid {pid}\n")
        sys.stdout.flush()
        _, status, usage = os.wait4(pid, 0)
        sys.stdout.write(f"\0rusage {os.waitstatus_to_exitcode(status)} {usage.ru_utime} "
                         f"{usage.ru_stime} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
