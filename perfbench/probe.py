"""Set-up probe: a fresh process that does the benchmark's set-up, then says so.

Usage: ``python3 perfbench/probe.py <workload>``.  Prints ``ready`` once smsec
is imported, the workload config parsed and its codebook built; the parent
times the interval from spawning this process to that line.
"""

import sys
from pathlib import Path

import workloads


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    smsec = workloads.import_smsec(root)
    workloads.load(smsec, root, sys.argv[1])
    print("ready", flush=True)


if __name__ == "__main__":
    main()
