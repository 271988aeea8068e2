"""Run one command with one BLAS thread and check its peak resident set size.

    python3 .github/peak_rss.py LIMIT_MB TIMEOUT_S argv...

Fails unless the command exits 0 within TIMEOUT_S seconds with a peak RSS of
at most LIMIT_MB.  One BLAS thread: OpenBLAS keeps packing buffers per
thread, so the peak would otherwise grow with the runner's cores.  Run one
checker process per job: RUSAGE_CHILDREN keeps the largest peak of all the
children a process waited for.
"""

import os
import resource
import subprocess
import sys


def main(argv: list) -> int:
    limit_mb, timeout_s, command = float(argv[0]), float(argv[1]), argv[2:]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    code = subprocess.run(command, env=env, timeout=timeout_s).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(command)}: exit {code}, peak RSS {peak_mb:.0f} MB (limit {limit_mb:g} MB)")
    return 0 if code == 0 and peak_mb <= limit_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
