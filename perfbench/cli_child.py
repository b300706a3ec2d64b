"""`python -m cwkms.cli ARGS` with a speed sampler running in the process.

    python3 perfbench/cli_child.py fixtures figB

The cli workload starts every cwkms subprocess through this file, so that
the machine's speed is sampled on the core that does the work.  The last
line of standard error is the sampler's report (see speed.py).
"""

import runpy
import sys

import speed

sampler = speed.SpeedSampler()
sampler.start()
try:
    runpy.run_module("cwkms.cli", run_name="__main__", alter_sys=True)
finally:
    sampler.stop()
    print(sampler.report(), file=sys.stderr)
