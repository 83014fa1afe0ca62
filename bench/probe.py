"""One cold start: a fresh interpreter makes the workload's inputs ready.

Usage: python3 bench/probe.py CHANNEL.json [CHANNEL.json ...]

Times ``import cqcovert``, ``channel_io.load_channel_data`` on every file,
then ``validate``, the channel constructor and ``sanitize`` (reported
together as ``sanitize_s``).  Then times bench/yardstick.py, and prints all
times as one JSON line.  Exits 1 if a channel fails validation.
"""

import time

t_start = time.perf_counter()
import cqcovert  # noqa: E402
from cqcovert import channel_io  # noqa: E402

t_import = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

paths = sys.argv[1:]
data = [channel_io.load_channel_data(p) for p in paths]
t_load = time.perf_counter()
diagnostics = [cqcovert.validate(d["sigma"], d["rho"]) for d in data]
channels = [
    cqcovert.sanitize(cqcovert.CQWiretapChannel.from_matrices(d["sigma"], d["rho"]))[0]
    for d in data
]
t_ready = time.perf_counter()

# The yardstick runs in the same process, right after the set-up it scales
# (see bench/yardstick.py).  The first pass pays first-call costs and is not
# counted.
from yardstick import yardstick  # noqa: E402

yardstick()
yardstick_s = min(yardstick(), yardstick())

print(json.dumps({
    "ok": all(d.ok for d in diagnostics),
    "yardstick_s": yardstick_s,
    "import_s": t_import - t_start,
    "load_s": t_load - t_import,
    "sanitize_s": t_ready - t_load,
    "setup_s": t_ready - t_start,
}))
sys.exit(0 if all(d.ok for d in diagnostics) else 1)
