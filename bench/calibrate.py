"""Fixed reference work that tracks the machine's current speed.

The benchmark runs this in a fresh interpreter next to each repetition of the
command sequence. It does the same kinds of work as the CLI commands
(interpreter start, the numpy import, JSON lines parsed into dicts that stay
alive, passes over those objects in an order unrelated to their allocation,
random draws into a large array whose pages are touched for the first time,
numpy passes over it) but uses no darkscope code, so no change to the
repository can change its time.
"""

import json
import math
import random

import numpy as np

LINES = 20_000
ROWS, COLUMNS = 40, 100_000  # 32 MB of float64

rng = random.Random(20171017)
lines = [
    json.dumps({"kind": "lit", "ts": i, "price": 100.0 + rng.random(), "size": 1e4 * rng.random()})
    for i in range(LINES)
]
records = [json.loads(line) for line in lines]
records.sort(key=lambda obj: obj["size"])
total = math.fsum(math.log(obj["price"]) * obj["size"] for obj in records)
walks = np.cumsum(np.random.default_rng(20171017).standard_normal((ROWS, COLUMNS)), axis=1)
print(repr(total), repr(float(np.median(walks, axis=0)[-1])))
