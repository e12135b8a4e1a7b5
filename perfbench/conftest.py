"""Test set-up for the benchmark's own tests: import ``repro`` from the
checkout's ``src/`` and keep the cert store off."""

import os
import sys

os.environ["REPRO_CACHE_DIR"] = "off"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
