import os
import sys

# The benchmark's modules live one directory up and are imported by name,
# as run.py imports them.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
